"""Acceptance suite: one criterion per test, one printed pass/fail line each.

Every criterion is exact (rational arithmetic, structural equality); the only
tolerance anywhere is the wall-clock budget in criterion 1.
"""

import io
import json
import random
import time

import pytest

from monofilt import cli
from monofilt.cli import ModelDocument, parse, serialize
from monofilt.kgroup import kclass_of_space, kclass_psi_from_kernel
from monofilt.monodromy import (JordanStringModel, NilpotentModel,
                                check_monodromy_axioms, graded_kernel,
                                monodromy_filtration, primitive_decomposition)
from monofilt.gluing import verify_prop_2_3, verify_sequence_2
from monofilt.qlinalg import QMatrix, inclusion
from monofilt.theorems import (DiskModel, generate_model, generate_scrambled,
                               random_nilpotent, verify_kclass_independence,
                               verify_local_invariant_cycles,
                               verify_weight_mechanics)
from monofilt.weights import WeightedSpace


_CAPSYS = None


@pytest.fixture(autouse=True)
def _line_printer(capsys):
    # lets record() write its one-line verdict past pytest's capture
    global _CAPSYS
    _CAPSYS = capsys
    yield
    _CAPSYS = None


def record(name, ok, detail=""):
    line = f"[{'PASS' if ok else 'FAIL'}] {name}"
    if detail:
        line += f" ({detail})"
    if _CAPSYS is not None:
        with _CAPSYS.disabled():
            print(line, flush=True)
    else:
        print(line, flush=True)
    assert ok, name


def block_diag(blocks):
    dim = sum(b.rows for b in blocks)
    rows = []
    offset = 0
    for b in blocks:
        for r in b.entries:
            rows.append([0] * offset + list(r) + [0] * (dim - offset - b.cols))
        offset += b.cols
    return QMatrix.from_rows(rows, cols=dim)


def jordan_block(m):
    return QMatrix.from_rows(
        [[1 if j == i + 1 else 0 for j in range(m)] for i in range(m)],
        cols=m)


def test_criterion_1_monodromy_axioms():
    """1000 seeded random nilpotents (dim <= 8), both axioms re-verified by
    the independent checker; total runtime under 60 s."""
    rng = random.Random(101)
    start = time.perf_counter()
    ok = True
    for _ in range(1000):
        mat = random_nilpotent(rng, max_dim=8)
        center = rng.randint(-3, 3)
        filt = monodromy_filtration(mat, center)
        if not check_monodromy_axioms(filt, mat, center).passed:
            ok = False
            break
    elapsed = time.perf_counter() - start
    record("criterion 1: monodromy filtration axioms, 1000 random operators",
           ok and elapsed < 60.0, f"{elapsed:.1f}s")


def test_criterion_2_jordan_oracle():
    """Graded dimensions of direct sums of Jordan blocks (sizes <= 6) match
    the per-block weight formula 2i - m - 1; exact, zero tolerance.  All
    multisets of up to three blocks are enumerated."""
    from itertools import combinations_with_replacement
    ok = True
    cases = 0
    for count in (1, 2, 3):
        for sizes in combinations_with_replacement(range(1, 7), count):
            mat = block_diag([jordan_block(m) for m in sizes])
            expected = {}
            for m in sizes:
                for i in range(1, m + 1):
                    w = 2 * i - m - 1
                    expected[w] = expected.get(w, 0) + 1
            if monodromy_filtration(mat, 0).graded_dims() != expected:
                ok = False
            cases += 1
    record("criterion 2: Jordan block oracle, graded dims exact", ok,
           f"{cases} block multisets")


def _nilpotent_corpus(seed, count, max_dim):
    rng = random.Random(seed)
    for _ in range(count):
        mat = random_nilpotent(rng, max_dim=max_dim)
        n = rng.randint(0, 2)
        yield NilpotentModel.on_monodromy_filtration(mat, n)


def test_criterion_3_sequence_2():
    """Exactness of the canonical sequence for 1000 random nilpotent models.
    The inclusion of ker N and the projection onto coker N are exact where
    they are built, so it is exact exactly when ker N is the kernel of N:
    N kills it here, and sequence 2's dims line gives dim ker N + rank N = d."""
    ok = all(verify_sequence_2(model).passed
             and (model.N.matrix @ inclusion(model.n_complex.ker)).is_zero()
             for model in _nilpotent_corpus(303, 1000, 6))
    record("criterion 3: sequence exactness, 1000 random nilpotent models", ok)


def test_criterion_4_intermediate_restrictions():
    """Same corpus: H^-1(i* of the intermediate extension) is ker N and
    H^1(i^!) is coker N; complementary slots vanish.  They carry the
    correct filtrations and twists because can and var carry psi's and
    psi(-1)'s (test_gluing.py,
    test_can_and_var_carry_the_filtrations_of_psi_and_its_twist)."""
    ok = all(verify_prop_2_3(model).passed
             for model in _nilpotent_corpus(303, 1000, 6))
    record("criterion 4: i*/i^! of intermediate extension, 1000 models", ok)


def test_criterion_5_primitive_decomposition():
    """1000 seeded pure string models: per-weight primitive-decomposition
    dimension identity exact, and the class assembled from the graded kernel
    equals the directly computed class."""
    ok = True
    for seed in range(1000):
        model = generate_model(5000 + seed, 4, 5, seed % 5 - 1,
                               ["L", "P"]).to_nilpotent()
        pd = primitive_decomposition(model)
        if not pd.passed:
            ok = False
            break
        assembled = kclass_psi_from_kernel(graded_kernel(model).grading,
                                           model.n)
        if assembled != kclass_of_space(model.space):
            ok = False
            break
    record("criterion 5: primitive decomposition + class identity, "
           "1000 pure models", ok)


def test_criterion_6_kclass_independence():
    """500 (model, scrambled conjugate) pairs agree in kernel grading and
    class; engineered distinct-kernel pairs are flagged as hypothesis
    violations, never silently passed."""
    ok = True
    for seed in range(500):
        m = generate_model(7000 + seed, 3, 4, seed % 4, ["L", "P", "Q"])
        if not verify_kclass_independence(
                m, generate_scrambled(m, 70000 + seed)).passed:
            ok = False
            break
    flagged = True
    rng = random.Random(606)
    found = 0
    while found < 50:
        a = generate_model(rng.randint(0, 10 ** 6), 3, 4, 1, ["L"])
        b = generate_model(rng.randint(0, 10 ** 6), 3, 4, 1, ["L"])
        ga = graded_kernel(a.to_nilpotent()).grading
        gb = graded_kernel(b.to_nilpotent()).grading
        if ga == gb:
            continue
        found += 1
        rep = verify_kclass_independence(a, b)
        if rep.passed or not any("hypothesis not satisfied" in n
                                 for n in rep.notes):
            flagged = False
            break
    record("criterion 6: class independence, 500 conjugate pairs + "
           "hypothesis flagging", ok and flagged)


def test_criterion_7_local_invariant_cycles():
    """500 pure disk models are exact at k in {-1, 0}; the impure shriek
    family fails with the low-weight surjectivity claim pinpointed; the
    implication (all four weight claims => exact) holds over the whole
    corpus, pure and impure alike."""
    rng = random.Random(707)
    ok = True
    implication = True
    models = []
    for seed in range(500):
        m = generate_model(9000 + seed, 3, 4, rng.randint(0, 2),
                           ["L", "P"]).to_nilpotent()
        point = (WeightedSpace.pure(rng.randint(1, 2), m.n, "pt")
                 if rng.random() < 0.5 else WeightedSpace.zero())
        models.append(DiskModel(m, point))
    for dm in models:
        for k in (-1, 0):
            if not verify_local_invariant_cycles(dm, k).passed:
                ok = False
    pinpointed = True
    impure = []
    for seed in range(100):
        strings = tuple(("L", rng.randint(1, 4))
                        for _ in range(rng.randint(1, 3)))
        m = JordanStringModel(strings, rng.randint(0, 2)).to_nilpotent()
        impure.append(DiskModel(m, WeightedSpace.zero(), pure=False,
                                extension="shriek"))
    for dm in impure:
        if verify_local_invariant_cycles(dm, -1).passed:
            pinpointed = False
        if verify_weight_mechanics(dm, -1).result(
                "surjective_on_low_weights").passed:
            pinpointed = False
    for dm in models + impure:
        for k in (-1, 0):
            if verify_weight_mechanics(dm, k).passed and \
                    not verify_local_invariant_cycles(dm, k).passed:
                implication = False
    record("criterion 7: local invariant cycles, 500 pure + impure family + "
           "implication", ok and pinpointed and implication)


def test_criterion_8_cli_roundtrip_and_exit_codes():
    """Parse/serialize is the identity on 100 generated documents, and the
    check command's exit code matches the report contents."""
    rng = random.Random(808)
    ok = True
    import tempfile
    import os
    for seed in range(100):
        m = generate_model(11000 + seed, 3, 4, rng.randint(0, 2),
                           ["L", "P", "Q"])
        if rng.random() < 0.5:
            doc = ModelDocument("pure_strings", m)
        else:
            doc = ModelDocument("nilpotent",
                                generate_scrambled(m, 110000 + seed))
        text = serialize(doc)
        if parse(text) != doc or serialize(parse(text)) != text:
            ok = False
            break
        with tempfile.NamedTemporaryFile("w", suffix=".json",
                                         delete=False) as f:
            f.write(text)
            path = f.name
        try:
            out = io.StringIO()
            rc = cli.run(["check", path, "--format", "json"], out)
            payload = json.loads(out.getvalue())
            expected_rc = 0 if payload["passed"] else 1
            if rc != expected_rc or payload["passed"] != all(
                    r["passed"] for r in payload["reports"]):
                ok = False
                break
        finally:
            os.unlink(path)
    record("criterion 8: CLI round-trip on 100 documents + exit codes", ok)
