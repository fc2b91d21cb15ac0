import random
from collections import Counter

import pytest

from monofilt import cli, monodromy, qlinalg, weights
from monofilt.gluing import extension, verify_sequence_2
from monofilt.monodromy import (GradedKernel, GradedKernelMismatch, JordanStringModel,
                                NilpotentModel, NotNilpotent, NotPure,
                                check_monodromy_axioms, graded_kernel,
                                monodromy_filtration, primitive_decomposition,
                                verify_hard_lefschetz)
from monofilt.qlinalg import QMatrix, Subspace, inverse
from monofilt.report import CheckResult
from monofilt.theorems import (generate_model, generate_scrambled, random_nilpotent,
                               random_unimodular)
from monofilt.weights import (AdaptedMap, LabeledGrading, TwistedLabel,
                              WeightFiltration, WeightedSpace)

from conftest import (J2, J3, _filtrations_n_respects, _map, _string_basis_model, flag_spaces,
                      is_strict, nilpotency_index, qm, span)
from reference import (ref_apply, ref_induced_on_sub, ref_kernel_flag, ref_matvec,
                       ref_monodromy_axioms, ref_monodromy_steps, ref_null, ref_string_steps)


def block_diag(a: QMatrix, b: QMatrix) -> QMatrix:
    rows = []
    for r in a.entries:
        rows.append(list(r) + [0] * b.cols)
    for r in b.entries:
        rows.append([0] * a.cols + list(r))
    return QMatrix.from_rows(rows, cols=a.cols + b.cols)


class TestMonodromyFiltration:
    def test_zero_operator(self):
        f = monodromy_filtration(QMatrix.zero(4, 4), 7)
        assert f.weights == (7,)
        assert f.graded_dim(7) == 4

    def test_single_three_block(self):
        # per-block formula: weight of e_i is 2i - m - 1 (1-based, m = 3)
        f = monodromy_filtration(J3, 0)
        assert f.graded_dims() == {-2: 1, 0: 1, 2: 1}
        assert f.space_at(-2) == span(3, [1, 0, 0])
        assert f.space_at(0) == span(3, [1, 0, 0], [0, 1, 0])

    def test_j2_plus_j1(self):
        f = monodromy_filtration(block_diag(J2, QMatrix.zero(1, 1)), 0)
        assert f.graded_dims() == {-1: 1, 0: 1, 1: 1}

    def test_not_nilpotent(self):
        with pytest.raises(NotNilpotent):
            monodromy_filtration(QMatrix.identity(2), 0)

    def test_axioms_on_random_operators(self, rng):
        for _ in range(120):
            m = random_nilpotent(rng, max_dim=6)
            c = rng.randint(-2, 2)
            f = monodromy_filtration(m, c)
            assert check_monodromy_axioms(f, m, c).passed

    def test_axiom_checker_fails_when_n_does_not_lower_the_filtration(self):
        # N e2 = e1, so N W_-1 = <e1> is not in W_-3 = 0
        filt = WeightFiltration.from_spaces(2, [(-1, span(2, [0, 1])),
                                                (1, Subspace.full(2))])
        rep = check_monodromy_axioms(filt, J2, 0)
        assert rep.checks == (CheckResult("N W_-1 in W_-3", False),
                              CheckResult("N W_1 in W_-1", False),
                              CheckResult("N-shift: N M_k in M_{k-2}", False))
        assert rep.notes == ("N^k lines not evaluated: N does not lower the filtration by 2",)

    def test_axiom_checker_fails_off_center(self, rng):
        """The graded dims of M(N, c) on a nonzero space are symmetric about c,
        so not about c + 1."""
        for _ in range(60):
            m = random_nilpotent(rng, max_dim=6)
            c = rng.randint(-2, 2)
            assert not check_monodromy_axioms(monodromy_filtration(m, c), m, c + 1).passed

    def test_uniqueness_under_conjugation(self, rng):
        for _ in range(40):
            m = random_nilpotent(rng, max_dim=5, scramble=False)
            d = m.rows
            p = random_unimodular(rng, d)
            conj = p @ m @ inverse(p)
            direct = monodromy_filtration(conj, 0)
            transported = WeightFiltration.from_spaces(d, [
                (w, Subspace.from_vectors(d, ref_apply(p.entries, s.basis.entries, d)))
                for w, s in monodromy_filtration(m, 0).steps])
            assert direct == transported

    def test_blockwise_additivity(self, rng):
        for _ in range(40):
            a = random_nilpotent(rng, max_dim=4, scramble=False)
            b = random_nilpotent(rng, max_dim=4, scramble=False)
            m = block_diag(a, b)
            fa = monodromy_filtration(a, 0)
            fb = monodromy_filtration(b, 0)
            fm = monodromy_filtration(m, 0)
            expected = []
            for w in sorted(set(fa.weights) | set(fb.weights)):
                vecs = [list(r) + [0] * b.cols
                        for r in fa.space_at(w).basis.entries]
                vecs += [[0] * a.cols + list(r)
                         for r in fb.space_at(w).basis.entries]
                expected.append((w, Subspace.from_vectors(m.cols, vecs)))
            assert fm == WeightFiltration.from_spaces(m.cols, expected)


class TestFiltrationOracle:
    """The Jordan chain builder against the closed kernel/image formula,
    computed by a reference that shares no code with qlinalg."""

    def check(self, m: QMatrix, center: int):
        f = monodromy_filtration(m, center)
        for k, rows in ref_monodromy_steps(m.entries, m.rows, center):
            assert f.space_at(k).basis.entries == rows, k

    def test_scrambled_operators(self, rng):
        for _ in range(25):
            self.check(random_nilpotent(rng, max_dim=7), rng.randint(-2, 2))

    def test_jordan_strings(self, rng):
        for _ in range(15):
            strings = tuple(("L", rng.randint(1, 4)) for _ in range(rng.randint(1, 3)))
            m = JordanStringModel(strings, 1).to_nilpotent().N.matrix
            p = random_unimodular(rng, m.rows)
            self.check(m, 0)
            self.check(p @ m @ inverse(p), rng.randint(-2, 2))

    @pytest.mark.parametrize("lengths", [(3, 3, 2, 1, 1), (4, 2, 2), (2, 2, 2, 1),
                                         (1, 1, 1), (3, 1, 3)])
    def test_repeated_chain_lengths(self, lengths):
        """Several heads at one level of the kernel flag, so the heads the
        builder picks are one choice among many."""
        m = JordanStringModel(tuple(("L", n) for n in lengths), 1).to_nilpotent().N.matrix
        for seed in range(3):
            p = random_unimodular(random.Random(seed), m.rows)
            self.check(p @ m @ inverse(p), seed - 1)

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_zero_operator(self, d):
        self.check(QMatrix.zero(d, d), d - 2)

    def test_random_nilpotent_up_to_dim_10(self):
        rng = random.Random(10)
        for _ in range(12):
            self.check(random_nilpotent(rng, max_dim=10), rng.randint(-3, 3))


class TestStringFiltrationOracle:
    """A string model's filtration, written off its strings, against the
    string weights written down by a reference that shares no code with
    qlinalg, and a scrambled model's against their image under P."""

    def check(self, strings, n, seed):
        model = JordanStringModel(strings, n)
        filt = model.to_nilpotent().space.filtration
        scrambled = generate_scrambled(model, seed).space.filtration
        d = model.dim
        p = random_unimodular(random.Random(seed), d).entries
        for k, rows in ref_string_steps(strings, n):
            assert filt.space_at(k).basis.entries == rows, k
            assert scrambled.space_at(k).basis.entries == ref_apply(p, rows, d), k

    def test_seeded_models(self):
        for seed in range(20):
            m = generate_model(seed, 4, 4, seed % 5 - 1, ["L", "P"])
            self.check(m.strings, m.n, seed + 30)

    @pytest.mark.parametrize("strings", [(("L", 1),), (("L", 1), ("P", 1), ("L", 1)),
                                         (("L", 3), ("L", 3)), (("P", 2), ("L", 2), ("L", 1)),
                                         (("L", 4), ("L", 1), ("L", 4))])
    @pytest.mark.parametrize("n", [-1, 0, 1, 2, 3])
    def test_short_and_repeated_strings(self, strings, n):
        self.check(strings, n, n + 7)

    def test_empty_model(self):
        for n in range(-1, 4):
            self.check((), n, 3)


def _string_operator_rows(strings) -> list:
    """The d x d rows of N e_i = e_{i-1} along each string, entry by entry."""
    d = sum(length for _, length in strings)
    rows = [[0] * d for _ in range(d)]
    offset = 0
    for _, length in strings:
        for idx in range(offset + 1, offset + length):
            rows[idx - 1][idx] = 1
        offset += length
    return rows


def _on_strings(strings: JordanStringModel) -> NilpotentModel:
    """The model that on_monodromy_filtration builds on the strings' N and
    grading, through the kernel flag pass and the chain builder."""
    n_op, grading = strings.operator_and_grading()
    return NilpotentModel.on_monodromy_filtration(n_op, strings.n, grading)


class TestStringModelClosedForm:
    """A string model writes N, its kernel flag and M(N) off its strings,
    with no kernel pass and no chain builder, and gets the model that
    on_monodromy_filtration builds on the same N and grading: every field,
    the flag's rows and pivots, M(N) and the pivots of every step, which
    Subspace equality ignores.  Its steps are the string weights of the
    Fraction reference, and N is the matrix written entry by entry."""

    def check(self, monkeypatch, model):
        with monkeypatch.context() as mp:
            mp.setattr(qlinalg, "_kernels", lambda m: pytest.fail("kernel pass"))
            mp.setattr(monodromy, "monodromy_filtration",
                       lambda *args, **kwargs: pytest.fail("chain builder"))
            got = model.to_nilpotent()
        n_op = model.operator_and_grading()[0]
        assert n_op == QMatrix.from_rows(_string_operator_rows(model.strings), cols=model.dim)
        want = _on_strings(model)
        assert (got.space, got.n, got.N) == (want.space, want.n, want.N) and got == want
        assert got.kernels == want.kernels
        assert got.monodromy_filtration is got.space.filtration
        assert got.monodromy_filtration == want.monodromy_filtration
        assert [(w, s._rows, s.pivots) for w, s in got.space.filtration.steps] == \
            [(w, s._rows, s.pivots) for w, s in want.space.filtration.steps]
        for k, rows in ref_string_steps(model.strings, model.n):
            assert got.space.filtration.space_at(k).basis.entries == rows, k

    def test_seeded_models(self, monkeypatch):
        for seed in range(300):
            self.check(monkeypatch, generate_model(seed, 5, 6, seed % 5 - 1, ["L", "P", "Q"]))

    @pytest.mark.parametrize("strings", [(), (("L", 1),), (("L", 3), ("P", 1)),
                                         (("L", 3), ("L", 3), ("P", 2), ("L", 1), ("P", 1))])
    @pytest.mark.parametrize("n", [0, 1, 2])
    def test_edge_and_repeated_strings(self, monkeypatch, strings, n):
        self.check(monkeypatch, JordanStringModel(strings, n))


def test_filtration_takes_no_intersection_or_image(monkeypatch):
    """The chain builder reads only N and its kernel flag: building a
    filtration calls neither qlinalg.intersect nor qlinalg.image, and the
    axiom checker, which shares nothing with the chains, passes on each."""
    calls = Counter()
    for name in ("intersect", "image"):
        original = getattr(qlinalg, name)
        monkeypatch.setattr(qlinalg, name, lambda *args, name=name, original=original:
                            calls.update([name]) or original(*args))
    assert not {"intersect", "image"} & set(vars(monodromy))
    rng = random.Random(200)
    built = []
    for _ in range(200):
        m = random_nilpotent(rng, max_dim=8)
        center = rng.randint(-3, 3)
        built.append((monodromy_filtration(m, center), m, center))
    assert calls == Counter()
    for filt, m, center in built:
        assert check_monodromy_axioms(filt, m, center).passed



def test_graded_maps_test_no_containment_of_filtration_steps(monkeypatch):
    """TwoTermComplex.strict, hard Lefschetz and the graded kernel read every graded
    map as a block of a matrix in adapted bases, which test no containment:
    on seeded string and scrambled models, and on N and the inclusion of
    ker N, none of them calls Subspace.contains."""
    rng = random.Random(31)
    models = []
    for seed in range(30):
        strings = generate_model(seed, 3, 4, rng.randint(-1, 3), ["L", "P"])
        models += [strings.to_nilpotent(), generate_scrambled(strings, seed)]
    calls = []
    contains = Subspace.contains
    monkeypatch.setattr(Subspace, "contains",
                        lambda self, other: calls.append(1) or contains(self, other))
    for model in models:
        filt, cx = model.space.filtration, model.n_complex
        assert verify_hard_lefschetz(model).passed
        assert graded_kernel(model).dims
        assert model.n_complex.strict and is_strict(_map(model.N.matrix, filt, filt, -2))
        # ker N with the filtration it inherits from V, built without a test
        induced = ref_induced_on_sub([(w, s.basis.entries) for w, s in filt.steps],
                                     cx.ker.basis.entries, filt.ambient_dim)
        ker_filt = WeightFiltration(cx.ker.dim, tuple(
            (w, Subspace.from_vectors(cx.ker.dim, rows)) for w, rows in induced))
        assert is_strict(AdaptedMap(qlinalg.inclusion(cx.ker), ker_filt, filt))
    assert calls == []
    Subspace.zero(1).contains(Subspace.zero(1))
    assert calls == [1]


class TestHardLefschetz:
    def test_string_models_pass(self):
        for strings in [(("L", 1),), (("L", 2),), (("L", 3), ("P", 1)),
                        (("L", 4), ("L", 2), ("P", 2))]:
            model = JordanStringModel(strings, 1).to_nilpotent()
            assert verify_hard_lefschetz(model).passed

    def test_wrong_filtration_fails(self):
        # shift-compatible but off-center filtration on J2: fails at k = 1
        filt = WeightFiltration.from_spaces(2, [
            (-2, span(2, [1, 0])), (1, Subspace.full(2))])
        model = NilpotentModel.of(WeightedSpace.from_filtration(filt), 1, J2)
        rep = verify_hard_lefschetz(model)
        assert not rep.passed
        failing = [c.name for c in rep.checks if not c.passed]
        assert any("N^1" in name for name in failing)

    def test_zero_dim_passes_vacuously(self):
        model = JordanStringModel((), 1).to_nilpotent()
        assert verify_hard_lefschetz(model).passed


class TestGradedKernel:
    def test_zero_operator(self):
        model = JordanStringModel((("L", 1), ("P", 1)), 1).to_nilpotent()
        gk = graded_kernel(model)
        assert gk.grading == model.space.grading

    def test_j2(self):
        model = JordanStringModel((("L", 2),), 1).to_nilpotent()
        gk = graded_kernel(model)
        assert {w: dict(t) for w, t in gk.grading.entries} == {-1: {TwistedLabel("L"): 1}}

    def test_j3_plus_j1(self):
        model = JordanStringModel((("L", 3), ("P", 1)), 1).to_nilpotent()
        gk = graded_kernel(model)
        assert {w: dict(t) for w, t in gk.grading.entries} == {
            -2: {TwistedLabel("L"): 1}, 0: {TwistedLabel("P"): 1}}

    def test_per_string_bottom_entries(self, rng):
        for _ in range(50):
            strings = tuple(
                (rng.choice("LPQ"), rng.randint(1, 4))
                for _ in range(rng.randint(1, 4)))
            n = rng.randint(-1, 3)
            model = JordanStringModel(strings, n).to_nilpotent()
            gk = graded_kernel(model)
            expected = {}
            for lbl, length in strings:
                w = n - 1 - (length - 1)
                expected.setdefault(w, {})
                key = TwistedLabel(lbl)
                expected[w][key] = expected[w].get(key, 0) + 1
            assert {w: dict(t) for w, t in gk.grading.entries} == expected

    def test_mismatch_on_non_strict_input(self):
        filt = WeightFiltration.from_spaces(2, [
            (-2, span(2, [1, 0])), (1, Subspace.full(2))])
        model = NilpotentModel.of(WeightedSpace.from_filtration(filt), 1, J2)
        with pytest.raises(GradedKernelMismatch):
            graded_kernel(model)


def test_graded_kernel_reads_n_and_raises_exactly_when_n_is_not_strict():
    """On string-basis filtrations, the graded kernel raises exactly when N is
    not strict, and otherwise its nonzero dims are those of the filtration
    that ref_induced_on_sub induces on ker N."""
    rng = random.Random(28)
    strict = Counter()
    for _ in range(150):
        model = _string_basis_model(rng)
        strict[model.n_complex.strict] += 1
        if not model.n_complex.strict:
            with pytest.raises(GradedKernelMismatch):
                graded_kernel(model)
            continue
        d, filt = model.space.dim, model.space.filtration
        ker = ref_null(model.N.matrix.entries, d)
        induced = ref_induced_on_sub([(w, s.basis.entries) for w, s in filt.steps], ker, d)
        want, below = {}, 0
        for k, rows in induced:
            want[k], below = len(rows) - below, len(rows)
        assert {k: dim for k, dim in graded_kernel(model).dims if dim} == want
    assert strict[True] >= 30 and strict[False] >= 30, strict


def test_monodromy_filtration_matches_sympy_jordan_blocks():
    """The graded dims of M(N, c) of scrambled operators are the string
    weights c - m, c - m + 2, ..., c + m of the Jordan blocks, of size m + 1,
    that sympy's jordan_form finds: runs of 1s on J's superdiagonal.  An
    oracle that shares no code with the library; skipped without sympy."""
    sympy = pytest.importorskip("sympy")
    rng = random.Random(3)
    for _ in range(60):
        m = random_nilpotent(rng, max_dim=8)
        center = rng.randint(-3, 3)
        _, jordan = sympy.Matrix(m.entries).jordan_form()
        sizes, run = [], 1
        for i in range(1, m.rows):
            if jordan[i - 1, i] == 1:
                run += 1
            else:
                sizes.append(run)
                run = 1
        sizes.append(run)
        want = Counter(center - size + 1 + 2 * i for size in sizes for i in range(size))
        assert monodromy_filtration(m, center).graded_dims() == dict(want)


def _decomposition_lines(strings, n) -> dict:
    """The per-weight lines of the primitive decomposition report, which passes."""
    report = primitive_decomposition(JordanStringModel(strings, n).to_nilpotent())
    assert report.passed
    return {c.name: c.detail for c in report.checks}


class TestPrimitiveDecomposition:
    def test_single_j2_string(self):
        # the primitive L at weight -1 spreads to weights -1 and 1
        assert _decomposition_lines((("L", 2),), 1) == {
            "dim Gr_-1 = sum of primitive contributions": "1 vs 1",
            "dim Gr_1 = sum of primitive contributions": "1 vs 1"}

    def test_zero_operator(self):
        # two primitive constituents at the center 4, spreading nowhere else
        assert _decomposition_lines((("L", 1), ("L", 1)), 5) == {
            "dim Gr_4 = sum of primitive contributions": "2 vs 2"}

    def test_j3_plus_j1_weight_zero_piece(self):
        # Gr_0 gets one dimension from P at weight 0 and one from L at weight -2
        assert _decomposition_lines((("L", 3), ("P", 1)), 1) == {
            "dim Gr_-2 = sum of primitive contributions": "1 vs 1",
            "dim Gr_0 = sum of primitive contributions": "2 vs 2",
            "dim Gr_2 = sum of primitive contributions": "1 vs 1"}

    def test_impure_rejected(self):
        filt = WeightFiltration.from_spaces(2, [
            (-2, span(2, [1, 0])), (1, Subspace.full(2))])
        model = NilpotentModel.of(WeightedSpace.from_filtration(filt), 1, J2)
        with pytest.raises(NotPure):
            primitive_decomposition(model)


class TestNilpotentModel:
    def test_rejects_wrong_twist(self):
        # N must map V into V(-1), not into V
        space = JordanStringModel((("L", 2),), 1).to_nilpotent().space
        with pytest.raises(ValueError, match=r"V\(-1\)"):
            NilpotentModel(space, 1, AdaptedMap(J2, space.filtration, space.filtration))

    def test_rejects_unshifted_filtration(self):
        with pytest.raises(ValueError):
            NilpotentModel.of(WeightedSpace.pure(2, 0), 1, J2)

    def test_nilpotency_index(self):
        assert nilpotency_index(QMatrix.zero(3, 3)) == 1
        assert nilpotency_index(J3) == 3
        with pytest.raises(NotNilpotent):
            nilpotency_index(qm([[1, 0], [0, 1]]))


def jordan_block(k: int) -> QMatrix:
    return QMatrix.from_rows([[int(j == i + 1) for j in range(k)] for i in range(k)], cols=k)


def test_kernel_flag_matches_the_oracle():
    """The one-pass kernel flag equals the oracle's null spaces of the powers
    of N step by step, ends in Q^d, and nilpotency_index is its length less
    one (0 on Q^0).  It is stored as an adapted basis: its steps hold d rows
    in all, with d distinct pivots.  Over 300 random nilpotent operators,
    scrambled string operators, the zero operator on Q^0 .. Q^4 and
    J_1 .. J_8."""
    rng = random.Random(19)
    ops = [random_nilpotent(rng, max_dim=9) for _ in range(300)]
    ops += [generate_scrambled(generate_model(seed, 3, 4, 1, ["L", "P"]), seed).N.matrix
            for seed in range(40)]
    ops += [QMatrix.zero(d, d) for d in range(5)] + [jordan_block(k) for k in range(1, 9)]
    indices = Counter()
    for m in ops:
        flag = monodromy._kernel_flag(m)
        spaces = flag_spaces(flag, m.rows)
        assert [k.basis.entries for k in spaces] == ref_kernel_flag(m.entries, m.rows)
        assert spaces[-1] == Subspace.full(m.rows)
        assert nilpotency_index(m) == (len(spaces) - 1 if m.rows else 0)
        pivots = {p for _, step in flag for p in step}
        assert sum(len(rows) for rows, _ in flag) == len(pivots) == m.rows
        indices[nilpotency_index(m)] += 1
    assert set(indices) == set(range(10)), indices


@pytest.mark.parametrize("m, message", [
    (qm([[1, 0], [0, 1]]), "operator is not nilpotent"),  # invertible
    (qm([[2, 1], [1, 1]]), "operator is not nilpotent"),  # invertible, dense
    (qm([[0, 1], [1, 0]]), "operator is not nilpotent"),
    (qm([[1, 0], [0, 0]]), "operator is not nilpotent"),  # idempotent
    (qm([[1, 1], [0, 0]]), "operator is not nilpotent"),  # idempotent
    (qm([[0, 1, 0], [0, 0, 1], [0, 0, 1]]), "operator is not nilpotent"),  # stalls at dim 2
    (qm([[0, 1]]), "operator is not square"),
    (QMatrix.zero(0, 3), "operator is not square"),
    (QMatrix.zero(3, 2), "operator is not square"),
])
def test_not_nilpotent(m, message):
    """The flag stops with NotNilpotent when its dimension stalls below d,
    after the check that N is square."""
    for build in (monodromy._kernel_flag, nilpotency_index,
                  lambda m: NilpotentModel.on_monodromy_filtration(m, 1)):
        with pytest.raises(NotNilpotent, match=f"^{message}$"):
            build(m)
    if m.rows == m.cols:
        assert ref_kernel_flag(m.entries, m.rows) is None


def test_zero_space_takes_the_general_path():
    """The constructors and readers have no zero-space branch: on Q^0 the
    general path gives the zero space and the empty graded kernel."""
    zero = WeightedSpace.zero()
    model = JordanStringModel((), 1).to_nilpotent()
    assert model.space == zero
    assert NilpotentModel.on_monodromy_filtration(QMatrix.zero(0, 0), 1).space == zero
    assert WeightedSpace.pure(0, 2) == zero
    assert graded_kernel(model) == GradedKernel(LabeledGrading.empty(), ())
    assert generate_scrambled(JordanStringModel((), 1), 4) == model


def wrong_center_model() -> NilpotentModel:
    """J2 with an N-shift compatible filtration off the monodromy one."""
    filt = WeightFiltration.from_spaces(2, [
        (-2, span(2, [1, 0])), (1, Subspace.full(2))])
    return NilpotentModel.of(WeightedSpace.from_filtration(filt), 1, J2)


def test_lefschetz_chain_matches_the_oracle_off_the_monodromy_filtration(monkeypatch):
    """On filtrations that N shifts by -2 but that need not be M(N), the
    axiom check and a model's hard Lefschetz read each N^k off the chain of
    graded blocks of N, with no product of matrices and no block of a power,
    and their N^k lines equal ref_monodromy_axioms (with its ~ read as ->
    for hard Lefschetz).  Hard Lefschetz passes exactly on M(N), the
    uniqueness that lets it stand for the axioms on M(N).  40 random
    nilpotent operators and 6 scrambled string operators, each on the
    filtrations of _filtrations_n_respects."""
    rng = random.Random(24)
    ops = [random_nilpotent(rng, max_dim=8, entry_bound=1) for _ in range(40)]
    ops += [generate_scrambled(generate_model(seed, 3, 3, 1, ["L", "P"]), seed).N.matrix
            for seed in range(6)]
    verdicts = Counter()
    for mat in ops:
        for filt, center in _filtrations_n_respects(mat, rng.randint(-2, 2)):
            steps = [(w, s.basis.entries) for w, s in filt.steps]
            want = ref_monodromy_axioms(mat.entries, mat.rows, steps, center)
            assert want[0] == ("N-shift: N M_k in M_{k-2}", True, "")
            with monkeypatch.context() as mp:
                mp.setattr(QMatrix, "__matmul__", lambda a, b: pytest.fail("product taken"))
                report = check_monodromy_axioms(filt, mat, center)
                model = NilpotentModel.of(WeightedSpace.from_filtration(filt), center + 1, mat)
                hl = verify_hard_lefschetz(model)
            assert [(r.name, r.passed, r.detail) for r in report.checks] == want
            assert [(r.name, r.passed, r.detail) for r in hl.checks if r.name.startswith("N^")] \
                == [(name.replace("~", "->"), p, detail) for name, p, detail in want[1:]]
            # Deligne's uniqueness: on an N-shifted filtration, hl passes iff it is M(N)
            assert hl.passed == (filt == monodromy_filtration(mat, center))
            verdicts[report.passed] += 1
    assert verdicts[True] and verdicts[False], verdicts


class TestOperatorContext:
    """A model computes its kernel flag, filtration, hard Lefschetz and graded kernel once."""

    @pytest.fixture
    def filtration_calls(self, monkeypatch):
        calls = []
        original = monodromy.monodromy_filtration

        def counting(n_op, center, *args, **kwargs):
            calls.append(center)
            return original(n_op, center, *args, **kwargs)

        monkeypatch.setattr(monodromy, "monodromy_filtration", counting)
        return calls

    @pytest.fixture
    def flag_calls(self, monkeypatch):
        calls = []
        kernel_flag = monodromy._kernel_flag
        monkeypatch.setattr(monodromy, "_kernel_flag",
                            lambda m: calls.append(m) or kernel_flag(m))
        return calls

    def test_verifiers_build_one_filtration(self, filtration_calls, flag_calls, monkeypatch):
        """A string model writes M(N) off its strings and builds none; the
        model on_monodromy_filtration builds on the same N and grading builds
        one, and the verifiers build none and take every rank once: a second
        round makes no elimination (qlinalg._echelon, also as weights reads it)."""
        ranks = []
        echelon = qlinalg._echelon
        for module in (qlinalg, weights):
            monkeypatch.setattr(module, "_echelon",
                                lambda rows: ranks.append(1) or echelon(rows))
        strings = JordanStringModel((("L", 4), ("P", 2), ("L", 1)), 1)
        closed = strings.to_nilpotent()
        assert verify_hard_lefschetz(closed).passed and primitive_decomposition(closed).passed
        assert closed.monodromy_filtration.weights and graded_kernel(closed).dims
        assert filtration_calls == [] and flag_calls == []
        model = _on_strings(strings)
        assert model == closed
        assert verify_hard_lefschetz(model).passed
        assert primitive_decomposition(model).passed
        gk = graded_kernel(model)
        first = len(ranks)
        assert model.n_complex.strict
        assert verify_hard_lefschetz(model) is verify_hard_lefschetz(model)
        assert primitive_decomposition(model).passed
        assert graded_kernel(model) is gk
        assert filtration_calls == [model.center]
        assert len(ranks) == first

    def test_one_kernel_flag_per_model(self, monkeypatch, flag_calls, filtration_calls):
        """Construction, the chain builder, hard Lefschetz, the graded kernel
        and the primitive decomposition read one kernel flag per model, built
        at construction without qlinalg.kernel: on_monodromy_filtration of a
        string operator, filtrationless, scrambled and given-filtration
        models.  A string model's to_nilpotent builds no flag and no
        filtration: both come off its strings.  Every flag equals the
        Fraction oracle's flag of null spaces of the powers of N."""
        monkeypatch.setattr(qlinalg, "kernel", lambda m: pytest.fail("kernel taken"))
        strings = JordanStringModel((("L", 4), ("P", 2), ("L", 1)), 1)
        for build in (lambda: _on_strings(strings),
                      lambda: NilpotentModel.on_monodromy_filtration(J3, 1),
                      lambda: generate_scrambled(generate_model(3, 3, 4, 1, ["L", "P"]), 3),
                      wrong_center_model):
            flag_calls.clear()
            model = build()
            assert model.monodromy_filtration.weights
            if verify_hard_lefschetz(model).passed:
                assert primitive_decomposition(model).passed
                assert graded_kernel(model).dims
            assert flag_calls == [model.N.matrix]
            assert [k.basis.entries for k in flag_spaces(model.kernels, model.space.dim)] == \
                ref_kernel_flag(model.N.matrix.entries, model.space.dim)
        flag_calls.clear()
        filtration_calls.clear()
        model = strings.to_nilpotent()
        assert model.monodromy_filtration.weights and verify_hard_lefschetz(model).passed
        assert primitive_decomposition(model).passed and graded_kernel(model).dims
        assert flag_calls == [] and filtration_calls == []
        assert [k.basis.entries for k in flag_spaces(model.kernels, model.space.dim)] == \
            ref_kernel_flag(model.N.matrix.entries, model.space.dim)

    @pytest.mark.parametrize("lengths, passes", [((8,), 1), ((4, 4), 1), ((3, 3, 2, 1), 3)])
    def test_chain_heads_come_off_the_kernel_flag(self, monkeypatch, lengths, passes):
        """Where no chain reaches a level from above, its heads are the new
        rows of the kernel flag and take no pass; elsewhere one pass takes
        only those rows after ker N^{k-1} and the images.  So a scrambled
        J_8 or J_4+J_4 makes one pass (the steps) and J_3+J_3+J_2+J_1 three,
        no new rows are re-derived from the flag (qlinalg._new_rows), and
        M(N) equals the closed formula's."""
        model = JordanStringModel(tuple(("L", m) for m in lengths), 1)
        n_op = generate_scrambled(model, 7).N.matrix
        flag = monodromy._kernel_flag(n_op)
        calls, new_rows_calls = [], []
        prefix_spans, new_rows = qlinalg._prefix_spans, qlinalg._new_rows
        monkeypatch.setattr(qlinalg, "_prefix_spans",
                            lambda *args: calls.append(1) or prefix_spans(*args))
        monkeypatch.setattr(qlinalg, "_new_rows",
                            lambda spaces: new_rows_calls.append(1) or new_rows(spaces))
        f = monodromy_filtration(n_op, 0, kernels=flag)
        assert len(calls) == passes
        assert not new_rows_calls
        for k, rows in ref_monodromy_steps(n_op.entries, n_op.rows, 0):
            assert f.space_at(k).basis.entries == rows, k

    def test_one_adapted_basis_per_filtration(self, monkeypatch):
        """Construction, hard Lefschetz, the graded kernel and the primitive
        decomposition together build one adapted basis of the filtration and
        one adapted N per model: string, filtrationless and scrambled."""
        bases, maps = [], []
        flag_basis, in_bases = weights._flag_basis, weights._in_bases
        monkeypatch.setattr(weights, "_flag_basis",
                            lambda flag: bases.append(1) or flag_basis(flag))
        monkeypatch.setattr(weights, "_in_bases",
                            lambda m, dom, cod: maps.append(m) or in_bases(m, dom, cod))
        for build in (lambda: JordanStringModel((("L", 4), ("P", 2), ("L", 1)), 1).to_nilpotent(),
                      lambda: NilpotentModel.on_monodromy_filtration(J3, 1),
                      lambda: generate_scrambled(generate_model(3, 3, 4, 1, ["L", "P"]), 3)):
            bases.clear()
            maps.clear()
            model = build()
            assert verify_hard_lefschetz(model).passed
            assert primitive_decomposition(model).passed
            assert graded_kernel(model).dims
            assert len(bases) == 1 and maps == [model.N.matrix]

    def test_on_monodromy_filtration_builds_the_flag_once(self, monkeypatch):
        calls = []
        kernel_flag = monodromy._kernel_flag
        monkeypatch.setattr(monodromy, "_kernel_flag",
                            lambda m: calls.append(m) or kernel_flag(m))
        rng = random.Random(5)
        for i in range(1, 21):
            mat = random_nilpotent(rng, max_dim=6)
            model = NilpotentModel.on_monodromy_filtration(mat, rng.randint(-1, 2))
            assert len(calls) == i and model.kernels == kernel_flag(mat)
            assert verify_hard_lefschetz(model).passed and len(calls) == i

    def test_axioms_take_no_powers_and_match_the_oracle(self, monkeypatch):
        """check_monodromy_axioms reads each N^k off N written in the basis
        adapted to the filtration (the chain of its graded blocks once the
        N-shift holds; no N^k line otherwise), so it never builds the kernel
        flag that a model and the chain builder read.  Over 20 seeded
        operators its report equals ref_monodromy_axioms on M(N), on M(N)
        with a wrong center, and on a full flag of random vectors, weighted
        0 .. d-1, that fails the N-shift at two or more steps; only the last
        carries the note that no N^k line was evaluated."""
        rng, flags = random.Random(6), random.Random(60)
        failing_steps = Counter()
        for _ in range(20):
            mat = random_nilpotent(rng, max_dim=6)
            center, d = rng.randint(-1, 2) - 1, mat.rows
            filt = monodromy_filtration(mat, center)
            # a first vector outside ker N fails the N-shift at weights 0 and 1
            vecs = sorted(random_unimodular(flags, d).entries,
                          key=lambda v: not any(ref_matvec(mat.entries, v)))
            flag = WeightFiltration.from_spaces(d, [(w, Subspace.from_vectors(d, vecs[:w + 1]))
                                                    for w in range(d)])
            for f, c, passes in ((filt, center, True), (filt, center + 1, False),
                                 (flag, center, None)):
                with monkeypatch.context() as mp:
                    mp.setattr(monodromy, "_kernel_flag", lambda m: pytest.fail("flag built"))
                    report = check_monodromy_axioms(f, mat, c)
                assert report.title == f"monodromy axioms (center {c})"
                steps = [(w, s.basis.entries) for w, s in f.steps]
                assert [(r.name, r.passed, r.detail) for r in report.checks] == \
                    ref_monodromy_axioms(mat.entries, d, steps, c)
                if passes is not None:
                    assert report.passed == passes
                assert report.notes == (() if f is filt or mat.is_zero() else (
                    "N^k lines not evaluated: N does not lower the filtration by 2",))
            if not mat.is_zero():
                failing_steps[sum(r.name.startswith("N W_") for r in report.checks) >= 2] += 1
        assert failing_steps[True] >= 10 and not failing_steps[False], failing_steps

    def test_filtered_n_takes_no_power_and_slices_each_weight_once(self, monkeypatch):
        """Once N shifts the filtration by -2, the axiom check on M(N), hard
        Lefschetz, the graded kernel, the primitive decomposition and the
        strictness of the model's N form no product of matrices: each reads
        the diagonal table of its adapted N, which slices every weight of
        that map once.  String, filtrationless, scrambled and
        given-filtration models."""
        slices = []
        block_rows = weights._block_rows
        for build in (lambda: JordanStringModel((("L", 4), ("P", 2), ("L", 1)), 1).to_nilpotent(),
                      lambda: NilpotentModel.on_monodromy_filtration(J3, 1),
                      lambda: generate_scrambled(generate_model(3, 3, 4, 1, ["L", "P"]), 3),
                      wrong_center_model):
            model = build()
            slices.clear()
            with monkeypatch.context() as mp:
                mp.setattr(QMatrix, "__matmul__", lambda a, b: pytest.fail("product taken"))
                mp.setattr(weights, "_block_rows",
                           lambda a, *corners: slices.append((id(a), corners))
                           or block_rows(a, *corners))
                axioms = check_monodromy_axioms(model.monodromy_filtration, model.N.matrix,
                                                model.center)
                assert axioms.passed
                if verify_hard_lefschetz(model).passed:
                    assert primitive_decomposition(model).passed
                    assert graded_kernel(model).dims
                model.n_complex.strict
            assert len(set(slices)) == len(slices)
            counts = Counter(a for a, _ in slices)  # the axiom check's N and the model's
            assert counts.pop(id(model.N.adapted)) == len(model.space.filtration.weights)
            assert list(counts.values()) == [len(model.monodromy_filtration.weights)]

    def test_flag_ends_at_the_first_full_kernel(self):
        model = JordanStringModel((("L", 3), ("P", 1)), 1).to_nilpotent()
        assert flag_spaces(model.kernels, 4) == [
            Subspace.zero(4), span(4, [1, 0, 0, 0], [0, 0, 0, 1]),
            span(4, [1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1]), Subspace.full(4)]

    def test_strict_reads_the_filtered_verdict_of_construction(self, monkeypatch):
        """A model's N is found filtered once, at construction; the strict of
        its complex reads that verdict and scans no corner of the adapted matrix again."""
        for model in (JordanStringModel((("L", 3), ("P", 1)), 1).to_nilpotent(),
                      generate_scrambled(generate_model(3, 3, 4, 1, ["L", "P"]), 3),
                      wrong_center_model()):
            with monkeypatch.context() as mp:
                mp.setattr(weights, "_zero_corner", lambda *a: pytest.fail("corner scanned"))
                assert model.N.filtered()
                model.n_complex.strict

    def test_no_memo_across_instances(self, filtration_calls, flag_calls):
        """Equal models share no report: two to_nilpotent models of the same
        strings, which build no flag and no filtration, and two models that
        on_monodromy_filtration builds on their N and grading, which build
        one flag and one filtration each."""
        strings = JordanStringModel((("L", 3), ("P", 2)), 2)
        pairs = [(strings.to_nilpotent(), strings.to_nilpotent())]
        assert filtration_calls == [] and flag_calls == []
        pairs.append((_on_strings(strings), _on_strings(strings)))
        for a, b in pairs:
            assert a == b and a is not b
            hl_a, hl_b = verify_hard_lefschetz(a), verify_hard_lefschetz(b)
            assert hl_a == hl_b and hl_a is not hl_b
            assert graded_kernel(a) is not graded_kernel(b)
        assert filtration_calls == [1, 1] and len(flag_calls) == 2
        assert pairs[0][0] == pairs[1][0]

    def test_equality_and_hash_read_fields_only(self):
        strings = (("L", 4), ("L", 2))
        a = JordanStringModel(strings, 0).to_nilpotent()
        b = JordanStringModel(strings, 0).to_nilpotent()
        h = hash(b)
        primitive_decomposition(a)
        graded_kernel(a)
        assert "_hard_lefschetz" in vars(a)
        assert "_hard_lefschetz" not in vars(b)
        assert a == b and hash(a) == hash(b) == h
        assert {a: 1}[b] == 1

    def test_not_pure_raised_on_every_call(self):
        model = wrong_center_model()
        for _ in range(3):
            with pytest.raises(NotPure):
                primitive_decomposition(model)
            with pytest.raises(GradedKernelMismatch):
                graded_kernel(model)
        assert not verify_hard_lefschetz(model).passed


# N sends e_3 to e_1 across a gap of 4 weights: N is not strict, its hard
# Lefschetz fails at N^2 and its M(N) centered at 2 is not its filtration
NON_STRICT = ('{"kind":"nilpotent","n":3,"matrix":[["0","0","1"],["0","0","0"],["0","0","0"]],'
              '"filtration":{"0":[["1","0","0"]],"2":[["1","0","0"],["0","1","0"]],'
              '"4":[["1","0","0"],["0","1","0"],["0","0","1"]]}}')


class TestModelMonodromyFiltration:
    """A model's M(N) has one source: its own filtration when its hard
    Lefschetz passes (Deligne's uniqueness, N shifting it by -2), and the
    chain builder, once per model, when it fails."""

    def test_pure_models_read_their_own_filtration(self, monkeypatch):
        """String, scrambled, filtrationless and filtration-given pure models
        return their space's filtration and call no monodromy_filtration;
        it is M(N) by the closed-formula oracle."""
        rng = random.Random(33)
        models = [JordanStringModel((), 1).to_nilpotent(),
                  NilpotentModel.on_monodromy_filtration(J3, 1)]
        for seed in range(12):
            strings = generate_model(seed, 3, 4, rng.randint(-1, 3), ["L", "P"])
            scrambled = generate_scrambled(strings, seed)
            doc = cli.serialize(cli.ModelDocument("nilpotent", scrambled))
            models += [strings.to_nilpotent(), scrambled, cli.parse(doc).model]
        monkeypatch.setattr(monodromy, "monodromy_filtration",
                            lambda *args, **kwargs: pytest.fail("M(N) built"))
        for model in models:
            assert verify_hard_lefschetz(model).passed
            filt = model.monodromy_filtration
            assert filt is model.space.filtration
            d, mat = model.space.dim, model.N.matrix
            for k, rows in ref_monodromy_steps(mat.entries, d, model.center):
                assert filt.space_at(k).basis.entries == rows, k

    def test_impure_models_build_it_once_from_the_chains(self, monkeypatch):
        """Where hard Lefschetz fails, on a filtration off center and on a
        non-strict N, M(N) is monodromy_filtration(N, c), built once however
        often it is read, and is not the model's filtration."""
        built = []
        original = monodromy.monodromy_filtration
        monkeypatch.setattr(monodromy, "monodromy_filtration",
                            lambda *args, **kwargs: built.append(1) or original(*args, **kwargs))
        for model in (wrong_center_model(), cli.parse(NON_STRICT).model):
            built.clear()
            assert not verify_hard_lefschetz(model).passed and built == []
            filt = model.monodromy_filtration
            assert model.monodromy_filtration is filt and built == [1]
            assert filt == original(model.N.matrix, model.center)
            assert filt != model.space.filtration
            assert check_monodromy_axioms(filt, model.N.matrix, model.center).passed


def test_filtrations_and_purity_checks_build_no_fraction_basis(monkeypatch):
    """Subspaces and matrices are read through their integer forms: only a
    caller that reads the Fraction entries (JSON, printing) builds them.  The
    gluing inclusion maps and verify_sequence_2 build none either."""
    calls = []
    frac = qlinalg._frac
    monkeypatch.setattr(qlinalg, "_frac", lambda n, d: calls.append(1) or frac(n, d))
    rng = random.Random(11)
    for _ in range(30):
        mat = random_nilpotent(rng, max_dim=7)
        center = rng.randint(-3, 3)
        assert check_monodromy_axioms(monodromy_filtration(mat, center), mat, center).passed
    for seed in range(10):
        model = generate_model(seed, 3, 4, seed % 3 - 1, ["L", "P"]).to_nilpotent()
        assert verify_hard_lefschetz(model).passed
        assert primitive_decomposition(model).passed
        graded_kernel(model)
    assert calls == []
    model = JordanStringModel((("L", 3), ("L", 2), ("L", 1)), 1).to_nilpotent()
    extension(model, "intermediate")
    assert calls == []
    assert verify_sequence_2(model).passed
    assert calls == []
    basis = Subspace.full(2).basis
    assert basis == QMatrix.identity(2) and calls == []
    assert basis.entries == ((1, 0), (0, 1)) and calls
