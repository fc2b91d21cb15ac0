import io
import random
from collections import Counter

import pytest

from monofilt import cli, qlinalg, weights
from monofilt.gluing import (EXTENSIONS, GluingDatum, extension, j_intermediate,
                             j_lower_shriek, j_lower_star, psi_u,
                             verify_prop_2_3, verify_sequence_2)
from monofilt.monodromy import (JordanStringModel, NilpotentModel, NotNilpotent,
                                graded_kernel, primitive_decomposition,
                                verify_hard_lefschetz)
from monofilt.qlinalg import QMatrix, Subspace, image, kernel
from monofilt.theorems import (generate_model, generate_scrambled, random_nilpotent,
                               random_unimodular)
from monofilt.weights import AdaptedMap, WeightFiltration, WeightedSpace

from conftest import _filtrations_n_respects, _string_basis_model, nilpotency_index, span
from reference import ref_induced_on_sub


def string_model(strings, n=1):
    return JordanStringModel(strings, n).to_nilpotent()


def string_vn(strings, n=1):
    m = string_model(strings, n)
    return m.space, m.N


def raw_model(mat, n):
    """mat on its monodromy filtration centered at n-1."""
    return NilpotentModel.on_monodromy_filtration(mat, n)


def roundtrips(model) -> bool:
    """psi_u of each of j_!, j_*, j_!* gives (V, N) back: var . can = N
    exactly.  psi is V itself in each extension, so only N is compared, and
    without rebuilding a model."""
    return all(extension(model, kind).monodromy_matrix() == model.N.matrix
               for kind in EXTENSIONS)


class TestPsiU:
    def test_shriek_datum(self):
        V, N = string_vn((("L", 2),))
        g = j_lower_shriek(V, N)
        p = psi_u(g)
        assert p.space == V and p.N.matrix == N.matrix

    def test_zero_phi(self):
        V, N = string_vn((("L", 1), ("P", 1)))  # N = 0 so phi of j_!* is 0
        g = j_intermediate(V, N)
        assert g.phi.dim == 0
        assert psi_u(g).N.matrix.is_zero()

    def test_intermediate_recovers_n(self):
        V, N = string_vn((("L", 2),))
        g = j_intermediate(V, N)
        assert psi_u(g).N.matrix == N.matrix


class TestExtensions:
    def test_intermediate_phi_is_image(self):
        V, N = string_vn((("L", 2),))
        g = j_intermediate(V, N)
        assert g.phi.dim == 1
        assert image(g.var.matrix) == span(2, [1, 0])

    def test_roundtrips(self, rng):
        for _ in range(40):
            strings = tuple(("L", rng.randint(1, 3))
                            for _ in range(rng.randint(1, 3)))
            model = string_model(strings, rng.randint(0, 2))
            assert roundtrips(model)

    def test_roundtrips_on_raw_nilpotents(self, rng):
        for _ in range(30):
            mat = random_nilpotent(rng, max_dim=5)
            assert roundtrips(raw_model(mat, 1))

    def test_invalid_datum_rejected(self):
        V = WeightedSpace.pure(1, 0)
        ident = QMatrix.identity(1)
        with pytest.raises(Exception):
            # var . can = identity is not nilpotent
            GluingDatum.of(V, V, ident, ident)


def _adapted_space(rng, d):
    """(space, basis change p, weights): W_k is spanned by the columns of the
    random unimodular p whose weight, drawn from -2..2, is at most k."""
    p = random_unimodular(rng, d) if d else QMatrix.identity(0)
    ws = [rng.randint(-2, 2) for _ in range(d)]
    cols = list(zip(*p.entries))
    filt = WeightFiltration.from_spaces(d, [
        (k, Subspace.from_vectors(d, [c for c, w in zip(cols, ws) if w <= k]))
        for k in sorted(set(ws))])
    return WeightedSpace.from_filtration(filt), p, ws


def _adapted_map(rng, src, tgt, shift):
    """(matrix, filtered): a map src -> tgt with entries in -2..2 in the
    adapted bases.  Either it is filtered with `shift` by construction, or its
    entries are drawn freely; then it is filtered exactly when every adapted
    entry from weight w to a weight above w + shift is zero."""
    (_, p, w_src), (_, q, w_tgt) = src, tgt
    keep = rng.random() < 0.6
    adapted = [[rng.randint(-2, 2) if not keep or wt <= ws + shift else 0
                for ws in w_src] for wt in w_tgt]
    filtered = all(x == 0 for row, wt in zip(adapted, w_tgt)
                   for x, ws in zip(row, w_src) if wt > ws + shift)
    a = QMatrix.from_rows(adapted, cols=len(w_src))
    return q @ a @ qlinalg.inverse(p), filtered


def test_datum_refused_exactly_when_the_construction_checks_fail():
    """GluingDatum.of refuses a datum exactly when a shape is wrong, var . can
    is not nilpotent, or can or var is not filtered.  It does not test
    nilpotency: filtered can and var imply it.  Filteredness is read here
    off the adapted bases, not from AdaptedMap.filtered."""
    rng = random.Random(11)
    outcomes = {"accepted": 0, "shape": 0, "not nilpotent": 0, "not filtered": 0}
    for _ in range(400):
        psi_a = _adapted_space(rng, rng.randint(0, 4))
        phi_a = _adapted_space(rng, rng.randint(0, 4))
        (psi, *_), (phi, *_) = psi_a, phi_a
        can, can_ok = _adapted_map(rng, psi_a, phi_a, 0)
        var, var_ok = _adapted_map(rng, phi_a, psi_a, -2)
        if rng.random() < 0.1:  # one column too many
            can = QMatrix.from_rows([list(r) + [1] for r in can.entries], cols=can.cols + 1)
        if (can.cols, can.rows, var.cols, var.rows) != (psi.dim, phi.dim, phi.dim, psi.dim):
            verdict = "shape"
        else:
            try:
                nilpotency_index(var @ can)
                verdict = "accepted" if can_ok and var_ok else "not filtered"
            except NotNilpotent:
                verdict = "not nilpotent"
                assert not (can_ok and var_ok)
        outcomes[verdict] += 1
        try:
            g = GluingDatum.of(psi, phi, can, var)
        except ValueError:
            assert verdict != "accepted"
            continue
        assert verdict == "accepted"
        assert g.monodromy_matrix() == var @ can
    assert min(outcomes.values()) >= 30, outcomes


def test_extensions_take_no_powers(monkeypatch):
    """Building a string, filtrationless or scrambled model, and its three
    extensions, multiplies no matrices: the kernel flag takes no power of N,
    and a datum forms var . can, which the model's checks make nilpotent,
    only when it is read."""
    scrambled = generate_scrambled(generate_model(3, 3, 4, 1, ["L", "P"]), 3).N.matrix
    builders = (lambda: string_model((("L", 3), ("P", 2))),
                lambda: raw_model(QMatrix.from_rows([[0, 1, 0], [0, 0, 1], [0, 0, 0]]), 1),
                lambda: raw_model(scrambled, 1))
    for build in builders:
        with monkeypatch.context() as mp:
            mp.setattr(QMatrix, "__matmul__", lambda a, b: pytest.fail("product taken"))
            model = build()
            data = [extension(model, kind) for kind in EXTENSIONS]
        assert all(g.monodromy_matrix() == model.N.matrix for g in data)


def test_a_model_writes_n_in_adapted_bases_once(monkeypatch):
    """On a string model and a scrambled model, construction, hard
    Lefschetz, the graded kernel, the primitive decomposition and the three
    gluing verifiers write N in the adapted bases once: they all read the
    model's N, which j_* takes as its can and j_! as its var.
    NilpotentModel.of keeps the matrix it is given, which a document of the
    model records."""
    strings = generate_model(3, 3, 4, 1, ["L", "P"])
    written = []
    in_bases = weights._in_bases
    monkeypatch.setattr(weights, "_in_bases",
                        lambda m, *bases: written.append(m) or in_bases(m, *bases))
    for build in (strings.to_nilpotent, lambda: generate_scrambled(strings, 3)):
        written.clear()
        model = build()
        assert verify_hard_lefschetz(model).passed
        assert graded_kernel(model).dims
        assert primitive_decomposition(model).passed
        assert roundtrips(model)
        assert verify_sequence_2(model).passed and verify_prop_2_3(model).passed
        assert sum(m is model.N.matrix for m in written) == 1
        assert extension(model, "star").can is model.N
        assert extension(model, "shriek").var is model.N
        mat = model.N.matrix
        assert NilpotentModel.of(model.space, model.n, mat).N.matrix is mat


def test_model_built_extensions_pass_the_public_checks():
    """gluing.extension builds a datum without GluingDatum.of's checks, since the
    model's checks imply them.  On the acceptance corpora (the random
    nilpotent models of criteria 3 and 4, and the string models and their
    scrambles of criterion 7) every datum it builds passes them."""
    rng = random.Random(303)
    models = [raw_model(random_nilpotent(rng, max_dim=6), rng.randint(0, 2))
              for _ in range(1000)]
    for seed in range(500):
        strings = generate_model(9000 + seed, 3, 4, seed % 3, ["L", "P"])
        models += [strings.to_nilpotent(), generate_scrambled(strings, seed)]
    for model in models:
        for kind in EXTENSIONS:
            g = extension(model, kind)
            # raises ValueError on a failed check
            assert GluingDatum.of(g.psi, g.phi, g.can.matrix, g.var.matrix) == g


class TestExtensionContext:
    """Each extension of a model is built once and kept beside its fields."""

    def test_built_once_per_model(self):
        model = string_model((("L", 3), ("P", 2)))
        for kind, ctor in (("intermediate", j_intermediate),
                           ("shriek", j_lower_shriek), ("star", j_lower_star)):
            g = extension(model, kind)
            assert extension(model, kind) is g
            assert g == ctor(model.space, model.N)
        assert set(model.extensions) == set(EXTENSIONS)

    def test_no_memo_across_instances(self):
        a = string_model((("L", 3),), 2)
        b = string_model((("L", 3),), 2)
        h = hash(b)
        ga = extension(a, "star")
        assert a == b and hash(a) == h and {a: 1}[b] == 1
        assert "extensions" not in vars(b)
        assert extension(b, "star") == ga and extension(b, "star") is not ga

    def test_var_can_computed_once(self):
        g = extension(string_model((("L", 2),)), "intermediate")
        assert g.monodromy_matrix() is g.monodromy_matrix()

    def test_constructors_validate_like_a_model(self):
        V, N = string_vn((("L", 2),))
        pure = WeightedSpace.pure(2, 0).filtration
        for ctor in (j_intermediate, j_lower_shriek, j_lower_star):
            with pytest.raises(ValueError, match=r"V\(-1\)"):  # N into V, not V(-1)
                ctor(V, AdaptedMap(N.matrix, N.dom, N.dom))
            with pytest.raises(ValueError, match="not nilpotent"):
                ctor(V, AdaptedMap(QMatrix.identity(2), N.dom, N.cod))
            with pytest.raises(ValueError, match="shift the filtration"):
                ctor(WeightedSpace.pure(2, 0), AdaptedMap(N.matrix, pure, pure.shifted(2)))

    def test_psi_u_is_a_model(self):
        model = string_model((("L", 3), ("L", 1)), 0)
        for kind in EXTENSIONS:
            assert psi_u(extension(model, kind)) == model


class TestRestrictionFunctors:
    def test_i_star_of_j_star(self):
        V, N = string_vn((("L", 2),))
        cx = j_lower_star(V, N).i_upper_star
        assert cx.ker == kernel(N.matrix)
        assert cx.d.cod.ambient_dim - cx.im.dim == 1  # coker N, twisted

    def test_i_star_of_intermediate(self):
        V, N = string_vn((("L", 2),))
        cx = j_intermediate(V, N).i_upper_star
        assert cx.ker == kernel(N.matrix)
        assert cx.d.cod.ambient_dim - cx.im.dim == 0

    def test_i_shriek_of_intermediate(self):
        V, N = string_vn((("L", 2),))
        cx = j_intermediate(V, N).i_upper_shriek
        assert cx.ker.is_zero()
        assert cx.d.cod.ambient_dim - cx.im.dim == 1  # coker N


class TestSequence2:
    def test_zero_operator(self):
        rep = verify_sequence_2(string_model((("L", 1), ("L", 1))))
        assert rep.passed
        assert "term dims: 2, 2, 2, 2" in rep.notes[0]

    def test_j2_dims(self):
        rep = verify_sequence_2(string_model((("L", 2),)))
        assert rep.passed
        assert "term dims: 1, 2, 2, 1" in rep.notes[0]

    def test_random_nilpotents(self, rng):
        for _ in range(60):
            mat = random_nilpotent(rng, max_dim=6)
            assert verify_sequence_2(raw_model(mat, rng.randint(0, 2))).passed


def test_zero_model_passes_every_gluing_verifier():
    """On the zero space ker N and coker N are zero, each extension's i^*
    and i^! are 0 x 0 complexes, and the general checks hold on them."""
    model = JordanStringModel((), 1).to_nilpotent()
    for g in (extension(model, kind) for kind in EXTENSIONS):
        for cx in (g.i_upper_star, g.i_upper_shriek):
            assert cx.ker.dim == cx.d.cod.ambient_dim - cx.im.dim == 0
    seq = verify_sequence_2(model)
    assert seq.passed and seq.notes == ("term dims: 0, 0, 0, 0",)
    assert verify_prop_2_3(model).passed
    assert roundtrips(model)


def test_can_and_var_carry_the_filtrations_of_psi_and_its_twist():
    """In each extension of a model, can.dom is psi's filtration and var.cod
    is psi(-1)'s: the very objects N.dom and N.cod.  So ker N and coker N
    of i^* and i^! carry the filtrations of the model's V and V(-1), with
    the twist, and verify_prop_2_3 compares subspaces only.  Checked on
    string, scrambled and random models."""
    rng = random.Random(27)
    models = [string_model((("L", 3), ("P", 1))), string_model((), 2)]
    for seed in range(20):
        strings = generate_model(seed, 3, 4, seed % 3, ["L", "P"])
        models += [strings.to_nilpotent(), generate_scrambled(strings, seed),
                   raw_model(random_nilpotent(rng, max_dim=5), rng.randint(0, 2))]
    for model in models:
        psi = model.space.filtration
        assert model.N.dom == psi and model.N.cod == psi.shifted(2)
        for kind in EXTENSIONS:
            g = extension(model, kind)
            assert g.psi is model.space
            assert g.can.dom is model.N.dom and g.var.cod is model.N.cod


def test_check_of_a_string_model_induces_no_filtration(monkeypatch, tmp_path):
    """`check` of the J3+J1 pure_strings document runs no Zassenhaus pass:
    the strings give the model's kernel flag, and it builds no extension, so
    it takes no kernel of a can or var and induces no filtration on phi of
    j_!*.  It writes one map (N) in adapted bases, whose graded ranks the
    graded kernel reads."""
    calls = {"_zassenhaus": 0, "_in_bases": 0}
    for module, name in ((qlinalg, "_zassenhaus"), (weights, "_in_bases")):
        def counting(*args, name=name, f=getattr(module, name)):
            calls[name] += 1
            return f(*args)
        monkeypatch.setattr(module, name, counting)
    path = tmp_path / "j3j1.json"
    path.write_text('{"kind": "pure_strings", "n": 1, "strings": '
                    '[{"label": "L", "length": 3}, {"label": "P", "length": 1}]}')
    assert cli.run(["check", str(path)], io.StringIO()) == cli.EXIT_OK
    assert calls == {"_zassenhaus": 0, "_in_bases": 1}


def _steps(filt: WeightFiltration) -> list:
    return [(w, s.basis.entries) for w, s in filt.steps]


def test_model_check_takes_no_rank_of_n(monkeypatch):
    """A model's check eliminates N's full integer rows nowhere: the kernel
    flag and im N, off N's columns, are its only passes over N, and the
    strictness of N reads ker N off the flag.  Every qlinalg._echelon call,
    also as weights reads it, is recorded on nonzero string, scrambled and
    string-basis models, strict or not."""
    rng = random.Random(33)
    models = []
    for seed in range(10):
        strings = generate_model(seed, 3, 4, seed % 3, ["L", "P"])
        models += [strings.to_nilpotent(), generate_scrambled(strings, seed),
                   _string_basis_model(rng)]
    seen, echelon = [], qlinalg._echelon

    def recording(rows):
        rows = list(rows)
        seen.append([tuple(r) for r in rows])
        return echelon(rows)

    for module in (qlinalg, weights):
        monkeypatch.setattr(module, "_echelon", recording)
    verdicts = Counter()
    for model in models:
        if model.N.matrix.is_zero():  # its rows are its columns
            continue
        seen.clear()
        reports = cli._model_reports(model)
        assert seen and [tuple(r) for r in model.N.matrix._ints[0]] not in seen
        verdicts[model.n_complex.strict] += 1
        sequence_2, = (r for r in reports if r.title == "exact sequence around N")
        assert sequence_2.passed == model.n_complex.strict
    assert verdicts[True] >= 10 and verdicts[False] >= 3, verdicts


def test_phi_of_j_intermediate_is_pushed_forward_along_can():
    """phi = im N of j_!* carries can(W_k V).  Where N is strict, on string
    models, scrambled models and the filtrations of _filtrations_n_respects,
    that is the filtration ref_induced_on_sub induces on im N from V(-1).
    On string-basis models, which are strict or not, can is always strict
    and var is strict exactly when N is."""
    rng = random.Random(29)
    strict_models = Counter()
    for seed in range(50):
        strings = generate_model(seed, 3, 4, seed % 3, ["L", "P"])
        mat = random_nilpotent(rng, max_dim=6, entry_bound=1)
        families = [("string", strings.to_nilpotent()),
                    ("scrambled", generate_scrambled(strings, seed))]
        families += [("respected", NilpotentModel.of(WeightedSpace.from_filtration(filt),
                                                     center + 1, mat))
                     for filt, center in _filtrations_n_respects(mat, rng.randint(-2, 2))]
        for family, model in families:
            N, d = model.N, model.space.dim
            assert model.n_complex.strict
            phi = j_intermediate(model.space, N).phi.filtration
            img = [list(col) for col in zip(*N.matrix.entries)]
            assert _steps(phi) == ref_induced_on_sub(_steps(N.cod), img, d)
            strict_models[family] += 1
    assert min(strict_models.values()) >= 50, strict_models
    verdicts = Counter()
    for _ in range(200):
        model = _string_basis_model(rng)
        g = j_intermediate(model.space, model.N)
        assert g.i_upper_star.strict
        assert g.i_upper_shriek.strict == model.n_complex.strict
        verdicts[model.n_complex.strict] += 1
    assert verdicts[True] >= 50 and verdicts[False] >= 50, verdicts


class TestProp23:
    def test_zero_operator(self):
        rep = verify_prop_2_3(string_model((("L", 1),)))
        assert rep.passed

    def test_j2(self):
        assert verify_prop_2_3(string_model((("L", 2),))).passed

    def test_j3_plus_j1_dims(self):
        V, N = string_vn((("L", 3), ("P", 1)))
        g = j_intermediate(V, N)
        assert g.i_upper_star.ker.dim == 2
        assert g.i_upper_shriek.d.cod.ambient_dim - g.i_upper_shriek.im.dim == 2
        assert verify_prop_2_3(string_model((("L", 3), ("P", 1)))).passed

    def test_random_nilpotents(self, rng):
        for _ in range(60):
            mat = random_nilpotent(rng, max_dim=6)
            assert verify_prop_2_3(raw_model(mat, rng.randint(0, 2))).passed
