import hashlib
import random
from collections import Counter

import pytest

from monofilt import gluing, qlinalg, weights
from monofilt.gluing import EXTENSIONS
from monofilt.kgroup import kclass_of_space
from monofilt.monodromy import (JordanStringModel, NilpotentModel, NotPure, graded_kernel,
                                monodromy_filtration, verify_hard_lefschetz)
from monofilt.report import Report
from monofilt.theorems import (DiskModel, generate_model, generate_scrambled,
                               random_nilpotent,
                               verify_kclass_independence,
                               verify_local_invariant_cycles,
                               verify_weight_mechanics)
from monofilt.weights import WeightedSpace

from conftest import _filtrations_n_respects
from reference import ref_induced_on_quotient, ref_induced_on_sub, ref_null


def disk(strings, n=1, point_dim=0, **kw):
    open_model = JordanStringModel(strings, n).to_nilpotent()
    point = WeightedSpace.pure(point_dim, n, "P") if point_dim \
        else WeightedSpace.zero()
    return DiskModel(open_model, point, **kw)


class TestKClassIndependence:
    def test_model_against_itself(self):
        m = JordanStringModel((("L", 2),), 1)
        assert verify_kclass_independence(m, m).passed

    def test_conjugated_j2(self):
        m = JordanStringModel((("L", 2),), 1)
        s = generate_scrambled(m, seed=3)
        rep = verify_kclass_independence(m, s)
        assert rep.passed

    def test_distinct_kernel_gradings_report_hypothesis(self):
        a = JordanStringModel((("L", 2),), 1)          # kernel at weight -1
        b = JordanStringModel((("L", 1), ("L", 1)), 1)  # kernel at weight 0
        rep = verify_kclass_independence(a, b)
        assert not rep.passed
        assert any("hypothesis not satisfied" in n for n in rep.notes)

    def test_impure_rejected(self):
        import monofilt.monodromy as M
        from monofilt.weights import WeightFiltration, WeightedSpace
        from monofilt.qlinalg import Subspace
        from conftest import J2, span
        filt = WeightFiltration.from_spaces(2, [
            (-2, span(2, [1, 0])), (1, Subspace.full(2))])
        bad = M.NilpotentModel.of(WeightedSpace.from_filtration(filt), 1, J2)
        with pytest.raises(NotPure):
            verify_kclass_independence(bad, bad)


class TestLocalInvariantCycles:
    def test_j2_string_exact(self):
        dm = disk((("L", 2),))
        rep = verify_local_invariant_cycles(dm, -1)
        assert rep.passed

    def test_zero_operator_surjects(self):
        dm = disk((("L", 1), ("L", 1)))
        assert verify_local_invariant_cycles(dm, -1).passed

    def test_point_part_slot(self):
        dm = disk((("L", 2),), point_dim=2)
        assert verify_local_invariant_cycles(dm, 0).passed

    def test_impure_shriek_fails(self):
        dm = disk((("L", 1),), pure=False, extension="shriek")
        rep = verify_local_invariant_cycles(dm, -1)
        assert not rep.passed
        assert any("hypothesis violated" in n for n in rep.notes)


def test_disk_reports_take_each_kernel_once(monkeypatch):
    """The lic and weight-mechanics reports of one disk, at k = -1 and 0 and
    asked three times, take ker(can) and ker(var) once each from the disk's
    datum, im(var) once, and im N once, when the datum is built.  ker N is
    the open model's, whose hard Lefschetz check built the kernel flag."""
    dm = disk((("L", 3), ("L", 2)))
    assert "kernels" in vars(dm.open_part)
    kernels, images = [], []
    kernel, image = gluing.kernel, qlinalg.image
    monkeypatch.setattr(gluing, "kernel", lambda m: kernels.append(m) or kernel(m))
    # every two-term complex, the model's of N and the datum's restrictions,
    # takes its image in weights; gluing takes none
    for mod in (qlinalg, weights):
        monkeypatch.setattr(mod, "image", lambda m: images.append(m) or image(m))
    for _ in range(3):
        for k in (-1, 0):
            assert verify_local_invariant_cycles(dm, k).passed
            assert verify_weight_mechanics(dm, k).passed
    g = dm.datum()
    assert kernels == [g.can.matrix, g.var.matrix]
    assert images == [dm.open_part.N.matrix, g.var.matrix]


class TestWeightMechanics:
    def test_pure_j2(self):
        dm = disk((("L", 2),))
        assert verify_weight_mechanics(dm, -1).passed
        assert verify_weight_mechanics(dm, 0).passed

    def test_zero_operator_vacuous_bound(self):
        dm = disk((("L", 1),))
        rep = verify_weight_mechanics(dm, -1)
        assert rep.passed
        assert rep.result("i_shriek_lower_bound").detail.startswith("vacuous")

    def test_returns_a_report_with_claim_lookup(self):
        rep = verify_weight_mechanics(disk((("L", 1),)), 0)
        assert isinstance(rep, Report) and rep.title == "weight mechanics (k=0)"
        assert [c.name for c in rep.checks] == [
            "monodromy_centered", "kernel_weight_bound", "i_shriek_lower_bound",
            "surjective_on_low_weights"]
        with pytest.raises(KeyError):
            rep.result("no_such_claim")

    def test_impure_shriek_pinpoints_claim_4(self):
        dm = disk((("L", 1),), pure=False, extension="shriek")
        rep = verify_weight_mechanics(dm, -1)
        assert not rep.result("surjective_on_low_weights").passed

    def test_implication_holds_on_mixed_corpus(self, rng):
        """Each disk, and an impure twin whose open part carries M(N) read
        one weight up.  monodromy_centered, read off the open part's hard
        Lefschetz, gives the verdict of comparing psi's filtration with
        M(N, n-1) built afresh."""
        centered = Counter()
        for i in range(80):
            strings = tuple(("L", rng.randint(1, 3))
                            for _ in range(rng.randint(1, 3)))
            ext = rng.choice(["intermediate", "shriek", "star"])
            dm = disk(strings, n=rng.randint(0, 2),
                      pure=(ext == "intermediate"), extension=ext)
            n, mat = dm.n, dm.open_part.N.matrix
            off = NilpotentModel.of(WeightedSpace.from_filtration(
                monodromy_filtration(mat, n)), n, mat)
            for dm in (dm, DiskModel(off, WeightedSpace.zero(), pure=False, extension=ext)):
                for k in (-1, 0):
                    wm = verify_weight_mechanics(dm, k)
                    lic = verify_local_invariant_cycles(dm, k)
                    if wm.passed:
                        assert lic.passed
                verdict = verify_weight_mechanics(dm, -1).result("monodromy_centered").passed
                assert verdict == \
                    (dm.datum().psi.filtration == monodromy_filtration(mat, n - 1))
                centered[verdict] += 1
        assert centered[True] and centered[False], centered

    def test_pure_models_never_fail(self, rng):
        for i in range(40):
            m = generate_model(1000 + i, 3, 4, 1, ["L", "P"])
            dm = DiskModel(m.to_nilpotent(), WeightedSpace.zero())
            for k in (-1, 0):
                assert verify_weight_mechanics(dm, k).passed
                assert verify_local_invariant_cycles(dm, k).passed


def _lowest_weight(induced) -> int | None:
    """The first weight of a reference induced filtration, None if it is zero."""
    return induced[0][0] if induced else None


def test_i_shriek_bounds_match_the_induced_filtrations():
    """The i_shriek_lower_bound claims are subspace tests: at k = -1 that
    ker(var) meets W_{n-1}(phi) in zero, at k = 0 that W_n(psi(-1)) lies in
    im var.  Each equals the verdict read off the lowest weight of the
    filtration that ref_induced_on_sub induces on ker(var), and that
    ref_induced_on_quotient induces on coker(var), with the point part's
    weight.  On disks whose open parts carry filtrations N shifts by -2
    (_filtrations_n_respects and M(N) itself), with every extension, pure
    and impure."""
    rng = random.Random(2028)
    outcomes = Counter()
    for _ in range(60):
        mat = random_nilpotent(rng, max_dim=6, entry_bound=1)
        center = rng.randint(-2, 2)
        filtrations = _filtrations_n_respects(mat, center)
        for filt, c in filtrations + [(monodromy_filtration(mat, center), center)]:
            n = c + 1
            model = NilpotentModel.of(WeightedSpace.from_filtration(filt), n, mat)
            for ext in EXTENSIONS:
                pure = ext == "intermediate" and verify_hard_lefschetz(model).passed
                weight = n if pure else n + rng.choice((-1, 0, 0, 1))
                point = rng.choice((WeightedSpace.zero(), WeightedSpace.pure(1, weight, "P")))
                dm = DiskModel(model, point, pure=pure, extension=ext)
                g, point_ok = dm.datum(), not point.dim or weight >= n
                var, phi, twisted = g.var.matrix.entries, g.var.dom, g.var.cod
                ker = ref_null(var, phi.ambient_dim)
                if ker:
                    low = _lowest_weight(ref_induced_on_sub(
                        [(w, s.basis.entries) for w, s in phi.steps], ker, phi.ambient_dim))
                    got = verify_weight_mechanics(dm, -1).result("i_shriek_lower_bound")
                    assert got.passed == (low >= n and point_ok)
                    outcomes[-1, got.passed] += 1
                low = _lowest_weight(ref_induced_on_quotient(
                    [(w, s.basis.entries) for w, s in twisted.steps],
                    [list(col) for col in zip(*var)], twisted.ambient_dim))
                if low is not None:
                    got = verify_weight_mechanics(dm, 0).result("i_shriek_lower_bound")
                    assert got.passed == (low >= n + 1)
                    outcomes[0, got.passed] += 1
    assert min(outcomes[k, v] for k in (-1, 0) for v in (True, False)) >= 50, outcomes


class TestDiskModel:
    def test_pure_requires_intermediate(self):
        with pytest.raises(ValueError):
            disk((("L", 2),), pure=True, extension="shriek")

    def test_point_part_weight_checked(self):
        open_model = JordanStringModel((("L", 2),), 1).to_nilpotent()
        with pytest.raises(ValueError):
            DiskModel(open_model, WeightedSpace.pure(1, 5, "P"))


class TestGenerators:
    def test_determinism(self):
        a = generate_model(42, 3, 4, 1, ["L", "P"])
        b = generate_model(42, 3, 4, 1, ["L", "P"])
        assert a == b

    def test_scrambled_is_pure(self):
        from monofilt.monodromy import verify_hard_lefschetz
        for seed in range(10):
            m = generate_model(seed, 3, 4, 1, ["L", "P"])
            s = generate_scrambled(m, seed)
            assert verify_hard_lefschetz(s).passed

    def test_scrambled_preserves_kernel_grading_and_class(self):
        for seed in range(10):
            m = generate_model(seed, 3, 3, 2, ["L"])
            base = m.to_nilpotent()
            s = generate_scrambled(m, seed + 99)
            assert graded_kernel(base).grading == graded_kernel(s).grading
            assert kclass_of_space(base.space) == kclass_of_space(s.space)


def pinned_disks():
    """A pure J3 + J1 disk with a point label, an impure shriek disk whose
    point weight is above n, and an impure star disk with no point part."""
    return {
        "pure_point": disk((("L", 3), ("L", 1)), point_dim=1),
        "shriek_high_point": DiskModel(
            JordanStringModel((("L", 2),), 1).to_nilpotent(),
            WeightedSpace.pure(1, 3, "P"), pure=False, extension="shriek"),
        "star_no_point": disk((("L", 2), ("L", 1)), n=0, pure=False,
                              extension="star"),
    }


# to_text() of (local invariant cycles, weight mechanics) for each disk and k
PINNED_REPORTS = {
    ("pure_point", -2): (
        "[PASS] local invariant cycles (k=-2)\n"
        "  ok   both terms vanish — vacuous",
        "[PASS] weight mechanics (k=-2)\n"
        "  ok   monodromy_centered — vacuous\n"
        "  ok   kernel_weight_bound — vacuous\n"
        "  ok   i_shriek_lower_bound — vacuous\n"
        "  ok   surjective_on_low_weights — vacuous",
    ),
    ("pure_point", -1): (
        "[PASS] local invariant cycles (k=-1)\n"
        "  ok   image of H^{-1}(i^*M) equals ker N — dims 2 vs 2",
        "[PASS] weight mechanics (k=-1)\n"
        "  ok   monodromy_centered — center 0\n"
        "  ok   kernel_weight_bound — ker N within W_0\n"
        "  ok   i_shriek_lower_bound — vacuous; point part included\n"
        "  ok   surjective_on_low_weights — low-weight part of ker N: dim 2, image dim 2",
    ),
    ("pure_point", 0): (
        "[PASS] local invariant cycles (k=0)\n"
        "  ok   image equals ker N in H^0 = 0 — vacuous",
        "[PASS] weight mechanics (k=0)\n"
        "  ok   monodromy_centered — vacuous\n"
        "  ok   kernel_weight_bound — vacuous\n"
        "  ok   i_shriek_lower_bound — coker(var) weights vs >= 2\n"
        "  ok   surjective_on_low_weights — low weights of coker N reached from the central fibre",
    ),
    ("pure_point", 1): (
        "[PASS] local invariant cycles (k=1)\n"
        "  ok   both terms vanish — vacuous",
        "[PASS] weight mechanics (k=1)\n"
        "  ok   monodromy_centered — vacuous\n"
        "  ok   kernel_weight_bound — vacuous\n"
        "  ok   i_shriek_lower_bound — vacuous\n"
        "  ok   surjective_on_low_weights — vacuous",
    ),
    ("shriek_high_point", -2): (
        "[PASS] local invariant cycles (k=-2)\n"
        "  ok   both terms vanish — vacuous\n"
        "  note: hypothesis violated (impure input); exactness not guaranteed",
        "[PASS] weight mechanics (k=-2)\n"
        "  ok   monodromy_centered — vacuous\n"
        "  ok   kernel_weight_bound — vacuous\n"
        "  ok   i_shriek_lower_bound — vacuous\n"
        "  ok   surjective_on_low_weights — vacuous\n"
        "  note: impure input: claims evaluated but not guaranteed",
    ),
    ("shriek_high_point", -1): (
        "[FAIL] local invariant cycles (k=-1)\n"
        "  FAIL image of H^{-1}(i^*M) equals ker N — dims 0 vs 1\n"
        "  note: hypothesis violated (impure input); exactness not guaranteed",
        "[FAIL] weight mechanics (k=-1)\n"
        "  ok   monodromy_centered — center 0\n"
        "  ok   kernel_weight_bound — ker N within W_0\n"
        "  FAIL i_shriek_lower_bound — ker(var) weights vs >= 1; point part included\n"
        "  FAIL surjective_on_low_weights — low-weight part of ker N: dim 1, image dim 0\n"
        "  note: impure input: claims evaluated but not guaranteed",
    ),
    ("shriek_high_point", 0): (
        "[PASS] local invariant cycles (k=0)\n"
        "  ok   image equals ker N in H^0 = 0 — vacuous\n"
        "  note: hypothesis violated (impure input); exactness not guaranteed",
        "[PASS] weight mechanics (k=0)\n"
        "  ok   monodromy_centered — vacuous\n"
        "  ok   kernel_weight_bound — vacuous\n"
        "  ok   i_shriek_lower_bound — coker(var) weights vs >= 2\n"
        "  ok   surjective_on_low_weights — low weights of coker N reached from the central fibre\n"
        "  note: impure input: claims evaluated but not guaranteed",
    ),
    ("shriek_high_point", 1): (
        "[PASS] local invariant cycles (k=1)\n"
        "  ok   both terms vanish — vacuous\n"
        "  note: hypothesis violated (impure input); exactness not guaranteed",
        "[PASS] weight mechanics (k=1)\n"
        "  ok   monodromy_centered — vacuous\n"
        "  ok   kernel_weight_bound — vacuous\n"
        "  ok   i_shriek_lower_bound — vacuous\n"
        "  ok   surjective_on_low_weights — vacuous\n"
        "  note: impure input: claims evaluated but not guaranteed",
    ),
    ("star_no_point", -2): (
        "[PASS] local invariant cycles (k=-2)\n"
        "  ok   both terms vanish — vacuous\n"
        "  note: hypothesis violated (impure input); exactness not guaranteed",
        "[PASS] weight mechanics (k=-2)\n"
        "  ok   monodromy_centered — vacuous\n"
        "  ok   kernel_weight_bound — vacuous\n"
        "  ok   i_shriek_lower_bound — vacuous\n"
        "  ok   surjective_on_low_weights — vacuous\n"
        "  note: impure input: claims evaluated but not guaranteed",
    ),
    ("star_no_point", -1): (
        "[PASS] local invariant cycles (k=-1)\n"
        "  ok   image of H^{-1}(i^*M) equals ker N — dims 2 vs 2\n"
        "  note: hypothesis violated (impure input); exactness not guaranteed",
        "[PASS] weight mechanics (k=-1)\n"
        "  ok   monodromy_centered — center -1\n"
        "  ok   kernel_weight_bound — ker N within W_-1\n"
        "  ok   i_shriek_lower_bound — vacuous\n"
        "  ok   surjective_on_low_weights — low-weight part of ker N: dim 2, image dim 2\n"
        "  note: impure input: claims evaluated but not guaranteed",
    ),
    ("star_no_point", 0): (
        "[PASS] local invariant cycles (k=0)\n"
        "  ok   image equals ker N in H^0 = 0 — vacuous\n"
        "  note: hypothesis violated (impure input); exactness not guaranteed",
        "[PASS] weight mechanics (k=0)\n"
        "  ok   monodromy_centered — vacuous\n"
        "  ok   kernel_weight_bound — vacuous\n"
        "  ok   i_shriek_lower_bound — vacuous\n"
        "  ok   surjective_on_low_weights — low weights of coker N reached from the central fibre\n"
        "  note: impure input: claims evaluated but not guaranteed",
    ),
    ("star_no_point", 1): (
        "[PASS] local invariant cycles (k=1)\n"
        "  ok   both terms vanish — vacuous\n"
        "  note: hypothesis violated (impure input); exactness not guaranteed",
        "[PASS] weight mechanics (k=1)\n"
        "  ok   monodromy_centered — vacuous\n"
        "  ok   kernel_weight_bound — vacuous\n"
        "  ok   i_shriek_lower_bound — vacuous\n"
        "  ok   surjective_on_low_weights — vacuous\n"
        "  note: impure input: claims evaluated but not guaranteed",
    ),
}


@pytest.mark.parametrize("name, k", sorted(PINNED_REPORTS))
def test_lic_and_weight_mechanics_reports_are_pinned(name, k):
    dm = pinned_disks()[name]
    assert (verify_local_invariant_cycles(dm, k).to_text(),
            verify_weight_mechanics(dm, k).to_text()) == PINNED_REPORTS[name, k]


def test_generators_build_the_same_matrices_from_the_same_seeds():
    """random_nilpotent and generate_scrambled (through random_unimodular)
    draw the same values from the same seeds as when they built Fraction
    rows: the digest below was taken from that version."""
    h = hashlib.sha256()
    for seed in range(100):
        h.update(repr(random_nilpotent(random.Random(seed), max_dim=8).entries).encode())
    for seed in range(30):
        model = generate_scrambled(generate_model(seed, 3, 4, 1, ["L", "P"]), seed)
        h.update(repr((model.N.matrix.entries, model.space.filtration)).encode())
    assert h.hexdigest() == \
        "2d4d59832329a34bd87c490dc3040e6e5e04164276f088e38091f6854c0a47c5"
