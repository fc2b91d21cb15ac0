from collections import Counter

import pytest

from monofilt.kgroup import (BadSupport, KClass, kclass_of_space,
                             kclass_psi_from_kernel)
from monofilt.monodromy import JordanStringModel, graded_kernel, monodromy_filtration
from monofilt.weights import LabeledGrading, TwistedLabel, WeightedSpace, default_grading

from reference import ref_string_grading


class TestKClass:
    def test_canonical_no_zeros(self):
        c = KClass.from_dict({TwistedLabel("L", 0): 0, TwistedLabel("P", 1): 2})
        assert c.terms == ((TwistedLabel("P", 1), 2),)

    def test_str_sorted(self):
        c = KClass.from_dict({TwistedLabel("L", -1): 1, TwistedLabel("L", 0): 1})
        assert str(c) == "L(0) + L(-1)"


class TestKClassOfSpace:
    def test_zero_space(self):
        assert kclass_of_space(WeightedSpace.zero()) == KClass.zero()

    def test_multiplicity(self):
        ws = WeightedSpace.pure(2, 3, "L")
        assert kclass_of_space(ws) == KClass.from_dict({TwistedLabel("L", 0): 2})

    def test_j2_string(self):
        ws = JordanStringModel((("L", 2),), 1).to_nilpotent().space
        assert kclass_of_space(ws) == KClass.from_dict(
            {TwistedLabel("L", 0): 1, TwistedLabel("L", -1): 1})


class TestKClassPsiFromKernel:
    def test_n_equals_zero_operator(self):
        g = LabeledGrading.single(4, "L", 1)
        assert kclass_psi_from_kernel(g, 5) == KClass.from_dict(
            {TwistedLabel("L", 0): 1})

    def test_single_j2_string(self):
        g = LabeledGrading.single(-1, "L", 1)
        assert kclass_psi_from_kernel(g, 1) == KClass.from_dict(
            {TwistedLabel("L", 0): 1, TwistedLabel("L", -1): 1})

    def test_j3_plus_j1(self):
        g = LabeledGrading.from_dict({-2: {TwistedLabel("L"): 1},
                                      0: {TwistedLabel("P"): 1}})
        assert kclass_psi_from_kernel(g, 1) == KClass.from_dict({
            TwistedLabel("L", 0): 1, TwistedLabel("L", -1): 1,
            TwistedLabel("L", -2): 1, TwistedLabel("P", 0): 1})

    def test_bad_support(self):
        with pytest.raises(BadSupport):
            kclass_psi_from_kernel(LabeledGrading.single(3, "L", 1), 1)

    def test_additive_in_kernel_grading(self, rng):
        for _ in range(40):
            n = rng.randint(0, 3)
            d1 = {n - 1 - m: {TwistedLabel(rng.choice("LP")): rng.randint(1, 3)}
                  for m in rng.sample(range(5), rng.randint(1, 3))}
            d2 = {n - 1 - m: {TwistedLabel(rng.choice("LP")): rng.randint(1, 3)}
                  for m in rng.sample(range(5), rng.randint(1, 3))}
            merged = {}
            for d in (d1, d2):
                for w, terms in d.items():
                    merged.setdefault(w, {})
                    for lbl, c in terms.items():
                        merged[w][lbl] = merged[w].get(lbl, 0) + c
            lhs = kclass_psi_from_kernel(LabeledGrading.from_dict(merged), n)
            rhs = Counter()
            for d in (d1, d2):
                rhs.update(dict(kclass_psi_from_kernel(LabeledGrading.from_dict(d), n).terms))
            assert lhs == KClass.from_dict(rhs)

    def test_matches_direct_class_on_string_models(self, rng):
        for _ in range(60):
            strings = tuple((rng.choice("LPQ"), rng.randint(1, 4))
                            for _ in range(rng.randint(1, 4)))
            n = rng.randint(-1, 3)
            model = JordanStringModel(strings, n).to_nilpotent()
            gk = graded_kernel(model)
            assert kclass_of_space(model.space) == \
                kclass_psi_from_kernel(gk.grading, n)


def _as_ref(grading: LabeledGrading) -> dict:
    return {w: {(lbl.label, lbl.twist): m for lbl, m in terms} for w, terms in grading.entries}


def test_string_gradings_and_classes_match_the_oracle(rng):
    """The Lefschetz rule, read three ways, against ref_string_grading, which
    writes each string vector's weight and label down directly: the string
    grading, the default grading of M(N) at the center on all-pt models, and
    the class assembled from the graded kernel."""
    for _ in range(60):
        strings = tuple((rng.choice("LPQ"), rng.randint(1, 5))
                        for _ in range(rng.randint(0, 4)))
        n = rng.randint(-2, 3)
        want = ref_string_grading(strings, n)
        model = JordanStringModel(strings, n)
        assert _as_ref(model.operator_and_grading()[1]) == want
        cls = kclass_psi_from_kernel(graded_kernel(model.to_nilpotent()).grading, n)
        total = Counter()
        for piece in want.values():
            total.update(piece)
        assert {(lbl.label, lbl.twist): c for lbl, c in cls.terms} == dict(total)
        pts = tuple(("pt", length) for _, length in strings)
        n_op = JordanStringModel(pts, n).operator_and_grading()[0]
        assert _as_ref(default_grading(monodromy_filtration(n_op, n - 1), n - 1)) == \
            ref_string_grading(pts, n)
