from collections import Counter
from fractions import Fraction

import pytest

from monofilt import qlinalg, weights
from monofilt.monodromy import JordanStringModel, monodromy_filtration
from monofilt.qlinalg import QMatrix, Subspace, corestriction, image, intersect, inverse
from monofilt.theorems import random_unimodular
from monofilt.weights import (AdaptedMap, FiltrationError, LabeledGrading, NotFiltered,
                              ShapeMismatch, TwistedLabel,
                              WeightFiltration, WeightedSpace, default_grading,
                              image_filtration, is_pure, tate_twist,
                              weights_at_least, weights_at_most)

from conftest import J2, _map, graded_block, is_strict, random_matrix, span
from reference import (ref_adapted_matrix, ref_apply, ref_filtered, ref_graded_map,
                       ref_image_filtration, ref_in_span, ref_is_strict)


def j2_filt():
    return monodromy_filtration(J2, 0)


def j2_space():
    return WeightedSpace.from_filtration(j2_filt())


class TestFiltration:
    def test_normalization_drops_repeats(self):
        f = WeightFiltration.from_spaces(2, [
            (-1, span(2, [1, 0])), (0, span(2, [1, 0])), (1, Subspace.full(2))])
        assert f.weights == (-1, 1)

    @pytest.mark.parametrize("first", [Subspace.zero(2), span(2, [0, 1])])
    def test_repeated_weight_rejected(self, first):
        """A weight given twice is refused, also when its first step equals
        the step below it and would be dropped as a repeat."""
        with pytest.raises(FiltrationError, match="^repeated weight$"):
            WeightFiltration.from_spaces(2, [
                (-1, first), (-1, span(2, [1, 0])), (1, Subspace.full(2))])

    def test_non_nested_rejected(self):
        with pytest.raises(FiltrationError):
            WeightFiltration.from_spaces(2, [
                (0, span(2, [1, 0])), (1, span(2, [0, 1]))])

    def test_non_exhaustive_rejected(self):
        with pytest.raises(FiltrationError):
            WeightFiltration.from_spaces(2, [(0, span(2, [1, 0]))])

    def test_graded_dims_sum_to_dim(self):
        for strings in [(("L", 3),), (("L", 2), ("P", 1)), (("L", 4), ("L", 4))]:
            ws = JordanStringModel(strings, 1).to_nilpotent().space
            assert sum(ws.filtration.graded_dims().values()) == ws.dim


class TestGradedPiece:
    def test_single_jump(self):
        filt = WeightedSpace.pure(3, 5).filtration
        assert filt.graded_dim(5) == 3
        assert filt.graded_dim(4) == 0
        assert filt.graded_dim(6) == 0

    def test_jordan_block_dims(self):
        filt = JordanStringModel((("L", 3),), 1).to_nilpotent().space.filtration
        dims = {k: filt.graded_dim(k) for k in range(-3, 4)}
        assert dims == {-3: 0, -2: 1, -1: 0, 0: 1, 1: 0, 2: 1, 3: 0}

    def test_zero_space(self):
        filt = WeightedSpace.zero().filtration
        assert filt.graded_dim(0) == 0


class TestTateTwist:
    def test_identity(self):
        ws = j2_space()
        assert tate_twist(ws, 0) == ws

    def test_weight_convention(self):
        ws = WeightedSpace.pure(1, 3, "L")
        tw = tate_twist(ws, 1)
        assert tw.filtration.weights == (1,)
        assert tw.grading.at(1) == {TwistedLabel("L", 1): 1}

    def test_inverse(self):
        ws = j2_space()
        assert tate_twist(tate_twist(ws, 2), -2) == ws

    def test_composition(self):
        ws = j2_space()
        assert tate_twist(tate_twist(ws, 1), 2) == tate_twist(ws, 3)


class TestCheckFiltered:
    def test_zero_map(self):
        f = j2_filt()
        assert _map(QMatrix.zero(2, 2), f, f, -7).filtered()

    def test_identity_shift_zero(self):
        f = j2_filt()
        assert AdaptedMap(QMatrix.identity(2), f, f).filtered()

    def test_monodromy_shift(self):
        # N sends the weight-1 line into the weight-(-1) line
        f = j2_filt()
        assert _map(J2, f, f, -2).filtered()
        assert not _map(J2, f, f, -3).filtered()

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            AdaptedMap(QMatrix.zero(3, 3), j2_filt(), j2_filt()).filtered()


class TestCheckStrict:
    def test_one_step_filtrations(self):
        dom = WeightFiltration.single_step(2, 0)
        cod = WeightFiltration.single_step(2, 0)
        assert is_strict(AdaptedMap(J2, dom, cod))

    def test_finer_domain_fails(self):
        dom = WeightFiltration.single_step(1, 1)
        cod = WeightFiltration.single_step(1, 0)
        # identity: image meets W_0(cod) but W_0(dom) = 0
        assert not is_strict(AdaptedMap(QMatrix.identity(1), dom, cod))

    def test_monodromy_operator_is_strict(self):
        for strings in [(("L", 2),), (("L", 3), ("L", 1)), (("L", 4), ("P", 2))]:
            m = JordanStringModel(strings, 1).to_nilpotent()
            f = m.space.filtration
            assert m.n_complex.strict
            assert is_strict(_map(m.N.matrix, f, f, -2))

    def test_not_filtered_precondition(self):
        dom = WeightFiltration.single_step(1, 0)
        cod = WeightFiltration.single_step(1, 5)
        with pytest.raises(NotFiltered):
            is_strict(AdaptedMap(QMatrix.identity(1), dom, cod))

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            is_strict(AdaptedMap(QMatrix.zero(3, 3), j2_filt(), j2_filt()))

    def test_strictness_matches_graded_dimension_oracle(self, rng):
        # strict iff the image filtration computed from the domain matches
        # the one induced from the codomain, weight by weight
        for _ in range(100):
            strings = tuple(("L", rng.randint(1, 3))
                            for _ in range(rng.randint(1, 3)))
            m = JordanStringModel(strings, rng.randint(-1, 2)).to_nilpotent()
            mat, f = m.N.matrix, m.space.filtration
            img = image(mat)
            agree = all(
                intersect(img, f.space_at(k - 2)).dim
                == len(ref_apply(mat.entries, f.space_at(k).basis.entries, mat.rows))
                for k in range(min(f.weights, default=0) - 2, max(f.weights, default=0) + 3))
            assert is_strict(_map(mat, f, f, -2)) == agree


def _transpose(m: QMatrix) -> QMatrix:
    return QMatrix.from_rows(list(zip(*m.entries)), cols=m.rows)


def _random_filtered_space(rng, dim):
    """(WeightFiltration, [(w, spanning rows of W_w)], adapted basis, weights): W_w
    is spanned by the rows of a random unimodular basis of weight <= w."""
    basis = [list(r) for r in random_unimodular(rng, dim).entries]
    weights = sorted(rng.randint(-2, 2) for _ in range(dim))
    steps = [(w, [b for b, u in zip(basis, weights) if u <= w])
             for w in sorted(set(weights))]
    filt = WeightFiltration.from_spaces(
        dim, [(w, Subspace.from_vectors(dim, rows)) for w, rows in steps])
    return filt, steps, basis, weights


def random_filtered_map(rng, filtered=True):
    """A map m between random filtered spaces with m(W_k) in W'_{k+shift}:
    each adapted basis vector of weight w goes to a random combination of
    the codomain's adapted basis vectors of weight <= w + shift.  With
    filtered=False the combination may use every codomain basis vector."""
    dom_dim, cod_dim, shift = rng.randint(0, 4), rng.randint(0, 4), rng.randint(-2, 2)
    dom, dom_steps, e, e_wt = _random_filtered_space(rng, dom_dim)
    cod, cod_steps, f, f_wt = _random_filtered_space(rng, cod_dim)
    coeffs = QMatrix.from_rows(
        [[rng.choice((-1, 0, 0, 1, 2)) if fw <= ew + shift or not filtered else 0
          for ew in e_wt] for fw in f_wt], cols=dom_dim)
    # m e_i = sum_j coeffs[j][i] f_j, so m E^T = F^T coeffs
    e_mat = QMatrix.from_rows(e, cols=dom_dim)
    f_mat = QMatrix.from_rows(f, cols=cod_dim)
    m = _transpose(f_mat) @ coeffs @ inverse(_transpose(e_mat))
    return m, dom, cod, shift, (dom_steps, cod_steps)


class TestStrictnessOracle:
    def test_graded_ranks_match_the_definition(self, rng):
        """TwoTermComplex.strict (is_strict) against ref_is_strict, which
        shares no code with qlinalg, on 300 filtered maps between random
        filtered spaces."""
        verdicts = Counter()
        for _ in range(300):
            m, dom, cod, shift, (dom_steps, cod_steps) = random_filtered_map(rng)
            assert _map(m, dom, cod, shift).filtered()
            want = ref_is_strict([list(r) for r in m.entries], dom.ambient_dim,
                                 cod.ambient_dim, dom_steps, cod_steps, shift)
            assert is_strict(_map(m, dom, cod, shift)) == want
            verdicts[want] += 1
        assert min(verdicts[True], verdicts[False]) >= 50, verdicts

    def test_not_filtered_exactly_when_check_filtered_fails(self, rng):
        """TwoTermComplex.strict has no filteredness pre-pass: NotFiltered is
        raised exactly when AdaptedMap.filtered is false, which matches
        filteredness read off the reference spans."""
        verdicts = Counter()
        for _ in range(300):
            m, dom, cod, shift, (dom_steps, cod_steps) = random_filtered_map(rng, False)
            rows, tm = [list(r) for r in m.entries], _map(m, dom, cod, shift)
            cod_at = {k: [v for w, vs in cod_steps if w <= k for v in vs]
                      for k in {w + shift for w, _ in dom_steps}}
            filtered = all(ref_in_span(cod_at[w + shift], v, cod.ambient_dim)
                           for w, vs in dom_steps
                           for v in ref_apply(rows, vs, cod.ambient_dim))
            assert tm.filtered() == filtered
            if filtered:
                assert is_strict(tm) == ref_is_strict(
                    rows, dom.ambient_dim, cod.ambient_dim, dom_steps, cod_steps, shift)
            else:
                with pytest.raises(NotFiltered):
                    is_strict(tm)
            verdicts[filtered] += 1
        assert min(verdicts[True], verdicts[False]) >= 50, verdicts


def _gapped_filtration(rng, dim, dense):
    """(filtration, [(w, spanning rows of W_w)]): up to four steps at weights
    drawn with gaps from -6 .. 6, W_w spanned by the rows of weight <= w of a
    random unimodular basis (dense) or of the unit vectors in random order,
    every step weight taking at least one row."""
    count = min(dim, rng.choice((1, 2, 3, 4, 4)))
    weights = sorted(rng.sample(range(-6, 7), count))
    tags = sorted(weights + [rng.choice(weights) for _ in range(dim - count)])
    basis = [list(r) for r in random_unimodular(rng, dim, passes=2 if dense else 0).entries]
    steps = [(w, [b for b, u in zip(basis, tags) if u <= w]) for w in weights]
    return WeightFiltration.from_spaces(
        dim, [(w, Subspace.from_vectors(dim, rows)) for w, rows in steps]), steps


def _tagged(steps):
    """The basis rows of _gapped_filtration's steps, each with its weight."""
    out, below = [], 0
    for w, rows in steps:
        out += [(r, w) for r in rows[below:]]
        below = len(rows)
    return out


def _map_between(rng, dom, dom_steps, cod, cod_steps, shift):
    """A map sending W_k into W'_{k+shift}: each basis row of weight w of
    dom's steps goes to a combination of those of weight <= w + shift of
    cod's steps.  Half of the time a random rational matrix instead, which
    mostly is not filtered."""
    if rng.random() < 0.5:
        return QMatrix.from_rows([[Fraction(rng.randint(-2, 2), rng.choice((1, 1, 2, 3)))
                                   for _ in range(dom.ambient_dim)]
                                  for _ in range(cod.ambient_dim)], cols=dom.ambient_dim)
    e, f = _tagged(dom_steps), _tagged(cod_steps)
    coeffs = QMatrix.from_rows([[rng.choice((-1, 0, 1, 2)) if v <= u + shift else 0
                                 for _, u in e] for _, v in f], cols=dom.ambient_dim)
    # m e_i = sum_j coeffs[j][i] f_j, so m E^T = F^T coeffs
    e_mat = QMatrix.from_rows([r for r, _ in e], cols=dom.ambient_dim)
    f_mat = QMatrix.from_rows([r for r, _ in f], cols=cod.ambient_dim)
    return _transpose(f_mat) @ coeffs @ inverse(_transpose(e_mat))


def _assert_graded_maps(m, dom, dom_steps, cod, cod_steps, pairs, outcomes):
    """graded_block(m, dom, cod, k, j) for each (k, j) of pairs against
    ref_graded_map: None exactly when the oracle finds a containment that
    fails, and otherwise the same matrix."""
    rows = [list(r) for r in m.entries]
    for k, j in pairs:
        want = ref_graded_map(rows, dom.ambient_dim, cod.ambient_dim, dom_steps, k,
                              cod_steps, j)
        got = graded_block(m, dom, cod, k, j)
        if want is None:
            assert got is None
            outcomes["not compatible"] += 1
            continue
        assert (got.rows, got.cols) == (cod.graded_dim(j), dom.graded_dim(k))
        assert got.entries == want
        outcomes["maps"] += 1
        outcomes["j not a step weight"] += j not in cod.weights
        outcomes["nonzero block"] += not got.is_zero()


class TestAdaptedBasesOracle:
    """AdaptedMap.adapted and .filtered, and TwoTermComplex.strict, read every
    graded map as a block of one matrix in the bases adapted to the two filtrations;
    the oracles in reference.py build each subquotient map on its own."""

    def test_adapted_matrix_matches_the_oracle(self, rng):
        """The adapted matrix of an AdaptedMap against ref_adapted_matrix, on dense
        and sparse filtrations with gaps, between spaces of different
        dimensions; the adapted bases need not be integral, so coordinates
        with denominators occur."""
        denominators = 0
        for _ in range(150):
            dom, dom_steps = _gapped_filtration(rng, rng.randint(0, 5), rng.random() < 0.6)
            cod, cod_steps = _gapped_filtration(rng, rng.randint(0, 5), rng.random() < 0.8)
            m = _map_between(rng, dom, dom_steps, cod, cod_steps, rng.randint(-3, 3))
            got = AdaptedMap(m, dom, cod)
            assert (got.matrix, got.dom, got.cod) == (m, dom, cod)
            assert got.adapted.entries == ref_adapted_matrix(
                [list(r) for r in m.entries], dom.ambient_dim, cod.ambient_dim,
                dom_steps, cod_steps)
            denominators += any(x.denominator > 1 for r in got.adapted.entries for x in r)
        assert denominators >= 20, denominators

    def test_graded_maps_match_the_subquotient_oracle(self, rng):
        """Filtrations with up to four steps and gaps in the weights, dense
        or sparse, between spaces of different dimensions; every domain
        weight, a weight in a gap, and codomain weights around k + shift,
        steps or not."""
        outcomes = Counter()
        for _ in range(120):
            dom, dom_steps = _gapped_filtration(rng, rng.randint(0, 6), rng.random() < 0.6)
            cod, cod_steps = _gapped_filtration(rng, rng.randint(0, 5), rng.random() < 0.6)
            shift = rng.randint(-3, 3)
            m = _map_between(rng, dom, dom_steps, cod, cod_steps, shift)
            ks = sorted(set(dom.weights) | {rng.randint(-7, 7)})
            pairs = [(k, k + shift + t) for k in ks for t in (-1, 0, 1)]
            pairs += [(k, j) for k in dom.weights for j in cod.weights]
            _assert_graded_maps(m, dom, dom_steps, cod, cod_steps, pairs, outcomes)
            outcomes["three or more steps"] += len(dom.weights) >= 3
        assert min(outcomes.values()) >= 30, outcomes

    def test_filtered_and_strict_match_the_oracle(self, rng):
        """AdaptedMap.filtered against ref_filtered, and TwoTermComplex.strict
        against ref_is_strict when the map is filtered and NotFiltered
        otherwise, for every shift from -3 to 3."""
        outcomes = Counter()
        for _ in range(80):
            dom, dom_steps = _gapped_filtration(rng, rng.randint(0, 5), rng.random() < 0.6)
            cod, cod_steps = _gapped_filtration(rng, rng.randint(0, 5), rng.random() < 0.6)
            m = _map_between(rng, dom, dom_steps, cod, cod_steps, rng.randint(-3, 3))
            rows = [list(r) for r in m.entries]
            dims = (dom.ambient_dim, cod.ambient_dim)
            for shift in range(-3, 4):
                tm = _map(m, dom, cod, shift)
                filtered = ref_filtered(rows, *dims, dom_steps, cod_steps, shift)
                assert tm.filtered() == filtered
                if not filtered:
                    with pytest.raises(NotFiltered):
                        is_strict(tm)
                    outcomes["not filtered"] += 1
                    continue
                strict = ref_is_strict(rows, *dims, dom_steps, cod_steps, shift)
                assert is_strict(tm) == strict
                outcomes[f"strict {strict}"] += 1
        assert min(outcomes.values()) >= 30, outcomes

    def test_tate_twist_carries_the_adapted_basis(self, rng):
        """A Tate twist moves every weight of the adapted basis by -2d and
        carries the basis, whether a map had read it before the twist or not;
        the graded maps of the twisted filtrations match the oracle on the
        shifted steps."""
        outcomes = Counter()
        for i in range(60):
            dom, dom_steps = _gapped_filtration(rng, rng.randint(1, 5), rng.random() < 0.6)
            cod, cod_steps = _gapped_filtration(rng, rng.randint(1, 5), rng.random() < 0.6)
            d, shift = rng.randint(-2, 2), rng.randint(-2, 2)
            m = _map_between(rng, dom, dom_steps, cod, cod_steps, shift)
            if i % 2:  # build both bases before twisting
                _map(m, dom, cod, shift).filtered()
            tw_dom = tate_twist(WeightedSpace.from_filtration(dom), d).filtration
            tw_cod = tate_twist(WeightedSpace.from_filtration(cod), d).filtration
            assert tw_dom.weights == tuple(w - 2 * d for w in dom.weights)
            ident = QMatrix.identity(dom.ambient_dim)
            for k in dom.weights:
                g = graded_block(ident, dom, tw_dom, k, k - 2 * d)
                assert g == QMatrix.identity(dom.graded_dim(k))
            tw_dom_steps = [(w - 2 * d, vs) for w, vs in dom_steps]
            tw_cod_steps = [(w - 2 * d, vs) for w, vs in cod_steps]
            for f, f_steps, g, g_steps in ((tw_dom, tw_dom_steps, cod, cod_steps),
                                           (dom, dom_steps, tw_cod, tw_cod_steps),
                                           (tw_dom, tw_dom_steps, tw_cod, tw_cod_steps)):
                pairs = [(k, j) for k in f.weights for j in g.weights]
                _assert_graded_maps(m, f, f_steps, g, g_steps, pairs, outcomes)
        assert min(outcomes["maps"], outcomes["not compatible"],
                   outcomes["nonzero block"]) >= 30, outcomes


class TestPurityPredicates:
    def test_one_step(self):
        f = WeightFiltration.single_step(2, 4)
        assert is_pure(f, 4)
        assert weights_at_most(f, 4) and weights_at_least(f, 4)
        assert not is_pure(f, 3)

    def test_j2_bounds(self):
        f = j2_filt()
        assert weights_at_most(f, 1)
        assert not weights_at_most(f, 0)
        assert weights_at_least(f, -1)
        assert not is_pure(f, 0)

    def test_zero_space_pure_of_every_weight(self):
        f = WeightedSpace.zero().filtration
        for n in (-2, 0, 5):
            assert is_pure(f, n)


class TestImageFiltration:
    def test_identity(self):
        f = j2_filt()
        assert image_filtration(QMatrix.identity(2), f) == f

    def test_zero_map_onto_zero(self):
        f = image_filtration(QMatrix.zero(0, 2), j2_filt())
        assert f.ambient_dim == 0 and f.steps == ()

    def test_j2_onto_its_image(self):
        """J2 kills W_{-1}, so its image is reached at weight 1 only."""
        f = image_filtration(corestriction(J2, image(J2)), j2_filt())
        assert f == WeightFiltration(1, ((1, Subspace.full(1)),))


def _assert_image_matches_the_oracle(m, f):
    """m(W_k) against ref_image_filtration, in RREF entries and in canonical
    rows, with the pivots each step's pass found."""
    got = image_filtration(m, f)
    want = ref_image_filtration(m.entries, [(w, t.basis.entries) for w, t in f.steps], m.rows)
    assert [(w, t.basis.entries) for w, t in got.steps] == want
    assert got == WeightFiltration.from_spaces(m.rows, [
        (w, Subspace.from_vectors(m.rows, rows)) for w, rows in want])
    for _, t in got.steps:
        assert t.pivots == tuple(next(j for j, x in enumerate(r) if x) for r in t._rows)


def _scrambled_filtration(rng, strings):
    """The monodromy filtration of a string operator conjugated by a random
    unimodular matrix, so its steps have dense rows."""
    n_op = JordanStringModel(strings, 0).operator_and_grading()[0]
    u = random_unimodular(rng, n_op.rows)
    return monodromy_filtration(u @ n_op @ inverse(u), rng.randint(-2, 2))


class TestImageAgainstOracle:
    @pytest.mark.parametrize("kind", ["string", "scrambled", "random"])
    def test_image_filtrations(self, rng, kind):
        """On maps onto their codomain: corestrictions of random matrices
        onto their images, an invertible map, and the zero map onto Q^0."""
        for _ in range(40):
            strings = tuple(("L", rng.randint(1, 3)) for _ in range(rng.randint(1, 3)))
            if kind == "string":
                f = JordanStringModel(strings, rng.randint(-1, 2)).to_nilpotent().space.filtration
            elif kind == "scrambled":
                f = _scrambled_filtration(rng, strings)
            else:
                f = _random_filtered_space(rng, rng.randint(1, 6))[0]
            d = f.ambient_dim
            a = random_matrix(rng, rng.randint(1, d + 1), d)
            for m in (corestriction(a, image(a)), random_unimodular(rng, d),
                      QMatrix.zero(0, d)):
                _assert_image_matches_the_oracle(m, f)

    def test_coordinates_divided_by_their_gcd(self):
        """Onto s = span((1, 1/2, 0), (0, 0, 1)) the vector (2, 1, 4) has the
        entries 2 and 4 at the pivots of s: its coordinate row is (1, 2)."""
        s = span(3, [1, Fraction(1, 2), 0], [0, 0, 1])
        f = WeightFiltration.from_spaces(3, [(-1, span(3, [1, 0, 0])), (1, Subspace.full(3))])
        for first in ([1, Fraction(1, 2), 0], [2, 1, 4], [0, 0, 3]):
            a = QMatrix.from_rows(zip(first, [0, 0, 1], [1, Fraction(1, 2), 0]))
            _assert_image_matches_the_oracle(corestriction(a, s), f)
        a = QMatrix.from_rows(zip([2, 1, 4], [0, 0, 1], [0, 0, 1]))
        assert image_filtration(corestriction(a, s), f).steps[0] \
            == (-1, Subspace(2, ((1, 2),), (0,)))

    def test_one_pass_and_no_intersection(self, monkeypatch):
        """The image filtration makes one _prefix_spans pass, which takes
        the image of each of the d adapted basis vectors once, and calls
        qlinalg.intersect for none of its steps."""
        passes = []
        real = weights._prefix_spans

        def counted(groups, *args):
            i = len(passes)
            passes.append(0)

            def read(group):
                for v in group:
                    passes[i] += 1
                    yield v
            return real(map(read, groups), *args)

        def refused(*args):
            raise AssertionError("intersect called")

        monkeypatch.setattr(weights, "_prefix_spans", counted)
        monkeypatch.setattr(qlinalg, "intersect", refused)
        model = JordanStringModel((("L", 4), ("L", 3), ("L", 1)), 1).to_nilpotent()
        f = model.space.filtration
        m = corestriction(model.N.matrix, image(model.N.matrix))
        assert len(f.steps) > 3
        image_filtration(m, f)
        assert passes == [8]


class TestGrading:
    def test_consistency_enforced(self):
        filt = WeightFiltration.single_step(2, 0)
        bad = LabeledGrading.single(0, "L", 3)
        with pytest.raises(Exception):
            WeightedSpace(2, filt, bad)

    def test_twisted_grading(self):
        g = LabeledGrading.single(3, "L", 2)
        t = g.twisted(1)
        assert t.at(1) == {TwistedLabel("L", 1): 2}


class TestDefaultGrading:
    def test_strings_at_a_symmetric_center(self):
        for strings in [(("pt", 3), ("pt", 1)), (("pt", 4), ("pt", 2), ("pt", 2)),
                        (("pt", 1), ("pt", 1))]:
            for n in (-1, 0, 2):
                ws = JordanStringModel(strings, n).to_nilpotent().space
                assert default_grading(ws.filtration, center=n - 1) == ws.grading

    def test_twist_zero_without_a_center(self):
        filt = JordanStringModel((("pt", 3),), 1).to_nilpotent().space.filtration
        assert default_grading(filt) == LabeledGrading.from_dict(
            {w: {TwistedLabel("pt"): 1} for w in (-2, 0, 2)})

    def test_twist_zero_when_not_symmetric(self):
        filt = WeightFiltration.from_spaces(2, [
            (-2, span(2, [1, 0])), (1, Subspace.full(2))])
        for center in (0, 1, -1):
            assert default_grading(filt, center=center) == LabeledGrading.from_dict(
                {-2: {TwistedLabel("pt"): 1}, 1: {TwistedLabel("pt"): 1}})

    def test_twist_zero_when_primitive_dims_negative(self):
        # dims 2, 1, 2 at -2, 0, 2 are symmetric about 0, but p_0 = 1 - 2 < 0
        filt = WeightFiltration.from_spaces(5, [
            (-2, span(5, [1, 0, 0, 0, 0], [0, 1, 0, 0, 0])),
            (0, span(5, [1, 0, 0, 0, 0], [0, 1, 0, 0, 0], [0, 0, 1, 0, 0])),
            (2, Subspace.full(5))])
        assert all(lbl.twist == 0 for _, terms in
                   default_grading(filt, center=0).entries for lbl, _ in terms)
