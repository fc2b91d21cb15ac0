import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from monofilt.qlinalg import (AmbientMismatch, QMatrix, Subspace, _echelon, image,
                              intersect, inverse, kernel)
from monofilt.weights import WeightFiltration

from conftest import (J2, J3, graded_block, qm, random_matrix, random_subspace, rref_basis,
                      span)
from reference import ref_matvec


small_entries = st.integers(min_value=-3, max_value=3)


@st.composite
def matrices(draw, max_dim=5):
    rows = draw(st.integers(1, max_dim))
    cols = draw(st.integers(1, max_dim))
    data = draw(st.lists(st.lists(small_entries, min_size=cols, max_size=cols),
                         min_size=rows, max_size=rows))
    return QMatrix.from_rows(data)


class TestRref:
    def test_permutation_of_identity(self):
        assert rref_basis(qm([[0, 1], [1, 0]])) == QMatrix.identity(2)

    def test_rank_one_scaling(self):
        assert rref_basis(qm([[2, 4], [1, 2]])) == qm([[1, 2]])

    def test_hand_elimination(self):
        # [[1,1],[1,2]]: r2 -= r1 gives [[1,1],[0,1]]; r1 -= r2 gives identity
        assert rref_basis(qm([[1, 1], [1, 2]])) == QMatrix.identity(2)

    @given(matrices())
    def test_idempotent(self, m):
        assert rref_basis(rref_basis(m)) == rref_basis(m)


class TestKernelImage:
    def test_zero_map(self):
        assert kernel(QMatrix.zero(2, 2)) == Subspace.full(2)
        assert image(QMatrix.zero(2, 2)) == Subspace.zero(2)

    def test_identity(self):
        assert kernel(QMatrix.identity(3)) == Subspace.zero(3)
        assert image(QMatrix.identity(3)) == Subspace.full(3)

    def test_jordan_block(self):
        # J2 e1 = 0, J2 e2 = e1
        assert kernel(J2) == span(2, [1, 0])
        assert image(J2) == span(2, [1, 0])

    @given(matrices())
    def test_rank_nullity(self, m):
        assert kernel(m).dim + image(m).dim == m.cols

    @given(matrices())
    def test_members_map_to_zero(self, m):
        for v in kernel(m).basis.entries:
            assert all(x == 0 for x in ref_matvec(m.entries, v))


class TestLattice:
    def test_coordinate_lines(self):
        assert intersect(span(2, [1, 0]), span(2, [0, 1])) == Subspace.zero(2)

    def test_idempotent(self):
        v = span(3, [1, 2, 3], [0, 1, 1])
        assert intersect(v, v) == v

    def test_containment(self):
        line = span(3, [1, 1, 0])
        plane = span(3, [1, 0, 0], [0, 1, 0])
        assert intersect(line, plane) == line

    def test_sum(self):
        assert Subspace.zero(2) + span(2, [1, 1]) == span(2, [1, 1])
        assert span(2, [1, 0]) + span(2, [0, 1]) == Subspace.full(2)
        assert span(2, [1, 1]) + span(2, [1, -1]) == Subspace.full(2)

    def test_ambient_mismatch(self):
        with pytest.raises(AmbientMismatch):
            intersect(span(2, [1, 0]), span(3, [1, 0, 0]))
        with pytest.raises(AmbientMismatch):
            span(2, [1, 0]) + span(3, [1, 0, 0])

    def test_modular_dimension_law(self):
        rng = random.Random(11)
        for _ in range(200):
            d = rng.randint(1, 6)
            a = random_subspace(rng, d)
            b = random_subspace(rng, d)
            assert intersect(a, b).dim + (a + b).dim == a.dim + b.dim

    def test_canonical_equality(self):
        # two spanning sets of the same plane produce identical values
        a = span(3, [1, 1, 0], [0, 0, 1])
        b = span(3, [2, 2, 2], [1, 1, -1], [3, 3, 1])
        assert a == b


def _filtration(d, *spaces):
    """The filtration of Q^d with W_i = spaces[i] and W_{len(spaces)} = Q^d."""
    steps = list(enumerate(spaces)) + [(len(spaces), Subspace.full(d))]
    return WeightFiltration.from_spaces(d, steps)


class TestInducedMap:
    def test_identity_on_quotient(self):
        f = _filtration(3, span(3, [1, 0, 0]))
        assert graded_block(QMatrix.identity(3), f, f, 1, 1) == QMatrix.identity(2)

    def test_zero_map(self):
        f = _filtration(3, span(3, [1, 0, 0]))
        assert graded_block(QMatrix.zero(3, 3), f, f, 1, 1) == QMatrix.zero(2, 2)

    def test_jordan_kernel_powers(self):
        f = _filtration(3, kernel(J3), kernel(J3 @ J3))
        # Gr_1 = ker J3^2 / ker J3 -> Gr_0 = ker J3, and Gr_2 = Q^3 / ker J3^2 -> Gr_1
        assert graded_block(J3, f, f, 1, 0) == qm([[1]])
        assert graded_block(J3, f, f, 2, 1) == qm([[1]])

    def test_incompatible(self):
        # J2 does not map W_0 = Q^2 into W'_0 = 0
        dom, cod = _filtration(2), _filtration(2, Subspace.zero(2))
        assert graded_block(J2, dom, cod, 0, 0) is None


class TestMisc:
    def test_float_entries_are_refused(self):
        """A float is not an exact rational: 0.1 would become
        3602879701896397/36028797018963968.  Strings Fraction() reads stay."""
        with pytest.raises(TypeError):
            Subspace.from_vectors(2, [[0.1, 1]])
        with pytest.raises(TypeError):
            QMatrix.from_rows([[0.5, 0]])
        assert QMatrix.from_rows([["1/2", 0]]) == QMatrix.from_rows([[Fraction(1, 2), 0]])

    def test_inverse_roundtrip(self):
        rng = random.Random(9)
        for _ in range(30):
            d = rng.randint(1, 5)
            m = random_matrix(rng, d, d)
            if len(_echelon(m._ints[0])[1]) < d:
                continue
            assert m @ inverse(m) == QMatrix.identity(d)
