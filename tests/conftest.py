import random
from fractions import Fraction

import pytest

from monofilt.qlinalg import QMatrix, Subspace
from monofilt.weights import AdaptedMap


def qm(rows):
    return QMatrix.from_rows([[Fraction(x) for x in r] for r in rows])


def rref_basis(m: QMatrix) -> QMatrix:
    """The RREF of m's row space, with no zero rows: Subspace.basis."""
    return Subspace.from_vectors(m.cols, m.entries).basis


def span(ambient, *vectors):
    return Subspace.from_vectors(ambient, vectors)


def _map(m, dom, cod, shift):
    """m: dom -> cod as a morphism into cod shifted by -shift: it is
    filtered exactly when m(W_k(dom)) lies in W_{k+shift}(cod) for all k."""
    return AdaptedMap(m, dom, cod.shifted(-shift))


J2 = qm([[0, 1], [0, 0]])
J3 = qm([[0, 1, 0], [0, 0, 1], [0, 0, 0]])


def random_matrix(rng: random.Random, rows, cols, bound=3):
    return QMatrix.from_rows(
        [[Fraction(rng.randint(-bound, bound)) for _ in range(cols)]
         for _ in range(rows)], cols=cols)


def random_subspace(rng: random.Random, ambient, max_vectors=None):
    k = rng.randint(0, max_vectors if max_vectors is not None else ambient)
    return Subspace.from_vectors(
        ambient,
        [[Fraction(rng.randint(-3, 3)) for _ in range(ambient)] for _ in range(k)])


@pytest.fixture
def rng():
    return random.Random(20260823)
