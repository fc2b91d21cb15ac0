import random
from fractions import Fraction

import pytest

from monofilt.monodromy import NilpotentModel, _kernel_flag, monodromy_filtration
from monofilt.qlinalg import QMatrix, Subspace, _block_rows, inverse, kernel
from monofilt.theorems import random_unimodular
from monofilt.weights import AdaptedMap, TwoTermComplex, WeightedSpace, WeightFiltration

from reference import ref_kernel_flag, ref_matmul, ref_span


def qm(rows):
    return QMatrix.from_rows([[Fraction(x) for x in r] for r in rows])


def rref_basis(m: QMatrix) -> QMatrix:
    """The RREF of m's row space, with no zero rows: Subspace.basis."""
    return Subspace.from_vectors(m.cols, m.entries).basis


def span(ambient, *vectors):
    return Subspace.from_vectors(ambient, vectors)


def flag_spaces(flag, d):
    """[ker N^k as a Subspace of Q^d for k = 0 .. len(flag)]: the span of
    the steps <= k of a kernel flag (monodromy._kernel_flag)."""
    rows, spaces = [], [Subspace.zero(d)]
    for step, _ in flag:
        rows += step
        spaces.append(Subspace.from_vectors(d, rows))
    return spaces


def _map(m, dom, cod, shift):
    """m: dom -> cod as a morphism into cod shifted by -shift: it is
    filtered exactly when m(W_k(dom)) lies in W_{k+shift}(cod) for all k."""
    return AdaptedMap(m, dom, cod.shifted(-shift))


def is_strict(m: AdaptedMap) -> bool:
    """Whether the map m is strict, as the complex [m] decides it
    (TwoTermComplex.strict); raises NotFiltered when m is not filtered."""
    return TwoTermComplex(m, kernel(m.matrix)).strict


def nilpotency_index(m: QMatrix) -> int:
    """Least e with m^e = 0 (at most d), off the kernel flag; raises NotNilpotent."""
    return min(len(_kernel_flag(m)), m.rows)


def graded_block(m, dom, cod, k, j):
    """Gr_k(dom) -> Gr_j(cod) of m in the canonical subquotient bases: the
    block of AdaptedMap(m, dom, cod).adapted in the rows of weight j and the
    columns of weight k, or None unless m sends W_{k-1} into W'_{j-1} and
    W_k into W'_j."""
    a = AdaptedMap(m, dom, cod)
    if not (a.sends(k - 1, j - 1) and a.sends(k, j)):
        return None
    rows = _block_rows(a.adapted, cod._dim_at(j - 1), cod._dim_at(j),
                       dom._dim_at(k - 1), dom._dim_at(k))
    den = a.adapted._ints[1]
    return QMatrix.from_rows([[Fraction(x, den) for x in r] for r in rows],
                             cols=dom.graded_dim(k))


J2 = qm([[0, 1], [0, 0]])
J3 = qm([[0, 1, 0], [0, 0, 1], [0, 0, 0]])


def _filtrations_n_respects(mat: QMatrix, center: int) -> list:
    """[(filtration, center)] on which N = mat shifts the filtration by -2 and
    which need not be M(N): the kernel filtration W_{2k} = ker N^{k+1} and the
    image filtration W_{-2k} = im N^k, both from the Fraction oracle, at the
    center, and M(N) built at the center but read at the center moved by
    -2, -1, 1 and 2."""
    d, m = mat.rows, mat.entries
    kernels = ref_kernel_flag(m, d)
    images, power = [], tuple(tuple(int(i == j) for j in range(d)) for i in range(d))
    for k in range(len(kernels)):
        images.append((-2 * k, Subspace.from_vectors(d, ref_span(list(zip(*power)), d))))
        power = ref_matmul(power, m, d, d)
    out = [(WeightFiltration.from_spaces(d, [(2 * k, Subspace.from_vectors(d, rows))
                                             for k, rows in enumerate(kernels[1:])]), center),
           (WeightFiltration.from_spaces(d, images), center)]
    return out + [(monodromy_filtration(mat, center), center + delta) for delta in (-2, -1, 1, 2)]


def _string_basis_model(rng: random.Random) -> NilpotentModel:
    """A scrambled Jordan string operator on the filtration spanned by its
    string basis, each chain step lowering the weight by 2 or more: N shifts it by -2, and is strict exactly when every
    chain step lowers the weight by exactly 2."""
    lengths = [rng.randint(1, 4) for _ in range(rng.randint(1, 3))]
    d = sum(lengths)
    rows, weights = [[0] * d for _ in range(d)], []
    for length in lengths:
        w = rng.randint(-3, 1)
        for i in range(length):
            if i:
                rows[len(weights) - 1][len(weights)] = 1  # N e_i = e_{i-1}
                w += rng.choice((2, 2, 3, 4))
            weights.append(w)
    p = random_unimodular(rng, d)
    n_op = p @ QMatrix.from_rows(rows, cols=d) @ inverse(p)
    basis = [list(col) for col in zip(*p.entries)]
    filt = WeightFiltration.from_spaces(d, [
        (w, Subspace.from_vectors(d, [v for v, u in zip(basis, weights) if u <= w]))
        for w in sorted(set(weights))])
    return NilpotentModel.of(WeightedSpace.from_filtration(filt), rng.randint(-1, 2), n_op)


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
