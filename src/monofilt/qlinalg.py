"""Exact linear algebra over the rationals.

Scalars are ``fractions.Fraction`` (always reduced, positive denominator).
Matrices are dense, immutable and row-major.

The arithmetic runs on integers; ``Fraction`` is only the type at the
interface.  A matrix stores its integer rows over one positive denominator
in lowest terms; that form is unique, so matrix equality and hashing are
plain structural equality, and the ``Fraction`` ``entries`` are built on
first read.  Every product combines integer lines by one rule (_combine):
a row of A @ B is the sum of B's rows weighted by the nonzeros of A's row,
and m v is the sum of m's columns, read from a transpose cached on m, weighted
by the nonzeros of v; a vector more than half nonzero takes dense dot
products instead.
Two primitives do all elimination.  _prefix_spans is one fraction-free
Gauss-Jordan pass over ordered groups of integer vectors: each vector is
reduced once against the rows so far, a new pivot row is cleared from the
others, and each updated row is divided by the gcd of its entries.  The rows
after each group are the primitive RREF rows of the span of that prefix, so a
nested flag (the steps of the monodromy filtration) takes one pass.  From a
start column, a new pivot is cleared only from the rows whose pivots lie
between the start and it: the rows from the start on are RREF rows and those
before it only echelon rows.  _zassenhaus runs it over rows [x | y] from the
start of y and yields after each group the y of the new rows whose x is zero:
the kernel flag of m, as its adapted basis (_kernels, whose first step is
kernel), and the meet of two subspaces (intersect) are each one such pass.
Every other pass starts at column 0.  Every subspace is built from a pass and
holds, as a field, the pivots the pass found.

A subspace of Q^d stores only its primitive integer RREF rows: each row of
the reduced row echelon basis scaled to coprime integers with a positive
pivot.  These rows are unique in the same way.  The RREF ``basis`` (each
integer row divided by its pivot, exactly the basis rational elimination
gives) is a matrix built on first read.

Coordinates in a subspace (corestriction) are the entries of v at the
pivots of its RREF rows.  A nested flag that ends in Q^d has an
adapted basis (_flag_basis): the RREF rows of each space whose pivots are new
over the space before, each divided by its pivot entry.  Its d pivots are
distinct, so the coordinates of v in it come from one forward reduction in
pivot order (_basis_coords), and a map is written once in the adapted bases
of two flags (_in_bases).
The new rows of one space, read modulo the space before, are the canonical
basis of that subquotient, so every graded map of weights is a block of
that one matrix (_block_rows), and filteredness is a zero pattern
(_zero_corner).
"""
from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from operator import mul
from typing import Iterable, Iterator, Sequence


class AmbientMismatch(ValueError):
    """Operands live in spaces of different ambient dimension."""


class SingularMatrix(ValueError):
    """Inverse requested of a non-invertible matrix."""


_ZERO = Fraction(0)
_ONE = Fraction(1)


def _frac(n: int, d: int) -> Fraction:
    """n / d as a reduced Fraction, for d != 0; zero and one are shared."""
    if not n:
        return _ZERO
    if n == d:
        return _ONE
    return Fraction(n) if d == 1 else Fraction(n, d)


def _int_row(v: Sequence) -> tuple[list, int]:
    """(integer row, denominator) with v equal to row / denominator."""
    try:
        den = lcm(*[x.denominator for x in v])
    except AttributeError:  # entries that Fraction() still accepts, e.g. "1/2"
        if any(isinstance(x, float) for x in v):
            raise TypeError("float entries are not exact: use int, Fraction "
                            "or 'p/q'") from None
        v = [Fraction(x) for x in v]
        den = lcm(*[x.denominator for x in v])
    if den == 1:
        return [x.numerator for x in v], 1
    return [x.numerator * (den // x.denominator) for x in v], den


def _combine(v: Sequence, lines: Sequence, cross: Sequence) -> Sequence:
    """The integer vector sum of v[k] lines[k] over the nonzeros of v, where
    cross is the transpose of lines; when more than half of v is nonzero,
    its dot products with the lines of cross.  A single nonzero 1 returns
    its line itself, so the result is read, never written."""
    nz = [(k, x) for k, x in enumerate(v) if x]
    if 2 * len(nz) > len(v):
        return [sum(map(mul, v, c)) for c in cross]
    if not nz:
        return [0] * len(cross)
    (k, x), *nz = nz
    out = lines[k] if x == 1 else [x * b for b in lines[k]]
    for k, x in nz:
        out = [a + x * b for a, b in zip(out, lines[k])]
    return out


def _over(vecs: list, scales: list) -> tuple[list, int]:
    """(integer rows, den) with rows[i] / den == vecs[i] / scales[i]; the
    scales are positive and den is their lcm."""
    den = lcm(*scales)
    return [v if s == den else [x * (den // s) for x in v]
            for v, s in zip(vecs, scales)], den


@dataclass(frozen=True)
class QMatrix:
    rows: int
    cols: int
    _ints: tuple  # (integer row tuples, den): den > 0, gcd(den, *entries) == 1

    @staticmethod
    def _make(rows: list, den: int, cols: int) -> "QMatrix":
        """The matrix rows / den (den > 0), brought to lowest terms."""
        if den != 1:
            g = gcd(den, *[x for r in rows for x in r])
            if g != 1:
                rows = [[x // g for x in r] for r in rows]
                den //= g
        return QMatrix(len(rows), cols, (tuple(map(tuple, rows)), den))

    @staticmethod
    def from_rows(rows_data: Iterable[Sequence], cols: int | None = None) -> "QMatrix":
        rows = [_int_row(tuple(row)) for row in rows_data]
        if rows:
            ncols = len(rows[0][0])
            if any(len(r) != ncols for r, _ in rows):
                raise ValueError("ragged rows")
            if cols is not None and cols != ncols:
                raise ValueError("cols does not match row length")
        else:
            if cols is None:
                raise ValueError("empty matrix needs an explicit column count")
            ncols = cols
        return QMatrix._make(*_over([r for r, _ in rows], [d for _, d in rows]), ncols)

    @cached_property
    def entries(self) -> tuple:
        """The entries as a tuple of row tuples of Fraction."""
        rows, den = self._ints
        return tuple(tuple(_frac(x, den) for x in r) for r in rows)

    @cached_property
    def _cols(self) -> tuple:
        """The integer columns, over the denominator of _ints."""
        rows = self._ints[0]
        return tuple(zip(*rows)) if rows else ((),) * self.cols

    def _apply(self, v: Sequence) -> list:
        """self v, for an integer vector v, over the denominator of _ints."""
        return _combine(v, self._cols, self._ints[0])

    @staticmethod
    def zero(rows: int, cols: int) -> "QMatrix":
        return QMatrix(rows, cols, (((0,) * cols,) * rows, 1))

    @staticmethod
    def identity(n: int) -> "QMatrix":
        return QMatrix(n, n, (tuple(_unit(i, n) for i in range(n)), 1))

    def __matmul__(self, other: "QMatrix") -> "QMatrix":
        if self.cols != other.rows:
            raise AmbientMismatch("inner dimensions do not match")
        a, da = self._ints
        b, db = other._ints
        return QMatrix._make([_combine(r, b, other._cols) for r in a], da * db, other.cols)

    def is_zero(self) -> bool:
        return not any(map(any, self._ints[0]))


def _unit(j: int, n: int) -> tuple:
    return (0,) * j + (1,) + (0,) * (n - j - 1)  # e_j in Z^n


def _from_columns(cols: list, nrows: int) -> QMatrix:
    """The nrows-row matrix whose j-th column is v / s for cols[j] = (v, s),
    v an integer vector and s > 0."""
    vecs, den = _over([v for v, _ in cols], [s for _, s in cols])
    return QMatrix._make([[v[i] for v in vecs] for i in range(nrows)], den, len(cols))


def _primitive(v: list) -> tuple:
    """The nonzero integer vector v divided by the gcd of its entries."""
    g = gcd(*v)
    return tuple(x // g for x in v) if g > 1 else tuple(v)


def _prefix_spans(groups: Iterable[Iterable[Sequence]], start: int = 0) -> Iterator[tuple]:
    """One fraction-free Gauss-Jordan pass over groups of integer vectors.

    After each group, yields (rows, pivots): primitive rows (tuples, positive
    pivots) of the span of every vector so far, in pivot order.  Each vector
    is reduced once against the rows so far, in pivot order; a new pivot at
    or after column `start` is then cleared from the rows whose pivots lie in
    [start, c), and a new pivot before `start` from none.  So the rows are in
    echelon form, and those with pivots from `start` on are the primitive
    RREF rows of the span's vectors that are zero before `start`; with
    start = 0 every row is an RREF row.  Groups are read lazily, so a group
    may be built from the last yield.  RREF rows are unique, so each prefix
    gives the rows of Subspace.from_vectors of that prefix.
    """
    rows: list = []
    pivots: list = []
    for group in groups:
        for v in group:
            for row, p in zip(rows, pivots):
                f = v[p]
                if f:
                    g = gcd(row[p], f)
                    a, b = row[p] // g, f // g
                    v = [a * x - b * y for x, y in zip(v, row)]
            c = next((j for j, x in enumerate(v) if x), None)
            if c is None:
                continue
            g = gcd(*v) if v[c] > 0 else -gcd(*v)
            v = tuple(x // g for x in v) if g != 1 else tuple(v)
            pv = v[c]
            i = bisect_left(pivots, c)
            # the rows with pivots in [start, c), none if c < start: a row
            # with a later pivot is zero at c
            for j in range(bisect_left(pivots, start), i):
                f = rows[j][c]
                if f:
                    g = gcd(pv, f)
                    a, b = pv // g, f // g
                    rows[j] = _primitive([a * x - b * y for x, y in zip(rows[j], v)])
            rows.insert(i, v)
            pivots.insert(i, c)
        yield tuple(rows), tuple(pivots)


def _zassenhaus(groups: Iterable[Iterable[Sequence]], d: int) -> Iterator[tuple]:
    """One _prefix_spans pass from column d over integer rows [x | y], x of
    length d.  After each group, yields (rows, pivots in y) of the y of the
    rows with pivots in y, which have zero x, that are new since the last
    yield, as the pass holds them: it adds to a row only multiples of newer
    rows, so with the earlier yields they span the y whose x is zero.  The
    first yield is the primitive RREF rows of its space."""
    seen: set = set()
    for rows, pivots in _prefix_spans(groups, d):
        new = [i for i in range(bisect_left(pivots, d), len(pivots)) if pivots[i] not in seen]
        seen.update(pivots[i] for i in new)
        yield tuple(rows[i][d:] for i in new), tuple(pivots[i] - d for i in new)


def _echelon(rows: Iterable[Sequence]) -> tuple:
    """(primitive RREF rows, pivots) of the span of the integer rows."""
    return next(_prefix_spans([rows]))


@dataclass(frozen=True)
class Subspace:
    ambient_dim: int
    _rows: tuple  # primitive integer RREF rows (tuples of int), pivots positive
    # the first nonzero column of each row, as the pass that built them found it
    pivots: tuple = field(compare=False, repr=False)

    @staticmethod
    def from_vectors(ambient_dim: int, vectors: Iterable[Sequence]) -> "Subspace":
        rows = []
        for v in vectors:
            if len(v) != ambient_dim:
                raise AmbientMismatch("vector length does not match ambient dimension")
            rows.append(_int_row(v)[0])
        return Subspace(ambient_dim, *_echelon(rows))

    @staticmethod
    def zero(ambient_dim: int) -> "Subspace":
        return Subspace(ambient_dim, (), ())

    @staticmethod
    def full(ambient_dim: int) -> "Subspace":
        return Subspace(ambient_dim, tuple(_unit(i, ambient_dim) for i in range(ambient_dim)),
                        tuple(range(ambient_dim)))

    @property
    def dim(self) -> int:
        return len(self._rows)

    @cached_property
    def basis(self) -> QMatrix:
        """The RREF basis as a dim x ambient_dim matrix: each primitive row
        divided by its pivot, over the lcm of the pivots."""
        rows = self._rows
        return QMatrix._make(*_over(rows, [r[p] for r, p in zip(rows, self.pivots)]),
                             self.ambient_dim)

    def _reduce(self, v: list) -> tuple[list, int]:
        """(w, s) with w / s the integer vector v reduced modulo this subspace."""
        s = 1
        for row, p in zip(self._rows, self.pivots):
            f = v[p]
            if f:
                g = gcd(row[p], f)
                a, b = row[p] // g, f // g
                v = [a * x - b * y for x, y in zip(v, row)]
                s *= a
        return v, s

    def is_zero(self) -> bool:
        return self.dim == 0

    def is_full(self) -> bool:
        return self.dim == self.ambient_dim

    def contains(self, other: "Subspace") -> bool:
        if other.ambient_dim != self.ambient_dim:
            raise AmbientMismatch("ambient dimensions differ")
        return not any(any(self._reduce(r)[0]) for r in other._rows)

    def __add__(self, other: "Subspace") -> "Subspace":
        if other.ambient_dim != self.ambient_dim:
            raise AmbientMismatch("ambient dimensions differ")
        return Subspace.from_vectors(self.ambient_dim, self._rows + other._rows)


def _kernels(m: QMatrix) -> Iterator[tuple]:
    """(rows, pivots) of the rows that ker m, then (m square) ker m^2, ...
    without end, each add, by one Zassenhaus pass and no power of m.  The
    first group is [m e_j | e_j]; after ker m^k the pass takes [r | 0] for
    the rows it added, so the next yield adds {c : m c in ker m^k} = ker m^{k+1}."""
    d, new = m.rows, []

    def groups():
        yield [c + _unit(j, m.cols) for j, c in enumerate(m._cols)]
        while True:
            yield new

    for rows, pivots in _zassenhaus(groups(), d):
        yield rows, pivots
        new = [r + (0,) * d for r in rows]


def kernel(m: QMatrix) -> Subspace:
    """Null space {v : m v = 0} as a subspace of Q^cols: the first step of _kernels."""
    return Subspace(m.cols, *next(_kernels(m)))


def image(m: QMatrix) -> Subspace:
    """Column space of m as a subspace of Q^rows."""
    return Subspace.from_vectors(m.rows, m._cols)


def intersect(a: Subspace, b: Subspace) -> Subspace:
    """a n b by one Zassenhaus pass: [r | r] for the rows of a, then [r | 0]
    for the rows of b, so a y whose x is zero lies in a and in b."""
    if a.ambient_dim != b.ambient_dim:
        raise AmbientMismatch("ambient dimensions differ")
    d = a.ambient_dim
    rows = [r + r for r in a._rows] + [r + (0,) * d for r in b._rows]
    return Subspace(d, *next(_zassenhaus([rows], d)))


def _new_rows(flag: Iterable[Subspace]) -> Iterator[list]:
    """For each space of the nested sequence flag, its rows whose pivots are
    not pivots of the space before, as (row, pivot) pairs; with that space
    they span it."""
    below: set = set()
    for t in flag:
        yield [(r, p) for r, p in zip(t._rows, t.pivots) if p not in below]
        below = set(t.pivots)


def _flag_basis(flag: Iterable[Subspace]) -> tuple:
    """The basis of Q^d adapted to a nested flag that ends in Q^d: the new
    rows of each space (_new_rows) in flag order, each divided by its entry
    at its pivot, so the vectors up to each space span it.  The d pivots are
    distinct.  As (rows, table): rows lists (row, pivot) in that order, and
    table[p] is (index, row[p], nonzeros (j, row[j]) after p) for the row
    with pivot p."""
    rows = [rp for new in _new_rows(flag) for rp in new]
    table = [None] * len(rows)
    for i, (r, p) in enumerate(rows):
        table[p] = (i, r[p], [(j, r[j]) for j in range(p + 1, len(r)) if r[j]])
    return rows, table


def _basis_coords(table: Sequence, v: Sequence) -> tuple[list, int]:
    """(c, s) with c / s the coordinates of the integer vector v in the basis
    whose _flag_basis table is `table`, by one forward reduction in pivot
    order that keeps its multipliers: the basis vector with pivot p is zero
    before p and 1 at p, so its coordinate is the entry at p of what is left
    of v when p is reached."""
    v = list(v)
    found, s = [], 1
    for p, (i, piv, tail) in enumerate(table):
        f = v[p]
        if f:
            g = gcd(piv, f)
            a, b = piv // g, f // g
            found.append((i, f, s))
            if a != 1:
                v = [a * x for x in v]
                s *= a
            for j, x in tail:
                v[j] -= b * x
    c = [0] * len(table)
    for i, f, t in found:
        c[i] = f * (s // t)
    return c, s


def _in_bases(m: QMatrix, dom: tuple, cod: tuple) -> QMatrix:
    """The matrix of m from the basis dom to the basis cod (each a
    _flag_basis): column i holds the coordinates in cod of m applied to the
    i-th vector of dom."""
    da = m._ints[1]
    cols = []
    for row, p in dom[0]:
        c, s = _basis_coords(cod[1], m._apply(row))
        cols.append((c, da * row[p] * s))  # the basis vector is row / row[p]
    return _from_columns(cols, len(cod[1]))


def _zero_corner(a: QMatrix, r: int, c: int) -> bool:
    """True iff every row of a from row r on is zero in its first c columns."""
    return not c or not any(any(row[:c]) for row in a._ints[0][r:])


def _block_rows(a: QMatrix, r0: int, r1: int, c0: int, c1: int) -> list:
    """The integer rows of the block of rows r0 .. r1-1 and columns
    c0 .. c1-1 of a, over the denominator of a._ints."""
    return [row[c0:c1] for row in a._ints[0][r0:r1]]


def corestriction(m: QMatrix, s: Subspace) -> QMatrix:
    """m as a map into s, for image(m) in s: its columns in the coordinates
    of s, which (sub = 0) are their entries at the pivots of s."""
    rows, den = m._ints
    return QMatrix._make([rows[p] for p in s.pivots], den, m.cols)


def inclusion(s: Subspace) -> QMatrix:
    """The ambient_dim x dim(s) matrix whose columns are the RREF basis of s."""
    return QMatrix(s.ambient_dim, s.dim, (s.basis._cols, s.basis._ints[1]))


def inverse(m: QMatrix) -> QMatrix:
    if m.rows != m.cols:
        raise SingularMatrix("non-square matrix")
    n = m.rows
    a, den = m._ints
    # [a / den | I] has the same row space as [a | den I]
    rows, pivots = _echelon([list(a[i]) + [den if i == j else 0 for j in range(n)]
                             for i in range(n)])
    if pivots != tuple(range(n)):
        raise SingularMatrix("matrix is singular")
    return QMatrix._make(*_over([row[n:] for row in rows],
                                [row[i] for i, row in enumerate(rows)]), n)

