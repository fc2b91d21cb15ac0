"""Weight-filtered rational vector spaces.

A WeightedSpace is Q^d with a finite increasing exhaustive filtration
indexed by integers, plus a labeled grading recording which (twisted)
simple constituents make up each graded piece.

Twist convention, fixed once for the whole library: twisting by (d)
lowers every weight by 2d, and a morphism of twist t maps into the
twisted codomain.  So every morphism is an AdaptedMap filtered with
shift 0: N: V -> V(-1) has codomain V's filtration shifted by 2.

A filtration caches its adapted basis: for each step, its RREF rows whose
pivots are new over the step below, tagged with the step's weight, so W_k
is spanned by the basis vectors of weight <= k.  An AdaptedMap writes its
matrix once in the adapted bases of its two filtrations.  Whether it sends
W_k into W'_j is a zero pattern of that matrix, and Gr_k -> Gr_j, in the
canonical subquotient bases, is one of its blocks.  A filtered map slices
its diagonal blocks Gr_k -> Gr_k once, into one table of integer rows;
the graded kernel, the hard Lefschetz chains and a TwoTermComplex's
strictness, which adds the ker d it holds, read it there.
"""
from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Mapping

from .qlinalg import (QMatrix, Subspace, _block_rows, _echelon, _flag_basis, _in_bases,
                      _new_rows, _prefix_spans, _zero_corner, image)

LABEL_DEFAULT = "pt"


class FiltrationError(ValueError):
    """Steps fail to be nested, strictly increasing, or exhaustive."""


class ShapeMismatch(ValueError):
    """Matrix shape does not match the filtered spaces."""


class NotFiltered(ValueError):
    """A strictness check was asked of a non-filtered map."""


class InconsistentGrading(ValueError):
    """Grading multiplicities do not match graded dimensions."""


@dataclass(frozen=True, order=True)
class TwistedLabel:
    label: str
    twist: int = 0

    def twisted(self, d: int) -> "TwistedLabel":
        return TwistedLabel(self.label, self.twist + d)

    def __str__(self) -> str:
        return f"{self.label}({self.twist})"

    @property
    def sort_key(self):
        return (self.label, -self.twist)


@dataclass(frozen=True)
class WeightFiltration:
    ambient_dim: int
    steps: tuple  # tuple of (weight, Subspace), strictly increasing on both

    @staticmethod
    def from_spaces(ambient_dim: int,
                    steps: Iterable[tuple[int, Subspace]]) -> "WeightFiltration":
        items = sorted(steps, key=lambda t: t[0])
        norm: list[tuple[int, Subspace]] = []
        prev = Subspace.zero(ambient_dim)
        for i, (w, s) in enumerate(items):
            if s.ambient_dim != ambient_dim:
                raise FiltrationError("step has wrong ambient dimension")
            if i and items[i - 1][0] == w:  # before equal steps are dropped
                raise FiltrationError("repeated weight")
            if s == prev:
                continue
            if not s.contains(prev):
                raise FiltrationError("filtration steps are not nested")
            norm.append((w, s))
            prev = s
        if not prev.is_full():
            raise FiltrationError("filtration is not exhaustive")
        return WeightFiltration(ambient_dim, tuple(norm))

    @staticmethod
    def single_step(ambient_dim: int, weight: int) -> "WeightFiltration":
        return WeightFiltration.from_spaces(
            ambient_dim, [(weight, Subspace.full(ambient_dim))])

    def space_at(self, k: int) -> Subspace:
        current = Subspace.zero(self.ambient_dim)
        for w, s in self.steps:
            if w > k:
                break
            current = s
        return current

    @property
    def weights(self) -> tuple:
        return tuple(w for w, _ in self.steps)

    def graded_dim(self, k: int) -> int:
        return self._dim_at(k) - self._dim_at(k - 1)

    def graded_dims(self) -> dict:
        return {w: self.graded_dim(w) for w in self.weights}

    def shifted(self, delta: int) -> "WeightFiltration":
        out = WeightFiltration(self.ambient_dim,
                               tuple((w + delta, s) for w, s in self.steps))
        vars(out)["_basis"] = self._basis  # the same spaces: the basis, not its weights
        return out

    @cached_property
    def _basis(self) -> tuple:
        """The adapted basis of Q^d, by ascending weight (qlinalg._flag_basis)."""
        return _flag_basis([s for _, s in self.steps])

    @cached_property
    def _basis_weights(self) -> tuple:
        """The weight of each adapted basis vector, ascending."""
        out, below = [], 0
        for w, s in self.steps:
            out += [w] * (s.dim - below)
            below = s.dim
        return tuple(out)

    def _dim_at(self, k: int) -> int:
        """dim W_k: the number of adapted basis vectors of weight <= k."""
        return bisect_right(self._basis_weights, k)


@dataclass(frozen=True)
class LabeledGrading:
    # tuple of (weight, tuple of (TwistedLabel, multiplicity)), canonically sorted
    entries: tuple

    @staticmethod
    def from_dict(d: Mapping[int, Mapping[TwistedLabel, int]]) -> "LabeledGrading":
        out = []
        for w in sorted(d):
            terms = [(lbl, int(m)) for lbl, m in d[w].items() if m != 0]
            if any(m < 0 for _, m in terms):
                raise InconsistentGrading("negative multiplicity")
            if terms:
                out.append((w, tuple(sorted(terms, key=lambda t: t[0].sort_key))))
        return LabeledGrading(tuple(out))

    @staticmethod
    def from_terms(terms: Iterable[tuple]) -> "LabeledGrading":
        """The grading of (weight, TwistedLabel, multiplicity) terms, summed."""
        d: dict[int, dict[TwistedLabel, int]] = {}
        for w, lbl, m in terms:
            piece = d.setdefault(w, {})
            piece[lbl] = piece.get(lbl, 0) + m
        return LabeledGrading.from_dict(d)

    @staticmethod
    def empty() -> "LabeledGrading":
        return LabeledGrading(())

    @staticmethod
    def single(weight: int, label: str, mult: int, twist: int = 0) -> "LabeledGrading":
        return LabeledGrading.from_dict({weight: {TwistedLabel(label, twist): mult}})

    def terms(self) -> list:
        """The (weight, TwistedLabel, multiplicity) terms, in order."""
        return [(w, lbl, m) for w, terms in self.entries for lbl, m in terms]

    def at(self, k: int) -> dict:
        return dict(dict(self.entries).get(k, ()))

    def total_at(self, k: int) -> int:
        return sum(self.at(k).values())

    @property
    def weights(self) -> tuple:
        return tuple(w for w, _ in self.entries)

    def twisted(self, d: int) -> "LabeledGrading":
        return LabeledGrading.from_dict({
            w - 2 * d: {lbl.twisted(d): m for lbl, m in dict(terms).items()}
            for w, terms in self.entries})


def lefschetz_spread(primitive: Iterable[tuple], center: int) -> Iterator[tuple]:
    """The Lefschetz rule (Deligne, Weil II 1.6; Schmid 1973): a primitive
    constituent L at weight c-m spreads to L(-i) at weight c-m+2i, i = 0..m.
    Yields the (weight, label, multiplicity) triples that the (weight,
    TwistedLabel, multiplicity) triples of `primitive` spread to about
    c = center; a constituent above the center yields nothing."""
    for w, lbl, mult in primitive:
        for i in range(center - w + 1):
            yield w + 2 * i, TwistedLabel(lbl.label, lbl.twist - i), mult


def default_grading(filt: WeightFiltration, center: int | None = None) -> LabeledGrading:
    """Every graded piece as copies of LABEL_DEFAULT.

    Given a center c at which the graded dimensions g are Lefschetz-symmetric
    (g(c+k) = g(c-k), and p_m = g(c-m) - g(c-m-2) >= 0 for m >= 0), the
    pieces are the lefschetz_spread of p_m primitive copies at weight c-m.
    Otherwise every piece has twist 0.
    """
    g = filt.graded_dims()
    if center is not None and g:
        spread = max(abs(w - center) for w in g)
        prim = [g.get(center - m, 0) - g.get(center - m - 2, 0)
                for m in range(spread + 1)]
        if min(prim) >= 0 and all(g.get(center + k, 0) == g.get(center - k, 0)
                                  for k in range(1, spread + 1)):
            return LabeledGrading.from_terms(lefschetz_spread(
                ((center - m, TwistedLabel(LABEL_DEFAULT), p)
                 for m, p in enumerate(prim) if p), center))
    return LabeledGrading.from_dict({
        w: {TwistedLabel(LABEL_DEFAULT): dim} for w, dim in g.items() if dim > 0})


@dataclass(frozen=True)
class WeightedSpace:
    dim: int
    filtration: WeightFiltration
    grading: LabeledGrading

    def __post_init__(self):
        if self.filtration.ambient_dim != self.dim:
            raise FiltrationError("filtration ambient dimension does not match dim")
        for w in set(self.filtration.weights) | set(self.grading.weights):
            if self.grading.total_at(w) != self.filtration.graded_dim(w):
                raise InconsistentGrading(
                    f"grading multiplicity at weight {w} does not match graded dim")

    @staticmethod
    def from_filtration(filt: WeightFiltration) -> "WeightedSpace":
        return WeightedSpace(filt.ambient_dim, filt, default_grading(filt))

    @staticmethod
    def pure(dim: int, weight: int, label: str = LABEL_DEFAULT,
             grading: LabeledGrading | None = None) -> "WeightedSpace":
        filt = WeightFiltration.single_step(dim, weight)
        if grading is None:
            grading = LabeledGrading.single(weight, label, dim)
        return WeightedSpace(dim, filt, grading)

    @staticmethod
    def zero() -> "WeightedSpace":
        return WeightedSpace(0, WeightFiltration(0, ()), LabeledGrading.empty())


def tate_twist(ws: WeightedSpace, d: int) -> WeightedSpace:
    filt = ws.filtration.shifted(-2 * d)
    return WeightedSpace(ws.dim, filt, ws.grading.twisted(d))


@dataclass(frozen=True)
class AdaptedMap:
    """A morphism dom -> cod of filtered spaces: `matrix` in standard
    coordinates, and `adapted` the same map in the adapted bases of dom and
    cod (column i holds the coordinates, in cod's basis, of the image of
    dom's i-th basis vector).  Both bases run by ascending weight, so the
    map sends W_k into W'_j exactly when the columns of weight <= k of
    `adapted` are zero in the rows of weight > j."""
    matrix: QMatrix
    dom: WeightFiltration
    cod: WeightFiltration

    def __post_init__(self):
        if self.matrix.cols != self.dom.ambient_dim or self.matrix.rows != self.cod.ambient_dim:
            raise ShapeMismatch("matrix shape does not match the filtered spaces")

    @cached_property
    def adapted(self) -> QMatrix:
        """The matrix in the adapted bases, written when first read."""
        return _in_bases(self.matrix, self.dom._basis, self.cod._basis)

    def sends(self, k: int, j: int) -> bool:
        """True iff the map sends W_k(dom) into W_j(cod)."""
        return _zero_corner(self.adapted, self.cod._dim_at(j), self.dom._dim_at(k))

    @cached_property
    def _filtered(self) -> bool:
        return all(self.sends(w, w) for w in self.dom.weights)

    def filtered(self) -> bool:
        """True iff the map sends W_k(dom) into W_k(cod) for all k; decided
        once per map."""
        return self._filtered

    @cached_property
    def diagonal(self) -> dict:
        """The table of the diagonal graded blocks of a filtered map: for each
        weight k of dom, the integer rows (over the denominator of `adapted`)
        of Gr_k(dom) -> Gr_k(cod), sliced once from `adapted`.  Each block is
        that graded map only once the map is filtered, so read the table only
        after filtered() holds."""
        a, dom, cod = self.adapted, self.dom, self.cod
        return {k: _block_rows(a, cod._dim_at(k - 1), cod._dim_at(k),
                               dom._dim_at(k - 1), dom._dim_at(k)) for k in dom.weights}

    @cached_property
    def graded_ranks(self) -> dict:
        """{k: rank of Gr_k(dom) -> Gr_k(cod)} off the diagonal table, for a
        filtered map."""
        return {k: len(_echelon(rows)[1]) for k, rows in self.diagonal.items()}


def weights_at_most(filt: WeightFiltration, n: int) -> bool:
    return all(w <= n for w in filt.weights)


def weights_at_least(filt: WeightFiltration, n: int) -> bool:
    # a filtration keeps no step equal to the one below it, so none is zero
    return all(w >= n for w in filt.weights)


def is_pure(filt: WeightFiltration, n: int) -> bool:
    return weights_at_most(filt, n) and weights_at_least(filt, n)


def image_filtration(m: QMatrix, filt: WeightFiltration) -> WeightFiltration:
    """m(W_k) at filt's weights, for a map m onto its codomain, by one
    elimination pass over the images of filt's adapted basis vectors,
    grouped by weight (qlinalg._new_rows).  The spaces are nested and end in
    the codomain because filt's steps end in the domain, so a step is only
    dropped when it equals the one below."""
    steps, below = [], 0
    groups = ([m._apply(r) for r, _ in new] for new in _new_rows(t for _, t in filt.steps))
    for w, (rows, pivots) in zip(filt.weights, _prefix_spans(groups)):
        if len(rows) > below:
            steps.append((w, Subspace(m.rows, rows, pivots)))
            below = len(rows)
    return WeightFiltration(m.rows, tuple(steps))


@dataclass(frozen=True)
class TwoTermComplex:
    """A complex [d.dom --d--> d.cod] of filtered spaces, given with ker d by
    whoever built d, and im d taken once per complex.  Its cohomologies are
    compared as subspaces: ker d of d's domain and im d of its codomain,
    whose quotient is coker d (Beilinson, How to glue perverse sheaves,
    1987).  No filtration is induced on either; whether d is strict is
    decided here, from ker d and d's graded ranks."""
    d: AdaptedMap
    ker: Subspace  # ker d, a subspace of d.dom's space

    @cached_property
    def im(self) -> Subspace:
        """im d, a subspace of d.cod's space."""
        return image(self.d.matrix)

    @cached_property
    def strict(self) -> bool:
        """Strict compatibility: im d \\cap W_k(cod) = d(W_k(dom)) for all k.

        Decided by graded ranks (Deligne, Hodge II, 1.1): with F_k = d(W_k)
        and G_k = im d \\cap W_k(cod), rank Gr_k d = dim F_k/(F_k \\cap G_{k-1})
        <= dim F_k/F_{k-1}, so the ranks over the domain weights sum to
        rank d = dim dom - dim ker d iff F_k \\cap G_{k-1} = F_{k-1} for all k,
        which (F = G at the top) is F = G.  The graded maps are the diagonal
        blocks, which exist iff d is filtered; a d that is not filtered
        raises NotFiltered.
        """
        if not self.d.filtered():
            raise NotFiltered("map is not filtered")
        return sum(self.d.graded_ranks.values()) + self.ker.dim == self.d.dom.ambient_dim
