"""Monodromy filtrations of nilpotent operators and their graded structure.

The filtration is read off a basis of Jordan chains of N built along the
kernel flag ker N c ker N^2 c ... c ker N^e, kept as the rows each step adds.
One Zassenhaus pass builds it with no power of N and is the nilpotency check
(_kernel_flag); it lives in qlinalg (_kernels), whose first step is kernel.
A Jordan string model is its own chain basis: to_nilpotent writes N, the flag
and M(N) off its strings with no pass, and its model checks them as any other.
A model's hard Lefschetz report is its one Lefschetz verdict: a model's N
shifts its filtration by -2, so by Deligne's uniqueness (Weil II 1.6.1) the
N^k lines pass exactly when that filtration is M(N), and then the model
reads M(N) as its own filtration; the chains build M(N) only when they fail.
It and check_monodromy_axioms, which verifies any filtration against any N,
read no chain: N: V -> V(-1) is written once in the bases adapted to the
filtration (weights.AdaptedMap), and the N-shift is its zero pattern.
Once that holds, each N^k: Gr_{c+k} -> Gr_{c-k} is the product of the k
graded blocks of N along Gr_{c+k} -> Gr_{c+k-2} -> ... -> Gr_{c-k}, read from
the map's one table of diagonal blocks (AdaptedMap.diagonal) with no power
of N formed.  The graded kernel reads its ranks from the same table, and
N is strict when its complex is (weights.TwoTermComplex.strict, off those
ranks and ker N), so no filtration is induced on ker N.
"""
from __future__ import annotations

from dataclasses import InitVar, dataclass
from functools import cached_property
from typing import Iterator, Sequence

from . import qlinalg
from .qlinalg import QMatrix, Subspace
from .report import Report, ReportBuilder
from .weights import (LABEL_DEFAULT, AdaptedMap, LabeledGrading, TwistedLabel,
                      TwoTermComplex, WeightFiltration, WeightedSpace, default_grading,
                      lefschetz_spread)


class NotNilpotent(ValueError):
    """The operator is not nilpotent."""


class NotPure(ValueError):
    """The model does not satisfy the purity (hard Lefschetz) condition."""


class GradedKernelMismatch(ValueError):
    """The kernels of Gr N do not add up to ker N: N is not strict."""


def _kernel_flag(m: QMatrix) -> list:
    """[(rows, pivots) of ker N^k new over ker N^{k-1} for k = 1 .. max(e, 1)],
    e the nilpotency index of N = m, off the one-pass flag of qlinalg._kernels.
    Raises NotNilpotent if a step adds no row before Q^d."""
    if m.rows != m.cols:
        raise NotNilpotent("operator is not square")
    flag, dim = [], 0
    for rows, pivots in qlinalg._kernels(m):
        if not rows and dim < m.rows:
            raise NotNilpotent("operator is not nilpotent")
        flag.append((rows, pivots))
        dim += len(rows)
        if dim == m.rows:
            return flag


def monodromy_filtration(n_op: QMatrix, center: int,
                         kernels: list | None = None) -> WeightFiltration:
    """The unique filtration M with N M_k in M_{k-2} and N^k: Gr_{c+k} ~ Gr_{c-k}.

    M_w is spanned by the vectors of weight <= w in a basis of Jordan chains
    h, N h, ..., N^m h, N^i h of weight c + m - 2i (Deligne, Weil II 1.6),
    built top-down along the kernel flag `kernels` (_kernel_flag, built from
    n_op when not given).  The heads of level k are the rows of ker N^k whose
    pivots are new over ker N^{k-1} + N(level k+1).  When no chain reaches
    level k from above, they are the flag's step k, with no pass; otherwise one
    pass takes the steps below k, the images and step k.  One more pass builds
    the steps of M.  check_monodromy_axioms verifies M without chains."""
    kernels = kernels or _kernel_flag(n_op)
    d = n_op.rows
    chains, level = [], []  # (integer vector, weight): all, and those at level k
    for k in range(len(kernels), 0, -1):
        # N is injective from ker N^{k+1}/ker N^k to ker N^k/ker N^{k-1}
        level = [(n_op._apply(v), w - 2) for v, w in level]
        heads = kernels[k - 1][0]
        if len(heads) > len(level):
            if level:
                # the rows of ker N^k whose pivots are new over ker N^{k-1} + N(level)
                # span the heads' classes; the steps up to k span ker N^k
                below = [r for step, _ in kernels[:k - 1] for r in step] + [v for v, _ in level]
                (_, below), (rows, pivots) = qlinalg._prefix_spans([below, heads])
                below = set(below)
                heads = [h for h, p in zip(rows, pivots) if p not in below]
            level += [(h, center + k - 1) for h in heads]
        chains += level
    # the chain vectors are a basis of Q^d, so the steps strictly grow up to Q^d
    weights = sorted({u for _, u in chains})
    spans = qlinalg._prefix_spans([v for v, u in chains if u == w] for w in weights)
    return WeightFiltration(d, tuple((w, Subspace(d, *span))
                                     for w, span in zip(weights, spans)))


def _spread(filt: WeightFiltration, center: int) -> int:
    return max((abs(w - center) for w in filt.weights), default=0)


def _times(a: Sequence, b: Sequence, cols: int) -> list:
    """The integer rows of the product of the rows a and the rows b, b having
    cols columns, by qlinalg's one product rule."""
    cross = tuple(zip(*b)) if b else ((),) * cols
    return [qlinalg._combine(r, b, cross) for r in a]


def _chained_ranks(n: AdaptedMap, center: int) -> Iterator[tuple]:
    """(dim Gr_{c+k}, dim Gr_{c-k}, rank of N^k between them) for k = 0, 1, ...
    up to the spread, c = center, for a filtered N = n: V -> V(-1).

    N drops every weight by 2, so in the adapted bases the block of N^k from
    Gr_{c+k} to Gr_{c-k} is the product B_{c-k+2} ... B_{c+k} of the blocks
    B_j: Gr_j -> Gr_{j-2} of n's diagonal table, and the block P_k of N^k
    grows to P_{k+2} = B_{c-k} P_k B_{c+k+2}.  Integer rows, whose
    denominators a rank ignores, with no power of N formed."""
    filt, table = n.dom, n.diagonal

    def block(j: int) -> Sequence:  # B_j, with no columns where Gr_j = 0
        return table[j] if j in table else [()] * filt.graded_dim(j - 2)

    # P_k of the last even and the last odd k, where None is the identity of Gr_c
    last = [None, block(center + 1)]
    for k in range(_spread(filt, center) + 1):
        cols, rows = filt.graded_dim(center + k), filt.graded_dim(center - k)
        p = last[k % 2]
        if k > 1:
            p = block(center + k) if p is None else _times(p, block(center + k), cols)
            p = last[k % 2] = _times(block(center - k + 2), p, cols)
        yield cols, rows, cols if p is None else len(qlinalg._echelon(p)[1])


def _check_lefschetz_blocks(rb: ReportBuilder, n: AdaptedMap, center: int,
                            arrow: str) -> None:
    """One check per k >= 0 that N^k induces Gr_{c+k} ~ Gr_{c-k}, off the
    dims and rank of its block: the product of the k graded blocks of N
    along Gr_{c+k} -> Gr_{c+k-2} -> ... -> Gr_{c-k} (_chained_ranks), for
    an N = n that shifts the filtration by -2."""
    for k, (cols, rows, r) in enumerate(_chained_ranks(n, center)):
        rb.check(f"N^{k}: Gr_{center + k} {arrow} Gr_{center - k}",
                 rows == cols and r == rows, f"dims {cols} -> {rows}, rank {r}")


def check_monodromy_axioms(filt: WeightFiltration, n_op: QMatrix, center: int) -> Report:
    """Independent verification of the two defining axioms of the filtration,
    from N written in the basis adapted to filt: no chain, kernel or power
    that a model keeps is read.  `check` shows it on a model's M(N) only when
    the model's hard Lefschetz fails, as the diagnosis.

    When N passes the N-shift, each N^k: Gr_{c+k} -> Gr_{c-k} is the chain
    of graded blocks of N (_chained_ranks).  When it fails, filt is not M(N)
    whatever the N^k do, so the report ends at the N-shift line with a note
    that no N^k line was evaluated."""
    rb = ReportBuilder(f"monodromy axioms (center {center})")
    a = AdaptedMap(n_op, filt, filt.shifted(2))
    shift_ok = True
    for w in filt.weights:
        if not a.sends(w, w):
            shift_ok = False
            rb.check(f"N W_{w} in W_{w - 2}", False)
    if rb.check("N-shift: N M_k in M_{k-2}", shift_ok):
        _check_lefschetz_blocks(rb, a, center, "~")
    else:
        rb.note("N^k lines not evaluated: N does not lower the filtration by 2")
    return rb.build()


@dataclass(frozen=True)
class NilpotentModel:
    """A weight-filtered space V with a nilpotent operator N: V -> V(-1).

    n is the purity weight of the underlying object, so the filtration of a
    pure model is the monodromy filtration centered at n-1.  N is an
    AdaptedMap from V's filtration to V(-1)'s, that filtration shifted by 2;
    NilpotentModel.of builds it from a matrix.

    The quantities the verifiers share are computed once per instance and
    kept beside the fields: the kernel flag ker N c ... c ker N^e = Q^d as the
    rows each step adds (`kernels`, built at construction as the nilpotency
    check, or `known_kernels`), N in the adapted bases (N.adapted, written at
    construction for the N-shift test), the complex [V --N--> V(-1)]
    (`n_complex`: ker N, the flag's only Subspace, im N, and whether N is
    strict), M(N) (the model's own filtration when the hard Lefschetz report
    passes, and otherwise built from the chains when read), the hard
    Lefschetz report, the graded kernel and the gluing extensions
    (gluing.extension).  Equality and hashing read the fields only."""
    space: WeightedSpace
    n: int
    N: AdaptedMap
    known_kernels: InitVar[list | None] = None

    def __post_init__(self, known_kernels):
        filt = self.space.filtration
        if self.N.dom != filt or self.N.cod != filt.shifted(2):
            raise ValueError("monodromy operator must map V to V(-1)")
        self.__dict__["kernels"] = known_kernels or _kernel_flag(self.N.matrix)
        if not self.N.filtered():
            raise ValueError("N does not shift the filtration by -2")

    @staticmethod
    def of(space: WeightedSpace, n: int, n_op: QMatrix,
           known_kernels: list | None = None) -> NilpotentModel:
        """The model of N = n_op: V -> V(-1) on V = space."""
        filt = space.filtration
        return NilpotentModel(space, n, AdaptedMap(n_op, filt, filt.shifted(2)),
                              known_kernels)

    @staticmethod
    def on_monodromy_filtration(n_op: QMatrix, n: int,
                                grading: LabeledGrading | None = None) -> NilpotentModel:
        """The model of N = n_op whose weight filtration is the monodromy
        filtration centered at n-1, built once from the chains.  The grading
        defaults to the string grading of default_grading at that center."""
        kernels = _kernel_flag(n_op)
        filt = monodromy_filtration(n_op, n - 1, kernels=kernels)
        if grading is None:
            grading = default_grading(filt, center=n - 1)
        return NilpotentModel.of(WeightedSpace(n_op.rows, filt, grading), n, n_op, kernels)

    @property
    def center(self) -> int:
        return self.n - 1

    @cached_property
    def n_complex(self) -> TwoTermComplex:
        """[V --N--> V(-1)], the *-restriction of j_*, whose kernel is the
        kernel flag's first step, the one step kept as a Subspace."""
        return TwoTermComplex(self.N, Subspace(self.space.dim, *self.kernels[0]))

    @cached_property
    def monodromy_filtration(self) -> WeightFiltration:
        """The monodromy filtration of N centered at n-1: the model's own
        filtration when its hard Lefschetz report passes, by Deligne's
        uniqueness (N shifts it by -2), and otherwise built from the chains."""
        if self._hard_lefschetz.passed:
            return self.space.filtration
        return monodromy_filtration(self.N.matrix, self.center, kernels=self.kernels)

    @cached_property
    def extensions(self) -> dict:
        """The gluing data of the model built so far, by extension kind."""
        return {}

    @cached_property
    def _hard_lefschetz(self) -> Report:
        rb = ReportBuilder(f"hard Lefschetz (center {self.center})")
        if self.space.dim == 0:
            rb.check("zero space", True, "vacuous")
            return rb.build()
        _check_lefschetz_blocks(rb, self.N, self.center, "->")
        return rb.build()

    @cached_property
    def _graded_kernel(self) -> GradedKernel:
        filt, cx = self.space.filtration, self.n_complex
        # the kernel of Gr_k N: Gr_k V -> Gr_k V(-1) = Gr_{k-2} V, at each weight
        dims = tuple((k, filt.graded_dim(k) - self.N.graded_ranks[k]) for k in filt.weights)
        # Gr_k(ker N) injects into ker(Gr_k N) at every k, and the two sum to
        # dim ker N and d - sum_k rank Gr_k N: they agree at every k exactly
        # when the sums agree, which is when N is strict (Deligne, Hodge II 1.1)
        if not cx.strict:
            raise GradedKernelMismatch(f"ker N has dim {cx.ker.dim} but the kernels "
                                       f"of Gr N total {sum(d for _, d in dims)}")
        return GradedKernel(_kernel_labels(self, {k: d for k, d in dims if d}), dims)


@dataclass(frozen=True)
class JordanStringModel:
    """Direct sum of labeled Jordan strings in canonical sl2 form.

    Each (label, length m+1) string spans weights n-1-m .. n-1+m in steps
    of 2; the vector at weight n-1-m+2i carries the label twisted by -i.
    """
    strings: tuple  # tuple of (label, length)
    n: int

    def __post_init__(self):
        if any(length < 1 for _, length in self.strings):
            raise ValueError("string lengths must be >= 1")

    @property
    def dim(self) -> int:
        return sum(length for _, length in self.strings)

    def _walk(self) -> tuple:
        """(N, grading, vectors) off one walk: vectors lists (j, e_j, k, w) for
        the k-th vector e_j of a string of length L, at w = c - L + 2k - 1 with
        c = n-1.  N e_j = e_{j-1}: a string's rows of N are its e_j, k > 1, then 0."""
        d, c = self.dim, self.n - 1
        rows, vectors = [], []
        for _, length in self.strings:
            for k in range(1, length + 1):
                j = len(vectors)
                vectors.append((j, qlinalg._unit(j, d), k, c - length + 2 * k - 1))
            rows += [u for _, u, _, _ in vectors[len(rows) + 1:]] + [(0,) * d]
        grading = LabeledGrading.from_terms(lefschetz_spread(
            ((c + 1 - length, TwistedLabel(label), 1) for label, length in self.strings), c))
        return QMatrix(d, d, (tuple(rows), 1)), grading, vectors

    def operator_and_grading(self) -> tuple:
        """(N, grading): N e_i = e_{i-1} along each string, as integer rows,
        and the string grading, the lefschetz_spread of each bottom vector."""
        return self._walk()[:2]

    def to_nilpotent(self) -> NilpotentModel:
        """The model on N and the string grading.  The strings are a Jordan
        chain basis, so with no elimination pass the flag's step k is the
        k-th vector of every string of length >= k, and M(N)_w, centered at
        n-1, is spanned by the vectors of weight <= w (Deligne, Weil II
        1.6); construction still runs the N-shift test on it."""
        n_op, grading, vectors = self._walk()
        d, e = n_op.rows, max((length for _, length in self.strings), default=1)
        kernels = [tuple(zip(*[(u, j) for j, u, i, _ in vectors if i == k])) or ((), ())
                   for k in range(1, e + 1)]
        filt = WeightFiltration(d, tuple(
            (w, Subspace(d, *zip(*[(u, j) for j, u, _, x in vectors if x <= w])))
            for w in sorted({w for *_, w in vectors})))
        return NilpotentModel.of(WeightedSpace(d, filt, grading), self.n, n_op, kernels)


def verify_hard_lefschetz(model: NilpotentModel) -> Report:
    """Check that N^k induces isomorphisms Gr_{n-1+k} ~ Gr_{n-1-k} for k >= 0.

    N shifts the model's filtration by -2, so passing for every k is
    equivalent to the weight filtration being the monodromy filtration
    centered at n-1 (Deligne, Weil II 1.6.1), which is not built.  The
    report is computed once per model.
    """
    return model._hard_lefschetz


@dataclass(frozen=True)
class GradedKernel:
    grading: LabeledGrading
    dims: tuple  # per weight k of V: (k, dim ker(Gr_k N) = dim Gr_k(ker N))


def graded_kernel(model: NilpotentModel) -> GradedKernel:
    """dim ker(N: Gr_k -> Gr_{k-2}) per weight, off the graded ranks of the
    model's N; no filtration is induced on ker N.

    Each equals dim Gr_k(ker N) exactly when N is strict, which the model's
    complex decides (n_complex.strict): GradedKernelMismatch is raised when
    it is not, which cannot happen for valid pure models.  Labels are
    taken from the twist-0 part of the model's grading when that accounts
    exactly for the kernel dimensions (true for string-propagated gradings),
    with a single-label fallback otherwise.  The result is computed once per
    model; a mismatch is raised on every call.
    """
    return model._graded_kernel


def _kernel_labels(model: NilpotentModel, kernel_dims: dict) -> LabeledGrading:
    out = {k: {lbl: m for lbl, m in model.space.grading.at(k).items() if lbl.twist == 0}
           for k in kernel_dims}
    if any(sum(out[k].values()) != dim for k, dim in kernel_dims.items()):
        out = {k: {TwistedLabel(LABEL_DEFAULT): dim} for k, dim in kernel_dims.items()}
    return LabeledGrading.from_dict(out)


def primitive_decomposition(model: NilpotentModel) -> Report:
    """Per-weight Lefschetz decomposition of the graded pieces: dim Gr_k is
    the total that the graded kernel's constituents spread to at k."""
    hl = verify_hard_lefschetz(model)
    if not hl.passed:
        raise NotPure("model is not pure:\n" + hl.to_text())
    kernel = graded_kernel(model).grading
    filt = model.space.filtration
    c = model.center
    rb = ReportBuilder(f"primitive decomposition (center {c})")
    if model.space.dim == 0:
        rb.check("zero space", True, "vacuous")
        return rb.build()
    rhs: dict[int, int] = {}
    for k, _, d in lefschetz_spread(kernel.terms(), c):
        rhs[k] = rhs.get(k, 0) + d
    reach = _spread(filt, c)  # the kernel's weights are weights of filt
    for k in range(c - reach, c + reach + 1):
        lhs = filt.graded_dim(k)
        if lhs or k in rhs:
            rb.check(f"dim Gr_{k} = sum of primitive contributions", lhs == rhs.get(k, 0),
                     f"{lhs} vs {rhs.get(k, 0)}")
    return rb.build()
