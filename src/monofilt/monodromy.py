"""Monodromy filtrations of nilpotent operators and their graded structure.

The filtration is built by the closed kernel/image convolution formula;
check_monodromy_axioms provides an independent code path (induced maps on
graded pieces) that verifies the two defining axioms.
"""
from __future__ import annotations

from dataclasses import dataclass

from . import qlinalg
from .qlinalg import QMatrix, Subspace, apply_to_subspace, intersect
from .report import Report, ReportBuilder
from .weights import (LabeledGrading, TwistedLabel, TwistedMap,
                      WeightFiltration, WeightedSpace, check_filtered,
                      induced_filtration_on_sub)


class NotNilpotent(ValueError):
    """The operator is not nilpotent."""


class NotPure(ValueError):
    """The model does not satisfy the purity (hard Lefschetz) condition."""


class GradedKernelMismatch(ValueError):
    """The two computations of the graded kernel disagree (non-strict input)."""


def _powers(m: QMatrix) -> list:
    """[m^0, ..., m^e] with m^e the first zero power; raises NotNilpotent."""
    if m.rows != m.cols:
        raise NotNilpotent("operator is not square")
    powers = [QMatrix.identity(m.rows)]
    while not powers[-1].is_zero():
        if len(powers) > m.rows:
            raise NotNilpotent("operator is not nilpotent")
        powers.append(powers[-1] @ m)
    return powers


def nilpotency_index(m: QMatrix) -> int:
    """Least e with m^e = 0; raises NotNilpotent otherwise."""
    return len(_powers(m)) - 1


def monodromy_filtration(n_op: QMatrix, center: int) -> WeightFiltration:
    """The unique filtration M with N M_k in M_{k-2} and N^k: Gr_{c+k} ~ Gr_{c-k}.

    Computed as M_{c+l} = sum over a-b=l, a,b>=0 of ker(N^{a+1}) n im(N^b).
    Use check_monodromy_axioms for an independent verification.
    """
    powers = _powers(n_op)
    e = len(powers) - 1
    d = n_op.rows
    # ker N^0 = 0 and im N^0 = Q^d; from N^e = 0 on, ker = Q^d and im = 0
    kernels = ([Subspace.zero(d)] + [qlinalg.kernel(p) for p in powers[1:e]]
               + [Subspace.full(d)] * 2)
    images = ([Subspace.full(d)] + [qlinalg.image(p) for p in powers[1:e]]
              + [Subspace.zero(d)] * 2)
    steps = []
    for ell in range(-e, e + 1):
        rows = []
        for a in range(max(0, ell), e + 1):
            b = a - ell
            if b > e:
                continue
            rows += intersect(kernels[a + 1], images[b])._rows
        steps.append((center + ell, Subspace.from_vectors(d, rows)))
    return WeightFiltration.from_spaces(d, steps)


def _induced_graded_map(m: QMatrix, filt_dom: WeightFiltration,
                        filt_cod: WeightFiltration, k_dom: int, k_cod: int) -> QMatrix:
    return qlinalg.induced_map_on_quotient(
        m,
        filt_dom.space_at(k_dom - 1), filt_cod.space_at(k_cod - 1),
        filt_dom.space_at(k_dom), filt_cod.space_at(k_cod))


def check_monodromy_axioms(filt: WeightFiltration, n_op: QMatrix,
                           center: int) -> Report:
    """Independent verification of the two defining axioms of the filtration."""
    rb = ReportBuilder(f"monodromy axioms (center {center})")
    shift_ok = True
    for w, s in filt.steps:
        if not filt.space_at(w - 2).contains(apply_to_subspace(n_op, s)):
            shift_ok = False
            rb.check(f"N W_{w} in W_{w - 2}", False)
    rb.check("N-shift: N M_k in M_{k-2}", shift_ok)
    spread = max((abs(w - center) for w in filt.weights), default=0)
    power = QMatrix.identity(n_op.rows)
    for k in range(0, spread + 1):
        try:
            g = _induced_graded_map(power, filt, filt,
                                    center + k, center - k)
        except qlinalg.NotCompatible:
            rb.check(f"N^{k}: Gr_{center + k} ~ Gr_{center - k}", False,
                     "power of N does not respect the filtration")
            power = power @ n_op
            continue
        r = qlinalg.rank(g)
        rb.check(f"N^{k}: Gr_{center + k} ~ Gr_{center - k}",
                 g.rows == g.cols and r == g.rows,
                 f"dims {g.cols} -> {g.rows}, rank {r}")
        power = power @ n_op
    return rb.build()


@dataclass(frozen=True)
class NilpotentModel:
    """A weight-filtered space with a nilpotent twist-(-1) operator.

    n is the purity weight of the underlying object, so the filtration of a
    pure model is the monodromy filtration centered at n-1.
    """
    space: WeightedSpace
    n: int
    N: TwistedMap

    def __post_init__(self):
        if self.N.twist != -1:
            raise ValueError("monodromy operator must carry twist -1")
        nilpotency_index(self.N.matrix)
        if not check_filtered(self.N, self.space, self.space, -2):
            raise ValueError("N does not shift the filtration by -2")

    @property
    def center(self) -> int:
        return self.n - 1


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

    def to_nilpotent(self) -> NilpotentModel:
        d = self.dim
        rows = [[0] * d for _ in range(d)]
        weight_vectors: dict[int, list[int]] = {}
        grading: dict[int, dict[TwistedLabel, int]] = {}
        offset = 0
        for label, length in self.strings:
            m = length - 1
            for i in range(length):
                idx = offset + i
                if i > 0:
                    rows[idx - 1][idx] = 1  # N e_i = e_{i-1}
                w = self.n - 1 + 2 * i - m
                weight_vectors.setdefault(w, []).append(idx)
                lbl = TwistedLabel(label, -i)
                grading.setdefault(w, {})
                grading[w][lbl] = grading[w].get(lbl, 0) + 1
            offset += length
        n_mat = QMatrix.from_rows(rows, cols=d)
        steps = []
        acc: list[int] = []
        for w in sorted(weight_vectors):
            acc.extend(weight_vectors[w])
            vecs = [[1 if j == idx else 0 for j in range(d)] for idx in acc]
            steps.append((w, Subspace.from_vectors(d, vecs)))
        if d == 0:
            space = WeightedSpace.zero()
        else:
            filt = WeightFiltration.from_spaces(d, steps)
            space = WeightedSpace(d, filt, LabeledGrading.from_dict(grading))
        return NilpotentModel(space, self.n, TwistedMap(n_mat, -1))


def verify_hard_lefschetz(model: NilpotentModel) -> Report:
    """Check that N^k induces isomorphisms Gr_{n-1+k} ~ Gr_{n-1-k} for k >= 0.

    Passing for every k is equivalent to the weight filtration being the
    monodromy filtration centered at n-1; that equality is asserted too.
    """
    rb = ReportBuilder(f"hard Lefschetz (center {model.center})")
    filt = model.space.filtration
    c = model.center
    if model.space.dim == 0:
        rb.check("zero space", True, "vacuous")
        return rb.build()
    spread = max(abs(w - c) for w in filt.weights)
    power = QMatrix.identity(model.space.dim)
    for k in range(0, spread + 1):
        if k:
            power = power @ model.N.matrix
        try:
            g = _induced_graded_map(power, filt, filt, c + k, c - k)
        except qlinalg.NotCompatible:
            rb.check(f"N^{k}: Gr_{c + k} -> Gr_{c - k}", False,
                     "N^k does not respect the filtration")
            continue
        r = qlinalg.rank(g)
        rb.check(f"N^{k}: Gr_{c + k} -> Gr_{c - k}", g.rows == g.cols and r == g.rows,
                 f"dims {g.cols} -> {g.rows}, rank {r}")
    mono = monodromy_filtration(model.N.matrix, c)
    rb.check("weight filtration equals monodromy filtration", filt == mono)
    return rb.build()


@dataclass(frozen=True)
class GradedKernel:
    grading: LabeledGrading
    # per weight: (dim of Gr_k(ker N), dim of ker(Gr N at k)); the two agree
    dims: tuple


def graded_kernel(model: NilpotentModel) -> GradedKernel:
    """Both sides of Gr_k ker(N) ~ ker(N: Gr_k -> Gr_{k-2}), per weight.

    Raises GradedKernelMismatch if the dimensions disagree, which signals a
    non-strict input and cannot happen for valid pure models.  Labels are
    taken from the twist-0 part of the model's grading when that accounts
    exactly for the kernel dimensions (true for string-propagated gradings),
    with a single-label fallback otherwise.
    """
    ker = qlinalg.kernel(model.N.matrix)
    filt = model.space.filtration
    if model.space.dim == 0:
        return GradedKernel(LabeledGrading.empty(), ())
    ker_filt = induced_filtration_on_sub(model.space, ker)
    weights = sorted(set(filt.weights) | set(ker_filt.weights))
    dims = []
    kernel_dims: dict[int, int] = {}
    for k in weights:
        sub_side = ker_filt.graded_dim(k)
        g = _induced_graded_map(model.N.matrix, filt, filt, k, k - 2)
        map_side = g.cols - qlinalg.rank(g)
        if sub_side != map_side:
            raise GradedKernelMismatch(
                f"weight {k}: Gr(ker N) has dim {sub_side} but graded kernel "
                f"has dim {map_side}")
        if sub_side:
            kernel_dims[k] = sub_side
        dims.append((k, sub_side, map_side))
    grading = _kernel_labels(model, kernel_dims)
    return GradedKernel(grading, tuple(dims))


def _kernel_labels(model: NilpotentModel, kernel_dims: dict) -> LabeledGrading:
    out: dict[int, dict[TwistedLabel, int]] = {}
    consistent = True
    for k, dim in kernel_dims.items():
        zero_twist = {lbl: m for lbl, m in model.space.grading.at(k).items()
                      if lbl.twist == 0}
        if sum(zero_twist.values()) != dim:
            consistent = False
            break
        out[k] = zero_twist
    if not consistent:
        out = {k: {TwistedLabel("pt"): dim} for k, dim in kernel_dims.items()}
    return LabeledGrading.from_dict(out)


@dataclass(frozen=True)
class PrimitiveDecomposition:
    # per (k, m): twist and dimension contributed to Gr_k by the weight-(n-1-m)
    # part of ker(N)
    contributions: tuple  # tuple of (k, m, twist, dim)
    report: Report

    @property
    def passed(self) -> bool:
        return self.report.passed


def primitive_decomposition(model: NilpotentModel) -> PrimitiveDecomposition:
    """Per-weight Lefschetz decomposition of the graded pieces by kernel parts."""
    hl = verify_hard_lefschetz(model)
    if not hl.passed:
        raise NotPure("model is not pure:\n" + hl.to_text())
    gk = graded_kernel(model)
    kernel_dim = {k: d for k, d, _ in gk.dims if d}
    filt = model.space.filtration
    c = model.center
    rb = ReportBuilder(f"primitive decomposition (center {c})")
    contributions = []
    if model.space.dim == 0:
        rb.check("zero space", True, "vacuous")
        return PrimitiveDecomposition((), rb.build())
    spread = max(abs(w - c) for w in filt.weights)
    max_m = max(((c - k) for k in kernel_dim), default=0)
    for k in range(c - max(spread, max_m), c + max(spread, max_m) + 1):
        lhs = filt.graded_dim(k)
        rhs = 0
        for m in range(abs(c - k), max_m + 1, 2):
            d = kernel_dim.get(c - m, 0)
            if d:
                tw = (c - m - k) // 2
                contributions.append((k, m, tw, d))
                rhs += d
        if lhs or rhs:
            rb.check(f"dim Gr_{k} = sum of primitive contributions", lhs == rhs,
                     f"{lhs} vs {rhs}")
    return PrimitiveDecomposition(tuple(contributions), rb.build())
