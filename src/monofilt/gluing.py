"""Gluing quadruples modeling unipotent perverse sheaves on the disk.

A GluingDatum is (psi, phi, can: psi -> phi, var: phi -> psi(-1)) with
N = var . can nilpotent.  The extension functors j_!, j_*, j_!* and the
restrictions i^*, i^! are realized concretely so the exact sequence and
kernel/cokernel identities become subspace computations.

Degree conventions: perverse objects sit in degree 0, i^* lands in
degrees (-1, 0) and i^! in degrees (0, 1).
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from . import qlinalg
from .monodromy import NilpotentModel
from .qlinalg import QMatrix, Subspace, image, kernel
from .report import Report, ReportBuilder
from .weights import (TwistedMap, WeightedSpace, WeightFiltration, check_filtered,
                      check_strict, induced_filtration_on_quotient,
                      induced_filtration_on_sub)


@dataclass(frozen=True)
class GluingDatum:
    """Checked at construction: twists, shapes, and can and var filtered,
    which makes var . can nilpotent.  gluing.extension skips the checks
    (_trusted), which a model's nilpotency and N-shift checks imply."""
    psi: WeightedSpace
    phi: WeightedSpace
    can: TwistedMap  # psi -> phi, twist 0
    var: TwistedMap  # phi -> psi(-1), twist -1

    def __post_init__(self):
        if self.can.twist != 0 or self.var.twist != -1:
            raise ValueError("can must have twist 0 and var twist -1")
        if self.can.matrix.cols != self.psi.dim or self.can.matrix.rows != self.phi.dim:
            raise ValueError("can has the wrong shape")
        if self.var.matrix.cols != self.phi.dim or self.var.matrix.rows != self.psi.dim:
            raise ValueError("var has the wrong shape")
        # filtered can and var make var . can lower psi's filtration by 2: nilpotent
        psi, phi = self.psi.filtration, self.phi.filtration
        if not check_filtered(self.can, psi, phi, 0):
            raise ValueError("can is not filtered")
        if not check_filtered(self.var, phi, psi, -2):
            raise ValueError("var is not filtered")

    @staticmethod
    def _trusted(psi, phi, can, var) -> GluingDatum:
        """The datum (psi, phi, can, var) without the construction checks."""
        g = object.__new__(GluingDatum)
        g.__dict__.update(psi=psi, phi=phi, can=can, var=var)
        return g

    @cached_property
    def _var_can(self) -> QMatrix:
        return self.var.matrix @ self.can.matrix

    def monodromy_matrix(self) -> QMatrix:
        """N = var . can, computed once, when first read."""
        return self._var_can

    @cached_property
    def i_upper_star(self) -> TwoTermComplex:
        """i^*: [psi --can--> phi] in degrees (-1, 0), built once per datum."""
        return TwoTermComplex(-1, self.psi.filtration, self.phi.filtration, self.can)

    @cached_property
    def i_upper_shriek(self) -> TwoTermComplex:
        """i^!: [phi --var--> psi(-1)] in degrees (0, 1), built once per datum."""
        return TwoTermComplex(0, self.phi.filtration, self.psi.filtration.shifted(2),
                              TwistedMap(self.var.matrix, 0))


def psi_u(g: GluingDatum) -> NilpotentModel:
    """The nearby-cycles model (psi, var . can) of a gluing datum, with
    purity weight 0: a datum does not record one."""
    return NilpotentModel(g.psi, 0, TwistedMap(g.monodromy_matrix(), -1))


def _shriek(model: NilpotentModel) -> tuple:
    V = model.space
    return V, V, TwistedMap(QMatrix.identity(V.dim), 0), TwistedMap(model.N.matrix, -1)


def _star(model: NilpotentModel) -> tuple:
    V = model.space
    return (V, model.twisted, TwistedMap(model.N.matrix, 0),
            TwistedMap(QMatrix.identity(V.dim), -1))


def _intermediate(model: NilpotentModel) -> tuple:
    V, n_mat, img = model.space, model.N.matrix, model.im_n
    phi = WeightedSpace.from_filtration(
        induced_filtration_on_sub(model.twisted.filtration, img))
    return (V, phi, TwistedMap(qlinalg.corestriction(n_mat, img), 0),
            TwistedMap(qlinalg.inclusion(img), -1))


# the fields (psi, phi, can, var) of each extension kind of a model, whose
# N-shift makes every can and var above filtered
EXTENSIONS = {"intermediate": _intermediate, "shriek": _shriek, "star": _star}


def extension(model: NilpotentModel, kind: str) -> GluingDatum:
    """The model's j_!* ("intermediate"), j_! ("shriek") or j_* ("star"), built
    once per model, kept in its context and not re-checked (see GluingDatum)."""
    built = model.extensions
    if kind not in built:
        built[kind] = GluingDatum._trusted(*EXTENSIONS[kind](model))
    return built[kind]


# one extension of a bare (V, N), checked as a model (twist -1, nilpotent,
# N-shift; the purity weight plays no part) and then as a GluingDatum

def j_lower_shriek(V: WeightedSpace, N: TwistedMap) -> GluingDatum:
    """j_! presentation: (V, V, id, N)."""
    return GluingDatum(*_shriek(NilpotentModel(V, 0, N)))


def j_lower_star(V: WeightedSpace, N: TwistedMap) -> GluingDatum:
    """j_* presentation: (V, V(-1), N, id)."""
    return GluingDatum(*_star(NilpotentModel(V, 0, N)))


def j_intermediate(V: WeightedSpace, N: TwistedMap) -> GluingDatum:
    """j_!* presentation: phi = im(N) inside V(-1), can = N corestricted,
    var = the inclusion."""
    return GluingDatum(*_intermediate(NilpotentModel(V, 0, N)))


@dataclass(frozen=True)
class TwoTermComplex:
    """A complex [dom --d--> cod] of filtered spaces concentrated in degrees
    (deg_low, deg_low+1).  Its cohomologies are taken once per complex."""
    deg_low: int
    dom: WeightFiltration
    cod: WeightFiltration
    d: TwistedMap

    @cached_property
    def h_low_space(self) -> Subspace:
        return kernel(self.d.matrix)

    @cached_property
    def h_low(self) -> WeightFiltration:
        """ker(d) with the induced filtration, in its intrinsic coordinates."""
        return induced_filtration_on_sub(self.dom, self.h_low_space)

    @cached_property
    def h_high_denominator(self) -> Subspace:
        return image(self.d.matrix)

    @cached_property
    def h_high(self) -> WeightFiltration:
        """coker(d) with the quotient filtration, in complement coordinates."""
        return induced_filtration_on_quotient(self.cod, self.h_high_denominator)


def verify_sequence_2(model: NilpotentModel) -> Report:
    """Exactness of 0 -> ker N -> V --N--> V(-1) -> coker N -> 0, built from j_*.

    The outer terms are the perverse cohomologies of the restriction of the
    open pushforward to the origin; exactness at each slot is checked by
    subspace equality and the structural maps are checked to be strict.
    ker N, im N and the outer terms are the model's own.
    """
    V = model.space
    g = extension(model, "star")  # its *-restriction is [V --N--> V(-1)]
    rb = ReportBuilder("exact sequence around N")
    ker, img = model.kernels[1], model.im_n
    incl = qlinalg.inclusion(ker)
    proj = qlinalg.quotient_projection(img)

    rb.check("left exactness: inclusion of ker N is injective",
             kernel(incl).is_zero())
    rb.check("exactness at the nearby-cycles slot: image = ker N",
             image(incl) == ker)
    rb.check("exactness at the twisted slot: im N = ker of projection",
             img == kernel(proj))
    rb.check("right exactness: projection onto coker N is surjective",
             image(proj).is_full())
    rb.check("dims: dim ker N + rank N = dim", ker.dim + img.dim == V.dim)
    filt, phi = V.filtration, g.phi.filtration
    rb.check("all structural maps are strict",
             check_strict(TwistedMap(incl, 0), model.ker_filtration, filt, shift=0)
             and check_strict(g.can, filt, phi, shift=0)
             and check_strict(TwistedMap(proj, 0), phi, model.coker_filtration, shift=0))
    rb.note(f"term dims: {ker.dim}, {V.dim}, {V.dim}, {V.dim - img.dim}")
    return rb.build()


def verify_prop_2_3(model: NilpotentModel) -> Report:
    """Kernel/cokernel identities for the intermediate extension.

    H^{-1} of the *-restriction of j_!* equals ker N, H^1 of the
    !-restriction equals coker N (as canonical subquotients of V with the
    induced filtrations and twists), and the complementary cohomologies
    vanish.  Each datum side is computed and compared with the model's own.
    """
    g = extension(model, "intermediate")
    rb = ReportBuilder("intermediate-extension kernel/cokernel identities")
    istar, ishk = g.i_upper_star, g.i_upper_shriek
    ker_n, im_n = model.kernels[1], model.im_n

    rb.check("(i) H^{-1}(i^* j_!*) = ker N as subspaces of V",
             istar.h_low_space == ker_n)
    rb.check("(i) complementary vanishing: H^0(i^* j_!*) = 0",
             istar.h_high_denominator.is_full())
    if not ker_n.is_zero():
        rb.check("(i) induced filtrations agree", istar.h_low == model.ker_filtration)

    rb.check("(ii) complementary vanishing: H^0(i^! j_!*) = 0",
             ishk.h_low_space.is_zero())
    rb.check("(ii) H^1(i^! j_!*) = coker N as quotients of V(-1)",
             ishk.h_high_denominator == im_n)
    if not im_n.is_full():
        rb.check("(ii) quotient filtrations agree (with the twist)",
                 ishk.h_high == model.coker_filtration)
    return rb.build()


def verify_roundtrip(model: NilpotentModel) -> Report:
    """psi_u of each of j_!, j_*, j_!* returns (V, N) back: psi = V and
    var . can = N exactly."""
    rb = ReportBuilder("extension round-trips")
    for name, kind in (("j_!", "shriek"), ("j_*", "star"), ("j_!*", "intermediate")):
        g = extension(model, kind)
        # psi_u(g) is (g.psi, var . can); compared without rebuilding a model
        rb.check(f"psi_u . {name} = id",
                 g.psi == model.space and g.monodromy_matrix() == model.N.matrix)
    return rb.build()
