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
from .weights import (TwistedMap, WeightedSpace, check_filtered, check_strict,
                      induced_filtration_on_quotient, induced_filtration_on_sub,
                      quotient_weighted_space, sub_weighted_space, tate_twist)


@dataclass(frozen=True)
class GluingDatum:
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
        if not check_filtered(self.can, self.psi, self.phi, 0):
            raise ValueError("can is not filtered")
        if not check_filtered(self.var, self.phi, self.psi, -2):
            raise ValueError("var is not filtered")
        self.__dict__["_var_can"] = self.var.matrix @ self.can.matrix

    def monodromy_matrix(self) -> QMatrix:
        """N = var . can, computed once at construction."""
        return self._var_can

    @cached_property
    def can_n_kernels(self) -> tuple:
        """(ker can, ker N), taken once per datum."""
        return kernel(self.can.matrix), kernel(self._var_can)


def psi_u(g: GluingDatum) -> NilpotentModel:
    """The nearby-cycles model (psi, var . can) of a gluing datum, with
    purity weight 0: a datum does not record one."""
    return NilpotentModel(g.psi, 0, TwistedMap(g.monodromy_matrix(), -1))


def _shriek(model: NilpotentModel) -> GluingDatum:
    V = model.space
    return GluingDatum(V, V, TwistedMap(QMatrix.identity(V.dim), 0),
                       TwistedMap(model.N.matrix, -1))


def _star(model: NilpotentModel) -> GluingDatum:
    V = model.space
    return GluingDatum(V, tate_twist(V, -1), TwistedMap(model.N.matrix, 0),
                       TwistedMap(QMatrix.identity(V.dim), -1))


def _intermediate(model: NilpotentModel) -> GluingDatum:
    V, n_mat = model.space, model.N.matrix
    img = image(n_mat)
    phi = sub_weighted_space(tate_twist(V, -1), img)
    # N v in the RREF basis of im N has its entries at the pivots as coordinates
    rows, den = n_mat._ints
    can = QMatrix._make([rows[p] for p in img.pivots], den, V.dim)
    var = qlinalg.inclusion(img)
    return GluingDatum(V, phi, TwistedMap(can, 0), TwistedMap(var, -1))


# the gluing presentation of each extension kind, built from a model
EXTENSIONS = {"intermediate": _intermediate, "shriek": _shriek, "star": _star}


def extension(model: NilpotentModel, kind: str) -> GluingDatum:
    """The model's j_!* ("intermediate"), j_! ("shriek") or j_* ("star"),
    built at most once per model and kept in its context."""
    built = model.extensions
    if kind not in built:
        built[kind] = EXTENSIONS[kind](model)
    return built[kind]


def _model(V: WeightedSpace, N: TwistedMap) -> NilpotentModel:
    """(V, N) checked as a model: twist -1, nilpotent, N-shift.  The purity
    weight plays no part in the extensions."""
    return NilpotentModel(V, 0, N)


def j_lower_shriek(V: WeightedSpace, N: TwistedMap) -> GluingDatum:
    """j_! presentation: (V, V, id, N)."""
    return _shriek(_model(V, N))


def j_lower_star(V: WeightedSpace, N: TwistedMap) -> GluingDatum:
    """j_* presentation: (V, V(-1), N, id)."""
    return _star(_model(V, N))


def j_intermediate(V: WeightedSpace, N: TwistedMap) -> GluingDatum:
    """j_!* presentation: phi = im(N) inside V(-1), can = N corestricted,
    var = the inclusion."""
    return _intermediate(_model(V, N))


@dataclass(frozen=True)
class TwoTermComplex:
    """A complex [dom --d--> cod] concentrated in degrees (deg_low, deg_low+1)."""
    deg_low: int
    dom: WeightedSpace
    cod: WeightedSpace
    d: TwistedMap

    @cached_property
    def h_low_space(self) -> Subspace:
        return kernel(self.d.matrix)

    def h_low(self) -> WeightedSpace:
        """ker(d) with the induced filtration, in its intrinsic coordinates."""
        return sub_weighted_space(self.dom, self.h_low_space)

    @cached_property
    def h_high_denominator(self) -> Subspace:
        return image(self.d.matrix)

    def h_high(self) -> WeightedSpace:
        """coker(d) with the quotient filtration, in complement coordinates."""
        return quotient_weighted_space(self.cod, self.h_high_denominator)


def i_upper_star(g: GluingDatum) -> TwoTermComplex:
    """[psi --can--> phi] in degrees (-1, 0)."""
    return TwoTermComplex(-1, g.psi, g.phi, g.can)


def i_upper_shriek(g: GluingDatum) -> TwoTermComplex:
    """[phi --var--> psi(-1)] in degrees (0, 1)."""
    return TwoTermComplex(0, g.phi, tate_twist(g.psi, -1),
                          TwistedMap(g.var.matrix, 0))


def verify_sequence_2(model: NilpotentModel) -> Report:
    """Exactness of 0 -> ker N -> V --N--> V(-1) -> coker N -> 0, built from j_*.

    The outer terms are the perverse cohomologies of the restriction of the
    open pushforward to the origin; exactness at each slot is checked by
    subspace equality and the structural maps are checked to be strict.
    """
    V, N = model.space, model.N
    g = extension(model, "star")
    cx = i_upper_star(g)  # [V --N--> V(-1)]
    rb = ReportBuilder("exact sequence around N")
    d = V.dim
    ker = cx.h_low_space
    img = cx.h_high_denominator
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
    rb.check("dims: dim ker N + rank N = dim", ker.dim + img.dim == d)
    rb.check("all structural maps are strict",
             check_strict(TwistedMap(incl, 0), cx.h_low(), V, shift=0)
             and check_strict(TwistedMap(N.matrix, 0), V, cx.cod, shift=0)
             and check_strict(TwistedMap(proj, 0), cx.cod, cx.h_high(), shift=0))
    rb.note(f"term dims: {ker.dim}, {d}, {d}, {d - img.dim}")
    return rb.build()


def verify_prop_2_3(model: NilpotentModel) -> Report:
    """Kernel/cokernel identities for the intermediate extension.

    H^{-1} of the *-restriction of j_!* equals ker N, H^1 of the
    !-restriction equals coker N (as canonical subquotients of V with the
    induced filtrations and twists), and the complementary cohomologies
    vanish.
    """
    V, N = model.space, model.N
    g = extension(model, "intermediate")
    rb = ReportBuilder("intermediate-extension kernel/cokernel identities")
    istar = i_upper_star(g)
    ishk = i_upper_shriek(g)
    ker_n = kernel(N.matrix)
    im_n = image(N.matrix)

    rb.check("(i) H^{-1}(i^* j_!*) = ker N as subspaces of V",
             istar.h_low_space == ker_n)
    rb.check("(i) complementary vanishing: H^0(i^* j_!*) = 0",
             istar.h_high_denominator.is_full())
    if not ker_n.is_zero():
        lhs = induced_filtration_on_sub(istar.dom, istar.h_low_space)
        rhs = induced_filtration_on_sub(V, ker_n)
        rb.check("(i) induced filtrations agree", lhs == rhs)

    rb.check("(ii) complementary vanishing: H^0(i^! j_!*) = 0",
             ishk.h_low_space.is_zero())
    rb.check("(ii) H^1(i^! j_!*) = coker N as quotients of V(-1)",
             ishk.h_high_denominator == im_n)
    if not im_n.is_full():
        twisted = tate_twist(V, -1)
        lhs = induced_filtration_on_quotient(ishk.cod, ishk.h_high_denominator)
        rhs = induced_filtration_on_quotient(twisted, im_n)
        rb.check("(ii) quotient filtrations agree (with the twist)", lhs == rhs)
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
