"""Gluing quadruples modeling unipotent perverse sheaves on the disk.

A GluingDatum is (psi, phi, can: psi -> phi, var: phi -> psi(-1)) with
N = var . can nilpotent.  can and var are weights.AdaptedMap morphisms, so
each carries its two filtrations, and var's twist is its codomain psi(-1).
The extension functors j_!, j_*, j_!* and the restrictions i^*, i^! are
realized concretely so the kernel/cokernel identities become subspace
computations.  An extension built from a model's own (V, N) has var . can = N
and those identities by construction, so `check` of a model builds none and
runs only sequence 2 (verify_sequence_2).

Degree conventions: perverse objects sit in degree 0, i^* lands in
degrees (-1, 0) and i^! in degrees (0, 1).
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from . import qlinalg
from .monodromy import NilpotentModel
from .qlinalg import QMatrix, kernel
from .report import Report, ReportBuilder
from .weights import AdaptedMap, TwoTermComplex, WeightedSpace, image_filtration, tate_twist


@dataclass(frozen=True)
class GluingDatum:
    """The plain constructor checks nothing (gluing.extension: a model's checks imply
    the datum's).  GluingDatum.of refuses a can or var that is not filtered (exit 3);
    `check` reports whether each is strict (i_upper_star, i_upper_shriek; exit 1)."""
    psi: WeightedSpace
    phi: WeightedSpace
    can: AdaptedMap  # psi -> phi
    var: AdaptedMap  # phi -> psi(-1)

    @staticmethod
    def of(psi: WeightedSpace, phi: WeightedSpace, can: QMatrix, var: QMatrix) -> GluingDatum:
        """The datum with these matrices, checked: shapes, and can and var
        filtered, which makes var . can nilpotent (it lowers psi's filtration
        by 2)."""
        if can.cols != psi.dim or can.rows != phi.dim:
            raise ValueError("can has the wrong shape")
        if var.cols != phi.dim or var.rows != psi.dim:
            raise ValueError("var has the wrong shape")
        p, f = psi.filtration, phi.filtration
        g = GluingDatum(psi, phi, AdaptedMap(can, p, f), AdaptedMap(var, f, p.shifted(2)))
        if not g.can.filtered():
            raise ValueError("can is not filtered")
        if not g.var.filtered():
            raise ValueError("var is not filtered")
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
        return TwoTermComplex(self.can, kernel(self.can.matrix))

    @cached_property
    def i_upper_shriek(self) -> TwoTermComplex:
        """i^!: [phi --var--> psi(-1)] in degrees (0, 1), built once per datum."""
        return TwoTermComplex(self.var, kernel(self.var.matrix))


def psi_u(g: GluingDatum) -> NilpotentModel:
    """The nearby-cycles model (psi, var . can) of a gluing datum, with
    purity weight 0: a datum does not record one."""
    return NilpotentModel.of(g.psi, 0, g.monodromy_matrix())


def _shriek(model: NilpotentModel) -> tuple:
    V, N = model.space, model.N
    return V, V, AdaptedMap(QMatrix.identity(V.dim), N.dom, N.dom), N


def _star(model: NilpotentModel) -> tuple:
    V, N = model.space, model.N
    return V, tate_twist(V, -1), N, AdaptedMap(QMatrix.identity(V.dim), N.cod, N.cod)


def _intermediate(model: NilpotentModel) -> tuple:
    """phi = im N carries can(W_k V), pushed forward along can, which makes
    can strict.  For a strict N this is the filtration im N n W_k V(-1) that
    phi inherits from psi(-1) (Deligne, Hodge II 1.1), which makes var
    strict.  For an N that is not strict no filtration of im N makes both
    strict, and var is not (i_upper_shriek.strict is n_complex.strict)."""
    V, N, img = model.space, model.N, model.n_complex.im
    can = qlinalg.corestriction(N.matrix, img)
    phi = image_filtration(can, N.dom)
    return (V, WeightedSpace.from_filtration(phi), AdaptedMap(can, N.dom, phi),
            AdaptedMap(qlinalg.inclusion(img), phi, N.cod))


# the fields (psi, phi, can, var) of each extension kind of a model, whose
# N-shift makes every can and var above filtered
EXTENSIONS = {"intermediate": _intermediate, "shriek": _shriek, "star": _star}


def extension(model: NilpotentModel, kind: str) -> GluingDatum:
    """The model's j_!* ("intermediate"), j_! ("shriek") or j_* ("star"), built
    once per model, kept in its context and not re-checked (see GluingDatum)."""
    built = model.extensions
    if kind not in built:
        built[kind] = GluingDatum(*EXTENSIONS[kind](model))
    return built[kind]


# one extension of a bare (V, N), checked as a model (N: V -> V(-1), nilpotent,
# N-shift; the purity weight plays no part), which implies the datum's checks

def j_lower_shriek(V: WeightedSpace, N: AdaptedMap) -> GluingDatum:
    """j_! presentation: (V, V, id, N)."""
    return GluingDatum(*_shriek(NilpotentModel(V, 0, N)))


def j_lower_star(V: WeightedSpace, N: AdaptedMap) -> GluingDatum:
    """j_* presentation: (V, V(-1), N, id)."""
    return GluingDatum(*_star(NilpotentModel(V, 0, N)))


def j_intermediate(V: WeightedSpace, N: AdaptedMap) -> GluingDatum:
    """j_!* presentation: phi = im(N) inside V(-1), filtered by can(W_k V),
    can = N corestricted, var = the inclusion.  var is strict exactly when N
    is (see _intermediate)."""
    return GluingDatum(*_intermediate(NilpotentModel(V, 0, N)))


def verify_sequence_2(model: NilpotentModel) -> Report:
    """The exact sequence 0 -> ker N -> V --N--> V(-1) -> coker N -> 0.

    The outer terms are the perverse cohomologies of the restriction of the
    open pushforward j_* to the origin, the model's complex [V --N--> V(-1)].
    The inclusion of ker N and the projection onto coker N are exact by
    their construction, so two lines compare computations: the dims line
    holds ker N, the first step of the kernel flag, against im N, and the
    strictness line checks N to be strict (n_complex.strict).  ker N and
    coker N carry the filtrations induced from V and V(-1), which make the
    inclusion and the projection strict by definition (Deligne, Hodge II 1.1).
    """
    V, cx = model.space, model.n_complex
    rb = ReportBuilder("exact sequence around N")
    ker, img = cx.ker, cx.im
    rb.check("dims: dim ker N + rank N = dim", ker.dim + img.dim == V.dim)
    rb.check("all structural maps are strict", cx.strict)
    rb.note(f"term dims: {ker.dim}, {V.dim}, {V.dim}, {V.dim - img.dim}")
    return rb.build()


def verify_prop_2_3(model: NilpotentModel) -> Report:
    """Kernel/cokernel identities for the intermediate extension.

    H^{-1} of the *-restriction of j_!* equals ker N as a subspace of V, H^1
    of the !-restriction equals coker N as a quotient of V(-1), and the
    complementary cohomologies vanish.  Each datum side is computed and
    compared with the model's own.  The filtrations are not compared: both
    sides induce theirs from the same filtration of V (can.dom is N.dom) and
    of V(-1) (var.cod is N.cod), so equal subspaces carry equal filtrations,
    with the twist, by definition.
    """
    g = extension(model, "intermediate")
    rb = ReportBuilder("intermediate-extension kernel/cokernel identities")
    istar, ishk, cx = g.i_upper_star, g.i_upper_shriek, model.n_complex

    rb.check("(i) H^{-1}(i^* j_!*) = ker N as subspaces of V", istar.ker == cx.ker)
    rb.check("(i) complementary vanishing: H^0(i^* j_!*) = 0", istar.im.is_full())
    rb.check("(ii) complementary vanishing: H^0(i^! j_!*) = 0", ishk.ker.is_zero())
    rb.check("(ii) H^1(i^! j_!*) = coker N as quotients of V(-1)", ishk.im == cx.im)
    return rb.build()
