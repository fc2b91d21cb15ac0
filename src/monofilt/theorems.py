"""End-to-end verifiers: class independence, local invariant cycles, and the
seeded model generators feeding the property suites."""
from __future__ import annotations

import random
from dataclasses import dataclass

from . import qlinalg
from .gluing import EXTENSIONS, GluingDatum, extension
from .kgroup import kclass_of_space, kclass_psi_from_kernel
from .monodromy import (JordanStringModel, NilpotentModel, NotPure,
                        graded_kernel, verify_hard_lefschetz)
from .qlinalg import QMatrix, intersect
from .report import Report, ReportBuilder
from .weights import WeightedSpace, is_pure, weights_at_least


@dataclass(frozen=True)
class DiskModel:
    """A pure object on the disk: intermediate extension of the open part
    plus a skyscraper at the origin.  Impure variants (other extension
    choices) are allowed with pure=False and serve as counterexamples."""
    open_part: NilpotentModel
    point_part: WeightedSpace
    pure: bool = True
    extension: str = "intermediate"

    def __post_init__(self):
        if self.extension not in EXTENSIONS:
            raise ValueError(f"unknown extension kind {self.extension!r}")
        if self.pure:
            if self.extension != "intermediate":
                raise ValueError("a pure model must use the intermediate extension")
            if not verify_hard_lefschetz(self.open_part).passed:
                raise ValueError("open part is not pure")
            if not is_pure(self.point_part.filtration, self.open_part.n):
                raise ValueError("point part is not pure of the open part's weight")

    @property
    def n(self) -> int:
        return self.open_part.n

    def datum(self) -> GluingDatum:
        """The open part's extension, built once per open model."""
        return extension(self.open_part, self.extension)


def _as_model(m) -> NilpotentModel:
    if isinstance(m, JordanStringModel):
        return m.to_nilpotent()
    return m


def verify_kclass_independence(a, b) -> Report:
    """Equal labeled kernel gradings force equal nearby-cycle classes.

    The kernel grading is the model-level stand-in for the reduced central
    fibre: if the gradings differ the hypothesis is reported as violated and
    no class equality is asserted.
    """
    ma, mb = _as_model(a), _as_model(b)
    for name, m in (("first", ma), ("second", mb)):
        if not verify_hard_lefschetz(m).passed:
            raise NotPure(f"{name} model is not pure")
    if ma.n != mb.n:
        raise NotPure("models have different purity weights")
    rb = ReportBuilder("class independence of the defining equation")
    ga, gb = graded_kernel(ma).grading, graded_kernel(mb).grading
    if ga != gb:
        rb.note("hypothesis not satisfied: kernel gradings differ; "
                "no class equality asserted")
        rb.check("kernel gradings agree", False, "hypothesis not satisfied")
        return rb.build()
    rb.check("kernel gradings agree", True)
    ka, kb = kclass_of_space(ma.space), kclass_of_space(mb.space)
    kk = kclass_psi_from_kernel(ga, ma.n)
    rb.check("classes of the two nearby-cycle spaces agree", ka == kb,
             f"{ka} vs {kb}")
    rb.check("both equal the class assembled from the kernel", ka == kk,
             f"{ka} vs {kk}")
    return rb.build()


def verify_local_invariant_cycles(dm: DiskModel, k: int) -> Report:
    """Exactness of H^k(central fibre) -> H^k(nearby cycles) --N--> (twisted).

    For impure inputs the check still runs but the report records that the
    purity hypothesis is violated so exactness is not guaranteed.
    """
    rb = ReportBuilder(f"local invariant cycles (k={k})")
    if not dm.pure:
        rb.note("hypothesis violated (impure input); exactness not guaranteed")
    if k == -1:
        # source is ker(can) inside the nearby-cycles space; the map is the
        # inclusion, so its image is ker(can) itself
        img, ker_n = dm.datum().i_upper_star.ker, dm.open_part.n_complex.ker
        rb.check("image of H^{-1}(i^*M) equals ker N", img == ker_n,
                 f"dims {img.dim} vs {ker_n.dim}")
    else:
        # H^0 of nearby cycles vanishes (perverse convention), so at k = 0
        # exactness amounts to the image being zero in the zero space
        rb.check("image equals ker N in H^0 = 0" if k == 0 else "both terms vanish",
                 True, "vacuous")
    return rb.build()


# the four weight claims behind local invariant cycles, in report order
WEIGHT_CLAIMS = ("monodromy_centered", "kernel_weight_bound",
                 "i_shriek_lower_bound", "surjective_on_low_weights")


def _weight_claims_at_minus_1(dm: DiskModel, g: GluingDatum) -> dict:
    n, psi = dm.n, g.psi
    # the image of H^{-1}(i^*M) is ker(can); var . can is the open model's N
    img, ker_n = g.i_upper_star.ker, dm.open_part.n_complex.ker
    low_weights = psi.filtration.space_at(n - 1)
    claims = {}
    if psi.dim:
        # (1) the weight filtration on H^{-1}(nearby cycles) is the monodromy
        # filtration centered at n-1; psi is the open part's space and var . can
        # its N, so by uniqueness that is the open model's hard Lefschetz verdict
        claims["monodromy_centered"] = (
            verify_hard_lefschetz(dm.open_part).passed, f"center {n - 1}")
        # (2) ker(N) has weights <= n-1
        claims["kernel_weight_bound"] = (
            low_weights.contains(ker_n), f"ker N within W_{n - 1}")
    # (3) H^0 of the !-restriction, ker(var) plus the point part, has weights >= n:
    # the filtration induced on ker(var) has no weight below n iff ker(var)
    # meets W_{n-1}(phi) in zero
    ishk = g.i_upper_shriek
    holds, detail = True, "vacuous"
    if not ishk.ker.is_zero():
        holds = intersect(ishk.ker, ishk.d.dom.space_at(n - 1)).is_zero()
        detail = f"ker(var) weights vs >= {n}"
    if dm.point_part.dim:
        holds = holds and weights_at_least(dm.point_part.filtration, n)
        detail += "; point part included"
    claims["i_shriek_lower_bound"] = (holds, detail)
    # (4) H^{-1} of the central-fibre restriction surjects onto the weights
    # <= n-1 of ker N
    low = intersect(ker_n, low_weights)
    claims["surjective_on_low_weights"] = (
        img.contains(low),
        f"low-weight part of ker N: dim {low.dim}, image dim {img.dim}")
    return claims


def _weight_claims_at_0(dm: DiskModel, g: GluingDatum) -> dict:
    n = dm.n
    # the !-restriction's H^1 is coker(var) inside psi(-1)
    ishk = g.i_upper_shriek
    twisted, img_var = ishk.d.cod, ishk.im
    claims = {}
    # (3) H^1 of the !-restriction has weights >= n+1: the quotient filtration
    # on coker(var) has no weight below n+1 iff W_n(psi(-1)) lies in im var
    if not img_var.is_full():
        claims["i_shriek_lower_bound"] = (
            img_var.contains(twisted.space_at(n)),
            f"coker(var) weights vs >= {n + 1}")
    # (4) the low weights of coker N are reached from the central fibre:
    # target coker N in the twisted coordinates, image var(phi) mod im N
    im_n = dm.open_part.n_complex.im  # var . can is the open model's N
    claims["surjective_on_low_weights"] = (
        (img_var + im_n).contains(twisted.space_at(n) + im_n),
        "low weights of coker N reached from the central fibre")
    return claims


_WEIGHT_CLAIMS_AT = {-1: _weight_claims_at_minus_1, 0: _weight_claims_at_0}


def verify_weight_mechanics(dm: DiskModel, k: int) -> Report:
    """The four weight claims behind local invariant cycles, evaluated
    independently: exactness must follow whenever all four hold.  A claim
    the degree's claims function does not evaluate holds vacuously."""
    rb = ReportBuilder(f"weight mechanics (k={k})")
    if not dm.pure:
        rb.note("impure input: claims evaluated but not guaranteed")
    claims = _WEIGHT_CLAIMS_AT[k](dm, dm.datum()) if k in _WEIGHT_CLAIMS_AT else {}
    for name in WEIGHT_CLAIMS:
        rb.check(name, *claims.get(name, (True, "vacuous")))
    return rb.build()


def generate_model(seed: int, max_strings: int, max_length: int, n: int,
                   labels) -> JordanStringModel:
    """Deterministic pseudorandom multiset of labeled Jordan strings."""
    if max_strings < 1 or max_length < 1:
        raise ValueError("bounds must be >= 1")
    rng = random.Random(seed)
    count = rng.randint(1, max_strings)
    labels = list(labels)
    strings = tuple(sorted(
        (rng.choice(labels), rng.randint(1, max_length)) for _ in range(count)))
    return JordanStringModel(strings, n)


def random_unimodular(rng: random.Random, d: int, passes: int = 2) -> QMatrix:
    """Product of random integer transvections and a permutation; det = +-1."""
    rows = [[int(i == j) for j in range(d)] for i in range(d)]
    for _ in range(passes):
        for i in range(d):
            j = rng.randrange(d)
            if i != j:
                c = rng.randint(-2, 2)
                if c:
                    rows[i] = [a + c * b for a, b in zip(rows[i], rows[j])]
    perm = list(range(d))
    rng.shuffle(perm)
    return QMatrix.from_rows([rows[p] for p in perm], cols=d)


def generate_scrambled(model: JordanStringModel, seed: int) -> NilpotentModel:
    """Conjugate the string operator N by a random invertible matrix P.  The
    filtration is M(PNP^-1) = P M(N), built from the conjugated operator;
    the grading is the string grading."""
    n_op, grading = model.operator_and_grading()
    p = random_unimodular(random.Random(seed), model.dim)
    return NilpotentModel.on_monodromy_filtration(
        p @ n_op @ qlinalg.inverse(p), model.n, grading)


def random_nilpotent(rng: random.Random, max_dim: int = 8,
                     entry_bound: int = 3, scramble: bool = True) -> QMatrix:
    """Random nilpotent matrix: strictly upper triangular, optionally
    conjugated by a random unimodular matrix."""
    d = rng.randint(1, max_dim)
    rows = [[rng.randint(-entry_bound, entry_bound) if j > i else 0
             for j in range(d)] for i in range(d)]
    m = QMatrix.from_rows(rows, cols=d)
    if scramble and d > 1:
        p = random_unimodular(rng, d)
        m = p @ m @ qlinalg.inverse(p)
    return m
