"""Differential tests of the integer qlinalg kernel against independent oracles.

The reference (reference.py and the helpers below) is a textbook Gauss-Jordan
elimination on Fraction rows; it shares no code with monofilt.qlinalg.
Intersections are computed from null spaces of stacked spanning sets, a
different method from the library's.  sympy's Matrix.rref, when sympy is
installed, is a second oracle.
"""
import random
from bisect import bisect_left
from collections import Counter
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from monofilt import qlinalg
from monofilt.qlinalg import QMatrix, SingularMatrix, Subspace
from monofilt.monodromy import _kernel_flag, monodromy_filtration
from monofilt.theorems import generate_model, generate_scrambled
from monofilt.weights import AdaptedMap, ShapeMismatch, WeightFiltration, image_filtration

from conftest import flag_spaces, graded_block, random_subspace, rref_basis
from reference import (ref_apply, ref_in_span, ref_intersect, ref_matmul, ref_matvec,
                       ref_monodromy_steps, ref_null, ref_rref, ref_span)

# -- reference ---------------------------------------------------------------


def ref_inverse(m, n):
    aug = [list(m[i]) + [Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    red, pivots = ref_rref(aug, 2 * n)
    if pivots != list(range(n)):
        return None
    return tuple(tuple(r[n:]) for r in red)


def ref_image(m: QMatrix, s: Subspace) -> Subspace:
    """m(s) from the reference product; AmbientMismatch when the shapes differ."""
    if m.cols != s.ambient_dim:
        raise qlinalg.AmbientMismatch("matrix columns do not match ambient dimension")
    return Subspace.from_vectors(m.rows, ref_apply(m.entries, s.basis.entries, m.rows))


# -- strategies ----------------------------------------------------------------

entries = st.one_of(
    st.just(Fraction(0)),
    st.integers(-3, 3).map(Fraction),
    st.integers(-1200, 1200).map(Fraction),
    st.fractions(min_value=-1000, max_value=1000, max_denominator=24),
)


@st.composite
def matrices(draw, rows=None, cols=None, max_dim=6):
    r = draw(st.integers(0, max_dim)) if rows is None else rows
    c = draw(st.integers(0, max_dim)) if cols is None else cols
    if draw(st.booleans()):
        # rank at most k: a product of r x k and k x c factors
        k = draw(st.integers(0, max(0, min(r, c) - 1)))
        a = draw(st.lists(st.lists(entries, min_size=k, max_size=k), min_size=r, max_size=r))
        b = draw(st.lists(st.lists(entries, min_size=c, max_size=c), min_size=k, max_size=k))
        data = [list(row) for row in ref_matmul(a, b, k, c)]
    else:
        data = draw(st.lists(st.lists(entries, min_size=c, max_size=c), min_size=r, max_size=r))
    if r:
        for i in draw(st.lists(st.integers(0, r - 1), max_size=2)):
            data[i] = [Fraction(0)] * c
    return data, r, c


def qmatrix(data, c):
    return QMatrix.from_rows(data, cols=c)


def is_canonical(m: QMatrix) -> bool:
    """The stored integer rows are over one positive denominator in lowest
    terms, and the entries read back as Fractions."""
    rows, den = m._ints
    return (den > 0 and gcd(den, *[x for r in rows for x in r]) == 1
            and all(type(x) is Fraction for r in m.entries for x in r))


EXAMPLES = settings(max_examples=150, deadline=None)

# -- differential tests ----------------------------------------------------------


@EXAMPLES
@given(matrices())
def test_rref_and_rank(mc):
    data, r, c = mc
    m = qmatrix(data, c)
    red, pivots = ref_rref(data, c)
    out = rref_basis(m)
    assert out.entries == tuple(red)
    assert is_canonical(out)
    assert len(qlinalg._echelon(m._ints[0])[1]) == len(pivots)


@EXAMPLES
@given(matrices())
@example(([], 0, 0))
@example(([], 0, 3))
@example(([[], [], []], 3, 0))
def test_kernel_and_image(mc):
    data, r, c = mc
    m = qmatrix(data, c)
    k = qlinalg.kernel(m)
    assert k.basis.entries == ref_span(ref_null(data, c), c)
    assert is_canonical(k.basis)
    im = qlinalg.image(m)
    assert im.basis.entries == ref_span([[row[j] for row in data] for j in range(c)], r)


@EXAMPLES
@given(st.integers(0, 6).flatmap(
    lambda d: st.tuples(matrices(cols=d), matrices(cols=d), st.just(d))))
def test_intersect(args):
    (u, _, _), (w, _, _), d = args
    a, b = Subspace.from_vectors(d, u), Subspace.from_vectors(d, w)
    assert qlinalg.intersect(a, b).basis.entries == ref_intersect(u, w, d)


def assert_caches_canonical(s: Subspace):
    """The cached integer rows and pivots are the ones a fresh build derives."""
    fresh = Subspace.from_vectors(s.ambient_dim, s.basis.entries)
    assert s._rows == fresh._rows and s.pivots == fresh.pivots
    assert all(row[p] > 0 for row, p in zip(s._rows, s.pivots))


@EXAMPLES
@given(st.integers(0, 6).flatmap(
    lambda d: st.tuples(matrices(cols=d), matrices(cols=d), st.just(d))))
def test_intersect_caches_and_dimension_formula(args):
    (u, _, _), (w, _, _), d = args
    a, b = Subspace.from_vectors(d, u), Subspace.from_vectors(d, w)
    meet = qlinalg.intersect(a, b)
    assert_caches_canonical(meet)
    assert meet.dim + (a + b).dim == a.dim + b.dim
    assert a.contains(meet) and b.contains(meet)


@EXAMPLES
@given(st.integers(0, 5).flatmap(
    lambda d: st.tuples(matrices(cols=d, max_dim=5), matrices(cols=d, max_dim=5),
                        st.booleans(), st.just(d))))
def test_equality_and_hash_agree_with_the_basis(args):
    (u, _, _), (w, _, _), respan, d = args
    respan = respan and bool(u)
    if respan:  # the span of u, from other spanning vectors
        w = [[Fraction(-3, 2) * x + y for x, y in zip(r, u[0])] for r in u[::-1]] + [u[0]]
    a, b = Subspace.from_vectors(d, u), Subspace.from_vectors(d, w)
    same = a.basis == b.basis
    assert (a == b) == same
    if same:
        assert hash(a) == hash(b)
    if respan:
        assert same


@EXAMPLES
@given(matrices(), matrices(), st.sampled_from([-3, -2, 2, 3, 5, 6]))
def test_matrix_equality_and_hash_agree_with_the_entries(x, y, k):
    """One stored form per matrix: however a matrix is reached, two compare
    equal, and hash alike, exactly when their shapes and entries agree."""
    (u, r, c), (w, _, c2) = x, y
    a = qmatrix(u, c)
    over_k = QMatrix.from_rows(
        [[Fraction(int(i == j), k) for j in range(c)] for i in range(c)], cols=c)
    ku = [[k * e for e in row] for row in u]
    same_as_a = [
        qmatrix(ku, c) @ over_k,  # k a over a denominator k, brought to lowest terms
        QMatrix.from_rows([[str(e) if e.denominator > 1 else e.numerator for e in row]
                           for row in u], cols=c),
        a @ QMatrix.identity(c),
        QMatrix.identity(r) @ a,
    ]
    # the RREF depends only on the row space
    rrefs = [rref_basis(a), rref_basis(qmatrix(ku[::-1], c)), rref_basis(rref_basis(a))]
    forms = [a, *same_as_a, *rrefs, qmatrix(w, c2), rref_basis(qmatrix(w, c2))]
    assert all(m == a for m in same_as_a) and all(m == rrefs[0] for m in rrefs)
    for m in forms:
        assert is_canonical(m)
        for n in forms:
            same = (m.rows, m.cols, m.entries) == (n.rows, n.cols, n.entries)
            assert (m == n) == same
            if same:
                assert hash(m) == hash(n)


@pytest.mark.parametrize("d", [0, 1, 4])
def test_intersect_shortcuts(d):
    zero, full = Subspace.zero(d), Subspace.full(d)
    a = Subspace.from_vectors(d, [[Fraction(i + 2 * j - 3) for i in range(d)]
                                  for j in range(2)])
    for x, y in [(zero, a), (a, zero), (full, a), (a, full), (a, a),
                 (zero, full), (full, full)]:
        meet = qlinalg.intersect(x, y)
        assert_caches_canonical(meet)
        assert meet == (zero if zero in (x, y) else a if a in (x, y) else full)
    with pytest.raises(qlinalg.AmbientMismatch):
        qlinalg.intersect(a, Subspace.zero(d + 1))


def test_kernel_and_intersect_take_one_pass(monkeypatch):
    """kernel and intersect each run one _prefix_spans pass and build no
    Subspace.from_vectors: the kernel of a scrambled string operator, and the
    meets of drawn subspaces, zero and full ones among them."""
    rng = random.Random(11)
    model = generate_model(rng.getrandbits(32), 3, 4, 1, ["L"])
    n_op = generate_scrambled(model, rng.getrandbits(32)).N.matrix
    pairs = [(random_subspace(rng, d), random_subspace(rng, d))
             for d in (1, 3, 4, 5, 6) for _ in range(4)]
    pairs += [(Subspace.zero(3), pairs[4][0]), (Subspace.full(3), pairs[5][1]),
              (pairs[6][0], Subspace.full(3))]
    passes = []
    prefix_spans = qlinalg._prefix_spans
    monkeypatch.setattr(qlinalg, "_prefix_spans",
                        lambda *args: passes.append(1) or prefix_spans(*args))
    monkeypatch.setattr(Subspace, "from_vectors", lambda *a: pytest.fail("from_vectors"))
    k = qlinalg.kernel(n_op)
    assert len(passes) == 1
    assert k.basis.entries == ref_span(ref_null(n_op.entries, n_op.cols), n_op.cols)
    assert k.dim == len(model.strings)
    for i, (a, b) in enumerate(pairs, 2):
        meet = qlinalg.intersect(a, b)
        assert len(passes) == i
        assert meet.basis.entries == ref_intersect(a.basis.entries, b.basis.entries,
                                                   a.ambient_dim)


def _first_nonzeros(s: Subspace) -> tuple:
    return tuple(next(j for j, x in enumerate(r) if x) for r in s._rows)


def test_pass_built_subspaces_carry_their_pivots():
    """A Subspace built from a pass's (rows, pivots) holds those pivots from
    the start, and they are the first nonzero columns of its rows:
    from_vectors, kernel, intersect, each step of the kernel flag and its
    spans, the steps of the monodromy filtration and of its image under a
    corestriction, and full."""
    rng = random.Random(29)
    for _ in range(30):
        model = generate_model(rng.getrandbits(32), 3, 4, 1, ["L"])
        n_op = generate_scrambled(model, rng.getrandbits(32)).N.matrix
        d = n_op.rows
        flag = _kernel_flag(n_op)
        filt = monodromy_filtration(n_op, rng.randint(-1, 1), kernels=flag)
        s, spaces = random_subspace(rng, d), flag_spaces(flag, d)
        built = [Subspace.from_vectors(d, n_op.entries), qlinalg.kernel(n_op),
                 qlinalg.intersect(s, spaces[1]), Subspace.full(d), *spaces,
                 *(Subspace(d, *step) for step in flag)]
        onto = qlinalg.corestriction(n_op, qlinalg.image(n_op))
        for f in (filt, image_filtration(onto, filt)):
            built += [t for _, t in f.steps]
        for t in built:
            assert "pivots" in vars(t)
            assert t.pivots == _first_nonzeros(t)


def test_intersect_negative_pivots():
    # stacked rows whose elimination meets negative pivots in both halves
    a = Subspace.from_vectors(3, [[-2, 4, -6], [0, -3, 5]])
    b = Subspace.from_vectors(3, [[4, -5, -1], [1, 1, 1]])
    meet = qlinalg.intersect(a, b)
    assert_caches_canonical(meet)
    assert meet.basis.entries == ref_intersect(a.basis.entries, b.basis.entries, 3)


def _outcome(f):
    """f() or the name of the AmbientMismatch it raises; ShapeMismatch, the
    same error of a filtered map, reads as AmbientMismatch."""
    try:
        return f()
    except (qlinalg.AmbientMismatch, ShapeMismatch):
        return "AmbientMismatch"


def _maps_into(m, s, t) -> bool:
    """AdaptedMap(m, dom, cod).filtered() from W_0 = s c W_1 = Q^d to
    W'_0 = t c W'_1 = Q^e: a filtration drops a step equal to the one below, so s or
    t zero or full leaves one step, and m(s) < t is all that can fail."""
    dom = WeightFiltration.from_spaces(s.ambient_dim, [(0, s), (1, Subspace.full(s.ambient_dim))])
    cod = WeightFiltration.from_spaces(t.ambient_dim, [(0, t), (1, Subspace.full(t.ambient_dim))])
    return AdaptedMap(m, dom, cod).filtered()


@EXAMPLES
@given(st.tuples(st.integers(0, 5), st.integers(0, 5)).flatmap(
    lambda rc: st.tuples(matrices(rows=rc[0], cols=rc[1], max_dim=5),
                         matrices(cols=rc[1], max_dim=5), matrices(cols=rc[0], max_dim=5),
                         st.sampled_from(("drawn", "zero", "full")),
                         st.sampled_from(("drawn", "zero", "full", "holds m(s)")),
                         st.sampled_from((None, None, None, "s", "t")))))
def test_maps_into(args):
    """AdaptedMap(m, s c Q^d, t c Q^e).filtered() decides m(s) < t as
    t.contains(ref_image(m, s)) does, and raises ShapeMismatch exactly when
    that pair of calls raises AmbientMismatch."""
    (data, r, c), (u, _, _), (w, _, _), s_kind, t_kind, off = args
    m = qmatrix(data, c)
    ds, dt = c + (off == "s"), r + (off == "t")
    s = {"drawn": lambda: Subspace.from_vectors(ds, [v + [0] * (ds - c) for v in u]),
         "zero": lambda: Subspace.zero(ds), "full": lambda: Subspace.full(ds)}[s_kind]()
    drawn_t = Subspace.from_vectors(dt, [v + [0] * (dt - r) for v in w])
    if t_kind == "holds m(s)":
        t = drawn_t if off else drawn_t + ref_image(m, s)
    else:
        t = {"drawn": drawn_t, "zero": Subspace.zero(dt), "full": Subspace.full(dt)}[t_kind]
    want = _outcome(lambda: t.contains(ref_image(m, s)))
    assert _outcome(lambda: _maps_into(m, s, t)) == want
    assert (want == "AmbientMismatch") == (off is not None)


def _random_span(rng, d, count, rows=()):
    """The span of `rows` and `count` random small integer vectors in Q^d."""
    vecs = [[rng.randint(-2, 2) for _ in range(d)] for _ in range(count)]
    return Subspace.from_vectors(d, vecs + list(rows))


def _two_step(d, sub, quot):
    """The filtration W_0 = sub c W_1 = quot c W_2 = Q^d."""
    return WeightFiltration.from_spaces(d, [(0, sub), (1, quot), (2, Subspace.full(d))])


def _check_graded_map(m, sub_dom, quot_dom, sub_cod, quot_cod) -> str:
    """graded_block(m, dom, cod, 1, 1) on the two-step filtrations sub c quot,
    against containments computed with ref_image; returns the case met."""
    d, e = m.cols, m.rows
    dom, cod = _two_step(d, sub_dom, quot_dom), _two_step(e, sub_cod, quot_cod)
    held = (sub_cod.contains(ref_image(m, sub_dom)), quot_cod.contains(ref_image(m, quot_dom)))
    out = graded_block(m, dom, cod, 1, 1)
    if not all(held):
        assert out is None
        return "only m(W_1) fails" if held[0] else "m(W_0) fails"
    dom_basis = [b for b, p in zip(quot_dom.basis.entries, quot_dom.pivots)
                 if p not in sub_dom.pivots]
    cod_basis = [c for c, p in zip(quot_cod.basis.entries, quot_cod.pivots)
                 if p not in sub_cod.pivots]
    assert (out.rows, out.cols) == (len(cod_basis), len(dom_basis))
    for j, b in enumerate(dom_basis):
        w = [x - sum(out.entries[i][j] * c[t] for i, c in enumerate(cod_basis))
             for t, x in enumerate(ref_matvec(m.entries, b))]
        assert ref_in_span(sub_cod.basis.entries, w, e)
    return "maps"


def test_graded_map_raises_exactly_when_a_containment_fails():
    """On random two-step filtrations, graded_block(m, dom, cod, 1, 1) is None
    exactly when m(W_0) in W'_0 or m(W_1) in W'_1 fails;
    otherwise each column is the class of m b mod W'_0 in the basis of
    Gr_1.  The containments are computed here with ref_image and contains.
    A filtration is nested, so W_0 in W_1 needs no test."""
    rng = random.Random(5)
    outcomes = Counter()
    for _ in range(600):
        d, e = rng.randint(1, 5), rng.randint(1, 5)
        rank = rng.randint(1, min(d, e))
        m = qmatrix(ref_matmul([[rng.randint(-2, 2) for _ in range(rank)] for _ in range(e)],
                               [[rng.randint(-2, 2) for _ in range(d)] for _ in range(rank)],
                               rank, d), d)
        quot_dom = _random_span(rng, d, rng.randint(1, d))
        sub_dom = _random_span(rng, d, 0, [r for r in quot_dom._rows if rng.random() < 0.4])
        m_sub = ref_image(m, sub_dom)
        m_quot = ref_image(m, quot_dom)
        sub_cod = _random_span(rng, e, rng.randint(0, 1), m_sub._rows if rng.random() < 0.75 else ())
        # quot_cod holds sub_cod and m(quot_dom), or sub_cod and random vectors
        extra = m_quot._rows if rng.random() < 0.6 else ()
        quot_cod = _random_span(rng, e, rng.randint(0, e - 1), sub_cod._rows + extra)
        outcomes[_check_graded_map(m, sub_dom, quot_dom, sub_cod, quot_cod)] += 1
    assert min(outcomes[k] for k in ("maps", "m(W_0) fails", "only m(W_1) fails")) >= 50, \
        outcomes


def test_corestriction_inverts_inclusion():
    """corestriction(inclusion(s) a, s) gives a back: the columns of
    inclusion(s) a lie in s, and their coordinates there are a's columns."""
    rng = random.Random(8)
    for _ in range(300):
        d = rng.randint(1, 5)
        s = _random_span(rng, d, rng.randint(1, d))
        cols = rng.randint(0, 3)
        a = qmatrix([[rng.randint(-2, 2) for _ in range(cols)] for _ in range(s.dim)], cols)
        assert qlinalg.corestriction(qlinalg.inclusion(s) @ a, s) == a


# -- the prefix-span pass ------------------------------------------------------

int_entries = st.one_of(st.just(0), st.integers(-3, 3), st.integers(-10 ** 6, 10 ** 6))


@st.composite
def vector_groups(draw):
    """(d, groups): groups of integer vectors of length d, among them zero
    vectors, repeats scaled by -2, -1, 1 or 3 (so rows that are not primitive
    and negative leading entries), and empty groups."""
    d = draw(st.integers(0, 6))
    groups, seen = [[]], []
    for _ in range(draw(st.integers(0, 12))):
        kind = draw(st.sampled_from(["new", "new", "again", "zero", "cut"]))
        if kind == "cut":
            groups.append([])
            continue
        if kind == "again" and seen:
            k = draw(st.sampled_from([-2, -1, 1, 3]))
            v = [k * x for x in draw(st.sampled_from(seen))]
        elif kind == "zero":
            v = [0] * d
        else:
            v = draw(st.lists(int_entries, min_size=d, max_size=d))
        seen.append(v)
        groups[-1].append(v)
    return d, groups


def _check_prefix_spans(d, groups):
    """Each snapshot of _prefix_spans is the span of its prefix: the rows and
    pivots of Subspace.from_vectors, and the RREF of the Fraction oracle.  A
    pass from any column `start` gives the same pivots, the same rows from
    start on (those with pivots at or after start), and the same span."""
    spans = list(qlinalg._prefix_spans(groups))
    assert len(spans) == len(groups)
    prefix = []
    for group, (rows, pivots) in zip(groups, spans):
        prefix += group
        want = Subspace.from_vectors(d, prefix)
        assert rows == want._rows and pivots == want.pivots
        assert Subspace(d, rows, pivots).basis.entries == ref_span(prefix, d)
    for start in range(d + 1):
        echelon = list(qlinalg._prefix_spans(groups, start))
        assert len(echelon) == len(spans)
        for (rows, pivots), (got, got_pivots) in zip(spans, echelon):
            i = bisect_left(pivots, start)
            assert got_pivots == pivots and got[i:] == rows[i:]
            assert Subspace.from_vectors(d, got) == Subspace(d, rows, pivots)


@EXAMPLES
@given(vector_groups())
def test_prefix_spans(args):
    _check_prefix_spans(*args)


def test_prefix_spans_on_dense_scrambled_rows():
    """Dense rows of low rank with large entries, cut into random groups: the
    rows of a product A B with A of width k < d, so most vectors reduce to zero
    only after cancellation."""
    rng = random.Random(17)
    for _ in range(150):
        d = rng.randint(1, 8)
        k = rng.randint(0, d)
        a = [[rng.randint(-5, 5) for _ in range(k)] for _ in range(rng.randint(0, 2 * d))]
        b = [[rng.randint(-60, 60) for _ in range(d)] for _ in range(k)]
        rows = [[int(x) for x in r] for r in ref_matmul(a, b, k, d)]
        cuts = sorted(rng.randint(0, len(rows)) for _ in range(rng.randint(0, 3)))
        _check_prefix_spans(d, [rows[i:j] for i, j in zip([0] + cuts, cuts + [len(rows)])])


@EXAMPLES
@given(st.integers(0, 6).flatmap(lambda n: matrices(rows=n, cols=n)))
def test_inverse(mc):
    data, n, _ = mc
    expected = ref_inverse(data, n)
    if expected is None:
        with pytest.raises(SingularMatrix):
            qlinalg.inverse(qmatrix(data, n))
    else:
        inv = qlinalg.inverse(qmatrix(data, n))
        assert inv.entries == expected and is_canonical(inv)


@EXAMPLES
@given(st.tuples(st.integers(0, 6), st.integers(0, 6), st.integers(0, 6)).flatmap(
    lambda s: st.tuples(matrices(rows=s[0], cols=s[1]), matrices(rows=s[1], cols=s[2]))))
def test_matmul(args):
    (a, r, k), (b, _, c) = args
    prod = qmatrix(a, k) @ qmatrix(b, c)
    assert (prod.rows, prod.cols) == (r, c)
    assert prod.entries == ref_matmul(a, b, k, c) and is_canonical(prod)


def test_negative_pivots_and_zero_rows():
    data = [[0, 0, 0], [-2, 4, -6], [0, 0, 0], [3, -6, 10]]
    m = qmatrix([[Fraction(x) for x in r] for r in data], 3)
    assert rref_basis(m).entries == ((1, -2, 0), (0, 0, 1))
    assert qlinalg.kernel(m).basis.entries == ((1, Fraction(1, 2), 0),)


def test_empty_shapes():
    m = QMatrix.from_rows([], cols=4)
    assert len(qlinalg._echelon(m._ints[0])[1]) == 0
    assert qlinalg.kernel(m).is_full()
    assert qlinalg.image(m).ambient_dim == 0
    assert (m @ QMatrix.zero(4, 2)).rows == 0
    assert (QMatrix.zero(3, 0) @ QMatrix.from_rows([], cols=5)).entries == \
        ((Fraction(0),) * 5,) * 3
    assert qlinalg.inverse(QMatrix.identity(0)).rows == 0


# -- sparse operands ------------------------------------------------------------------
# Products combine the lines of one side weighted by the nonzeros of the
# other; a vector more than half nonzero takes dense dot products.  These
# operands reach both sides of that threshold, and the shapes with no rows
# or no columns.

scalars = st.sampled_from([Fraction(1), Fraction(-1), Fraction(2), Fraction(-2),
                           Fraction(3, 5), Fraction(-7, 4)])


@st.composite
def sparse_vectors(draw, n):
    """A zero vector, a scaled unit vector, or one with exactly half (n even)
    or just over half of its entries nonzero."""
    count = draw(st.sampled_from([0, 1, n // 2, n // 2 + 1])) if n else 0
    v = [Fraction(0)] * n
    for k in draw(st.permutations(range(n)))[:count]:
        v[k] = draw(scalars)
    return v


@st.composite
def string_operators(draw, d):
    """The 0/1 operator of Jordan strings of total length d: e_{i+1} -> e_i
    inside each string."""
    cuts = draw(st.sets(st.integers(1, d - 1))) if d > 1 else set()
    return [[Fraction(int(j == i + 1 and j not in cuts)) for j in range(d)]
            for i in range(d)]


@st.composite
def monomials(draw, n):
    """A permutation matrix with its nonzeros replaced by drawn scalars."""
    perm = draw(st.permutations(range(n)))
    vals = draw(st.lists(scalars, min_size=n, max_size=n))
    return [[vals[i] if j == perm[i] else Fraction(0) for j in range(n)] for i in range(n)]


def sparse_matrices(r, c):
    rows = st.lists(sparse_vectors(c), min_size=r, max_size=r)
    return st.one_of(rows, string_operators(r), monomials(r)) if r == c else rows


SPARSE_DIMS = st.integers(0, 7)


@EXAMPLES
@given(st.tuples(SPARSE_DIMS, SPARSE_DIMS, SPARSE_DIMS).flatmap(
    lambda s: st.tuples(sparse_matrices(s[0], s[1]), sparse_matrices(s[1], s[2]),
                        st.just(s))))
def test_sparse_matmul(args):
    a, b, (r, k, c) = args
    prod = qmatrix(a, k) @ qmatrix(b, c)
    assert (prod.rows, prod.cols) == (r, c)
    assert prod.entries == ref_matmul(a, b, k, c) and is_canonical(prod)


@EXAMPLES
@given(st.tuples(SPARSE_DIMS, SPARSE_DIMS).flatmap(
    lambda rc: st.tuples(sparse_matrices(*rc), st.lists(sparse_vectors(rc[1]), max_size=3),
                         st.lists(sparse_vectors(rc[0]), max_size=3), st.booleans(),
                         st.just(rc))))
def test_sparse_maps_into(args):
    """AdaptedMap.filtered on the two-step filtrations s c Q^d and t c Q^e (see
    _maps_into) against the containment of ref_image(m, s); a single
    spanning vector keeps its support in the RREF row of s."""
    data, u, w, add_image, (r, c) = args
    m = qmatrix(data, c)
    s = Subspace.from_vectors(c, u)
    image = ref_image(m, s)
    t = Subspace.from_vectors(r, w) + (image if add_image else Subspace.zero(r))
    assert _maps_into(m, s, t) == t.contains(image)
    assert _maps_into(m, s, image)


@EXAMPLES
@given(st.tuples(SPARSE_DIMS, SPARSE_DIMS).flatmap(
    lambda de: st.tuples(sparse_matrices(de[1], de[0]),
                         st.lists(st.tuples(sparse_vectors(de[0]), st.booleans()), max_size=4),
                         st.lists(sparse_vectors(de[1]), max_size=2),
                         st.lists(sparse_vectors(de[1]), max_size=2),
                         st.booleans(), st.booleans(), st.just(de))))
def test_sparse_graded_map(args):
    """The graded map on two-step filtrations spanned by sparse vectors; the
    codomain steps hold the images of the domain steps when drawn so."""
    data, q, w0, w1, img0, img1, (d, e) = args
    m = qmatrix(data, d)
    quot_dom = Subspace.from_vectors(d, [v for v, _ in q])
    sub_dom = Subspace.from_vectors(d, [v for v, keep in q if keep])
    zero = Subspace.zero(e)
    sub_cod = Subspace.from_vectors(e, w0) + (ref_image(m, sub_dom) if img0 else zero)
    quot_cod = (sub_cod + Subspace.from_vectors(e, w1)
                + (ref_image(m, quot_dom) if img1 else zero))
    _check_graded_map(m, sub_dom, quot_dom, sub_cod, quot_cod)


@EXAMPLES
@given(SPARSE_DIMS.flatmap(lambda d: st.tuples(
    string_operators(d), monomials(d), st.integers(-2, 2), st.just(d))))
def test_sparse_monodromy_filtration(args):
    """The monodromy filtration of P S P^-1, S a 0/1 string operator and P
    a monomial matrix, against the closed kernel/image formula."""
    s_op, p, center, d = args
    n = ref_matmul(ref_matmul(p, s_op, d, d), ref_inverse(p, d), d, d)
    f = monodromy_filtration(qmatrix(n, d), center)
    for k, rows in ref_monodromy_steps(n, d, center):
        assert f.space_at(k).basis.entries == rows, k


# -- sympy oracle -------------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(matrices(max_dim=5))
def test_rref_matches_sympy(mc):
    sympy = pytest.importorskip("sympy")
    data, r, c = mc
    if not r or not c:
        return
    red, pivots = sympy.Matrix(data).rref()
    expected = tuple(tuple(Fraction(int(x.p), int(x.q)) for x in red.row(i))
                     for i in range(r))
    assert rref_basis(qmatrix(data, c)).entries == expected[:len(pivots)]
    assert len(qlinalg._echelon(qmatrix(data, c)._ints[0])[1]) == len(pivots)
