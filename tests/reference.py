"""Reference linear algebra over Fraction for the differential and oracle tests.

A textbook Gauss-Jordan elimination on Fraction rows and what follows from
it: spans, null spaces, products and intersections.  It shares no code with
monofilt.qlinalg, and intersections are computed by a different method from
the library's (a null space of stacked spanning sets).  The monodromy
filtration is computed by the closed kernel/image formula, not from Jordan
chains as the library builds it, and the filtration of a string model is
written down from the string weights.  The filtrations induced on a subspace
and on a quotient are taken step by step, by ref_intersect and by solving for
coordinates, where the library takes one elimination pass.
"""
from fractions import Fraction


def ref_rref(rows, ncols):
    """(nonzero RREF rows, pivot columns) by plain Gauss-Jordan over Fraction."""
    m = [[Fraction(x) for x in r] for r in rows]
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        src = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if src is None:
            continue
        m[r], m[src] = m[src], m[r]
        m[r] = [x / m[r][c] for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
    return [tuple(r) for r in m[:len(pivots)]], pivots


def ref_span(vectors, dim):
    return tuple(ref_rref(vectors, dim)[0])


def ref_null(rows, ncols):
    """A basis of {v : rows v = 0}."""
    red, pivots = ref_rref(rows, ncols)
    out = []
    for j in (j for j in range(ncols) if j not in pivots):
        v = [Fraction(0)] * ncols
        v[j] = Fraction(1)
        for r, p in zip(red, pivots):
            v[p] = -r[j]
        out.append(v)
    return out


def ref_matmul(a, b, inner, ncols):
    return tuple(tuple(sum((r[k] * b[k][j] for k in range(inner)), Fraction(0))
                       for j in range(ncols)) for r in a)


def ref_intersect(u, w, dim):
    """Span of the sums a.u with a.u = b.w, from the null space of [U^T | -W^T]."""
    cols = list(u) + [[-x for x in v] for v in w]
    system = [[c[i] for c in cols] for i in range(dim)]
    coeffs = ref_null(system, len(cols))
    vecs = [[sum((a * v[i] for a, v in zip(c, u)), Fraction(0)) for i in range(dim)]
            for c in coeffs]
    return ref_span(vecs, dim)


def ref_monodromy_steps(m, d, center):
    """[(k, RREF rows of M_k)] for k = center-d-1 .. center+d, by the closed
    formula M_{c+l} = sum over a-b=l, 0<=a,b<=d of ker N^{a+1} n im N^b."""
    powers = [tuple(tuple(Fraction(int(i == j)) for j in range(d)) for i in range(d))]
    for _ in range(d + 1):
        powers.append(ref_matmul(powers[-1], m, d, d))
    kernels = [ref_span(ref_null(p, d), d) for p in powers]
    images = [ref_span([[r[j] for r in p] for j in range(d)], d) for p in powers]
    steps = []
    for ell in range(-d - 1, d + 1):
        rows = []
        for a in range(max(0, ell), d + 1):
            if a - ell <= d:
                rows += ref_intersect(kernels[a + 1], images[a - ell], d)
        steps.append((center + ell, ref_span(rows, d)))
    return steps


def ref_matvec(rows, v):
    """The product of the matrix with the given rows and the vector v."""
    return tuple(sum((Fraction(x) * Fraction(y) for x, y in zip(r, v)), Fraction(0))
                 for r in rows)


def ref_apply(m, vectors, dim):
    """RREF rows of the span of the m v, v in `vectors`; m is the list of rows
    of a matrix with `dim` rows."""
    return ref_span([ref_matvec(m, v) for v in vectors], dim)


def ref_string_steps(strings, n):
    """[(k, RREF rows of W_k)] for k = n-2-d .. n-1+d, d the total length, of
    the string model with these (label, length) strings: e_i of a string of
    length m+1 lies at weight n-1-m+2i."""
    weights = [n - 1 - (length - 1) + 2 * i for _, length in strings for i in range(length)]
    d = len(weights)
    unit = [[Fraction(int(i == j)) for j in range(d)] for i in range(d)]
    return [(k, ref_span([e for e, w in zip(unit, weights) if w <= k], d))
            for k in range(n - 2 - d, n + d)]


def ref_in_span(vectors, v, dim):
    """True iff v lies in the span of `vectors`: adding it leaves the rank alone."""
    return len(ref_rref(list(vectors) + [v], dim)[1]) == len(ref_rref(vectors, dim)[1])


def ref_is_strict(m, dom_dim, cod_dim, dom_steps, cod_steps, shift):
    """Strictness by its definition: m(W_k) = im m n W'_{k+shift} for every k.

    m is the list of rows of a cod_dim x dom_dim matrix.  A filtration is a
    list of (weight, spanning vectors of W_weight) with nested steps, and
    W_k is the span of the steps of weight <= k.
    """
    def at(steps, k, dim):
        return ref_span([v for w, vs in steps if w <= k for v in vs], dim)

    img = ref_span([[r[j] for r in m] for j in range(dom_dim)], cod_dim)
    for k in {w for w, _ in dom_steps} | {w - shift for w, _ in cod_steps}:
        lhs = ref_span([ref_matvec(m, v) for v in at(dom_steps, k, dom_dim)], cod_dim)
        if lhs != ref_intersect(img, at(cod_steps, k + shift, cod_dim), cod_dim):
            return False
    return True


def ref_coords(basis, v):
    """The coefficients c with v = sum of c_i basis[i], for independent rows
    basis and v in their span, by elimination on the system they make."""
    m = len(basis)
    red, pivots = ref_rref([[b[i] for b in basis] + [v[i]] for i in range(len(v))], m + 1)
    assert pivots == list(range(m)), "vector outside the span"
    return [r[m] for r in red]


def _ref_drop_repeats(steps):
    out = []
    for k, rows in steps:
        if rows != (out[-1][1] if out else ()):
            out.append((k, rows))
    return out


def ref_induced_on_sub(steps, s, dim):
    """[(k, RREF rows)] of the filtration W_k n s, in the coordinates of the
    RREF basis of the span of s, a step equal to the one below dropped.  A
    filtration is a list of (weight, spanning vectors of W_weight), nested."""
    basis = ref_span(s, dim)
    return _ref_drop_repeats([
        (k, ref_span([ref_coords(basis, v) for v in ref_intersect(ref_span(vs, dim), basis, dim)],
                     len(basis)))
        for k, vs in steps])


def ref_induced_on_quotient(steps, s, dim):
    """[(k, RREF rows)] of the filtration (W_k + s)/s in the coordinates of
    Q^dim/s whose basis is the classes of the unit vectors e_j, j not a pivot
    of the span of s: the coordinates of v are the first coefficients of v in
    the basis of Q^dim made of those e_j and the RREF rows of s."""
    red, pivots = ref_rref(s, dim)
    unit = [[Fraction(int(i == j)) for i in range(dim)] for j in range(dim) if j not in pivots]
    return _ref_drop_repeats([
        (k, ref_span([ref_coords(unit + red, v)[:len(unit)] for v in vs], len(unit)))
        for k, vs in steps])
