"""Reference linear algebra over Fraction for the differential and oracle tests.

A textbook Gauss-Jordan elimination on Fraction rows and what follows from
it: spans, null spaces, products and intersections.  It shares no code with
monofilt.qlinalg, and intersections are computed by a different method from
the library's (a null space of stacked spanning sets).  The monodromy
filtration is computed by the closed kernel/image formula, not from Jordan
chains as the library builds it; the kernel flag of N is taken from the
powers of N, where the library takes one pass and no power; and the
filtration of a string model is written down from the string weights.  The
filtrations induced on a subspace and on a quotient are taken step by step,
by ref_intersect and by solving for coordinates, where the library takes one
elimination pass.  A graded map is built from its subquotients, by solving
for the coordinates of each image, where the library reads it as a block of
one matrix in adapted bases; the monodromy axioms are decided by
containments and the ranks of images.
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


def ref_kernel_flag(m, d):
    """[RREF rows of ker m^k for k = 0 .. max(e, 1)], m^e the first zero power,
    from the powers of m and their null spaces; None when m^d is not zero."""
    flag, power = [()], m
    for k in range(1, max(d, 1) + 1):
        if k > 1:
            power = ref_matmul(power, m, d, d)
        flag.append(ref_span(ref_null(power, d), d))
        if len(flag[-1]) == d:
            return flag
    return None


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


def ref_string_grading(strings, n):
    """{weight: {(label, twist): multiplicity}} of the string model with these
    (label, length) strings: e_i of a string of length m+1 lies at weight
    n-1-m+2i and carries label(-i)."""
    out = {}
    for label, length in strings:
        for i in range(length):
            piece = out.setdefault(n - 1 - (length - 1) + 2 * i, {})
            piece[(label, -i)] = piece.get((label, -i), 0) + 1
    return out


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


def ref_image_filtration(m, steps, dim):
    """[(k, RREF rows)] of the filtration m(W_k), a step equal to the one
    below dropped; m is the list of rows of a matrix with `dim` rows, and a
    filtration is a list of (weight, spanning vectors of W_weight), nested."""
    return _ref_drop_repeats([(k, ref_apply(m, vs, dim)) for k, vs in steps])


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


def _ref_step(steps, k, dim):
    """RREF rows of W_k for a filtration given as [(weight, spanning vectors)]."""
    return ref_span([v for w, vs in steps if w <= k for v in vs], dim)


def _ref_sends(m, lo, hi, dim):
    """True iff m maps the span of the rows lo into the span of the rows hi."""
    return all(ref_in_span(hi, ref_matvec(m, v), dim) for v in lo)


def ref_filtered(m, dom_dim, cod_dim, dom_steps, cod_steps, shift):
    """True iff m(W_k) lies in W'_{k+shift} for every weight k of dom."""
    return all(_ref_sends(m, _ref_step(dom_steps, k, dom_dim),
                          _ref_step(cod_steps, k + shift, cod_dim), cod_dim)
               for k, _ in dom_steps)


def ref_graded_map(m, dom_dim, cod_dim, dom_steps, k, cod_steps, j):
    """The matrix of Gr_k -> Gr_j induced by m, or None unless m W_{k-1} lies
    in W'_{j-1} and m W_k in W'_j.  The basis of a graded piece W_k/W_{k-1}
    is the classes of the RREF rows of W_k whose pivots are not pivots of
    W_{k-1}; column i holds the coordinates of the image of the i-th
    domain basis vector, solved for in the basis of W'_j made of the
    codomain basis vectors and the RREF rows of W'_{j-1}."""
    dom_lo, dom_hi = _ref_step(dom_steps, k - 1, dom_dim), _ref_step(dom_steps, k, dom_dim)
    cod_lo, cod_hi = _ref_step(cod_steps, j - 1, cod_dim), _ref_step(cod_steps, j, cod_dim)
    if not (_ref_sends(m, dom_lo, cod_lo, cod_dim) and _ref_sends(m, dom_hi, cod_hi, cod_dim)):
        return None

    def new_rows(lo, hi):
        below = {next(i for i, x in enumerate(r) if x) for r in lo}
        return [r for r in hi if next(i for i, x in enumerate(r) if x) not in below]

    dom_basis, cod_basis = new_rows(dom_lo, dom_hi), new_rows(cod_lo, cod_hi)
    cols = [ref_coords(cod_basis + list(cod_lo), ref_matvec(m, b))[:len(cod_basis)]
            for b in dom_basis]
    return tuple(tuple(c[i] for c in cols) for i in range(len(cod_basis)))


def ref_adapted_matrix(m, dom_dim, cod_dim, dom_steps, cod_steps):
    """The matrix of m in the adapted bases: a filtration's basis lists, by
    ascending weight, the RREF rows of each W_k whose pivots are not pivots
    of the step below; column i holds the coordinates, in the codomain's
    basis, of the image of the domain's i-th basis vector."""
    def basis(steps, dim):
        out, below = [], ()
        for k, _ in steps:
            rows = _ref_step(steps, k, dim)
            lead = {next(i for i, x in enumerate(r) if x) for r in below}
            out += [r for r in rows if next(i for i, x in enumerate(r) if x) not in lead]
            below = rows
        return out

    cod_basis = basis(cod_steps, cod_dim)
    cols = [ref_coords(cod_basis, ref_matvec(m, b)) for b in basis(dom_steps, dom_dim)]
    return tuple(tuple(c[i] for c in cols) for i in range(cod_dim))


def ref_monodromy_axioms(m, d, steps, center):
    """[(name, passed, detail)]: the checks of the monodromy axioms of the
    filtration steps = [(weight, spanning vectors)] for the d x d matrix m,
    centered at center.  First each step weight w with N W_w not in W_{w-2},
    then the N-shift summary, which ends the list when it fails.  Then for
    k = 0 .. max |w - center| whether N^k: Gr_{c+k} -> Gr_{c-k} is an
    isomorphism.  Its rank is dim(N^k W_{c+k} + W_{c-k-1}) - dim W_{c-k-1}."""
    out = []
    for w, _ in steps:
        if not _ref_sends(m, _ref_step(steps, w, d), _ref_step(steps, w - 2, d), d):
            out.append((f"N W_{w} in W_{w - 2}", False, ""))
    out.append(("N-shift: N M_k in M_{k-2}", not out, ""))
    if len(out) > 1:
        return out
    power = [[Fraction(int(i == j)) for j in range(d)] for i in range(d)]
    for k in range(max((abs(w - center) for w, _ in steps), default=0) + 1):
        name = f"N^{k}: Gr_{center + k} ~ Gr_{center - k}"
        if k:
            power = ref_matmul(power, m, d, d)
        hi, lo = center + k, center - k
        src_lo, src_hi = _ref_step(steps, hi - 1, d), _ref_step(steps, hi, d)
        dst_lo, dst_hi = _ref_step(steps, lo - 1, d), _ref_step(steps, lo, d)
        # a power of an N that lowers every step by 2 lowers it by 2k
        assert _ref_sends(power, src_lo, dst_lo, d) and _ref_sends(power, src_hi, dst_hi, d)
        cols, rows = len(src_hi) - len(src_lo), len(dst_hi) - len(dst_lo)
        r = len(ref_span([ref_matvec(power, v) for v in src_hi] + list(dst_lo), d)) - len(dst_lo)
        out.append((name, rows == cols and r == rows, f"dims {cols} -> {rows}, rank {r}"))
    return out
