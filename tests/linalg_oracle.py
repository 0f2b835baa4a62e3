"""The rational and integer eliminations that deltaforms used before they
were merged into one integer Gauss-Jordan (_int_rref) and one Bareiss loop.

Kept verbatim as the reference oracle for the tests, and not collected by
pytest: Gauss-Jordan over Q (rref, and rank, solve_linear, kernel_rational
and invert on it), Gaussian elimination over Q (det), and the two Bareiss
loops, rank-revealing (integer_rank, formerly in cones) and square-only
(_int_det); clear_denominators, which scaled rows by Fraction
multiplication; and the full Smith normal form with both transforms and the
divisibility sweep, which the library's diagonal form replaced.  None of
them calls back into deltaforms.linalg, so a fault in the library's
elimination cannot hide in both sides of a comparison.

The integer kernels from before their loops ran inside builtins: int_dot
(formerly in cones) and vec_dot summed a generator, vec_dot from a Fraction
zero; _ivec_primitive took the gcd one entry at a time; _int_rref searched
each column to the end with next() over a generator; and hnf eliminated
even rows already in Hermite normal form.
"""

from math import gcd

from deltaforms.scalars import QONE, QZERO, qof


def int_dot(u, v):
    return sum(x * y for x, y in zip(u, v))


def vec_dot(a, b):
    return sum((x * y for x, y in zip(a, b)), QZERO)


def rref(rows):
    """Reduced row echelon form. Returns (rref_rows, pivot_columns)."""
    m = [ [qof(x) for x in r] for r in rows ]
    if not m:
        return [], []
    ncols = len(m[0])
    pivots = []
    r = 0
    for c in range(ncols):
        piv = None
        for i in range(r, len(m)):
            if m[i][c] != 0:
                piv = i
                break
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = 1 / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m[:r], pivots


def rank(rows) -> int:
    return len(rref(rows)[0])


def solve_linear(a_rows, b):
    """One solution x of A x = b, or None if inconsistent."""
    if not a_rows:
        return [] if all(x == 0 for x in b) else None
    aug = [list(r) + [bv] for r, bv in zip(a_rows, b)]
    red, pivots = rref(aug)
    n = len(a_rows[0])
    x = [QZERO] * n
    for row, p in zip(red, pivots):
        if p == n:
            return None
        x[p] = row[n]
    return x


def kernel_rational(rows, ncols=None):
    """Basis of the rational kernel {x : A x = 0} as a list of vectors."""
    if ncols is None:
        if not rows:
            raise ValueError("need ncols for an empty matrix")
        ncols = len(rows[0])
    red, pivots = rref(rows) if rows else ([], [])
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for f in free:
        v = [QZERO] * ncols
        v[f] = QONE
        for row, p in zip(red, pivots):
            v[p] = -row[f]
        basis.append(v)
    return basis


def det(rows):
    """Determinant by Gaussian elimination over Q."""
    m = [[qof(x) for x in r] for r in rows]
    n = len(m)
    if any(len(r) != n for r in m):
        raise ValueError("determinant of a nonsquare matrix")
    d = QONE
    for c in range(n):
        piv = None
        for i in range(c, n):
            if m[i][c] != 0:
                piv = i
                break
        if piv is None:
            return QZERO
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
            d = -d
        d *= m[c][c]
        inv = 1 / m[c][c]
        for i in range(c + 1, n):
            if m[i][c] != 0:
                f = m[i][c] * inv
                m[i] = [a - f * b for a, b in zip(m[i], m[c])]
    return d


def invert(rows):
    """Inverse of a square rational matrix."""
    n = len(rows)
    aug = [list(map(qof, r)) + [QONE if i == j else QZERO for j in range(n)]
           for i, r in enumerate(rows)]
    red, pivots = rref(aug)
    if pivots != list(range(n)):
        raise ValueError("singular matrix")
    return [row[n:] for row in red]


def integer_rank(vectors):
    """Rank of integer vectors by fraction-free (Bareiss) elimination."""
    m = [list(v) for v in vectors]
    r = 0
    prev = 1
    for c in range(len(m[0]) if m else 0):
        piv = next((i for i in range(r, len(m)) if m[i][c]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        top = m[r]
        p = top[c]
        for i in range(r + 1, len(m)):
            row = m[i]
            f = row[c]
            m[i] = [(p * x - f * y) // prev for x, y in zip(row, top)]
        prev = p
        r += 1
    return r


def _int_det(rows):
    """Determinant of a square integer matrix by Bareiss elimination."""
    m = [list(r) for r in rows]
    sign, prev = 1, 1
    for c in range(len(m)):
        piv = next((i for i in range(c, len(m)) if m[i][c]), None)
        if piv is None:
            return 0
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
            sign = -sign
        top = m[c]
        for i in range(c + 1, len(m)):
            f = m[i][c]
            m[i] = [(top[c] * x - f * y) // prev for x, y in zip(m[i], top)]
        prev = top[c]
    return sign * prev


def _ivec_primitive(v):
    g = 0
    for x in v:
        g = gcd(g, abs(x))
    if g in (0, 1):
        return list(v)
    return [x // g for x in v]


def clear_denominators(v):
    """Scale a rational vector to a primitive integer vector (same ray)."""
    if all(type(x) is int for x in v):
        return _ivec_primitive(v)
    den = 1
    for x in v:
        x = qof(x)
        den = den * x.denominator // gcd(den, x.denominator)
    iv = [int(qof(x) * den) for x in v]
    return _ivec_primitive(iv)


def smith_normal_form(a):
    """Smith normal form with transforms: returns (s, rowT, colTinv).

    s = rowT * a * colT for unimodular transforms; colTinv is the inverse of
    colT, tracked directly so lattice bases can be read off its rows.
    Diagonal entries are nonnegative and each divides the next.
    """
    m = [list(r) for r in a]
    k = len(m)
    n = len(m[0]) if m else 0
    rt = [[1 if i == j else 0 for j in range(k)] for i in range(k)]
    cti = [[1 if i == j else 0 for j in range(n)] for i in range(n)]

    def row_op(i, j, q):  # row_i -= q*row_j
        m[i] = [a - q * b for a, b in zip(m[i], m[j])]
        rt[i] = [a - q * b for a, b in zip(rt[i], rt[j])]

    def col_op(i, j, q):  # col_i -= q*col_j  => inverse: row_j += q*row_i
        for r in m:
            r[i] -= q * r[j]
        cti[j] = [a + q * b for a, b in zip(cti[j], cti[i])]

    def row_swap(i, j):
        m[i], m[j] = m[j], m[i]
        rt[i], rt[j] = rt[j], rt[i]

    def col_swap(i, j):
        for r in m:
            r[i], r[j] = r[j], r[i]
        cti[i], cti[j] = cti[j], cti[i]

    t = 0
    while t < min(k, n):
        # find smallest nonzero entry in the remaining block
        best = None
        for i in range(t, k):
            for j in range(t, n):
                if m[i][j] != 0 and (best is None or abs(m[i][j]) < abs(m[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            break
        row_swap(t, best[0])
        col_swap(t, best[1])
        dirty = False
        for i in range(t + 1, k):
            if m[i][t] != 0:
                q = m[i][t] // m[t][t]
                row_op(i, t, q)
                if m[i][t] != 0:
                    dirty = True
        for j in range(t + 1, n):
            if m[t][j] != 0:
                q = m[t][j] // m[t][t]
                col_op(j, t, q)
                if m[t][j] != 0:
                    dirty = True
        if dirty:
            continue
        # divisibility sweep
        bad = None
        for i in range(t + 1, k):
            for j in range(t + 1, n):
                if m[i][j] % m[t][t] != 0:
                    bad = i
                    break
            if bad is not None:
                break
        if bad is not None:
            row_op(t, bad, -1)
            continue
        if m[t][t] < 0:
            m[t] = [-x for x in m[t]]
            rt[t] = [-x for x in rt[t]]
        t += 1
    return m, rt, cti


def _int_rref(rows):
    """Reduced row echelon form of integer rows, in integers.

    Gauss-Jordan taking the first row with a nonzero entry as the pivot row,
    each row kept primitive with a positive pivot.  Returns (rows,
    pivot_columns).
    """
    m = [list(r) for r in rows]
    pivots = []
    for c in range(len(m[0]) if m else 0):
        r = len(pivots)
        piv = next((i for i in range(r, len(m)) if m[i][c]), None)
        if piv is None:
            continue
        top = _ivec_primitive(m[piv])
        if top[c] < 0:
            top = [-x for x in top]
        m[piv], m[r] = m[r], top
        for i, row in enumerate(m):
            if i != r and row[c]:
                m[i] = _ivec_primitive([top[c] * x - row[c] * y
                                        for x, y in zip(row, top)])
        pivots.append(c)
    return m[:len(pivots)], pivots


def hnf(rows):
    """Canonical row Hermite normal form of the lattice spanned by rows.

    Rows are integer vectors.  Output rows have strictly increasing pivot
    columns, positive pivots, and entries above each pivot reduced into
    [0, pivot).  The result is the unique canonical basis of the lattice.
    """
    m = [list(r) for r in rows if any(r)]
    if not m:
        return []
    ncols = len(m[0])
    out = []
    col = 0
    while m and col < ncols:
        rows_nz = [r for r in m if r[col] != 0]
        if not rows_nz:
            col += 1
            continue
        # reduce the column to a single nonzero entry by gcd steps
        while True:
            rows_nz = sorted((r for r in m if r[col] != 0), key=lambda r: abs(r[col]))
            if len(rows_nz) <= 1:
                break
            small = rows_nz[0]
            for r in rows_nz[1:]:
                q = r[col] // small[col]
                for j in range(ncols):
                    r[j] -= q * small[j]
        m = [r for r in m if any(r)]
        rows_nz = [r for r in m if r[col] != 0]
        if rows_nz:
            piv = rows_nz[0]
            m.remove(piv)
            if piv[col] < 0:
                piv = [-x for x in piv]
            out.append(piv)
        col += 1
    # reduce entries above pivots, left to right so earlier columns stay put
    for i in range(len(out)):
        p = next(j for j in range(ncols) if out[i][j] != 0)
        for k in range(i):
            q = out[k][p] // out[i][p]
            if q:
                out[k] = [a - q * b for a, b in zip(out[k], out[i])]
    return [list(r) for r in out]
