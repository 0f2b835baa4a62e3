"""Exact linear algebra over Q and lattice computations over Z.

There is one elimination of each kind, in integers: Gauss-Jordan
(_int_rref) and fraction-free Bareiss (_bareiss).  The rational rref, rank
and det clear denominators and run them, and solve_linear and
kernel_rational go through rref.

Lattices are full sublattices of their rational span intersected with Z^n;
bases are kept in a canonical row echelon form (Hermite normal form) so that
equal lattices have identical bases.  smith_normal_form brings generators to
a diagonal form s = rowT * a * colT and returns s with the inverse of colT;
it is not the full Smith form, since no caller needs the divisibility chain
or rowT.  saturate reads the product of the nonzero diagonal entries (the
index) and the first rows of colTinv (the saturation); complement_lattice,
on a saturated lattice, reads the remaining rows as a complement.
"""

from __future__ import annotations

from math import gcd, lcm, prod

from .scalars import Q, QZERO, QONE, qof


# ---------------------------------------------------------------- rational --

def mat_mul_vec(m, v):
    return [sum((r[j] * v[j] for j in range(len(v))), QZERO) for r in m]


def vec_dot(a, b):
    return sum((x * y for x, y in zip(a, b)), QZERO)


def vec_sub(a, b):
    return [x - y for x, y in zip(a, b)]


def rref(rows):
    """Reduced row echelon form. Returns (rref_rows, pivot_columns).

    Clearing each row of denominators is a positive scaling, which keeps the
    row space, so the integer RREF divided by its pivots is the (unique)
    rational one.
    """
    red, pivots = _int_rref([clear_denominators(r) for r in rows])
    return [[Q(x, row[p]) for x in row] for row, p in zip(red, pivots)], pivots


def rank(rows) -> int:
    return _bareiss([clear_denominators(r) for r in rows])[0]


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


def kernel_rational(rows, ncols):
    """Basis of the rational kernel {x : A x = 0} as a list of vectors."""
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
    """Determinant over Q, by Bareiss on the matrix scaled to integers.

    Scaling by den, the lcm of the denominators, multiplies the determinant
    by den**n.
    """
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError("determinant of a nonsquare matrix")
    m = [[qof(x) for x in r] for r in rows]
    den = lcm(*(x.denominator for r in m for x in r))
    return Q(_bareiss([[x.numerator * (den // x.denominator) for x in r]
                       for r in m])[1], den ** n)


# ----------------------------------------------------------------- integer --

def _ivec_primitive(v):
    g = 0
    for x in v:
        g = gcd(g, abs(x))
    if g in (0, 1):
        return list(v)
    return [x // g for x in v]


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


def _bareiss(rows):
    """(rank, det) of integer rows by fraction-free elimination (Bareiss 1968).

    The rank-revealing form: a column with no pivot left is skipped, and
    every entry stays an integer minor, so each division is exact.  det is
    the determinant of a square matrix of full rank, and 0 otherwise.
    """
    m = [list(r) for r in rows]
    r, sign, prev = 0, 1, 1
    for c in range(len(m[0]) if m else 0):
        piv = next((i for i in range(r, len(m)) if m[i][c]), None)
        if piv is None:
            continue
        if piv != r:
            m[r], m[piv] = m[piv], m[r]
            sign = -sign
        top = m[r]
        p = top[c]
        for i in range(r + 1, len(m)):
            row = m[i]
            f = row[c]
            m[i] = [(p * x - f * y) // prev for x, y in zip(row, top)]
        prev = p
        r += 1
    full = r == len(m) and all(len(row) == r for row in m)
    return r, (sign * prev if full else 0)


def _unimodular_inverse(rows):
    """Inverse of a square integer matrix of determinant +-1, in integers.

    The integer RREF of [M | I] is [I | M^-1] exactly when M^-1 is integral;
    a pivot other than 1, or outside the first n columns, means M is not
    unimodular.
    """
    n = len(rows)
    red, pivots = _int_rref([list(r) + [int(i == j) for j in range(n)]
                             for i, r in enumerate(rows)])
    if pivots != list(range(n)) or any(row[i] != 1 for i, row in enumerate(red)):
        raise ValueError("matrix is not unimodular")
    return [row[n:] for row in red]


def clear_denominators(v):
    """Scale a rational vector to a primitive integer vector (same ray)."""
    if all(type(x) is int for x in v):
        return _ivec_primitive(v)
    v = [qof(x) for x in v]
    den = lcm(*(x.denominator for x in v))
    return _ivec_primitive([x.numerator * (den // x.denominator) for x in v])


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


def smith_normal_form(a):
    """Diagonal form of an integer matrix: returns (s, colTinv).

    s = rowT * a * colT for unimodular rowT and colT; s is diagonal, with
    nonnegative entries and the nonzero ones first, and colTinv, the inverse
    of colT, is tracked directly.  rowT is not tracked and there is no
    divisibility sweep, so the entries need not divide each other.
    """
    m = [list(r) for r in a]
    k = len(m)
    n = len(m[0]) if m else 0
    cti = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    t = 0
    while t < min(k, n):
        # bring the smallest nonzero entry of the remaining block to (t, t)
        best = None
        for i in range(t, k):
            for j in range(t, n):
                if m[i][j] != 0 and (best is None or abs(m[i][j]) < abs(m[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            break
        m[t], m[best[0]] = m[best[0]], m[t]
        j = best[1]
        for r in m:
            r[t], r[j] = r[j], r[t]
        cti[t], cti[j] = cti[j], cti[t]
        top = m[t]
        dirty = False
        for i in range(t + 1, k):
            if m[i][t] != 0:
                q = m[i][t] // top[t]
                m[i] = [x - q * y for x, y in zip(m[i], top)]
                dirty = dirty or m[i][t] != 0
        for j in range(t + 1, n):
            if top[j] != 0:
                # column j -= q * column t, so row t of colTinv += q * row j
                q = top[j] // top[t]
                for r in m:
                    r[j] -= q * r[t]
                cti[t] = [x + q * y for x, y in zip(cti[t], cti[j])]
                dirty = dirty or top[j] != 0
        if dirty:
            continue
        if top[t] < 0:
            m[t] = [-x for x in top]
        t += 1
    return m, cti


class Lattice:
    """Saturated sublattice of Z^n, i.e. (rational span) intersected with Z^n."""

    __slots__ = ("n", "rows")

    def __init__(self, n, rows):
        self.n = n
        self.rows = tuple(tuple(int(x) for x in r) for r in hnf(rows))

    @property
    def rank(self):
        return len(self.rows)

    def basis(self):
        return [list(r) for r in self.rows]

    def coords(self, v):
        """Rational coordinates of v in the basis, or None if off-span.

        The HNF pivot columns increase, so each coordinate is read off its
        pivot column once the rows before it are subtracted.  An integer v
        in the lattice is reduced in integers.
        """
        rest = list(v)
        out = []
        for row in self.rows:
            p = next(j for j, x in enumerate(row) if x)
            c = Q(rest[p], row[p])
            if c:
                f = c.numerator if c.denominator == 1 else c
                rest = [x - f * y for x, y in zip(rest, row)]
            out.append(c)
        return None if any(rest) else out

    def __eq__(self, other):
        return isinstance(other, Lattice) and self.n == other.n and self.rows == other.rows

    def __hash__(self):
        return hash((self.n, self.rows))

    def __repr__(self):
        return f"Lattice(n={self.n}, rows={self.rows})"


def _hnf_lattice(n, rows):
    """A Lattice from integer rows already in HNF, skipping the hnf pass."""
    lat = Lattice.__new__(Lattice)
    lat.n = n
    lat.rows = tuple(map(tuple, rows))
    return lat


def _identity_lattice(n):
    """Z^n, whose unit rows are their own HNF."""
    return _hnf_lattice(n, [[int(i == j) for j in range(n)] for i in range(n)])


def saturate(vectors, n):
    """Saturation of the lattice generated by integer vectors in Z^n.

    Returns (Lattice, index) where index = [saturation : generated lattice],
    the product of the nonunit elementary divisors.
    """
    vecs = [v for v in vectors if any(v)]
    if not vecs:
        raise ValueError("saturate needs at least one nonzero vector")
    s, cti = smith_normal_form(vecs)
    diag = [s[i][i] for i in range(min(len(s), n)) if s[i][i]]
    return Lattice(n, cti[:len(diag)]), prod(diag)


def integer_kernel(rows, ncols):
    """Canonical basis of {x in Z^n : A x = 0} for a rational matrix A."""
    red, pivots = _int_rref([clear_denominators(r) for r in rows])
    return _rref_kernel(red, pivots, ncols).basis()


def _rref_kernel(red, pivots, ncols):
    """The saturated Lattice {x in Z^n : A x = 0} of integer rows A already
    in reduced row echelon form.

    red[i] has a nonzero entry in column pivots[i], and every other row is
    zero there; the rows need not be primitive.
    """
    if len(pivots) == ncols:
        return _hnf_lattice(ncols, [])
    scale = lcm(*(row[p] for row, p in zip(red, pivots)))
    ker = []
    for f in (c for c in range(ncols) if c not in pivots):
        v = [0] * ncols
        v[f] = scale
        for row, p in zip(red, pivots):
            v[p] = -row[f] * scale // row[p]
        ker.append(_ivec_primitive(v))
    return saturate(ker, ncols)[0]


def complement_lattice(lat: Lattice) -> Lattice:
    """Deterministic integral complement: Z^n = lat (+) complement."""
    n = lat.n
    if lat.rank == 0:
        return _identity_lattice(n)
    if lat.rank == n:
        return _hnf_lattice(n, [])
    s, cti = smith_normal_form([list(r) for r in lat.rows])
    if any(s[i][i] != 1 for i in range(lat.rank)):
        raise ValueError("complement of a nonsaturated lattice")
    # complementarity depends only on the spanned lattice, so the canonical
    # HNF basis of these rows is still a complement
    comp = Lattice(n, cti[lat.rank:])
    if abs(_bareiss(lat.rows + comp.rows)[1]) != 1:
        raise AssertionError("complement construction failed")
    return comp
