"""Exact linear algebra over Q and lattice computations over Z.

There is one elimination of each kind, in integers: Gauss-Jordan
(_int_rref) and fraction-free Bareiss (_bareiss); the rational rank clears
denominators and runs Bareiss.

Lattices are full sublattices of their rational span intersected with Z^n;
bases are kept in a canonical row echelon form (Hermite normal form) so that
equal lattices have identical bases.  Every lattice answer that is unique is
read off one HNF (Cohen 1993, section 2.4): integer_kernel takes the rows
(A x, x) and keeps those whose first block is zero, and lattice_index
multiplies the pivots of a full-rank lattice (polyhedra.primitive_normal
reads a facet's normal off the first row of one).  smith_normal_form brings
generators to a diagonal form s = rowT * a * colT and returns s with the
inverse of colT, from which complement_lattice reads a complement of a
saturated lattice: the complement is a choice, not a unique answer, and
charts and balancing certificates are written over it.
"""

from __future__ import annotations

from math import gcd, lcm, prod
from operator import mul

from .scalars import Q, qof


# ---------------------------------------------------------------- rational --

def mat_mul_vec(m, v):
    return [vec_dot(r, v) for r in m]


def vec_dot(a, b):
    """a.b as a Fraction, summed in one builtin loop over the shorter length.

    Integer products stay ints until one Q at the end; a Fraction term
    makes the sum a Fraction.
    """
    s = sum(map(mul, a, b))
    return Q(s) if type(s) is int else s


def rank(rows) -> int:
    return _bareiss([clear_denominators(r) for r in rows])[0]


# ----------------------------------------------------------------- integer --

def _ivec_primitive(v):
    """v divided by the gcd of its entries; an all-zero v is copied as it is.

    math.gcd of all entries at once is non-negative, and 0 exactly when
    every entry is 0.
    """
    g = gcd(*v)
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
    nrows = len(m)
    pivots = []
    for c in range(len(m[0]) if m else 0):
        r = len(pivots)
        if r == nrows:
            break  # every row has its pivot
        piv = r
        while piv < nrows and not m[piv][c]:
            piv += 1
        if piv == nrows:
            continue
        top = _ivec_primitive(m[piv])
        p = top[c]
        if p < 0:
            top = [-x for x in top]
            p = -p
        m[piv], m[r] = m[r], top
        for i, row in enumerate(m):
            f = row[c]
            if f and i != r:
                m[i] = _ivec_primitive([p * x - f * y for x, y in zip(row, top)])
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


def _int_duals(rows, width):
    """(duals, scale) of independent integer rows, or None.

    One integer RREF of [rows | I] is [E rows | E]; a pivot in the identity
    block means the rows are dependent.  On the pivot columns E rows is
    diagonal, so duals[k], zero off them and scale E[i][k] / red[i][p_i] on
    pivot column p_i, satisfy duals[k] . rows[j] = scale [k = j], scale the
    lcm of the pivots.
    """
    d = len(rows)
    red, pivots = _int_rref([row + [int(i == j) for j in range(d)]
                             for i, row in enumerate(rows)])
    if pivots and pivots[-1] >= width:
        return None
    scale = lcm(*(r[p] for r, p in zip(red, pivots)))
    duals = [[0] * width for _ in range(d)]
    for r, p in zip(red, pivots):
        for k, dual in enumerate(duals):
            dual[p] = r[width + k] * (scale // r[p])
    return duals, scale


def _unimodular_inverse(rows):
    """Inverse of a square integer matrix of determinant +-1, in integers.

    Its rows are the duals of the matrix's columns, which come with scale 1
    exactly when the inverse is integral, that is when M is unimodular.
    """
    duals = _int_duals([list(c) for c in zip(*rows)], len(rows))
    if duals is None or duals[1] != 1:
        raise ValueError("matrix is not unimodular")
    return duals[0]


def _over_denominator(v):
    """(ints, den): ints and Fractions v as ints over den, the lcm of their
    denominators."""
    den = lcm(*(x.denominator for x in v))
    return [x.numerator * (den // x.denominator) for x in v], den


def _ratio(a, b):
    """a / b for ints: an int when b divides a, else a Fraction."""
    q, r = divmod(a, b)
    return Q(a, b) if r else q


def clear_denominators(v):
    """Scale a rational vector to a primitive integer vector (same ray)."""
    if all(type(x) is int for x in v):
        return _ivec_primitive(v)
    return _ivec_primitive(_over_denominator([qof(x) for x in v])[0])


def hnf(rows):
    """Canonical row Hermite normal form of the lattice spanned by rows.

    Rows are integer vectors.  Output rows have strictly increasing pivot
    columns, positive pivots, and entries above each pivot reduced into
    [0, pivot).  The result is the unique canonical basis of the lattice.

    Nonzero rows already of that shape are returned at once: elimination
    would find each row alone in its pivot column and every reduction
    quotient 0, so it would return them unchanged.
    """
    m = [list(r) for r in rows if any(r)]
    if not m or _is_hnf(m):
        return m
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


def _is_hnf(m):
    """Whether nonzero rows are hnf's output: pivots strictly increasing and
    positive, with every entry above a pivot in [0, pivot)."""
    prev = -1
    for i, row in enumerate(m):
        if any(row[:prev + 1]):
            return False
        p = prev + 1
        while not row[p]:
            p += 1
        piv = row[p]
        if piv < 0 or any(not 0 <= m[k][p] < piv for k in range(i)):
            return False
        prev = p
    return True


def smith_normal_form(a):
    """Diagonal form of an integer matrix: returns (s, colTinv).

    s = rowT * a * colT for unimodular rowT and colT; s is diagonal, with
    nonnegative entries and the nonzero ones first, and colTinv, the inverse
    of colT, is tracked directly.  rowT is not tracked and there is no
    divisibility sweep, so the entries need not divide each other.  Its one
    caller is complement_lattice, which reads the last rows of colTinv: a
    complement is not unique, and this one fixes every chart's w_rows.
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


def lattice_index(rows, n):
    """[Z^n : the lattice the integer rows generate], 0 if they span less.

    Its HNF is a basis with strictly increasing pivot columns, so at full
    rank the basis is upper triangular and the index is the product of the
    pivots on its diagonal.
    """
    m = hnf(rows)
    return prod(m[i][i] for i in range(n)) if len(m) == n else 0


def integer_kernel(rows, ncols):
    """The saturated Lattice {x in Z^ncols : A x = 0} of integer rows A.

    The rows (A x, x) for the unit vectors x generate the lattice of all
    (A x, x), x in Z^ncols.  Its HNF rows whose first block is zero are
    (0, x) for the x with A x = 0, and being a tail of an HNF, they are the
    kernel's own HNF basis.
    """
    k = len(rows)
    h = hnf([[r[j] for r in rows] + [int(i == j) for i in range(ncols)]
             for j in range(ncols)])
    return _hnf_lattice(ncols, [r[k:] for r in h if not any(r[:k])])


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
