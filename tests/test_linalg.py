import random
from fractions import Fraction
from math import lcm, prod

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import linalg_oracle as oracle
from deltaforms.linalg import (
    Lattice,
    _bareiss,
    _identity_lattice,
    _int_rref,
    _unimodular_inverse,
    clear_denominators,
    complement_lattice,
    hnf,
    integer_kernel,
    rank,
    smith_normal_form,
)
from deltaforms.scalars import qof
from linalg_oracle import coords, kernel_rational, saturate, solve_linear

Q = Fraction


# The rational rref and det left deltaforms.linalg with their last callers,
# the rational map layer.  Kept here as they were: they run the library's
# integer eliminations on rational input, which the tests below compare
# with the Fraction eliminations of linalg_oracle.

def rref(rows):
    """Reduced row echelon form. Returns (rref_rows, pivot_columns).

    Clearing each row of denominators is a positive scaling, which keeps the
    row space, so the integer RREF divided by its pivots is the (unique)
    rational one.
    """
    red, pivots = _int_rref([clear_denominators(r) for r in rows])
    return [[Q(x, row[p]) for x in row] for row, p in zip(red, pivots)], pivots


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


def rand_int_matrix(rng, m, n, lo=-4, hi=4):
    return [[rng.randint(lo, hi) for _ in range(n)] for _ in range(m)]


def mat_mul(a, b):
    return [[sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(len(b[0]))]
            for i in range(len(a))]


def lattice_contains(lat, v):
    """Membership of an integer vector in the lattice."""
    v = [Q(x) for x in v]
    if any(x.denominator != 1 for x in v):
        return False
    c = coords(lat, v)
    return c is not None and all(x.denominator == 1 for x in c)


def test_rref_and_rank_basics():
    r, pivots = rref([[Q(1), Q(2)], [Q(2), Q(4)]])
    assert pivots == [0]
    assert r[0] == [Q(1), Q(2)]
    assert rank([[Q(1), Q(0)], [Q(0), Q(1)]]) == 2
    assert rank([[Q(0), Q(0)]]) == 0


def test_solve_linear():
    x = solve_linear([[Q(2), Q(0)], [Q(0), Q(3)]], [Q(4), Q(9)])
    assert x == [Q(2), Q(3)]
    assert solve_linear([[Q(1), Q(1)], [Q(1), Q(1)]], [Q(0), Q(1)]) is None


def test_det_matches_cofactor_expansion():
    rng = random.Random(7)

    def cofactor_det(m):
        n = len(m)
        if n == 1:
            return m[0][0]
        total = Q(0)
        for j in range(n):
            minor = [row[:j] + row[j + 1:] for row in m[1:]]
            total += (-1) ** j * m[0][j] * cofactor_det(minor)
        return total

    for _ in range(30):
        n = rng.randint(1, 4)
        m = [[Q(rng.randint(-3, 3)) for _ in range(n)] for _ in range(n)]
        assert det(m) == cofactor_det(m)


def test_kernel_is_exact():
    ker = kernel_rational([[Q(1), Q(1), Q(0)]], 3)
    assert len(ker) == 2
    for v in ker:
        assert v[0] + v[1] == 0


def test_clear_denominators():
    assert clear_denominators([Q(1, 2), Q(1, 3)]) == [3, 2]
    assert clear_denominators([Q(-2), Q(4)]) == [-1, 2]


def test_hnf_canonical_shape():
    h = hnf([[2, 4, 4], [-6, 6, 12], [10, 4, 16]])
    # pivots positive, entries above each pivot reduced into [0, pivot)
    pcols = []
    for row in h:
        j = next(k for k, x in enumerate(row) if x != 0)
        assert row[j] > 0
        pcols.append(j)
    assert pcols == sorted(pcols)
    for i, row in enumerate(h):
        j = pcols[i]
        for above in h[:i]:
            assert 0 <= above[j] < row[j]


def test_hnf_invariant_under_unimodular_row_ops():
    rng = random.Random(13)
    for _ in range(40):
        m, n = rng.randint(1, 3), rng.randint(1, 4)
        a = rand_int_matrix(rng, m, n)
        b = [row[:] for row in a]
        for _ in range(6):
            i, j = rng.randrange(m), rng.randrange(m)
            if i == j:
                b[i] = [-x for x in b[i]]
            else:
                q = rng.randint(-2, 2)
                b[i] = [x + q * y for x, y in zip(b[i], b[j])]
        assert hnf(a) == hnf(b)


def test_smith_normal_form_properties():
    """The diagonal form keeps the row lattice and the index of the oracle's
    Smith form; it has no row transform to check and no divisibility chain."""
    rng = random.Random(17)
    for _ in range(200):
        m, n = rng.randint(1, 4), rng.randint(1, 4)
        a = rand_int_matrix(rng, m, n)
        s, cti = smith_normal_form(a)
        assert all(s[i][j] == 0 for i in range(m) for j in range(n) if i != j)
        diag = [s[i][i] for i in range(min(m, n))]
        nonzero = [d for d in diag if d]
        assert all(d > 0 for d in nonzero) and diag[:len(nonzero)] == nonzero
        assert abs(det([[Q(x) for x in row] for row in cti])) == 1
        # s . cti = rowT . a, so both span the same row lattice
        assert hnf(a) == hnf(mat_mul(s, cti))
        expected = oracle.smith_normal_form(a)[0]
        assert prod(nonzero) == prod(expected[i][i] for i in range(min(m, n))
                                     if expected[i][i])


def _saturate_oracle(vectors, n):
    """saturate on the oracle's Smith normal form."""
    vecs = [list(v) for v in vectors if any(v)]
    if not vecs:
        raise ValueError("saturate needs at least one nonzero vector")
    s, _, cti = oracle.smith_normal_form(vecs)
    diag = [s[i][i] for i in range(min(len(s), n)) if s[i][i]]
    return Lattice(n, cti[:len(diag)]), prod(diag)


def _complement_oracle(lat):
    """complement_lattice on the oracle's Smith normal form."""
    n = lat.n
    if lat.rank == 0:
        return Lattice(n, [[1 if i == j else 0 for j in range(n)] for i in range(n)])
    if lat.rank == n:
        return Lattice(n, [])
    s, _, cti = oracle.smith_normal_form([list(r) for r in lat.rows])
    if any(s[i][i] != 1 for i in range(lat.rank)):
        raise ValueError("complement of a nonsaturated lattice")
    return Lattice(n, cti[lat.rank:])


def _outcome(f, *args):
    """("ok", value) or ("ValueError", message)."""
    try:
        return "ok", f(*args)
    except ValueError as exc:
        return "ValueError", str(exc)


def test_diagonal_form_lattices_match_the_smith_form_route():
    """saturate and complement_lattice give the oracle's values and errors.

    The generated lattice Lattice(n, gens) is saturated only sometimes, so
    complement_lattice takes its raise path as well as its normal one.
    """
    rng = random.Random(1009)
    raised = {"saturate": 0, "complement": 0}
    for _ in range(20000):
        n, k = rng.randint(1, 5), rng.randint(0, 6)
        gens = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(k)]
        kind, sat = _outcome(saturate, gens, n)
        assert (kind, sat) == _outcome(_saturate_oracle, gens, n)
        raised["saturate"] += kind != "ok"
        for lat in [Lattice(n, gens)] + ([sat[0]] if kind == "ok" else []):
            comp = _outcome(complement_lattice, lat)
            assert comp == _outcome(_complement_oracle, lat)
            raised["complement"] += comp[0] != "ok"
    assert all(raised.values()), raised


def coset_count_oracle(gens, n):
    """[saturation : sublattice] by counting lattice points of the saturation
    inside the half-open fundamental parallelepiped of the generators."""
    basis = [g for g in gens]
    # reduce to an independent subset
    indep = []
    for g in basis:
        if rank([[Q(x) for x in v] for v in indep + [g]]) > len(indep):
            indep.append(g)
    r = len(indep)
    if r == 0:
        return 1
    bound = sum(max(abs(x) for x in v) for v in indep) + 1
    count = 0
    from itertools import product

    for pt in product(range(-bound, bound + 1), repeat=n):
        # pt = sum t_i v_i with 0 <= t_i < 1 ?
        cols = [[Q(indep[i][k]) for i in range(r)] for k in range(n)]
        sol = solve_linear([c[:] for c in cols], [Q(x) for x in pt]) if r == n else None
        if r != n:
            # least squares not OK here; solve the overdetermined system exactly
            aug = [[Q(indep[i][k]) for i in range(r)] + [Q(pt[k])] for k in range(n)]
            rr, piv = rref(aug)
            if any(all(row[j] == 0 for j in range(r)) and row[r] != 0 for row in rr):
                continue
            sol = [Q(0)] * r
            for idx, j in enumerate(piv):
                sol[j] = rr[idx][r]
        if sol is None:
            continue
        if all(Q(0) <= t < Q(1) for t in sol):
            count += 1
    return count


def test_saturate_pinned_example():
    lat, index = saturate([(1, 0), (1, 2)], 2)
    assert index == 2
    assert lat == Lattice(2, [[1, 0], [0, 1]])


def test_saturate_against_coset_oracle():
    rng = random.Random(23)
    cases = [
        ([(1, 0), (1, 2)], 2),
        ([(2, 0), (0, 3)], 2),
        ([(1, 1)], 2),
        ([(2, 2)], 2),
        ([(1, 2, 0), (0, 0, 3)], 3),
    ]
    for _ in range(10):
        n = rng.randint(1, 3)
        k = rng.randint(1, n)
        cases.append(([tuple(rng.randint(-2, 2) for _ in range(n)) for _ in range(k)], n))
    for gens, n in cases:
        gens = [g for g in gens if any(g)]
        if not gens:
            continue
        lat, index = saturate(gens, n)
        assert index == coset_count_oracle(gens, n)
        # saturation contains every generator
        for g in gens:
            assert lattice_contains(lat, list(g))


def test_lattice_contains_and_coords():
    lat = Lattice(2, [[1, 0], [0, 2]])
    assert lattice_contains(lat, [3, 4])
    assert not lattice_contains(lat, [0, 1])
    assert coords(lat, [3, 4]) == [Q(3), Q(2)]


def test_saturate_rejects_degenerate_input():
    with pytest.raises(ValueError):
        saturate([], 2)
    with pytest.raises(ValueError):
        saturate([[0, 0]], 2)


def test_saturate_idempotent():
    rng = random.Random(41)
    for _ in range(20):
        n = rng.randint(1, 3)
        gens = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(rng.randint(1, n))]
        if not any(any(g) for g in gens):
            continue
        lat, _ = saturate([g for g in gens if any(g)], n)
        again, idx = saturate(lat.basis(), n)
        assert again == lat and idx == 1


def test_integer_kernel_primitive():
    ker = integer_kernel([[1, 1, 2]], 3).basis()
    assert len(ker) == 2
    for v in ker:
        assert v[0] + v[1] + 2 * v[2] == 0
    # saturated: (1,-1,0) and (2,0,-1) must lie inside
    lat = Lattice(3, ker)
    assert lattice_contains(lat, [1, -1, 0])
    assert lattice_contains(lat, [2, 0, -1])


# Rows of rationals p/q with small p and q; duplicated, negated and zero rows
# and a last column that a pivot can land in (an inconsistent system) are
# all common.
_RATIONAL = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3))


@st.composite
def rational_matrices(draw):
    ncols = draw(st.integers(1, 5))
    rows = draw(st.lists(st.lists(_RATIONAL, min_size=ncols, max_size=ncols),
                         max_size=5))
    if rows and draw(st.booleans()):
        r = draw(st.sampled_from(rows))
        rows.append([-2 * x for x in r] if draw(st.booleans()) else list(r))
    if draw(st.booleans()):
        rows.insert(draw(st.integers(0, len(rows))), [Q(0)] * ncols)
    return rows


@settings(max_examples=400, deadline=None)
@given(rational_matrices())
@example([])
@example([[Q(0), Q(0)], [Q(0), Q(0)]])                   # zero rows
@example([[Q(1), Q(2), Q(3)], [Q(1), Q(2), Q(3)]])       # duplicates
@example([[Q(1), Q(1), Q(1)], [Q(1), Q(1), Q(2)]])       # pivot in last column
@example([[Q(-2), Q(4), Q(0)], [Q(0), Q(-3), Q(6)]])     # negative pivots
@example([[Q(1, 2), Q(-1, 3)], [Q(3, 4), Q(5, 6)]])      # cleared rationals
def test_int_rref_is_cleared_rref(rows):
    """Integer RREF equals clear_denominators of the rational RREF, row for row.

    Clearing each input row first is a positive scaling, which changes
    neither the row space nor where the zeros are, so the pivots agree too.
    """
    red, pivots = oracle.rref(rows)
    assert _int_rref([clear_denominators(r) for r in rows]) == (
        [clear_denominators(r) for r in red], pivots)


def _integer_kernel_oracle(rows, ncols):
    """The rational route: the oracle's kernel_rational, clear_denominators,
    saturate."""
    rows = [r for r in rows if any(r)]
    if not rows:
        return [[1 if i == j else 0 for j in range(ncols)] for i in range(ncols)]
    ker = oracle.kernel_rational([[Q(x) for x in row] for row in rows], ncols)
    if not ker:
        return []
    lat, _ = saturate([clear_denominators(v) for v in ker], ncols)
    return lat.basis()


@settings(max_examples=400, deadline=None)
@given(rational_matrices())
@example([[Q(1), Q(1), Q(2)]])
@example([[Q(2), Q(4)], [Q(1), Q(3)]])                   # full rank
@example([[Q(0), Q(0), Q(0)]])                           # only zero rows
def test_integer_kernel_matches_the_rational_route(rows):
    ncols = len(rows[0]) if rows else 3
    ker = integer_kernel([clear_denominators(r) for r in rows], ncols)
    assert ker.n == ncols
    assert ker.basis() == _integer_kernel_oracle(rows, ncols)
    assert ker.basis() == oracle.integer_kernel(rows, ncols)


def test_integer_kernel_matches_the_rational_route_on_seeded_matrices():
    """Seeded integer matrices with n = 2..6 columns: the kernel read off one
    HNF is the RREF kernel saturated and the rational route's.  Many RREF
    kernels' vectors, one per free column, span a proper sublattice of the
    kernel, which only the saturation fills."""
    rng = random.Random(2902)
    proper = 0
    for _ in range(2000):
        n = rng.randint(2, 6)
        rows = [[rng.randint(-6, 6) for _ in range(n)]
                for _ in range(rng.randint(0, n))]
        if rows and rng.random() < 0.2:
            rows.append([2 * x - y for x, y in zip(rows[0], rows[-1])])
        ker = integer_kernel(rows, n)
        assert ker.n == n and ker.rows == tuple(map(tuple, hnf(ker.rows)))
        assert ker.basis() == oracle.integer_kernel(rows, n)
        assert ker.basis() == _integer_kernel_oracle(rows, n)
        vectors = [clear_denominators(v) for v in kernel_rational(rows, n)]
        assert len(vectors) == ker.rank
        proper += bool(vectors) and Lattice(n, vectors) != ker
    assert proper >= 100, proper


def test_complement_lattice():
    rng = random.Random(29)
    for _ in range(30):
        n = rng.randint(1, 4)
        k = rng.randint(0, n)
        gens = [g for g in ([[rng.randint(-3, 3) for _ in range(n)] for _ in range(k)]) if any(g)]
        if gens:
            lat, _ = saturate(gens, n)
        else:
            lat = Lattice(n, [])
        comp = complement_lattice(lat)
        assert lat.rank + comp.rank == n
        full = [list(v) for v in lat.basis()] + [list(v) for v in comp.basis()]
        if full:
            assert abs(det([[Q(x) for x in row] for row in full])) == 1


def test_trusted_lattices_equal_the_hnf_of_their_rows():
    """Lattices built without the hnf pass: Z^n, the empty lattice, and
    complements and kernels of those."""
    for n in range(6):
        empty = Lattice(n, [])
        built = [_identity_lattice(n), complement_lattice(empty),
                 complement_lattice(_identity_lattice(n)),
                 integer_kernel([[int(i == j) for j in range(n)]
                                 for i in range(n)], n),
                 integer_kernel([], n)]
        assert built[0].rows == built[1].rows == built[4].rows
        assert built[2] == built[3] == empty
        for lat in built:
            assert lat.n == n and lat.rows == tuple(map(tuple, hnf(lat.rows)))
            assert all(type(x) is int for r in lat.rows for x in r)


# ---------------------------------------------- integer charts and lattices --
# Each integer routine is checked against the rational route it replaced.

@st.composite
def unimodular_matrices(draw):
    """Products of elementary integer row operations: swaps, negations and
    row additions with multipliers -3..3, starting from the identity."""
    n = draw(st.integers(1, 5))
    m = [[int(i == j) for j in range(n)] for i in range(n)]
    for i, j, k in draw(st.lists(st.tuples(st.integers(0, n - 1),
                                           st.integers(0, n - 1),
                                           st.integers(-3, 3)), max_size=12)):
        if i == j:
            m[i] = [-x for x in m[i]]
        elif k == 0:
            m[i], m[j] = m[j], m[i]
        else:
            m[i] = [x + k * y for x, y in zip(m[i], m[j])]
    return m


@settings(max_examples=300, deadline=None)
@given(unimodular_matrices())
@example([[2, 1], [1, 1]])
@example([[0, 1, 0], [1, 0, 0], [0, 0, -1]])
def test_unimodular_inverse_equals_invert(m):
    inv = _unimodular_inverse(m)
    assert inv == oracle.invert([[Q(x) for x in row] for row in m])
    assert all(type(x) is int for row in inv for x in row)
    assert abs(_bareiss(m)[1]) == 1


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 4).flatmap(lambda n: st.lists(
    st.lists(st.integers(-3, 3), min_size=n, max_size=n),
    min_size=n, max_size=n)))
@example([[2, 0], [0, 1]])            # |det| = 2
@example([[1, 2], [2, 4]])            # singular
@example([[0, 0], [0, 0]])
@example([[3, 1], [5, 2]])            # |det| = 1
def test_unimodular_inverse_rejects_other_matrices(m):
    d = oracle.det([[Q(x) for x in row] for row in m])
    assert _bareiss(m)[1] == d
    if abs(d) == 1:
        assert _unimodular_inverse(m) == oracle.invert([[Q(x) for x in r] for r in m])
    else:
        with pytest.raises(ValueError):
            _unimodular_inverse(m)


def _coords_oracle(lat, v):
    """The rational route: solve basis^T c = v with solve_linear."""
    if not lat.rows:
        return [] if all(Q(x) == 0 for x in v) else None
    at = [[Q(lat.rows[i][j]) for i in range(len(lat.rows))] for j in range(lat.n)]
    return solve_linear(at, [Q(x) for x in v])


@st.composite
def lattices_and_vectors(draw):
    """A saturated lattice and a vector on its span (integer or rational
    combination of the generators) or off it."""
    n = draw(st.integers(1, 4))
    gens = draw(st.lists(st.lists(st.integers(-3, 3), min_size=n, max_size=n),
                         max_size=n))
    gens = [g for g in gens if any(g)]
    lat = saturate(gens, n)[0] if gens else Lattice(n, [])
    coef = st.builds(Fraction, st.integers(-4, 4), st.sampled_from([1, 1, 2, 3]))
    kind = draw(st.sampled_from(["span", "any"]))
    if kind == "span":
        cs = draw(st.lists(coef, min_size=len(gens), max_size=len(gens)))
        v = [sum((c * g[i] for c, g in zip(cs, gens)), Q(0)) for i in range(n)]
    else:
        v = draw(st.lists(coef, min_size=n, max_size=n))
    return lat, v


@settings(max_examples=400, deadline=None)
@given(lattices_and_vectors())
@example((Lattice(2, [[1, 0], [0, 2]]), [3, 4]))
@example((Lattice(2, [[1, 0], [0, 2]]), [0, 1]))     # span, not lattice
@example((Lattice(3, [[1, 2, 0]]), [0, 0, 1]))       # off the span
@example((Lattice(3, [[2, 3, 0], [0, 0, 1]]), [4, 6, Q(1, 2)]))
@example((Lattice(2, []), [0, 0]))
@example((Lattice(2, []), [0, 1]))
def test_coords_matches_the_rational_solve(case):
    lat, v = case
    c = coords(lat, v)
    assert c == _coords_oracle(lat, v)
    assert c is None or all(type(x) is Fraction for x in c)
    ints = [int(x) for x in v] if all(Q(x).denominator == 1 for x in v) else None
    if ints is not None:
        assert coords(lat, ints) == c


# ------------------------------------------------ one integer core for Q --
# rref, rank and det clear denominators and run _int_rref or _bareiss.
# Each must give exactly what the Fraction eliminations kept in
# linalg_oracle give.

@st.composite
def rational_matrices_5x6(draw):
    """Up to 5 rows of 0..6 rationals; zero rows and scaled copies of a
    row are common."""
    ncols = draw(st.integers(0, 6))
    rows = draw(st.lists(st.lists(_RATIONAL, min_size=ncols, max_size=ncols),
                         max_size=5))
    if rows and len(rows) < 5 and draw(st.booleans()):
        r = draw(st.sampled_from(rows))
        rows.insert(draw(st.integers(0, len(rows))),
                    [draw(_RATIONAL) * x for x in r])
    if len(rows) < 5 and draw(st.booleans()):
        rows.insert(draw(st.integers(0, len(rows))), [Q(0)] * ncols)
    return rows


@st.composite
def square_rational_matrices(draw):
    """n x n rationals, n <= 5; a last row that combines the others (so the
    matrix is singular) and rows that need swapping are common."""
    n = draw(st.integers(0, 5))
    rows = draw(st.lists(st.lists(_RATIONAL, min_size=n, max_size=n),
                         min_size=n, max_size=n))
    if n > 1 and draw(st.booleans()):
        cs = draw(st.lists(_RATIONAL, min_size=n - 1, max_size=n - 1))
        rows[-1] = [sum((c * r[j] for c, r in zip(cs, rows)), Q(0))
                    for j in range(n)]
    return draw(st.permutations(rows))


def _all_fractions(rows):
    return all(type(x) is Fraction for r in rows for x in r)


@settings(max_examples=400, deadline=None)
@given(rational_matrices_5x6().flatmap(lambda rows: st.tuples(
    st.just(rows), st.lists(_RATIONAL, min_size=len(rows), max_size=len(rows)))))
@example(([], []))
@example(([[Q(0), Q(0), Q(0)], [Q(0), Q(0), Q(0)]], [Q(0), Q(1)]))  # zero rows
@example(([[Q(1, 2), Q(1, 3)], [Q(1, 2), Q(1, 3)]], [Q(1), Q(2)]))  # duplicates
@example(([[Q(0), Q(2)], [Q(-3), Q(1)]], [Q(1), Q(1)]))             # needs a swap
@example(([[], []], [Q(0), Q(1)]))                                  # no columns
def test_rational_routines_equal_the_fraction_eliminations(case):
    rows, b = case
    assert ([clear_denominators(r) for r in rows]
            == [oracle.clear_denominators(r) for r in rows])
    red, pivots = rref(rows)
    assert (red, pivots) == oracle.rref(rows) and _all_fractions(red)
    assert rank(rows) == oracle.rank(rows)
    # the drawn right-hand side (often inconsistent) and one that is
    # consistent by construction, through the augmented matrix
    ncols = len(rows[0]) if rows else 3
    x = [Q(1, j + 2) for j in range(ncols)]
    for rhs in (b, [sum((a * y for a, y in zip(r, x)), Q(0)) for r in rows]):
        aug = [list(r) + [c] for r, c in zip(rows, rhs)]
        assert rref(aug) == oracle.rref(aug)


@settings(max_examples=400, deadline=None)
@given(square_rational_matrices())
@example([])
@example([[Q(0), Q(1)], [Q(1), Q(0)]])                           # det -1
@example([[Q(0), Q(0), Q(1)], [Q(0), Q(1), Q(0)], [Q(1), Q(0), Q(0)]])
@example([[Q(1, 2), Q(1, 3)], [Q(1, 4), Q(1, 6)]])               # singular
@example([[Q(2, 3), Q(0)], [Q(0), Q(5, 7)]])
def test_det_equals_the_fraction_elimination(m):
    d = det(m)
    assert d == oracle.det(m) and type(d) is Fraction


@pytest.mark.parametrize("m", [
    [[Q(1), Q(2)]],
    [[Q(1)], [Q(2)]],
    [[Q(1), Q(2)], [Q(3)]],
    [[]],
])
def test_det_of_a_nonsquare_matrix_raises(m):
    with pytest.raises(ValueError):
        det(m)
    with pytest.raises(ValueError):
        oracle.det(m)


@settings(max_examples=400, deadline=None)
@given(st.integers(0, 5).flatmap(lambda m: st.integers(0, 6).flatmap(
    lambda n: st.lists(st.lists(st.integers(-4, 4), min_size=n, max_size=n),
                       min_size=m, max_size=m))).flatmap(st.permutations))
@example([])
@example([[0, 0], [0, 0]])
@example([[0, 1], [1, 0]])
@example([[0, 0, 2], [0, 3, 0], [5, 0, 0]])
@example([[0, 2, 1], [0, 4, 2], [1, 0, 0]])
@example([[2, 4, 1], [1, 2, 3]])
def test_bareiss_equals_the_two_loops_it_replaces(m):
    r, d = _bareiss(m)
    assert r == oracle.integer_rank(m)
    if all(len(row) == len(m) for row in m):
        assert d == oracle._int_det(m)
    else:
        assert d == 0
