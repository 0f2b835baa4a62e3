"""The integer kernels whose loops run inside builtins, against their old bodies.

int_dot and vec_dot sum map(mul, ...), _ivec_primitive takes one gcd of all
entries, _int_rref stops once every row has its pivot and searches pivots
with an index loop, and hnf returns at once rows already in Hermite normal
form.  linalg_oracle keeps each old body verbatim.  A cell's hash and sort
key are computed once when it is interned; polyhedra_oracle keeps the
bodies that rebuilt them on every call.
"""

from fractions import Fraction as Q

from hypothesis import example, given, settings
from hypothesis import strategies as st

import linalg_oracle as oracle
import polyhedra_oracle
from deltaforms import polyhedra
from deltaforms.cones import int_dot
from deltaforms.linalg import _int_rref, _ivec_primitive, hnf, vec_dot
from deltaforms.polyhedra import polyhedron

entries = st.integers(-6, 6)


@st.composite
def matrices(draw, max_rows=6, max_cols=6):
    """Integer rows, with zero rows and sign-flipped rows mixed in.

    Row and column counts are drawn apart, so both tall and wide shapes
    occur; a negated row puts a negative entry where its pivot falls.
    """
    k = draw(st.integers(0, max_rows))
    n = draw(st.integers(1, max_cols))
    rows = []
    for _ in range(k):
        kind = draw(st.integers(0, 4))
        if kind == 0:
            rows.append([0] * n)
        elif kind == 1 and rows:
            # a combination of earlier rows, so rank deficiency occurs
            a, b = draw(entries), draw(entries)
            r1, r2 = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            rows.append([a * x + b * y for x, y in zip(r1, r2)])
        else:
            rows.append(draw(st.lists(entries, min_size=n, max_size=n)))
    return rows


@st.composite
def hnf_matrices(draw):
    """Rows in canonical HNF, possibly with one entry above a pivot off by one.

    The off-by-one entry is set to the pivot itself or to -1, just outside
    [0, pivot), or the pivot is negated.
    """
    n = draw(st.integers(1, 6))
    cols = sorted(draw(st.sets(st.integers(0, n - 1), min_size=1)))
    rows = []
    for c in cols:
        row = [0] * c + [draw(st.integers(1, 5))]
        row += draw(st.lists(entries, min_size=n - c - 1, max_size=n - c - 1))
        rows.append(row)
    for i, c in enumerate(cols):
        for k in range(i):
            rows[k][c] = draw(st.integers(0, rows[i][c] - 1))
    spoil = draw(st.integers(0, 3))
    if spoil == 1 and len(cols) > 1:
        i = draw(st.integers(1, len(cols) - 1))
        k = draw(st.integers(0, i - 1))
        rows[k][cols[i]] = draw(st.sampled_from([rows[i][cols[i]], -1]))
    elif spoil == 2:
        i = draw(st.integers(0, len(cols) - 1))
        rows[i] = [-x for x in rows[i]]
    return rows


def _copy(rows):
    return [list(r) for r in rows]


@given(st.lists(entries, max_size=7), st.lists(entries, max_size=7))
def test_int_dot(u, v):
    assert int_dot(u, v) == oracle.int_dot(u, v)


@given(st.lists(entries, min_size=1, max_size=6), entries)
def test_int_dot_of_a_full_row_stops_at_the_point(a, b):
    x = [(i * 7) % 5 - 2 for i in range(len(a))]
    assert int_dot(tuple(a) + (b,), x) == oracle.int_dot(a, x)


rationals = st.one_of(entries, st.builds(Q, entries, st.integers(1, 4)))


@given(st.lists(rationals, max_size=6), st.lists(rationals, max_size=6))
@example([], [])
@example([1, 2], [3, 4])
def test_vec_dot(a, b):
    got = vec_dot(a, b)
    assert got == oracle.vec_dot(a, b)
    assert type(got) is Q


@given(st.lists(entries, max_size=7))
@example([])
@example([0, 0, 0])
@example([-4, 6, -8])
def test_ivec_primitive(v):
    assert _ivec_primitive(v) == oracle._ivec_primitive(v)


@settings(max_examples=300, deadline=None)
@given(matrices())
@example([[0, 0], [0, 0]])
@example([[-2, 4], [3, 1]])
@example([[1, 0], [0, 1], [1, 1]])
@example([[0, 0, 2], [0, 3, 0], [5, 0, 0]])
@example([[1, 2, 3, 4]])
def test_int_rref(rows):
    assert _int_rref(_copy(rows)) == oracle._int_rref(_copy(rows))


@settings(max_examples=300, deadline=None)
@given(st.one_of(matrices(), hnf_matrices()))
@example([[1, 2], [0, 2]])
@example([[1, -1], [0, 2]])
@example([[-1, 0], [0, 1]])
@example([[2, 1], [0, 3], [0, 0]])
@example([[0, 1], [1, 0]])
def test_hnf(rows):
    assert hnf(_copy(rows)) == oracle.hnf(_copy(rows))


@given(hnf_matrices())
def test_hnf_of_its_own_output(rows):
    once = hnf(rows)
    assert hnf(once) == once == oracle.hnf(once)


cells = st.lists(st.tuples(st.lists(rationals, min_size=2, max_size=2),
                           rationals), min_size=1, max_size=5)


@settings(max_examples=50, deadline=None)
@given(cells)
@example([([1, 0], 1), ([-1, 0], 1), ([0, 1], 1), ([0, -1], 1)])
def test_hash_and_sort_key_survive_a_cleared_intern_table(ineqs):
    polyhedra._CACHE.clear()
    p = polyhedron(2, ineqs)
    if p is None:
        return
    assert hash(p) == polyhedra_oracle.polyhedron_hash(p)
    assert p.sort_key == polyhedra_oracle.sort_key(p)
    before = (hash(p), p.sort_key)
    polyhedra._CACHE.clear()
    q = polyhedron(2, ineqs)
    assert q is not p and q == p
    assert (hash(q), q.sort_key) == before
    assert hash(q) == polyhedra_oracle.polyhedron_hash(q)
    assert q.sort_key == polyhedra_oracle.sort_key(q)
