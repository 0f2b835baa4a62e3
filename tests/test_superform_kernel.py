"""The superform kernel against the version it replaced (superform_oracle).

Poly arithmetic, compose_affine and pullback_affine must give exactly the
oracle's terms, with no zero coefficient, int exponent tuples and Fraction
values; the balancing check must give the oracle's verdict and certificate.
A current computes its balancing verdict once, and hands out copies of it.
Integrals of top forms over cells, which now run the facet recursion, equal
the oracle's triangulation route.
"""

import json
from fractions import Fraction as Q
from itertools import combinations
from math import gcd
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import superform_oracle as oracle
from deltaforms.currents import (BalancingError, DeltaForm,
                                 _check_balanced_refined, require_balanced)
from deltaforms.polyhedra import WeightedCell, polyhedron, ray_from, segment
from deltaforms.superforms import Poly, SuperForm, _superform, integrate_top
from test_currents import DIRECTIONS, RATIONALS, WEIGHTS

MAX_DEGREE = 5


def exponents(n):
    """Exponent tuples in n variables of total degree at most MAX_DEGREE."""
    return st.lists(st.integers(0, MAX_DEGREE), min_size=n, max_size=n).filter(
        lambda e: sum(e) <= MAX_DEGREE).map(tuple)


def terms(n, max_size=5):
    return st.dictionaries(exponents(n), RATIONALS, max_size=max_size)


@st.composite
def poly_pairs(draw):
    """Two polynomials in the same n <= 3 variables; the second may cancel the first."""
    n = draw(st.integers(0, 3))
    a = draw(terms(n))
    b = draw(terms(n))
    if a and draw(st.booleans()):
        b.update({e: -c for e, c in a.items() if draw(st.booleans())})
    return n, a, b


@st.composite
def affine_maps(draw, n):
    """(lin_rows, shift, k): a rational affine map from R^k to R^n, k <= 3."""
    k = draw(st.integers(0, 3))
    lin = [[draw(RATIONALS) for _ in range(k)] for _ in range(n)]
    shift = [draw(RATIONALS) for _ in range(n)]
    return lin, shift, k


def assert_normal(p, n):
    assert p.n == n
    for e, c in p.terms.items():
        assert type(e) is tuple and len(e) == n
        assert all(type(x) is int and x >= 0 for x in e)
        assert type(c) is Q and c != 0


def assert_same(new, old, n):
    """new (a Poly) has exactly the oracle's terms, in normal form."""
    assert new.terms == old.terms
    assert_normal(new, n)


# ------------------------------------------------------------------ Poly --

@settings(max_examples=200, deadline=None)
@given(poly_pairs(), RATIONALS, st.integers(0, 2))
@example((0, {}, {}), Q(0), 0)
@example((2, {(1, 0): Q(1), (0, 2): Q(-1, 2)}, {(1, 0): Q(-1), (0, 2): Q(1, 2)}),
         Q(3), 1)
def test_arithmetic_matches_the_oracle(pair, c, i):
    n, a, b = pair
    p, q = Poly(n, a), Poly(n, b)
    op, oq = oracle.Poly(n, a), oracle.Poly(n, b)
    assert_same(p + q, op + oq, n)
    assert_same(p - q, op - oq, n)
    assert_same(-p, -op, n)
    assert_same(p * q, op * oq, n)
    assert_same(p * c, op * c, n)
    assert_same(p + c, op + c, n)
    assert_same(c * p, c * op, n)
    assert_same(p * str(c), op * str(c), n)
    assert_same(p * int(c), op * int(c), n)
    if n:
        assert_same(p.partial(i % n), op.partial(i % n), n)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_compose_affine_matches_the_oracle(data):
    n = data.draw(st.integers(0, 3))
    a = data.draw(terms(n))
    lin, shift, k = data.draw(affine_maps(n))
    p, op = Poly(n, a), oracle.Poly(n, a)
    first = p.compose_affine(lin, shift, k)
    assert_same(first, op.compose_affine(lin, shift, k), k)
    # a second map through the same polynomial: no power is kept between calls
    lin2, shift2, k2 = data.draw(affine_maps(n))
    assert_same(p.compose_affine(lin2, shift2, k2),
                op.compose_affine(lin2, shift2, k2), k2)


def test_compose_affine_cancels_to_zero():
    # x0 - x1 vanishes on the diagonal x0 = x1 = u + 1/2
    p = Poly(2, {(1, 0): 1, (0, 1): -1})
    assert p.compose_affine([[1], [1]], [Q(1, 2), Q(1, 2)], 1).terms == {}
    # (x0 + x1)^2 - (x0 - x1)^2 - 4 x0 x1 = 0 under any map
    s = Poly(2, {(2, 0): 1, (0, 2): 1, (1, 1): 2})
    d = Poly(2, {(2, 0): 1, (0, 2): 1, (1, 1): -2})
    zero = s - d - Poly(2, {(1, 1): 4})
    assert zero.terms == {}
    lin = [[Q(1, 3), Q(-2)], [Q(5, 7), Q(0)]]
    assert (s - d).compose_affine(lin, [Q(1, 2), Q(-3)], 2) == \
        Poly(2, {(1, 1): 4}).compose_affine(lin, [Q(1, 2), Q(-3)], 2)


@st.composite
def superforms(draw, n=None):
    """A superform in n <= 3 variables with polynomial coefficients."""
    if n is None:
        n = draw(st.integers(0, 3))
    out = {}
    for _ in range(draw(st.integers(0, 3))):
        ii = draw(st.sampled_from([c for p in range(n + 1)
                                   for c in combinations(range(n), p)]))
        jj = draw(st.sampled_from([c for p in range(n + 1)
                                   for c in combinations(range(n), p)]))
        out[(ii, jj)] = Poly(n, draw(terms(n, max_size=3)))
    return SuperForm(n, out)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_pullback_affine_matches_the_oracle(data):
    form = data.draw(superforms())
    lin, shift, k = data.draw(affine_maps(form.n))
    if data.draw(st.booleans()):
        # repeated rows share minors between terms
        lin = [lin[0]] * form.n if form.n else lin
    got = form.pullback_affine(lin, shift, k)
    want = oracle.pullback_affine(form, lin, shift, k)
    assert got.n == k
    assert {key: p.terms for key, p in got.terms.items()} == \
        {key: p.terms for key, p in want.items()}
    for p in got.terms.values():
        assert_normal(p, k)


def test_pullback_uses_each_minor_of_its_own_columns():
    # d'x0 ^ d''x1 under u -> (u0 + 2 u1, 3 u0 - u1): every minor differs
    form = SuperForm(2, {((0,), (1,)): Poly.const(2, 1),
                         ((0, 1), ()): Poly.variable(2, 0)})
    lin = [[1, 2], [3, -1]]
    got = form.pullback_affine(lin, [0, 0])
    want = oracle.pullback_affine(form, lin, [0, 0])
    assert {key: p.terms for key, p in got.terms.items()} == \
        {key: p.terms for key, p in want.items()}


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_arithmetic_results_equal_the_checked_constructor(data):
    """SuperForm results built unchecked equal SuperForm(n, terms) of them.

    Each operation runs twice: as it is, and with its result passed through
    the checked constructor, which re-sorts and range-checks the indices and
    drops zero coefficients.  Terms and their order must agree, and the
    factory must drop exactly the zeros the constructor drops.
    """
    a = data.draw(superforms())
    n = a.n
    b = data.draw(superforms(n))
    c = data.draw(RATIONALS)
    vec = [data.draw(RATIONALS) for _ in range(n)]
    lin, shift, k = data.draw(affine_maps(n))
    ops = [lambda: a + b, lambda: a - a, lambda: -a, lambda: a.scale(c),
           lambda: a.scale(Poly(n, {})), lambda: a.wedge(b), lambda: b.wedge(a),
           lambda: a.dprime(), lambda: a.dsecond(), lambda: a.component(1, 0),
           lambda: a.contract(vec, "prime"), lambda: a.contract(vec, "second"),
           lambda: a.pullback_affine(lin, shift, k)]
    for op in ops:
        got = op()
        with mock.patch("deltaforms.superforms._superform", SuperForm):
            want = op()
        assert list(got.terms.items()) == list(want.terms.items())
        assert got.n == want.n
    zeros = {key: Poly(n, {}) for key in data.draw(st.lists(
        st.sampled_from(sorted(b.terms) or [((), ())]), max_size=2))}
    raw = {**a.terms, **zeros}
    assert _superform(n, raw).terms == SuperForm(n, raw).terms


def test_public_constructor_still_validates():
    with pytest.raises(ValueError):
        Poly(2, {(1,): 1})
    with pytest.raises(ValueError):
        Poly(1, {(-1,): 1})
    with pytest.raises(ValueError):
        Poly(2, {(0, -2): Q(1, 2)})
    with pytest.raises(TypeError):
        Poly(1, {(1,): 0.5})
    # zero coefficients are dropped and the rest coerced on input
    p = Poly(2, {(1.0, 0): "-1/2", (0, 1): 0, (2, 0): 3})
    assert p.terms == {(1, 0): Q(-1, 2), (2, 0): Q(3)}
    assert_normal(p, 2)


# ------------------------------------------------------------- balancing --

def _closing_ray(apex, rays):
    """A primitive ray with weight that balances the weighted rays at apex."""
    sx = -sum(w * d[0] for d, w in rays)
    sy = -sum(w * d[1] for d, w in rays)
    if sx == 0 and sy == 0:
        return None
    den = 1
    for x in (sx, sy):
        den = den * x.denominator // gcd(den, x.denominator)
    ix, iy = int(sx * den), int(sy * den)
    g = gcd(ix, iy)
    return (ix // g, iy // g), Q(g, den)


@st.composite
def weighted_fans(draw):
    """Fans of rays in R^2 with polynomial coefficients, balanced or not.

    Constant weights are closed up by one more ray when asked; polynomial
    coefficients are a global polynomial restricted to the rays, plus an
    optional perturbation of one ray.
    """
    apex = draw(st.tuples(RATIONALS, RATIONALS))
    rays = draw(st.lists(st.tuples(st.sampled_from(DIRECTIONS), WEIGHTS),
                         min_size=1, max_size=4, unique_by=lambda t: t[0]))
    if draw(st.booleans()):
        closing = _closing_ray(apex, rays)
        if closing is not None and closing[0] not in [d for d, _ in rays]:
            rays.append(closing)
    g = SuperForm.from_poly(Poly(2, draw(terms(2, max_size=3))) + 1)
    if draw(st.booleans()):
        g = g.wedge(SuperForm.d_prime_x(2, draw(st.integers(0, 1))))
    out = []
    for d, w in rays:
        cell = ray_from(apex, d)
        out.append((cell, g.restrict(cell.chart), w))
    if draw(st.booleans()):
        cell, form, w = out[0]
        out[0] = (cell, form + SuperForm.from_poly(
            Poly(1, draw(terms(1, max_size=2)))), w)
    return DeltaForm(2, out)


@st.composite
def weighted_cones(draw):
    """Half-planes and quadrants in R^2 with polynomial forms."""
    cells = []
    for _ in range(draw(st.integers(1, 3))):
        a, b = draw(st.sampled_from(DIRECTIONS)), draw(st.sampled_from(DIRECTIONS))
        rows = [([-Q(x) for x in a], Q(0))]
        if b != a and draw(st.booleans()):
            rows.append(([-Q(x) for x in b], Q(0)))
        cells.append(polyhedron(2, rows))
    out = []
    for cell in cells:
        d = cell.dim  # 1 when the two rows face each other
        form = SuperForm.from_poly(Poly(d, draw(terms(d, max_size=3))))
        if draw(st.booleans()):
            form = form.wedge(SuperForm.d_second_x(d, draw(st.integers(0, d - 1))))
        out.append((cell, form, draw(WEIGHTS)))
    return DeltaForm(2, out)


@settings(max_examples=150, deadline=None)
@given(st.one_of(weighted_fans(), weighted_cones()))
def test_balancing_matches_the_oracle(T):
    R = T.canonicalize().refine()
    want = oracle.check_balanced_refined(R)
    assert _check_balanced_refined(R) == want
    assert T.is_balanced() == want


def test_balancing_sees_both_verdicts():
    line = DeltaForm(2, [(ray_from((0, 0), d), SuperForm.scalar(1, w), 1)
                         for d, w in [((1, 0), 1), ((0, 1), 1), ((-1, -1), 1)]])
    bent = DeltaForm(2, [(ray_from((0, 0), d), SuperForm.scalar(1, w), 1)
                         for d, w in [((1, 0), 1), ((0, 1), 1), ((-1, -1), 2)]])
    for T in (line, bent):
        R = T.canonicalize().refine()
        assert _check_balanced_refined(R) == oracle.check_balanced_refined(R)
    assert line.is_balanced() == (True, None)
    ok, cert = bent.is_balanced()
    assert not ok and cert["residue_vector"] == [1, 1]


# ---------------------------------------------------------- memo, copies --

def _bent_line():
    return DeltaForm(2, [(ray_from((0, 0), d), SuperForm.scalar(1, w), 1)
                         for d, w in [((1, 0), 1), ((0, 1), 1), ((-1, -1), 2)]])


def _dump(verdict):
    return json.dumps(verdict, sort_keys=True)


def test_verdict_is_computed_once_per_current():
    T = _bent_line()
    with mock.patch.object(DeltaForm, "refine", autospec=True,
                           side_effect=DeltaForm.refine) as spy:
        first = T.is_balanced()
        second = T.is_balanced()
        with pytest.raises(BalancingError):
            require_balanced(T)
    assert spy.call_count == 1
    assert _dump(first) == _dump(second)


def test_repeated_calls_give_identical_verdicts_and_certificates():
    T = _bent_line()
    a, b = T.is_balanced(), T.is_balanced()
    assert _dump(a) == _dump(b)
    errors = []
    for _ in range(2):
        with pytest.raises(BalancingError) as exc:
            require_balanced(T)
        errors.append(exc.value)
    assert _dump(errors[0].certificate) == _dump(errors[1].certificate)
    assert _dump(errors[0].certificate) == _dump(a[1])

    L = DeltaForm(2, [(ray_from((0, 0), d), SuperForm.scalar(1, 1), 1)
                      for d in [(1, 0), (0, 1), (-1, -1)]])
    assert L.is_balanced() == L.is_balanced() == (True, None)
    assert require_balanced(L) is require_balanced(L)


def test_mutating_a_certificate_does_not_change_the_next_call():
    T = _bent_line()
    ok, cert = T.is_balanced()
    expected = _dump((ok, cert))
    cert["residue_vector"].append(99)
    cert["face"]["base_point"][0] = "7/1"
    cert["residues"].clear()
    cert["extra"] = True
    assert _dump(T.is_balanced()) == expected
    with pytest.raises(BalancingError) as exc:
        require_balanced(T)
    exc.value.certificate["face"]["dim"] = 5
    with pytest.raises(BalancingError) as again:
        require_balanced(T)
    assert _dump((False, again.value.certificate)) == expected


# ------------------------------------------------------------- integration --

@st.composite
def integrands(draw):
    """(cell, eta, weight): a nonempty bounded cell in R^1 to R^4 and a
    polynomial (d,d)-form for its dimension d, with a rational weight.

    The cell is a box with lo < hi, cut by up to three more rows and by up
    to n rational equalities, all of them through one rational point of the
    box, so it is never empty; n equalities can leave a point.
    """
    n = draw(st.integers(1, 4))
    ineqs, pt = [], []
    for i in range(n):
        lo, hi = sorted(draw(st.lists(RATIONALS, min_size=2, max_size=2,
                                      unique=True)))
        unit = [int(i == j) for j in range(n)]
        ineqs += [(unit, hi), ([-x for x in unit], -lo)]
        pt.append(lo + (hi - lo) * draw(st.fractions(0, 1, max_denominator=4)))
    normals = st.lists(st.integers(-3, 3), min_size=n, max_size=n)
    slack = st.fractions(0, 3, max_denominator=4)
    ineqs += [(a, sum(x * y for x, y in zip(a, pt)) + draw(slack))
              for a in draw(st.lists(normals, max_size=3))]
    k = draw(st.integers(0, n))
    eqs = [(a, sum(x * y for x, y in zip(a, pt)))
           for a in draw(st.lists(normals, min_size=k, max_size=k))]
    cell = polyhedron(n, ineqs, eqs)
    d = cell.dim
    exps = st.lists(st.integers(0, 3), min_size=n, max_size=n).filter(
        lambda e: sum(e) <= 3).map(tuple)
    index = st.sampled_from(list(combinations(range(n), d)))
    eta = SuperForm(n, draw(st.dictionaries(
        st.tuples(index, index),
        st.dictionaries(exps, RATIONALS, min_size=1, max_size=4).map(
            lambda t: Poly(n, t)),
        min_size=1, max_size=3)))
    return cell, eta, draw(WEIGHTS)


@settings(max_examples=200, deadline=None)
@given(integrands())
# the triangle (0,0), (2,1), (1,3), on which a float oracle once differed
@example((polyhedron(2, [([1, -2], 0), ([2, 1], 5), ([-3, 1], 0)]),
          SuperForm(2, {((0, 1), (0, 1)): Poly(2, {(1, 0): Q(1, 3),
                                                   (0, 2): Q(2, 7)})}), Q(1)))
# a segment whose facet rows have gcd 2 on its lattice (0, 1) + Z(1, 2)
@example((segment([0, 1], [2, 5]),
          SuperForm(2, {((0,), (1,)): Poly(2, {(1, 1): 1, (0, 0): 3})}), Q(3, 2)))
# a box whose base point is not the origin
@example((polyhedron(3, [([1, 0, 0], 2), ([-1, 0, 0], -1), ([0, 1, 0], 3),
                         ([0, -1, 0], 1), ([0, 0, 1], Q(1, 2)),
                         ([0, 0, -1], Q(1, 3))]),
          SuperForm(3, {((0, 1, 2), (0, 1, 2)): Poly(3, {(2, 1, 0): 1})}), Q(1)))
def test_integrate_top_matches_the_triangulation_oracle(integrand):
    cell, eta, w = integrand
    wc = WeightedCell(cell, w)
    assert integrate_top(eta, wc) == oracle.integrate_top(eta, wc)
