import random
from fractions import Fraction as F

import pytest

from deltaforms.polyhedra import (Complex, WeightedCell, box, polyhedron,
                                  segment, single_point)
from deltaforms.superforms import (ContinuityError, PiecewiseForm, PLFunction,
                                   Poly, SuperForm, boundary_integral,
                                   integrate_poly_over_simplex, integrate_top,
                                   stokes_check)


def dP(n, i):
    return SuperForm.d_prime_x(n, i)


def dS(n, i):
    return SuperForm.d_second_x(n, i)


def var(n, i):
    return SuperForm.from_poly(Poly.variable(n, i))


def random_poly(rng, n, maxdeg=2):
    p = Poly(n, {})
    for _ in range(rng.randint(1, 4)):
        exps = [0] * n
        for _ in range(rng.randint(0, maxdeg)):
            exps[rng.randrange(n)] += 1
        c = F(rng.randint(-4, 4), rng.randint(1, 3))
        p = p + Poly(n, {tuple(exps): c})
    return p


def random_form(rng, n, p, q, maxdeg=2):
    from itertools import combinations
    eyes = list(combinations(range(n), p))
    jays = list(combinations(range(n), q))
    terms = {}
    for _ in range(rng.randint(1, 3)):
        key = (rng.choice(eyes), rng.choice(jays))
        poly = random_poly(rng, n, maxdeg)
        terms[key] = terms[key] + poly if key in terms else poly
    return SuperForm(n, terms)


def total_degree(form):
    return sum(form.bidegree())


# ------------------------------------------------------------------ algebra

def test_wedge_anticommutes_across_families():
    a = dP(2, 0)
    b = dS(2, 0)
    assert b.wedge(a) == -(a.wedge(b))


def test_wedge_squares_vanish():
    for g in (dP(2, 0), dP(2, 1), dS(2, 0), dS(2, 1)):
        assert g.wedge(g).is_zero()


def test_one_one_blocks_commute():
    b1 = dP(2, 0).wedge(dS(2, 0))
    b2 = dP(2, 1).wedge(dS(2, 1))
    assert b1.wedge(b2) == b2.wedge(b1)
    assert not b1.wedge(b2).is_zero()


def test_products_with_numbers_scale_and_with_forms_wedge():
    f = var(2, 0).wedge(dP(2, 1)) + dS(2, 0)
    g = dP(2, 0) + var(2, 1).wedge(dS(2, 1))
    assert f * 2 == 2 * f == f.scale(2)
    assert f * F(1, 3) == F(1, 3) * f == f.scale(F(1, 3))
    assert f * g == f.wedge(g) != g.wedge(f)


def test_dprime_of_square():
    x = Poly.variable(1, 0)
    form = SuperForm.from_poly(x * x)
    expect = SuperForm(1, {((0,), ()): 2 * x})
    assert form.dprime() == expect


def test_differentials_anticommute_and_square_to_zero():
    rng = random.Random(20240815)
    for n in (1, 2, 3):
        for _ in range(8):
            p = rng.randint(0, n)
            q = rng.randint(0, n)
            a = random_form(rng, n, p, q)
            assert a.dprime().dprime().is_zero()
            assert a.dsecond().dsecond().is_zero()
            assert a.dprime().dsecond() == -(a.dsecond().dprime())


def test_leibniz_rule_both_differentials():
    rng = random.Random(20240816)
    for n in (2, 3):
        for _ in range(10):
            a = random_form(rng, n, rng.randint(0, 1), rng.randint(0, 1))
            b = random_form(rng, n, rng.randint(0, 1), rng.randint(0, 1))
            sgn = (-1) ** total_degree(a) if not a.is_zero() else 1
            ab = a.wedge(b)
            lhs1 = ab.dprime()
            rhs1 = a.dprime().wedge(b) + a.wedge(b.dprime()).scale(sgn)
            assert lhs1 == rhs1
            lhs2 = ab.dsecond()
            rhs2 = a.dsecond().wedge(b) + a.wedge(b.dsecond()).scale(sgn)
            assert lhs2 == rhs2


def test_contract_basic_example():
    form = dP(2, 0).wedge(dS(2, 0))
    got = form.contract([1, 0], "second")
    assert got == -dP(2, 0)
    assert form.contract([1, 0], "prime") == dS(2, 0)


def test_contract_is_directional_derivative_on_functions():
    rng = random.Random(20240817)
    for _ in range(6):
        n = rng.choice([2, 3])
        f = random_poly(rng, n, 3)
        v = [F(rng.randint(-3, 3)) for _ in range(n)]
        want = Poly(n, {})
        for i in range(n):
            want = want + v[i] * f.partial(i)
        form = SuperForm.from_poly(f)
        assert form.dprime().contract(v, "prime") == SuperForm.from_poly(want)
        assert form.dsecond().contract(v, "second") == SuperForm.from_poly(want)


def test_contract_antiderivation():
    rng = random.Random(20240818)
    for n in (2, 3):
        for _ in range(8):
            a = random_form(rng, n, rng.randint(0, 2), rng.randint(0, 1))
            b = random_form(rng, n, rng.randint(0, 1), rng.randint(0, 2))
            v = [F(rng.randint(-2, 2)) for _ in range(n)]
            sgn = (-1) ** total_degree(a) if not a.is_zero() else 1
            for slot in ("prime", "second"):
                lhs = a.wedge(b).contract(v, slot)
                rhs = (a.contract(v, slot).wedge(b)
                       + a.wedge(b.contract(v, slot)).scale(sgn))
                assert lhs == rhs


# ----------------------------------------------------------------- pullbacks

def test_pullback_scaling_map():
    form = dP(1, 0).wedge(dS(1, 0))
    got = form.pullback_affine([[2]], [0])
    assert got == dP(1, 0).wedge(dS(1, 0)).scale(4)


def test_pullback_identity():
    rng = random.Random(20240819)
    eye = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    for _ in range(4):
        a = random_form(rng, 3, rng.randint(0, 2), rng.randint(0, 2))
        assert a.pullback_affine(eye, [0, 0, 0]) == a


def test_pullback_projection():
    # x -> u0 along the projection (u0, u1) -> u0
    form = SuperForm.from_poly(Poly.variable(1, 0)).wedge(dP(1, 0))
    got = form.pullback_affine([[1, 0]], [0])
    want = SuperForm.from_poly(Poly.variable(2, 0)).wedge(dP(2, 0))
    assert got == want


def test_pullback_commutes_with_wedge_and_differentials():
    rng = random.Random(20240820)
    for _ in range(6):
        lin = [[F(rng.randint(-2, 2)) for _ in range(2)] for _ in range(3)]
        shift = [F(rng.randint(-2, 2)) for _ in range(3)]
        a = random_form(rng, 3, rng.randint(0, 1), rng.randint(0, 1), maxdeg=1)
        b = random_form(rng, 3, rng.randint(0, 1), rng.randint(0, 1), maxdeg=1)
        fa = a.pullback_affine(lin, shift)
        fb = b.pullback_affine(lin, shift)
        assert a.wedge(b).pullback_affine(lin, shift) == fa.wedge(fb)
        assert a.dprime().pullback_affine(lin, shift) == fa.dprime()
        assert a.dsecond().pullback_affine(lin, shift) == fa.dsecond()


def test_restrict_kills_normal_directions():
    axis = polyhedron(2, eqs=[([0, 1], 0)])
    assert dS(2, 1).restrict(axis.chart).is_zero()
    assert dP(2, 1).restrict(axis.chart).is_zero()


def test_restrict_to_diagonal():
    diag = polyhedron(2, eqs=[([1, -1], 0)])
    ch = diag.chart
    s = SuperForm.from_poly(Poly.affine([1, 1], 0))
    assert s.restrict(ch) == SuperForm.from_poly(Poly.affine([2], 0))
    got = dP(2, 0).wedge(dS(2, 1)).restrict(ch)
    assert got == dP(1, 0).wedge(dS(1, 0))


# --------------------------------------------------------------- integration

def test_simplex_monomial_integral():
    p = Poly(2, {(1, 1): F(1)})
    verts = [[F(0), F(0)], [F(1), F(0)], [F(0), F(1)]]
    assert integrate_poly_over_simplex(p, verts) == F(1, 24)


def test_integrate_unit_square_volume_form():
    sq = box([0, 0], [1, 1])
    vol = dP(2, 0).wedge(dS(2, 0)).wedge(dP(2, 1)).wedge(dS(2, 1))
    assert integrate_top(vol, WeightedCell(sq, 1)) == 1
    assert integrate_top(vol, WeightedCell(sq, 2)) == 2


def test_integrate_rectangle_with_coefficient():
    r = box([0, 0], [2, 1])
    form = (SuperForm.from_poly(Poly.variable(2, 0))
            .wedge(dP(2, 0)).wedge(dS(2, 0)).wedge(dP(2, 1)).wedge(dS(2, 1)))
    # integral of x over [0,2]x[0,1]
    assert integrate_top(form, WeightedCell(r, 1)) == 2


def test_integrate_lattice_length_of_diagonal_segment():
    seg = segment([0, 0], [2, 2])
    form = dP(2, 0).wedge(dS(2, 0)) + dP(2, 1).wedge(dS(2, 1))
    # the chart runs along the primitive direction (1,1): length 2 in
    # lattice units even though the euclidean length is 2*sqrt(2)
    assert integrate_top(form.component(1, 1), WeightedCell(seg, 1)) == 4


def test_integrate_point_evaluates():
    pt = single_point([3, 5])
    f = SuperForm.from_poly(Poly(2, {(1, 1): F(1)}))
    assert integrate_top(f, WeightedCell(pt, F(1, 2))) == F(15, 2)


def test_integrate_rejects_unbounded_and_mismatched():
    ray = polyhedron(1, ineqs=[([-1], 0)])
    vol = dP(1, 0).wedge(dS(1, 0))
    with pytest.raises(ValueError):
        integrate_top(vol, WeightedCell(ray, 1))
    sq = box([0, 0], [1, 1])
    with pytest.raises(ValueError):
        integrate_top(dP(2, 0).wedge(dS(2, 0)), WeightedCell(sq, 1))


def test_transformation_rule_under_affine_maps():
    rng = random.Random(20240821)
    for _ in range(5):
        while True:
            lin = [[rng.randint(-2, 2) for _ in range(2)] for _ in range(2)]
            d = lin[0][0] * lin[1][1] - lin[0][1] * lin[1][0]
            if d != 0:
                break
        shift = [rng.randint(-2, 2) for _ in range(2)]
        p = box([0, 0], [1, 1])
        # image f(P) as a preimage under the inverse map
        inv_den = F(d)
        inv = [[F(lin[1][1]) / inv_den, F(-lin[0][1]) / inv_den],
               [F(-lin[1][0]) / inv_den, F(lin[0][0]) / inv_den]]
        inv_shift = [-(inv[i][0] * shift[0] + inv[i][1] * shift[1]) for i in range(2)]
        from deltaforms.polyhedra import affine_preimage
        fp = affine_preimage(p, [[inv[i][j] for j in range(2)] for i in range(2)],
                             inv_shift, 2)
        eta = (random_form(rng, 2, 0, 0, maxdeg=2)
               .wedge(dP(2, 0)).wedge(dS(2, 0)).wedge(dP(2, 1)).wedge(dS(2, 1)))
        pulled = eta.pullback_affine(lin, shift)
        lhs = integrate_top(pulled, WeightedCell(p, 1))
        rhs = integrate_top(eta, WeightedCell(fp, 1))
        assert lhs == abs(F(d)) * rhs


# -------------------------------------------------------------------- stokes

def test_interval_boundary_first_kind():
    seg = polyhedron(1, ineqs=[([-1], 0), ([1], 1)])
    x = Poly.variable(1, 0)
    alpha = SuperForm.from_poly(x * x).wedge(dS(1, 0))
    assert boundary_integral(alpha, WeightedCell(seg, 1), "first") == 1
    lhs, rhs, ok = stokes_check(alpha, WeightedCell(seg, 1), "first")
    assert ok and lhs == 1


def test_interval_boundary_second_kind():
    seg = polyhedron(1, ineqs=[([-1], 0), ([1], 1)])
    x = Poly.variable(1, 0)
    alpha = SuperForm.from_poly(x * x).wedge(dP(1, 0))
    lhs, rhs, ok = stokes_check(alpha, WeightedCell(seg, 1), "second")
    assert ok and lhs == -1 and rhs == -1


def test_square_stokes_pinned_value():
    sq = box([0, 0], [1, 1])
    alpha = (SuperForm.from_poly(Poly(2, {(1, 1): F(1)}))
             .wedge(dP(2, 0)).wedge(dS(2, 0)).wedge(dS(2, 1)))
    lhs, rhs, ok = stokes_check(alpha, WeightedCell(sq, 1), "first")
    assert ok and lhs == F(1, 2) and rhs == F(1, 2)


@pytest.mark.parametrize("check", [boundary_integral, stokes_check])
def test_which_is_checked_before_the_bidegree(check):
    # a (1, 2) form on the unit square fits neither kind of boundary
    alpha = dP(2, 0).wedge(dS(2, 0)).wedge(dS(2, 1))
    with pytest.raises(ValueError, match="which must be 'first' or 'second'"):
        check(alpha, WeightedCell(box([0, 0], [1, 1]), 1), "bogus")


def _stokes_cells():
    cells = [
        polyhedron(1, ineqs=[([-1], 0), ([1], 1)]),
        polyhedron(1, ineqs=[([-1], 1), ([1], 2)]),
        segment([0, 0], [2, 2]),
        segment([1, 0], [3, 1]),
        box([0, 0], [1, 1]),
        box([0, 0], [2, 1]),
        polyhedron(2, ineqs=[([-1, 0], 0), ([0, -1], 0), ([1, 1], 2)]),
        polyhedron(2, ineqs=[([-1, 0], 0), ([0, -1], 0), ([1, 0], 2),
                             ([0, 1], 2), ([1, 1], 3)]),
        polyhedron(3, eqs=[([1, 1, -1], 0)],
                   ineqs=[([-1, 0, 0], 0), ([0, -1, 0], 0), ([1, 1, 0], 1)]),
        box([0, 0, 0], [1, 1, 1]),
        polyhedron(3, ineqs=[([-1, 0, 0], 0), ([0, -1, 0], 0),
                             ([0, 0, -1], 0), ([1, 1, 1], 1)]),
    ]
    return [c for c in cells if c is not None]


def test_stokes_randomized_corpus():
    rng = random.Random(20240822)
    cells = _stokes_cells()
    ran = 0
    for cell in cells:
        m = cell.dim
        n = cell.n
        for _ in range(3):
            w = F(rng.randint(1, 5), rng.randint(1, 3))
            a1 = random_form(rng, n, m - 1, m, maxdeg=2)
            lhs, rhs, ok = stokes_check(a1, WeightedCell(cell, w), "first")
            assert ok, (cell, a1, lhs, rhs)
            a2 = random_form(rng, n, m, m - 1, maxdeg=2)
            lhs, rhs, ok = stokes_check(a2, WeightedCell(cell, w), "second")
            assert ok, (cell, a2, lhs, rhs)
            ran += 2
    assert ran >= 50


# ------------------------------------------------------------ piecewise data

def test_pl_function_accepts_continuous():
    left = polyhedron(1, ineqs=[([1], 0)])
    right = polyhedron(1, ineqs=[([-1], 0)])
    cx = Complex([left, right])
    f = PLFunction(cx, {left: ([-1], 0), right: ([1], 0)})
    assert f.value([-3]) == 3
    assert f.value([2]) == 2
    assert f.gradient(right) == [F(1)]


def test_pl_function_rejects_jump():
    left = polyhedron(1, ineqs=[([1], 0)])
    right = polyhedron(1, ineqs=[([-1], 0)])
    cx = Complex([left, right])
    with pytest.raises(ContinuityError):
        PLFunction(cx, {left: ([-1], 0), right: ([1], 1)})


def test_pl_function_two_dim_max():
    lower = polyhedron(2, ineqs=[([-1, 1], 0)])
    upper = polyhedron(2, ineqs=[([1, -1], 0)])
    cx = Complex([lower, upper])
    f = PLFunction(cx, {lower: ([1, 0], 0), upper: ([0, 1], 0)})
    assert f.value([3, 1]) == 3
    assert f.value([1, 3]) == 3
    assert f.value([2, 2]) == 2


def test_piecewise_form_compatibility():
    a = box([0, 0], [1, 1])
    b = box([1, 0], [2, 1])
    cx = Complex([a, b])
    x2 = Poly.variable(2, 1)
    good = PiecewiseForm(cx, {
        a: SuperForm.from_poly(Poly.variable(2, 0) * x2).wedge(dP(2, 1)),
        b: SuperForm.from_poly(x2).wedge(dP(2, 1)),
    })
    assert good.bidegree == (1, 0)
    with pytest.raises(ContinuityError):
        PiecewiseForm(cx, {
            a: SuperForm.from_poly(x2).wedge(dP(2, 1)),
            b: SuperForm.from_poly(2 * x2).wedge(dP(2, 1)),
        })


def test_poly_compose_affine_roundtrip():
    rng = random.Random(20240823)
    for _ in range(5):
        p = random_poly(rng, 2, 3)
        # substitute x = u + 1, y = 2u - v and check at sample points
        comp = p.compose_affine([[1, 0], [2, -1]], [1, 0], 2)
        for _ in range(4):
            u = F(rng.randint(-3, 3)); v = F(rng.randint(-3, 3))
            assert comp.eval([u, v]) == p.eval([u + 1, 2 * u - v])
