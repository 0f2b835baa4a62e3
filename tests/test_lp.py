import random
from fractions import Fraction
from itertools import combinations

import eps_oracle
from eps_oracle import EPS, EpsRational, lp_extremum, lp_feasible, strict_interior

Q = Fraction


def check_farkas(rows, rhs, y):
    assert all(v >= 0 for v in y)
    n = len(rows[0])
    for j in range(n):
        assert sum(y[i] * rows[i][j] for i in range(len(rows))) == 0
    assert sum(y[i] * rhs[i] for i in range(len(rows))) < 0


def test_feasible_simple_box():
    res = lp_feasible([[Q(1)], [Q(-1)]], [Q(2), Q(1)])
    assert res.status == "feasible"
    x = res.witness[0]
    assert -1 <= x <= 2


def test_feasible_with_eps_bound():
    # 0 <= x <= eps has the witness x = 0
    res = lp_feasible([[1], [-1]], [EPS, 0])
    assert res.status == "feasible"
    assert res.witness[0] == 0


def test_infeasible_eps_system_with_certificate():
    # x = eps and x = 2*eps cannot both hold
    rows = [[1], [-1], [1], [-1]]
    rhs = [EPS, -EPS, 2 * EPS, -(2 * EPS)]
    res = lp_feasible(rows, rhs)
    assert res.status == "infeasible"
    check_farkas([[EpsRational.coerce(r[0])] for r in rows],
                 [EpsRational.coerce(v) for v in rhs], res.certificate)


def test_extremum_of_shift_parameter():
    # segment [0,1] meeting its translate by eps*1: feasible eps interval [0,1]
    # variables (x, eps_val); constraints 0<=x<=1, eps_val<=x<=1+eps_val, eps_val>=0
    rows = [
        [Q(-1), Q(0)],
        [Q(1), Q(0)],
        [Q(-1), Q(1)],
        [Q(1), Q(-1)],
        [Q(0), Q(-1)],
    ]
    rhs = [Q(0), Q(1), Q(0), Q(1), Q(0)]
    lo = lp_extremum([Q(0), Q(1)], rows, rhs, "min")
    hi = lp_extremum([Q(0), Q(1)], rows, rhs, "max")
    assert lo.status == "optimal" and lo.value == 0
    assert hi.status == "optimal" and hi.value == 1


def test_unbounded():
    res = lp_extremum([Q(1)], [[Q(-1)]], [Q(0)], "max")
    assert res.status == "unbounded"


def test_equality_constraints():
    # max x + y on the square with x = y
    res = lp_extremum(
        [Q(1), Q(1)],
        [[Q(1), Q(0)], [Q(-1), Q(0)], [Q(0), Q(1)], [Q(0), Q(-1)]],
        [Q(1), Q(0), Q(1), Q(0)],
        "max",
        eqs=[([Q(1), Q(-1)], Q(0))],
    )
    assert res.status == "optimal"
    assert res.value == 2
    assert res.witness[0] == res.witness[1] == 1


def brute_force_max(c, rows, rhs):
    """Max over vertices: solve every n x n subsystem, keep feasible points."""
    n = len(c)
    best = None
    for idx in combinations(range(len(rows)), n):
        sub = [rows[i] for i in idx]
        sub_rhs = [rhs[i] for i in idx]
        from linalg_oracle import det, solve_linear

        if det([list(map(Q, r)) for r in sub]) == 0:
            continue
        x = solve_linear([list(map(Q, r)) for r in sub], list(map(Q, sub_rhs)))
        if x is None:
            continue
        if all(sum(Q(rows[i][j]) * x[j] for j in range(n)) <= Q(rhs[i]) for i in range(len(rows))):
            val = sum(Q(c[j]) * x[j] for j in range(n))
            if best is None or val > best:
                best = val
    return best


def test_extremum_against_vertex_enumeration():
    rng = random.Random(20240812)
    for _ in range(25):
        n = 2
        rows = [[1, 0], [-1, 0], [0, 1], [0, -1]]
        rhs = [3, 3, 3, 3]
        for _ in range(rng.randint(1, 4)):
            a = [rng.randint(-3, 3) for _ in range(n)]
            if not any(a):
                continue
            rows.append(a)
            rhs.append(rng.randint(-2, 4))
        c = [rng.randint(-3, 3) for _ in range(n)]
        res = lp_extremum([Q(x) for x in c], [[Q(x) for x in r] for r in rows],
                          [Q(x) for x in rhs], "max")
        oracle = brute_force_max(c, rows, rhs)
        if oracle is None:
            assert res.status == "infeasible"
        else:
            assert res.status == "optimal"
            assert res.value == oracle


def test_infeasible_random_with_certificates():
    rng = random.Random(99)
    found = 0
    for _ in range(60):
        n = rng.randint(1, 3)
        rows = [[Q(rng.randint(-3, 3)) for _ in range(n)] for _ in range(rng.randint(2, 6))]
        rhs = [Q(rng.randint(-3, 1)) for _ in rows]
        res = lp_feasible(rows, rhs)
        if res.status == "infeasible":
            found += 1
            check_farkas(rows, rhs, res.certificate)
        else:
            x = res.witness
            for r, b in zip(rows, rhs):
                assert sum(a * v for a, v in zip(r, x)) <= b
    assert found > 0


def test_strict_interior():
    square = [[Q(1), Q(0)], [Q(-1), Q(0)], [Q(0), Q(1)], [Q(0), Q(-1)]]
    rhs = [Q(1), Q(0), Q(1), Q(0)]
    p = strict_interior(square, rhs)
    assert p is not None
    assert 0 < p[0] < 1 and 0 < p[1] < 1

    # on the diagonal of the square, still a relative interior point
    p = strict_interior(square, rhs, eqs=[([Q(1), Q(-1)], Q(0))])
    assert p is not None
    assert p[0] == p[1] and 0 < p[0] < 1

    # a single point has no strictly-slack inequality point
    point = [[Q(1)], [Q(-1)]]
    assert strict_interior(point, [Q(0), Q(0)]) is None


def test_determinism():
    rows = [[Q(1), Q(1)], [Q(-1), Q(0)], [Q(0), Q(-1)]]
    rhs = [Q(2), Q(0), Q(0)]
    a = lp_extremum([Q(1), Q(2)], rows, rhs, "max")
    b = lp_extremum([Q(1), Q(2)], rows, rhs, "max")
    assert a.value == b.value and a.witness == b.witness


def test_eps_objective():
    # max x subject to x <= 1 - eps
    res = eps_oracle.lp_extremum([EpsRational.coerce(1)], [[EpsRational.coerce(1)]], [1 - EPS], "max")
    assert res.status == "optimal"
    assert res.value == 1 - EPS


def test_eps_feasibility_matches_small_rational_substitution():
    # the Q(eps) verdict must agree with the rational verdict at eps = q for
    # any q strictly between 0 and the first breakpoint of the feasible-eps
    # set, and with the lifted predicate over Q: feasible at e = 0 and at
    # some e > 0.  A strict point over Q(eps) must likewise match a strict
    # point of the lifted system, whose row -e <= 0 makes e > 0 strict.
    rng = random.Random(2718)
    lifted_feasible = lifted_strict = 0
    for _ in range(40):
        n = rng.randint(1, 2)
        m = rng.randint(2, 5)
        rows = [[Q(rng.randint(-2, 2)) for _ in range(n)] for _ in range(m)]
        base = [Q(rng.randint(-2, 2)) for _ in range(m)]
        shift = [Q(rng.randint(-1, 1)) for _ in range(m)]
        rhs = [b + s * EPS for b, s in zip(base, shift)]
        eps_rows = [[EpsRational.coerce(x) for x in r] for r in rows]
        verdict = lp_feasible(eps_rows, rhs)

        # feasible-eps interval endpoints via an LP in (x, e) with e >= 0
        ext_rows = [r + [-s] for r, s in zip(rows, shift)]
        ext_rows.append([Q(0)] * n + [Q(-1)])
        ext_rhs = base + [Q(0)]
        obj = [Q(0)] * n + [Q(1)]
        lo = lp_extremum(obj, ext_rows, ext_rhs, "min")
        hi = lp_extremum(obj, ext_rows, ext_rhs, "max")
        if lo.status == "infeasible":
            bp = Q(1)
        elif lo.value > 0:
            bp = lo.value
        elif hi.status == "unbounded":
            bp = Q(1)
        elif hi.value > 0:
            bp = hi.value
        else:
            bp = Q(1)  # interval is exactly {0}
        q = bp / 2
        rat = lp_extremum([Q(0)] * n, rows,
                          [b + s * q for b, s in zip(base, shift)])
        assert (verdict.status == "feasible") == (rat.status != "infeasible")

        at_zero = lp_extremum([Q(0)] * n, rows, base).status != "infeasible"
        lifted = at_zero and (hi.status == "unbounded"
                              or (hi.status == "optimal" and hi.value > 0))
        assert (verdict.status == "feasible") == lifted
        strict = eps_oracle.strict_interior(eps_rows, rhs) is not None
        assert strict == (at_zero
                          and strict_interior(ext_rows, ext_rhs) is not None)
        lifted_feasible += lifted
        lifted_strict += strict
    assert lifted_feasible and lifted_strict
