"""Double-description canonicalization against the LP oracle, and invariances.

The canonical form of a polyhedron (affine hull in integer RREF plus its
sorted primitive facet rows) depends only on the set, so the LP-free
canonicalizer must reproduce the LP canonicalizer row for row, and
polyhedron() must hand back the same interned object for every description
of the same set.  What is read off the cached cone generators (implicit rows,
relative-interior points, vertices, boundedness) is checked against the LP
oracle and against the face lattice, and the faces read off incidences
against the per-row walk they replaced (polyhedra_oracle).  Charts, base
points and lattice normals are computed in integers; each is checked on
every face against a rational route kept here as an oracle.
"""

import random
from fractions import Fraction as Q

from hypothesis import example, given, settings
from hypothesis import strategies as st

from eps_oracle import (_eqs_rational, _ineqs_rational, lp_extremum,
                        lp_feasible, strict_interior)
import facet_oracle
from facet_oracle import _reduce_mod_rows, _xgcd_vector
from linalg_oracle import integer_kernel, invert, solve_linear
from lp_canonicalize import lp_canonicalize
import polyhedra_oracle
from deltaforms.currents import hyperplane_pool, normalize_hyperplane, slice_cell
from deltaforms.io import dumps_canonical, polyhedron_json, q_json, vector_json
from deltaforms.linalg import (Lattice, clear_denominators, complement_lattice,
                               hnf, vec_dot)
from deltaforms import polyhedra
from deltaforms.polyhedra import (_canonicalize, _cone_generators,
                                  _homogenized_cone, affine_preimage, box,
                                  implicit_rows, polyhedron, primitive_normal,
                                  recession_cone, translate)
from deltaforms.scalars import qof

COEF = st.integers(-3, 3)


@st.composite
def systems(draw):
    """(n, ineqs, eqs) with n <= 4, at most 8 inequalities, entries -3..3.

    Columns in `dead` are zero in every row, which gives lineality; a
    mirrored row gives an implicit equality; the entries make empty sets
    common.
    """
    n = draw(st.integers(1, 4))
    dead = draw(st.sets(st.integers(0, n - 1), max_size=n - 1))
    row = st.tuples(
        st.lists(COEF, min_size=n, max_size=n).map(
            lambda a: [Q(0) if j in dead else Q(x) for j, x in enumerate(a)]),
        COEF.map(Q))
    ineqs = draw(st.lists(row, max_size=7))
    if ineqs and draw(st.booleans()):
        a, b = draw(st.sampled_from(ineqs))
        ineqs.append(([-x for x in a], -b))
    eqs = draw(st.lists(row, max_size=2))
    return n, ineqs, eqs


def _rows(*rows):
    return [([Q(x) for x in r[:-1]], Q(r[-1])) for r in rows]


def canonicalized(n, ineqs, eqs):
    """_canonicalize of rational (a, b) pairs, cleared as polyhedron() clears them."""
    return _canonicalize(n, [clear_denominators(list(a) + [b]) for a, b in ineqs],
                         [clear_denominators(list(e) + [f]) for e, f in eqs])


def canonical_rows(n, ineqs, eqs):
    """(eq_rows, ineq_rows) without the seeded generators, or None if empty."""
    canon = canonicalized(n, ineqs, eqs)
    return None if canon is None else canon[:2]


@settings(max_examples=300, deadline=None)
@given(systems())
@example((2, _rows((1, 0, 0), (-1, 0, -1)), []))              # empty
@example((2, _rows((1, 1, 2), (-1, -1, -2), (0, 1, 5)), []))  # implicit eq
@example((3, _rows((1, 0, 0, 1), (-1, 0, 0, 1)), []))         # lineality 2
@example((2, _rows((1, 0, 1)), _rows((1, 0, 2))))              # eq cuts empty
@example((2, [], _rows((1, 1, 1), (2, 2, 3))))                 # eqs clash
def test_agrees_with_the_lp_oracle(system):
    n, ineqs, eqs = system
    assert canonical_rows(n, ineqs, eqs) == lp_canonicalize(n, ineqs, eqs)


def test_agrees_with_the_lp_oracle_on_a_seeded_corpus():
    rng = random.Random(2107)
    kinds = {"empty": 0, "implicit": 0, "lineality": 0}
    for _ in range(400):
        n = rng.randint(1, 4)
        ineqs = [([Q(rng.randint(-3, 3)) for _ in range(n)], Q(rng.randint(-1, 3)))
                 for _ in range(rng.randint(0, 7))]
        if ineqs and rng.random() < 0.3:
            a, b = rng.choice(ineqs)
            ineqs.append(([-x for x in a], -b))
        eqs = [([Q(rng.randint(-3, 3)) for _ in range(n)], Q(rng.randint(-3, 3)))
               for _ in range(rng.choice((0, 0, 1, 2)))]
        got = canonical_rows(n, ineqs, eqs)
        assert got == lp_canonicalize(n, ineqs, eqs)
        if got is None:
            kinds["empty"] += 1
            continue
        p = polyhedron(n, ineqs, eqs)
        kinds["implicit"] += len(p.eq_rows) > len(eqs)
        kinds["lineality"] += p.lineality.rank > 0
    assert all(kinds.values()), kinds


@settings(max_examples=200, deadline=None)
@given(systems(), st.randoms(use_true_random=False),
       st.lists(st.integers(1, 5), min_size=16, max_size=16))
def test_same_set_same_object(system, rnd, factors):
    """Permuted, positively scaled and padded descriptions intern alike."""
    n, ineqs, eqs = system
    p = polyhedron(n, ineqs, eqs)
    rows = [([k * x for x in a], k * b) for (a, b), k in zip(ineqs, factors)]
    rnd.shuffle(rows)
    if ineqs:
        (a1, b1), (a2, b2) = rnd.choice(ineqs), rnd.choice(ineqs)
        rows.append(([x + y for x, y in zip(a1, a2)], b1 + b2))  # a sum
        rows.append((a1, b1 + factors[-1]))                      # loosened
        rnd.shuffle(rows)
    mixed = [([-k * x for x in e], -k * f) for (e, f), k
             in zip(eqs, factors[8:])]
    assert polyhedron(n, rows, mixed[::-1]) is p


@settings(max_examples=200, deadline=None)
@given(systems(), st.randoms(use_true_random=False),
       st.lists(st.integers(1, 5), min_size=10, max_size=10))
@example((2, _rows((1, 0, 0), (-1, 0, -1)), []), random.Random(0), [2] * 10)
def test_the_memo_returns_the_memo_free_canonical_form(system, rnd, factors):
    """polyhedron() of a repeated, row-permuted or positively scaled system
    is _canonicalize's answer (None when empty), and the same rows again
    return the identical object."""
    n, ineqs, eqs = system
    permuted = ineqs[:]
    rnd.shuffle(permuted)
    scaled = [([k * x for x in a], k * b) for (a, b), k in zip(ineqs, factors)]
    scaled_eqs = [([k * x for x in e], k * f) for (e, f), k in zip(eqs, factors[8:])]
    for rows, es in [(ineqs, eqs), (ineqs, eqs), (permuted, eqs[::-1]),
                     (scaled, scaled_eqs), (ineqs + permuted, eqs + eqs)]:
        want = canonical_rows(n, rows, es)
        got = polyhedron(n, rows, es)
        assert polyhedron(n, rows, es) is got
        assert (None if got is None else (got.eq_rows, got.ineq_rows)) == want


def test_a_repeated_input_runs_no_double_description(monkeypatch):
    """A memo hit, empty sets included, does no exact work."""
    from deltaforms import polyhedra
    runs = []
    original = polyhedra._homogenized_cone
    monkeypatch.setattr(polyhedra, "_homogenized_cone",
                        lambda *args: runs.append(args) or original(*args))
    square = _rows((1, 0, 7), (-1, 0, 0), (0, 1, 7), (0, -1, 0))
    rows, rhs = [a for a, _ in square], [b for _, b in square]
    for ask in (lambda: polyhedron(2, square),
                lambda: polyhedron(2, _rows((1, 0, 0), (-1, 0, -7)))):
        first = ask()
        del runs[:]
        again = ask()
        assert again == first and runs == []
    assert polyhedron(2, square) is not None and implicit_rows(2, rows, rhs, []) == []


@settings(max_examples=200, deadline=None)
@given(systems(), st.lists(COEF, min_size=4, max_size=4), COEF)
def test_crosses_matches_slicing_both_sides(system, a, b):
    """p.crosses(a, b) iff both closed sides of a.x = b are proper and full."""
    n, ineqs, eqs = system
    p = polyhedron(n, ineqs, eqs)
    if p is None:
        return
    a = [Q(x) for x in a[:n]]
    base = [([Q(x) for x in r[:-1]], Q(r[-1])) for r in p.ineq_rows]
    peqs = [([Q(x) for x in r[:-1]], Q(r[-1])) for r in p.eq_rows]
    lo = polyhedron(n, base + [(a, Q(b))], peqs)
    hi = polyhedron(n, base + [([-x for x in a], -Q(b))], peqs)
    sliced = (lo is not None and lo.dim == p.dim and lo != p
              and hi is not None and hi.dim == p.dim and hi != p)
    assert p.crosses(a, b) == sliced


@settings(max_examples=300, deadline=None)
@given(systems())
@example((2, _rows((1, 0, 1), (0, 1, 1), (-1, -1, 0)), []))       # triangle
@example((3, _rows((1, 0, 0, 1), (-1, 0, 0, 0)), _rows((0, 2, -1, 1))))
def test_seeded_generators_match_recomputed(system):
    """A pointed polyhedron keeps the generators its canonicalization found.

    They must be the ones Polyhedron.generators() computes from the
    canonical rows, as sets: without lines the primitive extreme rays are
    unique.  Cones with lines are not seeded.
    """
    n, ineqs, eqs = system
    p = polyhedron(n, ineqs, eqs)
    if p is None:
        return
    seeded = canonicalized(n, ineqs, eqs)[2]
    if p.lineality.rank > 0:
        # with lines the rays are not unique, so they are kept only when the
        # input rows are the canonical ones, whose cone generators() reruns
        cleared = tuple(tuple(clear_denominators(list(a) + [b])) for a, b in ineqs)
        assert (seeded is None) == (cleared != p.ineq_rows)
        return
    kept = p.generators()
    p._generators = None
    rays, lines = p.generators()
    assert lines == () and seeded[1] == () and kept[1] == ()
    assert len(set(seeded[0])) == len(seeded[0])
    assert set(seeded[0]) == set(rays) == set(kept[0])


@settings(max_examples=200, deadline=None)
@given(systems())
@example((2, _rows((0, -1, 0), (0, 1, 1)), []))                   # half strip
def test_canonical_rows_keep_the_generators_of_their_cone(system):
    """Canonical input rows keep the rays and lines generators() would find."""
    p = polyhedron(*system)
    if p is None:
        return
    kept = _canonicalize(p.n, p.ineq_rows, p.eq_rows)[2]
    assert kept == _cone_generators(
        p.n, _homogenized_cone(p.n, p.ineq_rows, p.eq_rows))


@settings(max_examples=200, deadline=None)
@given(systems())
@example((3, _rows((1, 0, 0, 1), (-1, 0, 0, 0), (0, 1, 0, 1), (0, -1, 0, 0),
                   (0, 0, 1, 1), (0, 0, -1, 0)), []))              # cube
@example((3, _rows((1, 0, 0, 1), (-1, 0, 0, 0), (0, 1, 0, 1)), []))  # with lines
@example((3, _rows((1, 1, 1, 1), (-1, 0, 0, 0), (0, -1, 0, 0),
                   (0, 0, -1, 0)), _rows((1, -1, 0, 0))))         # cut simplex
@example((3, _rows((-2, 0, 1, 0), (0, -2, 1, 0), (2, 0, 1, 2), (0, 2, 1, 2),
                   (0, 0, -1, 0)), []))                           # square pyramid
@example((2, _rows((-1, 0, 0), (0, -1, 0), (0, 1, 1)), []))        # half strip
def test_faces_from_incidences_equal_the_per_row_walk(system):
    """Faces read off incidences are the faces of a polyhedron() per row.

    The intern table is emptied first, so every face below the cell is made
    by facets() with the generators it seeded.  Each seeded set must be what
    a fresh double description on the face's rows finds, and every pointed
    face must have one.
    """
    polyhedra._CACHE.clear()
    p = polyhedron(*system)
    if p is None:
        return
    faces = p.faces()
    for f in faces:
        gens = f._generators
        if gens is None:
            assert f.lineality.rank > 0
            continue
        rays, lines = _cone_generators(
            f.n, _homogenized_cone(f.n, f.ineq_rows, f.eq_rows))
        assert set(gens[0]) == set(rays) and set(gens[1]) == set(lines)
    assert [f.key for f in faces] == [f.key for f in polyhedra_oracle.faces(p)]
    for f in faces:
        assert ([g.key for g in f.facets()]
                == [g.key for g in polyhedra_oracle.facets(f)])


def test_faces_of_a_pointed_cell_run_no_double_description(monkeypatch):
    """The 3^n faces of the n-cube come from incidences and seeded generators."""
    runs = []
    original = polyhedra._homogenized_cone
    monkeypatch.setattr(polyhedra, "_homogenized_cone",
                        lambda *args: runs.append(args) or original(*args))
    monkeypatch.setattr(polyhedra, "_CACHE", {})
    for n in range(2, 7):
        cube = box([0] * n, [1] * n)
        del runs[:]
        assert len(cube.faces()) == 3 ** n
        assert runs == []


def test_generators_of_a_half_strip():
    # 0 <= y <= 1 in R^2: lineality along x, vertices (0, 0) and (0, 1)
    p = polyhedron(2, _rows((0, 1, 1), (0, -1, 0)))
    rays, lines = p.generators()
    assert [[abs(x) for x in ln] for ln in lines] == [[1, 0, 0]]
    assert sorted(r[1:] for r in rays) == [(0, 1), (1, 1)]


@settings(max_examples=300, deadline=None)
@given(systems())
@example((2, _rows((1, 0, 0), (-1, 0, -1)), []))              # empty
@example((2, _rows((1, 1, 2), (-1, -1, -2), (0, 1, 5)), []))  # implicit eq
@example((2, _rows((1, 0, 0), (0, 1, 1)), _rows((1, 0, 0))))  # 0 <= 0 row
@example((2, _rows((0, -1, 0), (1, -1, 0), (-1, 0, 0)), []))  # only y = 0
def test_implicit_rows_agree_with_the_lp_oracle(system):
    """Emptiness, strictness and each row's tightness match the simplex."""
    n, ineqs, eqs = system
    rows = [a for a, _ in ineqs]
    rhs = [b for _, b in ineqs]
    got = implicit_rows(n, rows, rhs, eqs)
    assert (got is None) == (lp_feasible(rows, rhs, eqs).status == "infeasible")
    if got is None:
        return
    assert (got == []) == (strict_interior(rows, rhs, eqs) is not None)
    for i, (a, b) in enumerate(ineqs):
        lo = lp_extremum(a, rows, rhs, "min", eqs=eqs)
        assert (i in got) == (lo.status == "optimal" and lo.value == b)


@settings(max_examples=300, deadline=None)
@given(systems())
def test_relint_point_is_strictly_inside(system):
    p = polyhedron(*system)
    if p is None:
        return
    x = p.relint_point()
    assert all(vec_dot(r[:-1], x) == r[-1] for r in p.eq_rows)
    assert all(vec_dot(r[:-1], x) < r[-1] for r in p.ineq_rows)


@settings(max_examples=200, deadline=None)
@given(systems())
def test_vertices_are_the_zero_dimensional_faces(system):
    p = polyhedron(*system)
    if p is None:
        return
    walked = {f.base_point for f in p.faces() if f.dim == 0}
    assert {tuple(v) for v in p.vertices()} == walked
    if p.lineality.rank == 0:
        assert p.base_point == min(walked)


@settings(max_examples=300, deadline=None)
@given(systems())
def test_is_bounded_matches_the_recession_cone(system):
    p = polyhedron(*system)
    if p is None:
        return
    assert p.is_bounded() == (recession_cone(p).dim == 0)


# ------------------------------------------- charts, base points and normals --
# The rational routes below are the ones the integer code replaced, kept as
# oracles.  Each reads only the canonical rows, and the recursion and lattice
# coordinates go through the oracles too, so no integer helper is shared.

def _pairs(rows):
    return [(r[:-1], r[-1]) for r in rows]


def base_point_oracle(p):
    """Polyhedron.base_point by rational solve and rational inverse."""
    if p.dim == 0:
        sol = solve_linear([[Q(x) for x in r[:-1]] for r in p.eq_rows],
                           [Q(r[-1]) for r in p.eq_rows])
        return tuple(sol)
    lin = p.lineality
    if lin.rank > 0:
        comp = complement_lattice(lin)
        n = p.n
        m = [[Q(comp.rows[k][i]) if k < comp.rank else Q(lin.rows[k - comp.rank][i])
              for k in range(n)] for i in range(n)]
        minv = invert(m)
        cut = polyhedron(
            n, _pairs(p.ineq_rows),
            eqs=_pairs(p.eq_rows)
            + [(minv[k], Q(0)) for k in range(comp.rank, n)])
        return tuple(base_point_oracle(cut))
    return min(tuple(v) for v in p.vertices())


def coords_oracle(lat, v):
    """Lattice.coords by solving basis^T c = v over Q."""
    if not lat.rows:
        return [] if all(Q(x) == 0 for x in v) else None
    at = [[Q(lat.rows[i][j]) for i in range(len(lat.rows))] for j in range(lat.n)]
    return solve_linear(at, [Q(x) for x in v])


def primitive_normal_oracle(sigma, tau):
    """primitive_normal with rational coordinates and rational pairings."""
    if tau.dim != sigma.dim - 1:
        raise ValueError("tau must be a facet of sigma")
    bs = sigma.span.basis()
    d = len(bs)
    coords = []
    for t in tau.span.basis():
        c = coords_oracle(sigma.span, t)
        if c is None or any(x.denominator != 1 for x in c):
            raise ValueError("tau is not a subcell of sigma")
        coords.append([int(x) for x in c])
    if coords:
        fker = integer_kernel(coords, d)
        if len(fker) != 1:
            raise ValueError("tau is not a facet of sigma")
        f = fker[0]
    else:
        if d != 1:
            raise ValueError("tau is not a facet of sigma")
        f = [1]
    u, g = _xgcd_vector(f)
    if g != 1:
        raise AssertionError("kernel functional is not primitive")
    h = hnf(coords) if coords else []
    u = _reduce_mod_rows(u, h)

    arow = None
    tau_base = base_point_oracle(tau)
    tau_basis = tau.span.basis()
    for r in sigma.ineq_rows:
        a = [Q(x) for x in r[:-1]]
        if vec_dot(a, tau_base) != r[-1]:
            continue
        if all(vec_dot(a, t) == 0 for t in tau_basis):
            arow = a
            break
    if arow is None:
        raise ValueError("tau is not a facet of sigma")
    w = [sum(u[k] * bs[k][i] for k in range(d)) for i in range(sigma.n)]
    pairing = vec_dot(arow, [Q(x) for x in w])
    if pairing == 0:
        raise AssertionError("normal candidate lies in the facet span")
    if pairing > 0:
        u = _reduce_mod_rows([-x for x in u], h)
        w = [sum(u[k] * bs[k][i] for k in range(d)) for i in range(sigma.n)]
        if vec_dot(arow, [Q(x) for x in w]) >= 0:
            raise AssertionError("normal direction flip failed")
    return w


def _fresh_faces(system):
    """Faces of the system's polyhedron with base points and charts uncached."""
    p = polyhedron(*system)
    if p is None:
        return []
    faces = p.faces()
    for f in faces:
        f._base = f._chart = None
    return faces


@settings(max_examples=200, deadline=None)
@given(systems())
@example((2, _rows((1, 0, 1), (0, 1, 1), (-1, -1, 0)), []))       # triangle
@example((3, _rows((1, 0, 0, 1), (-1, 0, 0, 1)), []))              # slab
@example((2, [], _rows((2, 0, 1), (0, 3, 1))))                     # point (1/2, 1/3)
@example((3, _rows((1, 2, 0, 4), (-2, 1, 0, 1)), _rows((0, 1, 3, 1))))
def test_charts_are_the_rational_inverse_in_integers(system):
    for f in _fresh_faces(system):
        ch = f.chart
        cols = ch.basis + ch.comp
        m = [[Q(col[i]) for col in cols] for i in range(f.n)]
        assert list(ch.u_rows + ch.w_rows) == [tuple(r) for r in invert(m)]
        assert all(type(x) is int for r in ch.u_rows + ch.w_rows for x in r)
        assert f.contains(ch.base) and ch.to_local(ch.base) == [0] * f.dim


@settings(max_examples=200, deadline=None)
@given(systems())
@example((2, [], _rows((2, 0, 1), (0, 3, 1))))                     # point (1/2, 1/3)
@example((3, _rows((1, 0, 0, 1), (-1, 0, 0, 1)), []))              # lineality 2
@example((3, _rows((1, 2, 0, 4), (-2, 1, 0, 1)), _rows((0, 1, 3, 1))))
def test_base_points_match_the_rational_route(system):
    for f in _fresh_faces(system):
        assert f.base_point == base_point_oracle(f)
        assert all(type(x) is Q for x in f.base_point)


@settings(max_examples=200, deadline=None)
@given(systems())
@example((2, _rows((1, 0, 1), (0, 1, 1), (-1, -1, 0)), []))       # triangle
@example((3, _rows((1, 0, 0, 1), (-1, 0, 0, 1)), []))              # slab
@example((2, _rows((2, 3, 6), (-1, 0, 0), (0, -1, 0)), []))       # non-unit pivots
@example((3, _rows((1, 2, 0, 4), (-2, 1, 0, 1)), _rows((0, 1, 3, 1))))
@example((2, _rows((2, 0, 1)), []))                                # 2x <= 1: pairings gcd 2
@example((2, _rows((1, 2, 0)), []))                                # tau coordinates HNF (2, -1)
@example((3, _rows((2, 1, 0, 1), (-1, 3, 0, 2)), []))              # lineality z, gcd 7, pivot 3
@example((3, _rows((2, 0, 2, 1), (0, 1, 0, 2)), _rows((0, 0, 3, 1))))  # gcd 6 in a plane
def test_primitive_normals_match_the_rational_route(system):
    for sigma in _fresh_faces(system):
        for tau in sigma.facets():
            assert primitive_normal(sigma, tau) == primitive_normal_oracle(sigma, tau)


def test_primitive_normals_match_the_rational_route_on_seeded_cells():
    """Seeded cells in R^2 to R^5 and every facet of each of their faces:
    the normal read off one HNF is the rational route's and the extended-gcd
    route's.  The corpus holds facets whose row pairs with sigma's lattice
    in a gcd above 1, and facets whose extended-gcd solution needs reducing
    modulo tau's coordinates, which the HNF does in the same step."""
    rng = random.Random(2901)
    pairs = big_gcd = reduced = 0
    for _ in range(60):
        n = rng.randint(2, 5)
        ineqs = [([Q(rng.randint(-3, 3)) for _ in range(n)], Q(rng.randint(0, 4)))
                 for _ in range(rng.randint(n, n + 3))]
        eqs = [([Q(rng.randint(-2, 2)) for _ in range(n)], Q(rng.randint(-2, 2)))
               for _ in range(rng.random() < 0.3)]
        for sigma in _fresh_faces((n, ineqs, eqs)):
            bs = sigma.span.rows
            for tau in sigma.facets():
                normal = primitive_normal(sigma, tau)
                assert normal == primitive_normal_oracle(sigma, tau)
                assert normal == facet_oracle.primitive_normal(sigma, tau)
                a = polyhedra._facet_entry(sigma, tau)[0][:-1]
                u, g = _xgcd_vector([-int(vec_dot(a, b)) for b in bs])
                coords = [[int(c) for c in coords_oracle(sigma.span, t)]
                          for t in tau.span.rows]
                pairs += 1
                big_gcd += g > 1
                reduced += _reduce_mod_rows(u, hnf(coords) if coords else []) != u
    assert pairs >= 1000 and big_gcd >= 100 and reduced >= 100, (pairs, big_gcd, reduced)


@settings(max_examples=200, deadline=None)
@given(systems())
@example((2, [], _rows((2, 0, 1), (0, 3, 1))))                     # point (1/2, 1/3)
@example((3, _rows((1, 0, 0, 1), (-1, 0, 0, 1)), []))              # slab
@example((3, [], _rows((2, 4, 0, 1))))                             # non-primitive linear part
@example((3, _rows((1, 2, 0, 4), (-2, 1, 0, 1)), _rows((0, 1, 3, 1))))
def test_span_is_the_integer_kernel_of_the_equalities(system):
    for f in _fresh_faces(system):
        f._span = None
        ker = integer_kernel([list(r[:-1]) for r in f.eq_rows], f.n)
        assert f.span.rows == Lattice(f.n, ker).rows
        assert all(type(x) is int for r in f.span.rows for x in r)


@settings(max_examples=200, deadline=None)
@given(systems())
@example((3, [], []))                                              # whole space
@example((3, _rows((1, 0, 0, 1), (-1, 0, 0, 1)), []))              # slab
def test_cell_lattices_equal_the_hnf_of_their_rows(system):
    """Spans, linealities and their complements, some built without the
    hnf pass, are the canonical HNF lattices of their rows."""
    for f in _fresh_faces(system):
        f._span = None
        for lat in (f.span, f.lineality):
            for got in (lat, complement_lattice(lat)):
                assert got == Lattice(f.n, got.rows)


# ------------------------------------------------------- integer row reads --
# Callers read the canonical integer rows directly.  Each is checked against
# its former version, which built rational copies of the rows first.


def polyhedron_json_rational(cell):
    rows = []
    for a, b in _eqs_rational(cell):
        rows.append((tuple(a), b))
        rows.append((tuple(-x for x in a), -b))
    ineq_rows, ineq_rhs = _ineqs_rational(cell)
    for a, b in zip(ineq_rows, ineq_rhs):
        rows.append((tuple(a), b))
    rows.sort()
    return {"n": cell.n,
            "ineqs": [{"a": vector_json(a), "b": q_json(b)}
                      for a, b in rows]}


def hyperplane_pool_rational(cells):
    seen = set()
    for c in cells:
        ir, irhs = _ineqs_rational(c)
        for a, b in list(zip(ir, irhs)) + _eqs_rational(c):
            key = normalize_hyperplane(a, b)
            if key is not None:
                seen.add(key)
    return sorted(seen)


def slice_cell_rational(cell, hyperplanes):
    pieces = [cell]
    for a, b in hyperplanes:
        ar = [Q(x) for x in a]
        nxt = []
        for p in pieces:
            if not p.crosses(ar, b):
                nxt.append(p)
                continue
            ir, irhs = _ineqs_rational(p)
            base_ineqs = list(zip(ir, irhs))
            eqs = _eqs_rational(p)
            nxt.append(polyhedron(p.n, base_ineqs + [(ar, qof(b))], eqs=eqs))
            nxt.append(polyhedron(p.n, base_ineqs + [([-x for x in ar], -qof(b))], eqs=eqs))
        pieces = nxt
    return pieces


def translate_rational(p, v):
    v = [qof(x) for x in v]
    ir, rhs = _ineqs_rational(p)
    ineqs = [(a, b + vec_dot(a, v)) for a, b in zip(ir, rhs)]
    eqs = [(e, f + vec_dot(e, v)) for e, f in _eqs_rational(p)]
    return polyhedron(p.n, ineqs, eqs=eqs)


def affine_preimage_rational(p, lin_rows, shift, domain_n):
    ineqs = []
    eqs = []
    ir, rhs = _ineqs_rational(p)
    shift = [qof(s) for s in shift]
    for a, b in zip(ir, rhs):
        row = [sum(a[i] * qof(lin_rows[i][j]) for i in range(p.n)) for j in range(domain_n)]
        ineqs.append((row, b - vec_dot(a, shift)))
    for e, f in _eqs_rational(p):
        row = [sum(e[i] * qof(lin_rows[i][j]) for i in range(p.n)) for j in range(domain_n)]
        eqs.append((row, f - vec_dot(e, shift)))
    return polyhedron(domain_n, ineqs, eqs=eqs)


RATIONAL = st.builds(Q, st.integers(-4, 4), st.integers(1, 3))


@settings(max_examples=200, deadline=None)
@given(systems(), st.data())
def test_integer_row_reads_equal_the_rational_rows(system, data):
    n = system[0]
    p = polyhedron(*system)
    if p is None:
        return
    assert (dumps_canonical(polyhedron_json(p))
            == dumps_canonical(polyhedron_json_rational(p)))

    faces = p.faces()
    pool = hyperplane_pool(faces)
    assert pool == hyperplane_pool_rational(faces)
    a = data.draw(st.lists(RATIONAL, min_size=n, max_size=n))
    extra = normalize_hyperplane(a, data.draw(RATIONAL))
    cuts = sorted(set(pool) | ({extra} if extra else set()))
    for f in faces:
        assert slice_cell(f, cuts) == slice_cell_rational(f, cuts)

    v = data.draw(st.lists(RATIONAL, min_size=n, max_size=n))
    assert translate(p, v) == translate_rational(p, v)
    m = data.draw(st.integers(1, 3))
    lin = data.draw(st.lists(st.lists(RATIONAL, min_size=m, max_size=m),
                             min_size=n, max_size=n))
    shift = data.draw(st.lists(RATIONAL, min_size=n, max_size=n))
    assert (affine_preimage(p, lin, shift, m)
            == affine_preimage_rational(p, lin, shift, m))
