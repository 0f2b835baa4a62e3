"""Chart transport against the version it replaced (transport_oracle).

Chart.to_local, and with it the offset of Chart.transition_to, is taken in
integers over the common denominator of the two points, transport_form
returns the form itself on the identity map, pullback_affine takes integer
Bareiss minors, and the boundary's split coordinates invert their integer
transition in integers.  On cells with rational base points, on document
charts with rational bases, through every caller that passes an affine map,
and through both boundary routes, each must give exactly the oracle's
result.  The benchmark corpora have integral offsets only, so
these tests are where the rational offsets are checked.
"""

import random
from fractions import Fraction as Q
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import currents_oracle
import transport_oracle as oracle
from deltaforms import currents, intersection
from deltaforms.currents import (AffineMap, DeltaForm, _split_coordinates,
                                 boundary_prime_via_contraction,
                                 boundary_second_via_contraction,
                                 chart_to_ambient, pullback_surjective,
                                 pushforward, translate_delta, transport_form)
from deltaforms.intersection import transversal_product, wedge_diagonal
from deltaforms.io import deltaform_json, parse_deltaform
from deltaforms.polyhedra import Chart, intersect, polyhedron, ray_from, translate
from deltaforms.superforms import Poly, SuperForm
from test_currents import (MAPS, SURJECTIVE, corpus, outcome, random_balanced,
                           random_form)


def random_rational_cell(pick, n):
    """A nonempty cell from two to four rows with rational right-hand sides.

    One row in three becomes an equality, so some cells are lower
    dimensional; most have rational vertices, so their base points are
    rational.
    """
    while True:
        rows = [([pick(-2, 2) for _ in range(n)], Q(pick(-3, 6), pick(1, 4)))
                for _ in range(pick(2, 4))]
        eqs = [r for i, r in enumerate(rows) if i == 0 and pick(0, 2) == 0]
        cell = polyhedron(n, rows[len(eqs):], eqs=eqs)
        if cell is not None:
            return cell


def random_transport(pick):
    """(form, src, dst, f): a transport that transport_form accepts.

    dst is src itself, a face of src, a piece of src cut by a rational
    half-space (same affine hull, another base point), or src translated by
    a rational vector, with f the translation back.
    """
    n = pick(1, 3)
    src = random_rational_cell(pick, n)
    kind = pick(0, 3)
    f = None
    if kind == 0:
        dst = src
    elif kind == 1:
        faces = src.faces()
        dst = faces[pick(0, len(faces) - 1)]
    elif kind == 2:
        a = [pick(-2, 2) for _ in range(n)]
        b = Q(pick(-2, 4), pick(1, 3))
        dst = intersect(src, polyhedron(n, [(a, b)])) if any(a) else None
        if dst is None or dst.dim != src.dim:
            dst = src
    else:
        v = [Q(pick(-4, 4), pick(1, 3)) for _ in range(n)]
        dst = translate(src, v)
        f = AffineMap(AffineMap.identity(n).lin, [-x for x in v])
    form = random_form(random.Random(pick(0, 10 ** 6)), src.dim)
    return form, src, dst, f


def is_identity(m_rows, off, k):
    return (len(m_rows) == k and not any(off)
            and all(x == (i == j) for i, row in enumerate(m_rows)
                    for j, x in enumerate(row)))


def check_transport(form, src, dst, f):
    """Equal to the oracle; the form itself exactly on the identity map.

    Returns the oracle offset's largest denominator.
    """
    m_rows, off = dst.chart.transition_to(src.chart, f)
    want_m, want_off = oracle.transition_to(dst.chart, src.chart, f)
    assert m_rows == want_m and off == want_off
    got = transport_form(form, src, dst, f)
    want = oracle.transport_form(form, src, dst, f)
    assert got.n == want.n == dst.dim
    assert list(got.terms.items()) == list(want.terms.items())
    assert (got is form) == is_identity(want_m, want_off, dst.dim)
    return max((x.denominator for x in want_off), default=1)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_transport_matches_the_oracle_on_rational_cells(data):
    check_transport(*random_transport(
        lambda lo, hi: data.draw(st.integers(lo, hi))))


def test_seeded_transports_have_rational_offsets_and_identities():
    """The same construction, seeded: every kind of transport occurs."""
    rng = random.Random(7)
    dens, identities = [], 0
    for _ in range(120):
        form, src, dst, f = random_transport(rng.randint)
        dens.append(check_transport(form, src, dst, f))
        identities += transport_form(form, src, dst, f) is form
    assert max(dens) > 1 and dens.count(1) > 0
    assert 0 < identities < len(dens)


# A chart in a document may sit anywhere on the cell, with any basis of the
# cell's lattice: the coefficient is read in that chart and moved to the
# cell's own.  On the x-axis of R^2 (chart base 0, basis (1, 0)), the
# coefficient t + 1 in the supplied chart (base, basis) is
# (basis[0] * x - basis[0] * base[0]) + 1 in the cell's, since t = (x - b) / e.
@pytest.mark.parametrize("base, basis, want", [
    (["5/2", "0"], [-1, 0], {(1,): Q(-1), (0,): Q(7, 2)}),
    (["-1/3", "0"], [1, 0], {(1,): Q(1), (0,): Q(4, 3)}),
    (["7/6", "0"], [1, 0], {(1,): Q(1), (0,): Q(-1, 6)}),
    (["0", "0"], [-1, 0], {(1,): Q(-1), (0,): Q(1)}),
])
def test_document_chart_offsets(base, basis, want):
    xaxis = polyhedron(2, [], eqs=[([0, 1], 0)])
    doc = {"n": 2, "terms": [{
        "cell": deltaform_json(DeltaForm(2, [(xaxis, SuperForm.scalar(1, 1), 1)]))
        ["terms"][0]["cell"],
        "weight": "1/1",
        "form": {"terms": [{"poly": [{"exps": [1], "c": "1/1"},
                                     {"exps": [0], "c": "1/1"}],
                            "dp": [], "ds": []}]},
        "chart": {"base": base, "basis": [basis]},
    }]}
    (cell, form, w), = parse_deltaform(doc).terms
    assert cell == xaxis and w == 1
    assert form == SuperForm.from_poly(Poly(1, want))


def rational_chart_documents(rng, count):
    """Delta-form documents whose terms carry charts at rational points.

    Each chart sits at a rational point between the cell's base point and a
    relative-interior point, with the cell's lattice basis under a random
    unimodular change of basis.
    """
    docs = []
    for _ in range(count):
        n = rng.randint(1, 3)
        terms = []
        for _ in range(rng.randint(1, 2)):
            cell = random_rational_cell(rng.randint, n)
            t = Q(rng.randint(0, 5), rng.randint(1, 5))
            if t > 1:
                t = 1 / t
            base = [b + t * (r - b)
                    for b, r in zip(cell.base_point, cell.relint_point())]
            basis = [list(row) for row in cell.span.rows]
            for _ in range(3):
                if len(basis) > 1:
                    i, j = rng.sample(range(len(basis)), 2)
                    c = rng.randint(-2, 2)
                    basis[i] = [x + c * y for x, y in zip(basis[i], basis[j])]
                if basis and rng.random() < 0.5:
                    basis[0] = [-x for x in basis[0]]
            term = deltaform_json(DeltaForm(n, [(cell, random_form(rng, cell.dim),
                                                 Q(rng.randint(1, 3)))]))["terms"][0]
            term["chart"] = {"base": [str(x) for x in base], "basis": basis}
            terms.append(term)
        docs.append({"n": n, "terms": terms})
    return docs


def test_document_charts_match_the_oracle():
    """parse_deltaform moves each coefficient as the oracle does."""
    rng = random.Random(11)
    dens = []
    for doc in rational_chart_documents(rng, 40):
        got = parse_deltaform(doc)
        with mock.patch.object(Chart, "transition_to", oracle.transition_to), \
                mock.patch.object(SuperForm, "pullback_affine",
                                  oracle.pullback_affine):
            want = parse_deltaform(doc)
        assert got.terms == want.terms
        for term in doc["terms"]:
            dens += [Q(x).denominator for x in term["chart"]["base"]]
    assert max(dens) > 1


def with_oracle_transport(fn, *args):
    """outcome(fn, *args) with every transport_form call made by the oracle."""
    with mock.patch.object(currents, "transport_form", oracle.transport_form), \
            mock.patch.object(intersection, "transport_form",
                              oracle.transport_form):
        return outcome(fn, *args)


@pytest.mark.parametrize("n", [2, 3])
def test_translate_delta_matches_the_oracle_transport(n):
    rng, currents_ = corpus(71 + n, 8, n)
    for T in currents_:
        v = [Q(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(n)]
        assert (outcome(translate_delta, T, v)
                == with_oracle_transport(translate_delta, T, v))


@pytest.mark.parametrize("name", list(MAPS))
def test_pushforward_matches_the_oracle_transport(name):
    """pushforward pulls the coefficient back along its integer duals; the
    rational body it replaced moves it with the oracle's transport_form."""
    f = MAPS[name]
    _, currents_ = corpus(81, 8, f.n)
    for T in currents_:
        with mock.patch.object(currents_oracle, "transport_form", oracle.transport_form):
            want = outcome(currents_oracle.rational_pushforward, f, T)
        assert outcome(pushforward, f, T) == want


@pytest.mark.parametrize("name", SURJECTIVE)
def test_pullback_surjective_matches_the_oracle_transport(name):
    f = MAPS[name]
    _, currents_ = corpus(91, 8, f.m)
    for S in currents_:
        assert (outcome(pullback_surjective, f, S)
                == with_oracle_transport(pullback_surjective, f, S))


def test_products_match_the_oracle_transport():
    """The pair products transport each factor to every intersection cell."""
    rng, currents_ = corpus(101, 6, 2)
    for S, T in zip(currents_, currents_[1:]):
        assert (outcome(transversal_product, S, T)
                == with_oracle_transport(transversal_product, S, T))
    for _ in range(4):
        S, T = random_balanced(rng, 2), random_balanced(rng, 2)
        assert (outcome(wedge_diagonal, S, T)
                == with_oracle_transport(wedge_diagonal, S, T))


def test_split_coordinates_match_the_oracle():
    """Every facet of cells with rational vertices, and of balanced cells."""
    rng = random.Random(13)
    cells = [random_rational_cell(rng.randint, rng.randint(1, 3))
             for _ in range(40)]
    for _ in range(4):
        T = random_balanced(rng, rng.randint(2, 3))
        cells += [c for c, _, _ in T.refine().terms]
    pairs, dens = 0, []
    for sigma in cells:
        for tau in sigma.facets():
            got = _split_coordinates(sigma, tau)
            assert got == oracle._split_coordinates(sigma, tau)
            pairs += 1
            dens += [Q(x).denominator for x in got[0][0] + got[1]]
    assert pairs > 50 and max(dens) > 1


def test_chart_to_ambient_matches_the_oracle():
    rng = random.Random(17)
    for _ in range(40):
        cell = random_rational_cell(rng.randint, rng.randint(1, 3))
        form = random_form(rng, cell.dim)
        got = chart_to_ambient(form, cell)
        assert list(got.terms.items()) == \
            list(oracle.chart_to_ambient(form, cell).terms.items())


def boundary_currents(rng, n):
    """Balanced currents with nonzero boundaries, at rational points.

    Two half-spaces on either side of a rational hyperplane a.x = b carry
    the restrictions of ambient forms that differ by multiples of d'(a.x)
    and d''(a.x), which vanish on the wall; the rays of a star at a
    rational apex carry forms with one value at the apex and random d'u
    and d''u parts.
    """
    a = [0] * n
    while not any(a):
        a = [rng.randint(-2, 2) for _ in range(n)]
    b = Q(rng.randint(-3, 3), rng.randint(1, 3))
    dp = sum((SuperForm.d_prime_x(n, i).scale(x) for i, x in enumerate(a)),
             SuperForm.zero(n))
    ds = sum((SuperForm.d_second_x(n, i).scale(x) for i, x in enumerate(a)),
             SuperForm.zero(n))
    alpha = random_form(rng, n)
    beta = alpha + random_form(rng, n).wedge(dp) + random_form(rng, n).wedge(ds)
    sides = [polyhedron(n, [(a, b)]), polyhedron(n, [([-x for x in a], -b)])]
    halves = DeltaForm(n, [(h, f.restrict(h.chart), 1)
                           for h, f in zip(sides, (alpha, beta))])
    apex = [Q(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(n)]
    dirs = [[int(i == j) for j in range(n)] for i in range(n)] + [[-1] * n]
    u = SuperForm.from_poly(Poly.variable(1, 0))
    star = DeltaForm(n, [(ray_from(apex, d),
                          SuperForm.scalar(1, 2) + u.wedge(random_form(rng, 1))
                          + SuperForm.d_prime_x(1, 0).scale(rng.randint(-2, 2))
                          + SuperForm.d_second_x(1, 0).scale(rng.randint(-2, 2)), 1)
                         for d in dirs])
    return [halves, star]


@pytest.mark.parametrize("n", [2, 3])
def test_boundaries_match_the_oracle_transport(n):
    """Both boundary routes, with the oracle's split and ambient lift."""
    rng = random.Random(111 + n)
    routes = [lambda T: T.boundary_prime(), lambda T: T.boundary_second(),
              boundary_prime_via_contraction, boundary_second_via_contraction]
    nonzero = 0
    for _ in range(3):
        for T in boundary_currents(rng, n):
            for route in routes:
                got = outcome(route, T)
                # a fresh copy of T, so no memoized refinement is reused
                with mock.patch.object(currents, "_split_coordinates",
                                       oracle._split_coordinates), \
                        mock.patch.object(currents, "chart_to_ambient",
                                          oracle.chart_to_ambient):
                    assert outcome(route, DeltaForm(n, T.terms)) == got
                nonzero += got[0] == "terms" and bool(got[1])
    assert nonzero >= 18
