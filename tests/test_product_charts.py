"""The exterior product built from its factors, against the route it replaced.

product_polyhedron assembles the canonical rows of p x q from the factors'
own and seeds a pointed product's generators and base point, with no double
description.  exterior_product renames the factors' chart variables into
the product cell's chart, and carries the wedge through one transition only
where the product's base point is not the two base points joined (a
product with lines).  polyhedra_oracle and currents_oracle keep the bodies
they replaced, which canonicalize each product through polyhedron() and
lift each coefficient through ambient coordinates.  Each comparison
empties the intern table first, so neither route reads what the other
cached on a product cell.
"""

import random
from fractions import Fraction as Q

from hypothesis import example, given, settings
from hypothesis import strategies as st

import currents_oracle
import polyhedra_oracle
from deltaforms import polyhedra
from deltaforms.currents import DeltaForm, exterior_product
from deltaforms.io import deltaform_json, dumps_canonical
from deltaforms.polyhedra import polyhedron, product_polyhedron, single_point
from deltaforms.superforms import Poly, SuperForm
from test_currents import random_form

# Both factors have lines, and the product's lineality frame is not
# block-diagonal, so (p x q).base_point is (2, -5/2, -5/2, 0, 4, 1) and not
# p's base point (-1, 1/2, 2) joined with q's (0, 4, 1).
LINED_P = polyhedron(3, [([-2, -2, 0], 1), ([1, -2, 2], 2)])
LINED_Q = polyhedron(3, [([0, -1, 2], -2), ([0, 0, 1], 1)])


def _coefficient(d):
    """x0 + x_last^2 + d'x0 ∧ d''x_last on R^d."""
    e = [(1 if i == 0 else 0) for i in range(d)]
    f = [(2 if i == d - 1 else 0) for i in range(d)]
    p = Poly(d, {tuple(e): 1, tuple(f): Q(1, 2)})
    return SuperForm(d, {((), ()): p, ((0,), (d - 1,)): Poly.const(d, 3)})


LINED_S = DeltaForm(3, [(LINED_P, _coefficient(3), Q(2))])
LINED_T = DeltaForm(3, [(LINED_Q, _coefficient(3), Q(1, 3))])

rationals = st.builds(Q, st.integers(-3, 3), st.integers(1, 3))


@st.composite
def cells(draw, n):
    """A cell in R^n through a rational point x0.

    A point, or rational equalities and inequalities that hold at x0, with
    a box around x0 in one case of three, so points, lower-dimensional
    cells, cells with lines and bounded cells all occur.
    """
    x0 = [draw(rationals) for _ in range(n)]
    if draw(st.integers(0, 5)) == 0:
        return single_point(x0)
    row = st.lists(st.integers(-2, 2), min_size=n, max_size=n)
    eqs = [(a, sum(x * y for x, y in zip(a, x0)))
           for a in draw(st.lists(row, max_size=n - 1))]
    ineqs = [(a, sum(x * y for x, y in zip(a, x0)) + draw(rationals.map(abs)))
             for a in draw(st.lists(row, max_size=3))]
    if draw(st.integers(0, 2)) == 0:
        r = draw(st.integers(1, 3))
        ineqs += [([s * (j == i) for j in range(n)], s * x0[i] + r)
                  for i in range(n) for s in (1, -1)]
    return polyhedron(n, ineqs, eqs=eqs)


@st.composite
def currents(draw):
    """One or two terms on cells in R^1..R^3 with polynomial coefficients."""
    n = draw(st.integers(1, 3))
    terms = []
    for _ in range(draw(st.integers(1, 2))):
        cell = draw(cells(n))
        form = random_form(random.Random(draw(st.integers(0, 10 ** 6))), cell.dim)
        terms.append((cell, form, draw(st.builds(Q, st.integers(1, 3),
                                                 st.integers(1, 2)))))
    return DeltaForm(n, terms)


def _fresh(route, *args):
    """route(*args) with the intern table emptied first."""
    polyhedra._CACHE.clear()
    return route(*args)


@settings(max_examples=60, deadline=None)
@given(currents(), currents())
@example(LINED_S, LINED_T)
def test_exterior_product_matches_the_oracle_bytes(S, T):
    got = dumps_canonical(deltaform_json(_fresh(exterior_product, S, T)))
    want = dumps_canonical(deltaform_json(
        _fresh(currents_oracle.exterior_product, S, T)))
    assert got == want


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 3).flatmap(cells), st.integers(1, 3).flatmap(cells))
@example(LINED_P, LINED_Q)
def test_product_polyhedron_matches_polyhedron_on_the_stacked_rows(p, q):
    got = _fresh(product_polyhedron, p, q)
    key, base, (rays, lines) = got.key, got.base_point, got.generators()
    want = _fresh(polyhedra_oracle.product_polyhedron, p, q)
    assert key == want.key
    assert base == want.base_point
    if not lines:
        assert set(rays) == set(want.generators()[0]) and not want.generators()[1]


def test_the_lined_pair_takes_the_transition():
    """The example above is the case the rename alone would get wrong."""
    prod = _fresh(product_polyhedron, LINED_P, LINED_Q)
    assert prod.base_point == (2, Q(-5, 2), Q(-5, 2), 0, 4, 1)
    assert prod.base_point != LINED_P.base_point + LINED_Q.base_point
