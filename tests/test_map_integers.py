"""The map layer in integers, against the rational bodies it replaced.

pushforward clears the map once and runs one integer RREF of [L b_k | I]
per cell: full rank decides injectivity and properness at once, the right
block holds the duals of the left inverse, and the image, its index and the
pulled-back coefficient come from integer rows.  Only a cell of lower rank
takes the failure path, which raises the errors of the rational body in its
order.  pullback_surjective takes its right inverse from one integer RREF
of [L | I] and builds preimages under leading or trailing coordinate
projections with product_polyhedron.  currents_oracle keeps the rational
bodies as rational_pushforward and rational_pullback_surjective; each
comparison empties the intern table first, so neither route reads what
the other cached.
"""

import random
from fractions import Fraction as Q

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import currents_oracle
from deltaforms import polyhedra
from deltaforms.currents import (AffineMap, DeltaForm, PreconditionError,
                                 pullback_surjective, pushforward)
from deltaforms.io import deltaform_json, dumps_canonical, jsonable
from deltaforms.polyhedra import (affine_preimage, polyhedron,
                                  product_polyhedron, ray_from, segment,
                                  single_point, whole_space)
from deltaforms.superforms import SuperForm
from test_currents import random_form
from test_product_charts import cells, rationals


def _outcome(route, f, T):
    """The result's canonical bytes, or the error with its certificate's."""
    polyhedra._CACHE.clear()
    try:
        return "bytes", dumps_canonical(deltaform_json(route(f, T)))
    except ValueError as e:
        cert = getattr(e, "certificate", None)
        return "error", type(e), str(e), dumps_canonical(jsonable(cert))


def _current(n, cell_list, seed=0):
    rng = random.Random(seed)
    return DeltaForm(n, [(c, random_form(rng, c.dim), Q(k + 1, 2))
                         for k, c in enumerate(cell_list)])


@st.composite
def maps(draw, n, m):
    """A rational affine map R^n -> R^m with a rational shift.

    In one case of two, with m >= n, the identity rows scaled by nonzero
    rationals and shuffled among the others, so the map is injective.
    """
    rows = [[draw(rationals) for _ in range(n)] for _ in range(m)]
    if m >= n and draw(st.booleans()):
        for i in range(n):
            rows[i] = [draw(rationals.filter(bool)) if j == i else 0
                       for j in range(n)]
        rows = draw(st.permutations(rows))
    return AffineMap(rows, [draw(rationals) for _ in range(m)])


@st.composite
def currents_in(draw, n):
    cell_list = draw(st.lists(cells(n), min_size=1, max_size=2))
    return _current(n, cell_list, draw(st.integers(0, 10 ** 6)))


@st.composite
def map_and_current(draw):
    n, m = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    return draw(maps(n, m)), draw(currents_in(n))


# the shear, the dilation and the embedding of test_currents, and a collapse
SHEAR = AffineMap([[1, 1], [0, 1]], [Q(1, 2), -1])
EMBEDDING = AffineMap([[1, 0], [0, 1], [1, 2]], [1, 0, Q(-1, 2)])
COLLAPSE = AffineMap([[1, 1]], [-1])
LINE = polyhedron(2, [], eqs=[([1, 1], Q(1, 3))])
STRIP = polyhedron(2, [([1, 0], 1), ([-1, 0], Q(1, 2))])


@settings(max_examples=150, deadline=None)
@given(map_and_current())
# injective: a shear of a ray and a segment, and an embedding of a strip
@example((SHEAR, _current(2, [ray_from([1, Q(1, 2)], [1, -1]),
                              segment([0, 0], [2, 1])])))
@example((EMBEDDING, _current(2, [STRIP])))
# not proper: the collapse along a ray and a line in its kernel
@example((COLLAPSE, _current(2, [ray_from([1, Q(1, 2)], [1, -1])])))
@example((COLLAPSE, _current(2, [polyhedron(2, [], eqs=[([1, 1], 0)])])))
# not injective, but proper: a bounded segment in the kernel
@example((COLLAPSE, _current(2, [segment([0, 0], [Q(3, 2), Q(-3, 2)])])))
# not injective and not proper: the whole plane and a strip
@example((COLLAPSE, _current(2, [whole_space(2)])))
@example((AffineMap([[0, 1]], [0]), _current(2, [STRIP])))
# rational shifts and a rational line, carried injectively
@example((AffineMap([[Q(2, 3), 0], [Q(1, 2), Q(-1, 3)]], [Q(5, 7), Q(-1, 3)]),
          _current(2, [LINE])))
# cells with lines: a line and a strip, carried injectively
@example((SHEAR, _current(2, [LINE, STRIP])))
# 0-dimensional cells, under a collapse and an embedding
@example((COLLAPSE, _current(2, [single_point([Q(1, 2), Q(-1, 3)])])))
@example((AffineMap([[Q(1, 2)], [Q(-2, 3)]], [0, Q(1, 5)]),
          _current(1, [single_point([Q(3, 4)])])))
def test_pushforward_matches_the_rational_body(case):
    f, T = case
    assert (_outcome(pushforward, f, T)
            == _outcome(currents_oracle.rational_pushforward, f, T))


@st.composite
def surjections_and_currents(draw):
    """A map onto R^m from R^n, n >= m, and a current in R^m.

    Coordinate projections onto the leading or trailing block (which
    pullback_surjective builds as products), their shifted copies, and
    rational maps, most of them surjective.
    """
    m = draw(st.integers(1, 3))
    n = draw(st.integers(m, 4))
    kind = draw(st.sampled_from(["leading", "trailing", "shifted", "rational"]))
    if kind == "rational":
        f = draw(maps(n, m))
    else:
        lead = n - m if kind == "trailing" else 0
        f = AffineMap([[int(j == i + lead) for j in range(n)] for i in range(m)],
                      [draw(rationals) for _ in range(m)] if kind == "shifted"
                      else [0] * m)
    return f, draw(currents_in(m))


PROJECT_12 = AffineMap.projection(3, [0, 1])
PROJECT_23 = AffineMap.projection(3, [1, 2])


@settings(max_examples=150, deadline=None)
@given(surjections_and_currents())
@example((PROJECT_12, _current(2, [STRIP, LINE, single_point([Q(1, 2), 0])])))
@example((PROJECT_23, _current(2, [ray_from([1, Q(1, 2)], [1, -1]), STRIP])))
@example((AffineMap([[2, 4, 0], [0, Q(1, 3), 1]], [Q(1, 2), 0]),
          _current(2, [segment([0, 0], [1, 2]), single_point([1, Q(-1, 2)])])))
@example((AffineMap([[1, 2], [2, 4]], [0, 0]), _current(2, [STRIP])))
def test_pullback_surjective_matches_the_rational_body(case):
    f, S = case
    assert (_outcome(pullback_surjective, f, S)
            == _outcome(currents_oracle.rational_pullback_surjective, f, S))


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 3).flatmap(cells), st.integers(1, 2),
       st.booleans())
@example(STRIP, 1, True)
@example(single_point([Q(1, 2), 0]), 2, False)
def test_projection_preimages_are_the_products(cell, k, trailing):
    """The preimage under a coordinate projection, assembled as a product,
    has the key polyhedron() gives the pulled-back rows."""
    n, m = cell.n + k, cell.n
    lead = k if trailing else 0
    lin = [[int(j == i + lead) for j in range(n)] for i in range(m)]
    polyhedra._CACHE.clear()
    want = affine_preimage(cell, lin, [0] * m, n)
    polyhedra._CACHE.clear()
    got = (product_polyhedron(whole_space(k), cell) if trailing
           else product_polyhedron(cell, whole_space(k)))
    assert got.key == want.key


def test_the_failure_path_raises_in_the_rational_order():
    """A line in the kernel is not proper; a segment there is not injective."""
    T = _current(2, [polyhedron(2, [], eqs=[([1, 1], 0)])])
    with pytest.raises(PreconditionError, match="^pushforward is not proper"):
        pushforward(COLLAPSE, T)
    T = _current(2, [segment([0, 0], [1, -1])])
    with pytest.raises(PreconditionError, match="^map is not injective") as e:
        pushforward(COLLAPSE, T)
    assert e.value.certificate["kernel_direction"] == ["-1/1", "1/1"]


def test_a_point_goes_to_its_image_with_weight_one():
    """A 0-dimensional cell: no pivots, no duals, index 1."""
    f = AffineMap([[Q(1, 2), 0], [0, 3]], [Q(1, 3), 0])
    T = DeltaForm(2, [(single_point([1, Q(1, 2)]), SuperForm.scalar(0, 5), 1)])
    P = pushforward(f, T)
    assert P.terms == ((single_point([Q(5, 6), Q(3, 2)]),
                        SuperForm.scalar(0, 5), 1),)
