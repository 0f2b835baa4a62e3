"""The lifted-system displacement route against the Q(eps) oracle.

For each (S, T, v) the verdict of is_generic, the failing pair it names,
and the canonical bytes of displacement_product (or its NonGenericError
certificate) must be exactly those of the Q(eps) route kept in eps_oracle.
The oracle pairs only maximal term cells, so it is compared on currents
whose term cells are all maximal, and elsewhere on each pair of terms.
"""

import itertools
import random
from fractions import Fraction as Q

from hypothesis import given, settings
from hypothesis import strategies as st

import eps_oracle
from deltaforms.currents import (
    AffineMap,
    DeltaForm,
    fundamental_cycle,
    pushforward,
    translate_delta,
)
from deltaforms.intersection import (
    NonGenericError,
    displacement_product,
    generic_vector,
    is_generic,
)
from deltaforms.io import deltaform_json, dumps_canonical
from deltaforms.polyhedra import (
    polyhedron,
    ray_from,
    segment,
    single_point,
    whole_space,
)
from deltaforms.superforms import Poly, SuperForm


def product_outcome(product, S, T, v):
    """Canonical bytes of the product, or the error certificate."""
    try:
        return "product", dumps_canonical(deltaform_json(product(S, T, v)))
    except NonGenericError as e:
        return "non-generic", dumps_canonical(e.certificate)


def every_term_maximal(*currents):
    """Whether no term cell of each current lies inside another."""
    return all(eps_oracle._maximal_cells_of(U) == [c for c, _, _ in U.terms]
               for U in currents)


def agrees_with_oracle(S, T, v):
    """Assert both routes agree on (S, T, v); return the verdict.

    The oracle is a reference only where every term cell is maximal, so
    that is asserted first."""
    assert every_term_maximal(S, T)
    ok, pair = is_generic(v, S, T)
    got = product_outcome(displacement_product, S, T, v)
    assert got == product_outcome(eps_oracle.displacement_product, S, T, v), v
    assert (got[0] == "product") == ok
    if not ok:
        assert eps_oracle.is_generic(v, S, T) == (False, pair), v
    return ok


def agrees_pair_by_pair(S, T, v):
    """Assert the oracle agrees on each pair of single terms, and that
    displacement_product fails at the first pair that fails or else is the
    sum of the pairs' products, as the product is bilinear; return the
    verdict."""
    total = DeltaForm(S.n)
    for s, t in itertools.product(S.terms, T.terms):
        A, B = DeltaForm(S.n, [s]), DeltaForm(T.n, [t])
        if not agrees_with_oracle(A, B, v):
            want = product_outcome(displacement_product, A, B, v)
            break
        total = total + displacement_product(A, B, v)
    else:
        want = "product", dumps_canonical(deltaform_json(total))
    assert product_outcome(displacement_product, S, T, v) == want, v
    return want[0] == "product"


def agrees(S, T, v):
    """agrees_with_oracle where every term cell is maximal, else pair by pair."""
    check = agrees_with_oracle if every_term_maximal(S, T) else agrees_pair_by_pair
    return check(S, T, v)


def current(n, cells, weights=None):
    weights = weights or [1] * len(cells)
    return DeltaForm(n, [(c, SuperForm.scalar(c.dim, 1), w)
                         for c, w in zip(cells, weights)])


def min_line(weights=(1, 1, 1), apex=(0, 0)):
    return current(2, [ray_from(apex, d) for d in [(1, 0), (0, 1), (-1, -1)]],
                   list(weights))


def max_line(apex=(0, 0)):
    return current(2, [ray_from(apex, d) for d in [(1, 1), (-1, 0), (0, -1)]])


def flagship_pairs():
    """Cheap pairs of the flagship wedge corpus, in R^2 and R^3."""
    origin = current(2, [single_point([0, 0])])
    poly_fan = DeltaForm(2, [(whole_space(2), SuperForm.from_poly(
        Poly(2, {(1, 1): Q(1), (0, 0): Q(2)})), 1)])
    plane = current(3, [polyhedron(3, [], eqs=[([1, 2, 3], 0)])])
    line3 = current(3, [ray_from((0, 0, 0), d) for d in
                        [(-1, 0, 0), (0, -1, 0), (0, 0, -1), (1, 1, 1)]])
    return [
        (min_line(), min_line()),
        (max_line(), translate_delta(max_line(), (3, 1))),
        (max_line(), max_line()),
        (min_line(weights=(2, 2, 2)), min_line()),
        (min_line(), fundamental_cycle(2)),
        (poly_fan, min_line()),
        (line3, plane),
        (min_line(), origin),
        (min_line(weights=(2, 2, 2), apex=(3, 1)), min_line()),
    ]


def signed_permutation(c, n):
    """One of 8 sign classes: bits flip coordinates; bit 2 swaps in R^2."""
    order = [1, 0] if n == 2 and c & 4 else list(range(n))
    return AffineMap([[(-1) ** ((c >> i) & 1) if j == order[i] else 0
                       for j in range(n)] for i in range(n)], [0] * n)


def vectors(n, rng):
    """Zero, all-ones, an axis, a random vector and a search candidate."""
    axis = [0] * n
    axis[rng.randrange(n)] = 1
    return [[0] * n, [1] * n, axis,
            [rng.randint(-3, 3) for _ in range(n)],
            [Q(2) ** i for i in range(1, n + 1)]]


def random_cell(rng, n):
    point = [rng.randint(-2, 2) for _ in range(n)]
    direction = [0] * n
    while not any(direction):
        direction = [rng.randint(-2, 2) for _ in range(n)]
    kind = rng.choice(["ray", "ray", "segment", "point", "hyperplane"])
    if kind == "ray":
        return ray_from(point, direction)
    if kind == "segment":
        return segment(point, [p + d for p, d in zip(point, direction)])
    if kind == "point":
        return single_point(point)
    return polyhedron(n, [], eqs=[(direction, rng.randint(-2, 2))])


def random_current(rng, n):
    if n == 2 and rng.random() < 0.3:
        return min_line(weights=[rng.randint(1, 3) for _ in range(3)],
                        apex=[rng.randint(-2, 2) for _ in range(2)])
    cells = [random_cell(rng, n) for _ in range(rng.randint(1, 3))]
    return current(n, cells, [rng.randint(1, 3) for _ in cells])


def test_ray_times_line_is_not_generic():
    # The ray {y = 0, x >= 0} meets the line {x = 0} at the origin for every
    # shift along the line, but only on the ray's boundary: there is no
    # strict interior point, though the explicit equalities are transversal.
    ray = ray_from((0, 0), (1, 0))
    line = polyhedron(2, [], eqs=[([1, 0], 0)])
    S, T = current(2, [ray]), current(2, [line])
    assert agrees_with_oracle(S, T, (0, 1)) is False
    assert is_generic((0, 1), S, T) == (False, (ray, line))
    assert agrees_with_oracle(S, T, (1, 0)) is True


def test_flagship_pairs_in_every_sign_class():
    rng = random.Random(7)
    verdicts = set()
    for k, (S, T) in enumerate(flagship_pairs()):
        for c in range(8):
            f = signed_permutation(c, S.n)
            A, B = pushforward(f, S), pushforward(f, T)
            candidates = vectors(S.n, rng)
            v = candidates[(k + c) % len(candidates)]
            verdicts.add(agrees_with_oracle(A, B, v))
        v = generic_vector(S, T)
        assert v == eps_oracle.generic_vector(S, T)
        assert agrees_with_oracle(S, T, v)
    assert verdicts == {True, False}


def test_seeded_random_corpus():
    rng = random.Random(20261018)
    seen = {"generic": 0, "non-generic": 0, "nonzero product": 0, "nested": 0}
    for k in range(24):
        n = 2 if k % 4 else 3
        S, T = random_current(rng, n), random_current(rng, n)
        seen["nested"] += not every_term_maximal(S, T)
        for v in rng.sample(vectors(n, rng), 2):
            if agrees(S, T, v):
                seen["generic"] += 1
                if not displacement_product(S, T, v).is_zero():
                    seen["nonzero product"] += 1
            else:
                seen["non-generic"] += 1
    assert all(seen.values()), seen


@st.composite
def plane_currents(draw):
    coords = st.integers(-2, 2)
    cells = []
    for _ in range(draw(st.integers(1, 3))):
        point = [draw(coords), draw(coords)]
        direction = draw(st.tuples(coords, coords).filter(any))
        kind = draw(st.sampled_from(["ray", "segment", "point", "line"]))
        if kind == "ray":
            cells.append(ray_from(point, direction))
        elif kind == "segment":
            cells.append(segment(point, [p + d for p, d in
                                         zip(point, direction)]))
        elif kind == "point":
            cells.append(single_point(point))
        else:
            cells.append(polyhedron(2, [], eqs=[(direction, draw(coords))]))
    weights = [draw(st.integers(1, 3)) for _ in cells]
    return current(2, cells, weights)


@settings(max_examples=40, deadline=None)
@given(plane_currents(), plane_currents(),
       st.tuples(st.integers(-2, 2), st.integers(-2, 2)))
def test_agrees_with_the_oracle_on_hypothesis_currents(S, T, v):
    agrees(S, T, v)
