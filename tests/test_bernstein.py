"""Tropical Bernstein in R^2: the product of two corner loci has total mass
equal to the mixed volume of their Newton polygons.

Bernstein (1975), in its tropical form (Maclagan & Sturmfels, Introduction
to Tropical Geometry, 2015, Thm 4.6.8): the stable intersection of the
tropical curves of two tropical polynomials has total multiplicity
MV(P, Q) = area(P + Q) - area(P) - area(Q), for P and Q the convex hulls of
their supports, whatever the coefficients.  Full supports of degrees d1 and
d2 give d1 d2 (Bezout).  The expected mass is computed from the exponent
lists alone, by a convex hull and the shoelace formula in exact rationals,
so the check shares no code with either product route.  The mass of a
product is the sum of the constant coefficients of its 0-dimensional terms.
"""

import random
from fractions import Fraction as Q

import pytest

from deltaforms.intersection import (
    corner_locus,
    displacement_product,
    generic_vector,
    pl_max,
    wedge_diagonal,
)


def hull(points):
    """The vertices of the convex hull of integer points, counterclockwise
    (Andrew's monotone chain)."""
    pts = sorted(set(points))
    if len(pts) < 3:
        return pts

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    lower, upper = [], []
    for p in pts:
        while len(lower) >= 2 and cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    for p in reversed(pts):
        while len(upper) >= 2 and cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    return lower[:-1] + upper[:-1]


def area(points):
    """The area of the convex hull of the points, by the shoelace formula."""
    h = hull(points)
    twice = sum(x0 * y1 - x1 * y0 for (x0, y0), (x1, y1) in zip(h, h[1:] + h[:1]))
    return Q(abs(twice), 2)


def mixed_volume(A, B):
    """area(A + B) - area(A) - area(B) for the hulls of two supports."""
    minkowski = [(a + c, b + d) for a, b in A for c, d in B]
    return area(minkowski) - area(A) - area(B)


def full_support(d):
    return [(i, j) for i in range(d + 1) for j in range(d + 1 - i)]


def curve(rng, support):
    """The corner locus of max over the support of a.x + c, with c drawn from
    +-6 over 1 or 2."""
    return corner_locus(pl_max(2, [(a, Q(rng.randint(-6, 6), rng.randint(1, 2)))
                                   for a in support]))


def mass(T):
    total = Q(0)
    for cell, form, w in T.terms:
        assert cell.dim == 0
        (coef,) = form.terms.values()
        total += w * coef.constant_value()
    return total


def random_support(rng):
    """Three to six points of [0, 3]^2 whose hull has positive area."""
    grid = [(i, j) for i in range(4) for j in range(4)]
    while True:
        support = rng.sample(grid, rng.randint(3, 6))
        if area(support):
            return support


def cases():
    rng = random.Random(3203)
    out = [(full_support(d1), full_support(d2)) for d1, d2 in ((1, 1), (2, 3), (3, 3))]
    out += [(random_support(rng), random_support(rng)) for _ in range(5)]
    return out


def test_the_oracle_on_known_polygons():
    assert area([(0, 0), (2, 0), (0, 2), (1, 1), (1, 0)]) == 2
    assert mixed_volume(full_support(2), full_support(3)) == 6
    # a unit square and a unit segment: MV = the square's width across it
    assert mixed_volume([(0, 0), (1, 0), (0, 1), (1, 1)], [(0, 0), (1, 0)]) == 1


@pytest.mark.parametrize("k", range(len(cases())))
def test_mass_is_the_mixed_volume_on_both_routes(k):
    A, B = cases()[k]
    rng = random.Random(3203 + k)
    S, T = curve(rng, A), curve(rng, B)
    expected = mixed_volume(A, B)
    assert expected > 0
    assert mass(wedge_diagonal(S, T)) == expected
    assert mass(wedge_diagonal(T, S)) == expected
    assert mass(displacement_product(S, T, generic_vector(S, T))) == expected
