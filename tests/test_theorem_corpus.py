"""The diagonal product equals the displacement product on generated inputs.

The paper's central claim is that the Allermann-Rau diagonal cut and the
fan-displacement rule give the same wedge product, smooth coefficients
included.  Each factor here is the corner locus of a random tropical
polynomial (2 to 4 terms, slopes in -2..2, constants with denominator at
most 2), and one factor carries a random multilinear polynomial coefficient,
put on it by a wedge with a full-dimensional current.  The corpus is seeded,
so a failing pair reproduces.

In R^3 two corner loci are surfaces, and their product is a curve.  There
closed cells of the two factors can meet below the expected dimension while
the displaced cells still meet, in cells that shrink onto that face; the
displacement route must count such a pair as zero.  The R^3 corpus has 3 to
5 affine pieces with slopes in -1..1, where many pairs do that.
"""

import random
from fractions import Fraction as Q
from itertools import product

import pytest

from deltaforms.currents import DeltaForm
from deltaforms.intersection import (
    corner_locus,
    displacement_product,
    generic_vector,
    pl_max,
    wedge_diagonal,
)
from deltaforms.polyhedra import whole_space
from deltaforms.superforms import Poly, SuperForm


def tropical_hypersurface(rng, n, pieces=(2, 4), slope=2):
    """The corner locus of a max of random affine functions."""
    while True:
        affines = [([rng.randint(-slope, slope) for _ in range(n)],
                    Q(rng.randint(-4, 4), rng.randint(1, 2)))
                   for _ in range(rng.randint(*pieces))]
        C = corner_locus(pl_max(n, affines))
        if C.terms:
            return C


def multilinear(rng, n):
    """A random polynomial of degree at most one in each variable."""
    terms = {e: Q(rng.randint(-3, 3), rng.randint(1, 2))
             for e in product((0, 1), repeat=n) if rng.random() < 0.7}
    return Poly(n, terms or {(0,) * n: Q(1)})


def generated_pairs(seed, n, count):
    rng = random.Random(seed)
    for _ in range(count):
        S, T = tropical_hypersurface(rng, n), tropical_hypersurface(rng, n)
        coefficient = DeltaForm(n, [(whole_space(n), SuperForm.from_poly(
            multilinear(rng, n)), 1)])
        yield wedge_diagonal(coefficient, S), T


@pytest.mark.parametrize("n, count", [(2, 20), (3, 3)])
def test_diagonal_equals_displacement_on_generated_pairs(n, count):
    nonzero = smooth = 0
    for k, (S, T) in enumerate(generated_pairs(140 + n, n, count)):
        diag = wedge_diagonal(S, T)
        v = generic_vector(S, T)
        assert diag.equals(displacement_product(S, T, v)), (k, v)
        nonzero += bool(diag.terms)
        smooth += any(p.total_degree() > 0 for _, f, _ in S.terms
                      for p in f.terms.values())
    # the corpus is not vacuous: most products are nonzero, and most left
    # factors carry a coefficient that is not constant
    assert nonzero >= count * 3 // 4
    assert smooth >= count * 3 // 4


def assert_routes_agree_on_a_curve(S, T):
    diag = wedge_diagonal(S, T)
    v = generic_vector(S, T)
    disp = displacement_product(S, T, v)
    assert diag.equals(disp), v
    assert {c.dim for c, _, _ in disp.terms} == {1}, v
    return v


def test_displacement_drops_pairs_that_meet_below_the_expected_dimension():
    """The smallest pair found: at v = (1, 1, 1) two cells meet at the point
    (1, 2, -3/2) and their shifts still meet, in segments that shrink onto it."""
    S = corner_locus(pl_max(3, [([0, -1, 1], 0), ([0, -1, -1], -3),
                                ([-1, 0, 1], -1)]))
    T = corner_locus(pl_max(3, [([-1, 1, 1], -1), ([0, -1, -1], -1),
                                ([-1, -1, 1], 3)]))
    assert assert_routes_agree_on_a_curve(S, T) == [1, 1, 1]


def test_diagonal_equals_displacement_on_corner_loci_in_r3():
    rng = random.Random(232)
    for _ in range(20):
        S, T = (tropical_hypersurface(rng, 3, pieces=(3, 5), slope=1)
                for _ in range(2))
        assert_routes_agree_on_a_curve(S, T)
