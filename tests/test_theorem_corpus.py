"""The diagonal product equals the displacement product on generated inputs.

The paper's central claim is that the Allermann-Rau diagonal cut and the
fan-displacement rule give the same wedge product, smooth coefficients
included.  Each factor here is the corner locus of a random tropical
polynomial (2 to 4 terms, slopes in -2..2, constants with denominator at
most 2), and one factor carries a random multilinear polynomial coefficient,
put on it by a wedge with a full-dimensional current.  The corpus is seeded,
so a failing pair reproduces.
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


def tropical_hypersurface(rng, n):
    """The corner locus of a max of 2 to 4 random affine functions."""
    while True:
        affines = [([rng.randint(-2, 2) for _ in range(n)],
                    Q(rng.randint(-4, 4), rng.randint(1, 2)))
                   for _ in range(rng.randint(2, 4))]
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
