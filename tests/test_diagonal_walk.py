"""The diagonal wedge's walk against the wall-by-wall cut it replaced.

wedge_diagonal walks each pair of factor cells c1 x c2 to the diagonal on
its own and moves f1 x f2 once into the chart of the cell it ends on, with
the product of the walls' gcd weights.  intersection_oracle keeps the
replaced route, wedge_diagonal_by_walls: the whole exterior product, then
one cut of the whole current per wall, each coefficient transported once
per wall.  Both must give the same bytes, or the same error and
certificate, in both orders, each side from an emptied intern table.
"""

import random
import sys
from fractions import Fraction as Q
from pathlib import Path

import pytest

import intersection_oracle
from deltaforms import deltaform_json, dumps_canonical, intersection, polyhedra
from deltaforms.currents import DeltaForm
from deltaforms.intersection import corner_locus, pl_max, wedge_diagonal
from deltaforms.polyhedra import product_polyhedron, whole_space
from deltaforms.superforms import Poly, SuperForm
from test_theorem_corpus import generated_pairs, tropical_hypersurface

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import corpus  # noqa: E402  (perfbench/corpus.py: the flagship pairs)


def outcome(wedge, S, T):
    """The product's canonical JSON, or what the wedge raised."""
    try:
        return dumps_canonical(deltaform_json(wedge(S, T)))
    except ValueError as e:
        return type(e), str(e), getattr(e, "certificate", None)


def on_both_routes(pairs):
    """Outcomes of both orders of each pair, by the walk and by the walls,
    each side from an emptied intern table."""
    sides = []
    for wedge in (wedge_diagonal, intersection_oracle.wedge_diagonal_by_walls):
        polyhedra._CACHE.clear()
        sides.append([(outcome(wedge, S, T), outcome(wedge, T, S))
                      for S, T in pairs])
    polyhedra._CACHE.clear()
    return sides


def nonzero(outcomes, n):
    empty = dumps_canonical(deltaform_json(DeltaForm(n)))
    return sum(a != empty for a, _ in outcomes)


def test_flagship_pairs_walk_to_the_bytes_of_the_walls():
    """Every flagship pair, moved into each of the eight classes."""
    pairs = []
    for cls in range(corpus.CLASSES):
        for _, S, T, _ in corpus.flagship_pairs():
            if S.n != 3:
                S, T = corpus.moved(S, cls), corpus.moved(T, cls)
            pairs.append((S, T))
    walk, walls = on_both_routes(pairs)
    assert walk == walls
    assert nonzero(walk, 2) >= 8 * 7


@pytest.mark.parametrize("n, count", [(2, 12), (3, 2)])
def test_theorem_corpus_pairs_walk_to_the_bytes_of_the_walls(n, count):
    """Corner loci, the left one times a multilinear coefficient."""
    walk, walls = on_both_routes(list(generated_pairs(240 + n, n, count)))
    assert walk == walls
    assert nonzero(walk, n) >= count // 2


def test_surfaces_in_r3_walk_to_the_bytes_of_the_walls():
    """Corner loci with 3-5 pieces and slopes in -1..1, whose product cells
    also meet some wall in a face below a facet, which gives nothing."""
    rng = random.Random(1)
    walk, walls = on_both_routes([(tropical_hypersurface(rng, 3, (3, 5), 1),
                                   tropical_hypersurface(rng, 3, (3, 5), 1))])
    assert walk == walls
    assert nonzero(walk, 3) == 1


def full_support_curve(rng, degree):
    """The corner locus of a tropical polynomial in x, y with every monomial
    of degree at most degree and random coefficients."""
    return corner_locus(pl_max(2, [([i, j], Q(rng.randint(-6, 6), rng.randint(1, 2)))
                                   for i in range(degree + 1)
                                   for j in range(degree + 1 - i)]))


def test_corner_loci_of_full_support_polynomials_walk_to_the_bytes_of_the_walls():
    """One seeded pair of plane curves for each degree 3, 4 and 5."""
    rng = random.Random(24)
    walk, walls = on_both_routes([(full_support_curve(rng, d), full_support_curve(rng, d))
                                  for d in (3, 4, 5)])
    assert walk == walls
    assert nonzero(walk, 2) == 3


def times(poly, C):
    """The current C times the polynomial function poly of R^n."""
    coefficient = DeltaForm(C.n, [(whole_space(C.n), SuperForm.from_poly(poly), 1)])
    return wedge_diagonal(coefficient, C)


def test_product_cells_with_lines_walk_to_the_bytes_of_the_walls():
    """A plane and a tropical plane in R^3, each times a polynomial.

    Some of their product cells have lines and a base point that is not
    the two base points joined, so the replaced route moved the wedge into
    the product's chart before the walls; the walk moves it once."""
    x, y, z = (Poly.variable(3, i) for i in range(3))
    S = times(x + Poly.const(3, 2),
              corner_locus(pl_max(3, [([-1, 1, 1], -1), ([0, 0, 0], 2)])))
    T = times(y * z - x, corner_locus(pl_max(
        3, [([1, -1, 0], 0), ([2, 1, -2], -2), ([-1, -2, -1], 1)])))
    for C in (S, T):
        assert all(p.total_degree() > 0 for _, f, _ in C.terms for p in f.terms.values())
    A, B = (intersection._balanced_presentation(C) for C in (S, T))
    assert any(product_polyhedron(c1, c2).chart.base != c1.chart.base + c2.chart.base
               for c1, _, _ in A.terms for c2, _, _ in B.terms)
    walk, walls = on_both_routes([(S, T)])
    assert walk == walls
    assert nonzero(walk, 3) == 1
