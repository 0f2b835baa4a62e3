"""The diagonal wedge's walk against the routes it replaced.

wedge_diagonal walks each pair of factor cells c1 x c2 to the diagonal on
its own, on the generators of the cone over the cell so far, and writes
f1 and f2 on c1 & c2 with the product of the walls' gcd weights.
intersection_oracle keeps two replaced routes.  wedge_diagonal_by_walls
builds the whole exterior product, then cuts the whole current once per
wall, each coefficient transported once per wall; it must give the same
bytes, or the same error and certificate, in both orders, each side from an
emptied intern table.  walk_by_polyhedra walks one pair as polyhedra in
R^2n (_wall_slice); every pair of presented cells must get its verdict and
weight, and land on the projection of its last cell.  The weight is read off
one HNF (lattice_index); it must equal the chain of the walls' gcds that it
replaced (intersection_oracle._wall_gcds), on those pairs and on seeded
pairs of lattices.
"""

import random
import sys
from types import SimpleNamespace
from fractions import Fraction as Q
from pathlib import Path

import pytest

import intersection_oracle
from deltaforms import deltaform_json, dumps_canonical, intersection, polyhedra
from deltaforms.currents import AffineMap, DeltaForm, pushforward
from deltaforms.intersection import corner_locus, pl_max, wedge_diagonal
from deltaforms.linalg import Lattice, hnf, lattice_index, rank
from deltaforms.polyhedra import intersect, polyhedron, product_polyhedron, whole_space
from deltaforms.superforms import Poly, SuperForm
from linalg_oracle import saturate
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


def pair_with_lines():
    """A plane and a tropical plane in R^3, each times a polynomial."""
    x, y, z = (Poly.variable(3, i) for i in range(3))
    S = times(x + Poly.const(3, 2),
              corner_locus(pl_max(3, [([-1, 1, 1], -1), ([0, 0, 0], 2)])))
    T = times(y * z - x, corner_locus(pl_max(
        3, [([1, -1, 0], 0), ([2, 1, -2], -2), ([-1, -2, -1], 1)])))
    return S, T


def test_product_cells_with_lines_walk_to_the_bytes_of_the_walls():
    """Some product cells of pair_with_lines have lines and a base point
    that is not the two base points joined, so the replaced route moved the
    wedge into the product's chart before the walls; the walk moves it once."""
    S, T = pair_with_lines()
    for C in (S, T):
        assert all(p.total_degree() > 0 for _, f, _ in C.terms for p in f.terms.values())
    A, B = (intersection._balanced_presentation(C) for C in (S, T))
    assert any(product_polyhedron(c1, c2).chart.base != c1.chart.base + c2.chart.base
               for c1, _, _ in A.terms for c2, _, _ in B.terms)
    walk, walls = on_both_routes([(S, T)])
    assert walk == walls
    assert nonzero(walk, 3) == 1


def classify_cuts(m):
    """Wrap intersection.cut through the monkeypatch context m, counting
    each wall of the walk by the branch it takes: a line the wall moves, a
    wall with both strict signs on the rays, or a wall that supports the
    cell, whose rays with h = 0 keep the cone's rank less one (a facet) or
    less."""
    counts = dict.fromkeys(("line pivot", "crossing cut", "supporting facet kept",
                            "supporting face dropped"), 0)
    step = intersection.cut

    def counted(rows, bit, lines, rays, zeros, dim):
        (h,) = rows
        vals = [sum(map(int.__mul__, h, r)) for r in rays]
        moved = any(sum(map(int.__mul__, h, ln)) for ln in lines)
        before = rank(lines + rays)
        out = step(rows, bit, lines, rays, zeros, dim)
        if moved:
            counts["line pivot"] += 1
        elif min(vals) < 0 < max(vals):
            counts["crossing cut"] += 1
        else:
            on = [r for r, z in zip(out[1], out[2]) if z & bit]
            kept = rank(out[0] + on) == before - 1
            counts["supporting facet kept" if kept else "supporting face dropped"] += 1
        return out

    m.setattr(intersection, "cut", counted)
    return counts


def projected(tau, n):
    """The one term of the oracle's last cell, with coefficient 1, projected
    onto the first factor."""
    p1 = AffineMap.projection(2 * n, range(n))
    (cell, form, _), = pushforward(p1, DeltaForm(2 * n, [(
        tau, SuperForm.scalar(tau.dim, 1), 1)])).terms
    return cell, form


def walk_pair_by_pair(S, T):
    """Every pair of presented cells of S and T by the walk and by the
    polyhedron walk; returns how many pairs reach the diagonal."""
    n = S.n
    A, B = (intersection._balanced_presentation(C) for C in (S, T))
    reached = 0
    for c1, _, _ in A.terms:
        F1 = intersection._factor_cone(c1)
        for c2, _, _ in B.terms:
            F2 = intersection._factor_cone(c2)
            walked = intersection_oracle.walk_by_polyhedra(c1, c2, n)
            first = intersection._meets_first_wall(F1, F2)
            assert first or intersection_oracle._wall_slice(
                product_polyhedron(c1, c2), n - 1, 2 * n - 1) is None
            if not (first and intersection._reaches_diagonal(F1, F2, n)):
                assert walked is None
                continue
            assert walked is not None
            tau, weight = walked
            assert (intersection_oracle._wall_gcds(c1, c2, n) == weight
                    == lattice_index(c1.span.rows + c2.span.rows, n))
            cell, form = projected(tau, n)
            assert intersect(c1, c2) == cell
            assert form == SuperForm.scalar(cell.dim, 1)  # index 1
            reached += 1
    return reached


def quadrants():
    """The plane cut into its four closed quadrants, coefficient 1.

    Against a tropical line, the ray along y with the quadrant y <= 0 meets
    x_2 = y_2 only in a face two dimensions below the product cell, and
    that face would pass the next wall: only the rank test drops it."""
    return DeltaForm(2, [(polyhedron(2, [([sx, 0], 0), ([0, sy], 0)]),
                          SuperForm.scalar(2, 1), 1)
                         for sx in (1, -1) for sy in (1, -1)])


def test_every_pair_of_cells_walks_as_the_polyhedra_do(monkeypatch):
    """The flagship pairs in all eight classes in both orders, the theorem
    corpus pairs in R^2 and R^3, the pair with lines, and a tropical line
    against the four quadrants: each pair of presented cells gets the
    polyhedron walk's verdict, weight and cell, and every branch of the
    walk runs."""
    pairs = [(corpus.min_line(), quadrants()), (quadrants(), corpus.min_line())]
    for cls in range(corpus.CLASSES):
        for _, S, T, _ in corpus.flagship_pairs():
            if S.n != 3:
                S, T = corpus.moved(S, cls), corpus.moved(T, cls)
            pairs += [(S, T), (T, S)]
    for n, count in ((2, 20), (3, 3)):
        pairs += list(generated_pairs(140 + n, n, count))
    pairs.append(pair_with_lines())
    with monkeypatch.context() as m:
        counts = classify_cuts(m)
        reached = sum(walk_pair_by_pair(S, T) for S, T in pairs)
    assert reached >= 100
    assert all(counts.values()), counts


def random_span(rng, n):
    """A saturated lattice in Z^n, as a cell's span is, from k random
    vectors: mostly 0 < k < n, sometimes k = 0 or k = n."""
    k = rng.randint(1, n - 1) if rng.random() < 0.8 else rng.choice((0, n))
    vectors = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(k)]
    vectors = [v for v in vectors if any(v)]
    return saturate(vectors, n)[0] if vectors else Lattice(n, [])


@pytest.mark.parametrize("n", [2, 3])
def test_the_walls_gcds_are_the_index_of_the_summed_spans(n):
    """On seeded pairs of saturated lattices, the chain of the walls' gcds
    is nonzero exactly when the two spans fill R^n, and then it equals the
    index that lattice_index reads off the pivots of one HNF; some indices
    need a pivot other than the last."""
    rng = random.Random(2800 + n)
    full = split = 0
    for _ in range(300):
        l1, l2 = random_span(rng, n), random_span(rng, n)
        chain = intersection_oracle._wall_gcds(
            SimpleNamespace(span=l1), SimpleNamespace(span=l2), n)
        assert lattice_index(l1.rows + l2.rows, n) == chain
        if chain:
            full += 1
            split += chain != hnf(l1.rows + l2.rows)[-1][-1]
    assert full >= 100 and split >= 10, (full, split)
