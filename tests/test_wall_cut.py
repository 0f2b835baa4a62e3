"""The diagonal wedge's wall cut against the sliced cut it replaced.

wedge_diagonal cuts each cell by each wall max(x_i, y_i) on its own: a
cell on the side x_i >= y_i that reaches the wall in a facet keeps that
facet, with the gcd of x_i - y_i over its lattice basis as its weight.
intersection_oracle._wall_slice keeps that per-cell step as the walk ran
it on polyhedra, before it walked on cone generators.  intersection_oracle._wall_cut keeps the
sliced step: the wall as a two-piece PL function, every term sliced along
it, then _divisor_core, run on the whole exterior product wall by wall
(intersection_oracle.wedge_diagonal_by_walls).  Both must give the same
bytes on balanced products, and they must differ on an unbalanced
current, where the wall's linear part x_b does not cut to zero.
"""

import sys
from pathlib import Path

import pytest

import intersection_oracle
from deltaforms import deltaform_json, dumps_canonical, intersection, polyhedra
from deltaforms.currents import DeltaForm, transport_form
from deltaforms.polyhedra import ray_from, single_point
from deltaforms.superforms import SuperForm
from test_theorem_corpus import generated_pairs

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import corpus  # noqa: E402  (perfbench/corpus.py: the flagship pairs)


def wedge_bytes(S, T):
    """The product's canonical JSON, or what wedge_diagonal raised; the
    function is looked up when called, so a test can swap in the old route."""
    try:
        return dumps_canonical(deltaform_json(intersection.wedge_diagonal(S, T)))
    except ValueError as e:
        return type(e), str(e), getattr(e, "certificate", None)


def on_both_cuts(monkeypatch, run):
    """(run() now, run() with the sliced cut), each on an empty intern table."""
    polyhedra._CACHE.clear()
    new = run()
    polyhedra._CACHE.clear()
    with monkeypatch.context() as m:
        calls = intersection_oracle.install_wedge_by_walls(
            m, intersection_oracle._wall_cut)
        old = run()
    polyhedra._CACHE.clear()
    assert calls, "the sliced cut did not run"
    return new, old


def cut_by_cells(X, a, b):
    """X cut by max(x_a, x_b), each term by the per-cell step."""
    out = []
    for sigma, form, _ in X.terms:
        cut = intersection_oracle._wall_slice(sigma, a, b)
        if cut is not None:
            out.append((cut[0], transport_form(form, sigma, cut[0]), cut[1]))
    return DeltaForm(X.n, out).canonicalize()


def test_flagship_wedges_match_the_sliced_cut(monkeypatch):
    """Both orders of every flagship pair in all eight classes."""
    def run():
        out = []
        for cls in range(corpus.CLASSES):
            for name, S, T, _ in corpus.flagship_pairs():
                if S.n != 3:
                    S, T = corpus.moved(S, cls), corpus.moved(T, cls)
                out.append((cls, name, wedge_bytes(S, T), wedge_bytes(T, S)))
        return out

    new, old = on_both_cuts(monkeypatch, run)
    assert new == old
    assert sum(b != dumps_canonical(deltaform_json(DeltaForm(2)))
               for _, _, b, _ in new) >= 8 * 7


@pytest.mark.parametrize("n, count", [(2, 12), (3, 3)])
def test_seeded_wedges_with_coefficients_match_the_sliced_cut(monkeypatch, n, count):
    """Pairs of the theorem corpus, one factor with a polynomial coefficient."""
    def run():
        out = []
        for S, T in generated_pairs(230 + n, n, count):
            out += [wedge_bytes(S, T), wedge_bytes(T, S)]
        return out

    new, old = on_both_cuts(monkeypatch, run)
    assert new == old
    empty = dumps_canonical(deltaform_json(DeltaForm(n)))
    assert sum(b != empty for b in new) >= count


def test_the_cut_weighs_a_crossing_cell_by_the_gcd():
    """The line x + y = 0 crosses x = y, where x - y takes the values 2Z."""
    X = DeltaForm(2, [(polyhedra.polyhedron(2, [], eqs=[([1, 1], 0)]),
                       SuperForm.scalar(1, 1), 1)])
    origin = DeltaForm(2, [(single_point([0, 0]), SuperForm.scalar(0, 2), 1)])
    (sigma, _, _), = X.terms
    tau, c = intersection_oracle._wall_slice(sigma, 0, 1)
    assert (tau, c) == (single_point([0, 0]), 2)
    assert cut_by_cells(X, 0, 1).equals(origin)
    assert intersection_oracle._wall_cut(X, 0, 1).equals(origin)


def test_the_cut_rests_on_balance():
    """Two rays from the origin, along x and along y, are not balanced.

    The sliced cut also counts the jump of the wall's linear part x_b
    along the ray on the side x <= y, so it finds mass 2 at the origin; the
    per-cell cut counts the ray on the side x >= y alone, mass 1.  With the
    third ray of the tropical line the two agree.
    """
    def rays(*dirs):
        return DeltaForm(2, [(ray_from((0, 0), d), SuperForm.scalar(1, 1), 1)
                             for d in dirs]).canonicalize()

    def mass(m):
        return DeltaForm(2, [(single_point([0, 0]), SuperForm.scalar(0, m), 1)])

    assert intersection_oracle._wall_slice(ray_from((0, 0), (1, 0)), 0, 1) == (
        single_point([0, 0]), 1)
    assert intersection_oracle._wall_slice(ray_from((0, 0), (0, 1)), 0, 1) is None
    lone = rays((1, 0), (0, 1))
    assert not lone.is_balanced()[0]
    assert cut_by_cells(lone, 0, 1).equals(mass(1))
    assert intersection_oracle._wall_cut(lone, 0, 1).equals(mass(2))
    line = rays((1, 0), (0, 1), (-1, -1))
    assert line.is_balanced()[0]
    assert cut_by_cells(line, 0, 1).equals(mass(1))
    assert intersection_oracle._wall_cut(line, 0, 1).equals(mass(1))


def test_a_cell_off_the_wall_is_dropped_from_its_generators(monkeypatch):
    """x - y is >= 0 on the ray from (1, 0) along (1, 1) and vanishes only
    on its direction, so its slice by x = y is empty: no intersection runs."""
    monkeypatch.setattr(intersection_oracle, "intersect",
                        lambda *args: pytest.fail("intersect was called"))
    assert intersection_oracle._wall_slice(ray_from((1, 0), (1, 1)), 0, 1) is None
    assert intersection_oracle._wall_slice(ray_from((1, 0), (1, 0)), 0, 1) is None
