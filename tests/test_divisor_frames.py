"""The divisor and chart layers against the routes they replaced.

_divisor_core evaluates only the stars where the function bends, a span
lattice and its frame (complement and chart duals) are kept once per
direction space, and _covering_cell tests the homogeneous relative-interior
point in integers.  The replaced bodies live in intersection_oracle and
polyhedra_oracle.  Each side below starts from an emptied intern table and
builds its inputs from the same seed; both must give the same terms, charts
and certificates.
"""

import random
import sys
from fractions import Fraction as Q
from pathlib import Path

import pytest

import intersection_oracle
import polyhedra_oracle
from deltaforms import currents, intersection, polyhedra
from deltaforms.currents import (
    DeltaForm,
    PreconditionError,
    exterior_product,
    fundamental_cycle,
    ps_multiply,
)
from deltaforms.intersection import divisor_intersect, pl_max
from deltaforms.polyhedra import Complex, polyhedron, ray_from
from deltaforms.superforms import PiecewiseForm, Poly, SuperForm

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import corpus  # noqa: E402  (perfbench/corpus.py: the flagship pairs)


def install_parent_routes(m):
    """Put the replaced span, chart, base_point, divisor and wedge bodies
    back; the old wedge cuts the exterior product wall by wall with the
    sliced cut, which reaches _divisor_core.  Returns the list that each
    call of the old wedge appends to."""
    for name in ("span", "chart", "base_point"):
        m.setattr(polyhedra.Polyhedron, name,
                  property(getattr(polyhedra_oracle, name)))
    m.setattr(intersection, "_divisor_core", intersection_oracle._divisor_core)
    m.setattr(currents, "_covering_cell", intersection_oracle._covering_cell)
    return intersection_oracle.install_wedge_by_walls(m, intersection_oracle._wall_cut)


def on_both_routes(monkeypatch, run):
    """(run() now, run() on the parent routes), each on an empty intern table.

    wedge_diagonal is counted on both sides, so a run that wedges must reach
    the old wedge as often as the new one."""
    polyhedra._CACHE.clear()
    with monkeypatch.context() as m:
        walked = intersection_oracle.count_calls(m, intersection, "wedge_diagonal")
        new = run()
    polyhedra._CACHE.clear()
    with monkeypatch.context() as m:
        by_walls = install_parent_routes(m)
        old = run()
    polyhedra._CACHE.clear()
    assert len(walked) == len(by_walls)
    return new, old


def outcome(fn, *args):
    """("terms", the result's terms), or ("error", what the call raised)."""
    try:
        return "terms", fn(*args).terms
    except ValueError as e:
        return "error", (type(e), str(e), getattr(e, "certificate", None))


def frame_of(cell):
    ch = cell.chart
    return (cell.span.rows, cell.base_point, ch.base, ch.basis, ch.comp,
            ch.u_rows, ch.w_rows)


def flagship(cls):
    """The flagship pairs moved into class cls, as the benchmark moves them."""
    for name, S, T, _ in corpus.flagship_pairs():
        if S.n != 3:
            S, T = corpus.moved(S, cls), corpus.moved(T, cls)
        yield name, S, T


def random_cell(rng, n):
    """A nonempty cell from at most three random rows; many have lines."""
    while True:
        k = rng.randint(0, 1)
        rows = [([rng.randint(-2, 2) for _ in range(n)],
                 Q(rng.randint(-1 if i < k else 0, 3), rng.randint(1, 2)))
                for i in range(k + rng.randint(0, 3 - k))]
        cell = polyhedron(n, rows[k:], eqs=rows[:k])
        if cell is not None:
            return cell


def random_pl(rng, n, pieces):
    """A maximum of 3 or 4 affine pieces, slopes in -2..2, constants in halves."""
    while True:
        affines = [([rng.randint(-2, 2) for _ in range(n)],
                    Q(rng.randint(-4, 4), rng.randint(1, 2)))
                   for _ in range(pieces)]
        phi = pl_max(n, affines)
        if len(phi.maximal) > 1:
            return phi


def random_form(rng, d):
    terms = {((), ()): Poly(d, {tuple(rng.randint(0, 1) for _ in range(d)):
                                Q(rng.randint(-3, 3), rng.randint(1, 2))
                                for _ in range(3)})}
    ii = tuple(sorted(rng.sample(range(d), rng.randint(0, d))))
    terms[(ii, ii)] = Poly(d, {(0,) * d: Q(rng.randint(1, 3))})
    return SuperForm(d, terms)


def balanced_targets(rng, n):
    """Balanced currents: the whole space (lines), a corner locus with an
    ambient form on it, and in the plane a weighted tropical line."""
    phi = random_pl(rng, n, 3)
    alpha = random_form(rng, n)
    out = [fundamental_cycle(n),
           DeltaForm(n, [(c, alpha.restrict(c.chart).wedge(f), w)
                         for c, f, w in intersection.corner_locus(phi).terms])]
    if n == 2:
        apex = (rng.randint(-2, 2), Q(rng.randint(-2, 2), 2))
        out.append(DeltaForm(2, [(ray_from(apex, d), SuperForm.scalar(1, 1), 2)
                                 for d in [(1, 0), (0, 1), (-1, -1)]]))
    return out


# ------------------------------------------------------------------ charts --

def test_charts_match_the_per_cell_construction(monkeypatch):
    """Every face of the flagship products and of random cells with lines."""
    def run():
        rng = random.Random(71)
        cells = []
        for cls in range(corpus.CLASSES):
            for _, S, T in flagship(cls):
                cells += [c for c, _, _ in exterior_product(S, T).terms]
        for n in (2, 3, 4):
            cells += [random_cell(rng, n) for _ in range(12)]
        return [frame_of(f) for c in cells for f in c.faces()]

    new, old = on_both_routes(monkeypatch, run)
    assert new == old
    assert len({rows for rows, *_ in new}) >= 40


def test_lineality_cut_matches_the_per_cell_construction(monkeypatch):
    """base_point of cells with lines goes through the lineality frame."""
    def run():
        rng = random.Random(72)
        out = []
        for n in (2, 3, 4):
            for _ in range(20):
                cell = random_cell(rng, n)
                if cell.lineality.rank:
                    out.append((cell.lineality.rows, cell.base_point))
        return out

    new, old = on_both_routes(monkeypatch, run)
    assert new == old and len(new) >= 20


# ---------------------------------------------------------------- divisors --

@pytest.mark.parametrize("n", [2, 3])
def test_divisors_match_the_every_star_route(monkeypatch, n):
    """pl_max with 3 or 4 pieces on balanced and unbalanced currents."""
    def run():
        rng = random.Random(80 + n)
        out = []
        for k in range(6 if n == 2 else 3):
            phi = random_pl(rng, n, 3 + k % 2)
            for T in balanced_targets(rng, n):
                out.append(outcome(divisor_intersect, phi, T))
            # a lone half-line or cell is not balanced: same certificate
            cell = random_cell(rng, n)
            lone = DeltaForm(n, [(cell, SuperForm.scalar(cell.dim, 1), 1)])
            out.append(outcome(divisor_intersect, phi, lone))
        return out

    new, old = on_both_routes(monkeypatch, run)
    assert new == old
    assert sum(kind == "terms" and bool(t) for kind, t in new) >= (10 if n == 2 else 4)
    assert any(kind == "error" for kind, _ in new)


def test_flagship_wedges_match_the_every_star_route(monkeypatch):
    """The diagonal route on the flagship pairs in all eight classes."""
    def run():
        return [(cls, name, outcome(intersection.wedge_diagonal, S, T))
                for cls in range(corpus.CLASSES) for name, S, T in flagship(cls)]

    new, old = on_both_routes(monkeypatch, run)
    assert new == old
    assert sum(bool(t) for _, _, (_, t) in new) >= 8 * 8


def covering(maximal, cell):
    """("cell", the covering cell), or ("error", message and certificate)."""
    try:
        return "cell", currents._covering_cell(maximal, cell, "test")
    except PreconditionError as e:
        return "error", (str(e), e.certificate)


def test_covering_cells_match_the_rational_test(monkeypatch):
    """The first covering cell, or the same certificate when none covers."""
    def run():
        rng = random.Random(91)
        out = []
        for n in (2, 3):
            for _ in range(15):
                maximal = [random_cell(rng, n) for _ in range(3)]
                out += [covering(maximal, cell)
                        for cell in random_cell(rng, n).faces()]
        return out

    new, old = on_both_routes(monkeypatch, run)
    assert new == old
    kinds = [kind for kind, _ in new]
    assert kinds.count("cell") >= 20 and kinds.count("error") >= 20


def test_piecewise_products_match_the_rational_test(monkeypatch):
    """ps_multiply covers every sliced cell, or names the first one it cannot."""
    def run():
        rng = random.Random(92)
        out = []
        for _ in range(8):
            phi = random_pl(rng, 2, 3)
            pieces = {c: SuperForm.from_poly(Poly.affine(*phi.affine_on(c)))
                      for c in phi.maximal}
            part = phi.maximal[:-1]
            for cx, keep in ((phi.complex, pieces),
                             (Complex(part), {c: pieces[c] for c in part})):
                alpha = PiecewiseForm(cx, keep)
                for T in balanced_targets(rng, 2):
                    out.append(outcome(ps_multiply, alpha, T))
        return out

    new, old = on_both_routes(monkeypatch, run)
    assert new == old
    kinds = [kind for kind, _ in new]
    assert kinds.count("terms") >= 10 and kinds.count("error") >= 5


def test_covering_cell_reads_the_generators_not_relint_point(monkeypatch):
    """The integer test needs no Fraction point of the cell."""
    monkeypatch.setattr(polyhedra.Polyhedron, "relint_point",
                        lambda self: pytest.fail("relint_point was called"))
    phi = pl_max(2, [([1, 0], 0), ([0, 1], 0), ([0, 0], 0)])
    # the ray x = y >= 0 lies in the regions of x and of y: the first in
    # sort order covers it
    diagonal = polyhedron(2, [([-1, 0], 0)], eqs=[([1, -1], 0)])
    assert covering(phi.maximal, diagonal) == (
        "cell", min(phi.maximal[:2], key=lambda c: c.sort_key))
    left, right = polyhedron(2, [([1, 0], 0)]), polyhedron(2, [([-1, 0], -1)])
    assert covering([left], right)[0] == "error"
