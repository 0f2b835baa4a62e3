import random
from fractions import Fraction

import pytest

import polyhedra_oracle
from currents_oracle import stable_weight
from intersection_oracle import all_pairs
from linalg_oracle import coords as lattice_coords
from linalg_oracle import det, saturate
from superform_oracle import triangulate
from deltaforms.currents import DeltaForm, as_piecewise_form
from deltaforms.intersection import pl_max
from deltaforms.io import dumps_canonical
from deltaforms.linalg import Lattice, complement_lattice, integer_kernel
from deltaforms.polyhedra import (
    Complex,
    ComplexError,
    WeightedCell,
    _meeting_pairs,
    box,
    intersect,
    polyhedron,
    primitive_normal,
    product_polyhedron,
    ray_from,
    recession_cone,
    segment,
    single_point,
    translate,
    whole_space,
)
from deltaforms.superforms import SuperForm, integrate_top

Q = Fraction


def halfplane(a, b):
    return polyhedron(len(a), [([Q(x) for x in a], Q(b))])


def volume(p):
    """Volume of a bounded cell in its own canonical lattice chart.

    The integral of d'u_1 ∧ d''u_1 ∧ ... ∧ d'u_d ∧ d''u_d for the chart
    coordinates u_k, the dual rows u_rows[k] applied to x.
    """
    form = SuperForm.scalar(p.n, 1)
    for row in p.chart.u_rows:
        du = {i: c for i, c in enumerate(row) if c}
        form = (form.wedge(SuperForm(p.n, {((i,), ()): c for i, c in du.items()}))
                .wedge(SuperForm(p.n, {((), (i,)): c for i, c in du.items()})))
    return integrate_top(form, WeightedCell(p, 1))


def intersection_lattice(l1, l2):
    """Z^n intersected with span(l1) ∩ span(l2)."""
    n = l1.n
    duals = []
    for lat in (l1, l2):
        if lat.rank == n:
            continue
        if lat.rank == 0:
            return Lattice(n, [])
        for v in integer_kernel([list(r) for r in lat.rows], n).rows:
            duals.append(v)
    if not duals:
        return Lattice(n, [[1 if i == j else 0 for j in range(n)] for i in range(n)])
    return integer_kernel(duals, n)


def sublattice_complement_in(sub, sup):
    """Basis c of a direct complement of sub inside sup: sup = sub (+) span_Z(c).

    Both lattices are saturated in Z^n; the complement is found by
    complementing sub's coordinate lattice inside Z^rank(sup).
    """
    coords = []
    for v in sub.basis():
        c = lattice_coords(sup, v)
        assert c is not None and all(x.denominator == 1 for x in c)
        coords.append([int(x) for x in c])
    inner = Lattice(sup.rank, coords)
    assert inner.rank == sub.rank
    comp = complement_lattice(inner)
    return [[sum(crow[k] * sup.rows[k][i] for k in range(sup.rank))
             for i in range(sup.n)] for crow in comp.rows]


def test_canonicalization_dedupes_representations():
    p1 = polyhedron(2, [([Q(1), Q(0)], Q(1)), ([Q(2), Q(0)], Q(2)), ([Q(-1), Q(0)], Q(0))])
    p2 = polyhedron(2, [([Q(1), Q(0)], Q(1)), ([Q(-1), Q(0)], Q(0))])
    assert p1 is p2


def test_implicit_equalities_detected():
    # x <= 0 and x >= 0 force x = 0
    p = polyhedron(2, [([Q(1), Q(0)], Q(0)), ([Q(-1), Q(0)], Q(0)), ([Q(0), Q(1)], Q(5))])
    assert p.dim == 1
    assert len(p.eq_rows) == 1
    assert p.eq_rows[0] == (1, 0, 0)


def test_empty_polyhedron_is_none():
    assert polyhedron(1, [([Q(1)], Q(0)), ([Q(-1)], Q(-1))]) is None


def test_redundant_rows_removed():
    p = polyhedron(1, [([Q(1)], Q(5)), ([Q(2)], Q(0))])
    assert p.ineq_rows == ((1, 0),)


def test_faces_unit_square():
    sq = box([0, 0], [1, 1])
    faces = sq.faces()
    by_dim = {}
    for f in faces:
        by_dim.setdefault(f.dim, []).append(f)
    assert len(by_dim[2]) == 1
    assert len(by_dim[1]) == 4
    assert len(by_dim[0]) == 4
    assert len(faces) == 9


def test_faces_ray():
    r = ray_from([0], [1])
    faces = r.faces()
    assert len(faces) == 2
    assert sorted(f.dim for f in faces) == [0, 1]


def test_faces_affine_line():
    diag = polyhedron(2, [], eqs=[([Q(1), Q(-1)], Q(0))])
    assert diag.faces() == [diag]


def test_intersect_axes():
    xaxis = polyhedron(2, [], eqs=[([Q(0), Q(1)], Q(0))])
    yaxis = polyhedron(2, [], eqs=[([Q(1), Q(0)], Q(0))])
    assert intersect(xaxis, yaxis) is single_point([0, 0])


def test_intersect_empty():
    a = halfplane([1], 0)
    b = polyhedron(1, [([Q(-1)], Q(-1))])
    assert intersect(a, b) is None


def test_intersect_diag_with_horizontal_line():
    diag = polyhedron(2, [], eqs=[([Q(1), Q(-1)], Q(0))])
    horiz = polyhedron(2, [], eqs=[([Q(0), Q(1)], Q(1))])
    assert intersect(diag, horiz) is single_point([1, 1])


def test_base_point_is_lex_min_vertex():
    sq = box([0, 0], [1, 1])
    assert sq.base_point == (Q(0), Q(0))
    # unbounded to the left: the only vertex wins even though inf x = -inf
    p = polyhedron(2, [([Q(0), Q(1)], Q(1)), ([Q(0), Q(-1)], Q(0)), ([Q(1), Q(-1)], Q(0))])
    assert p.base_point == (Q(0), Q(0))
    # lineality: a full halfplane has no vertices
    hp = halfplane([-1, 0], 0)
    assert hp.base_point == (Q(0), Q(0))


def test_chart_round_trip():
    diag = polyhedron(2, [], eqs=[([Q(1), Q(-1)], Q(0))])
    ch = diag.chart
    assert ch.dim == 1
    pt = ch.to_ambient([Q(3)])
    assert diag.contains(pt)
    assert ch.to_local(pt) == [Q(3)]


def test_complex_validation_rejects_bad_pair():
    # two squares overlapping in a half-square: intersection is not a face
    a = box([0, 0], [2, 2])
    b = box([1, 0], [3, 2])
    with pytest.raises(ComplexError):
        Complex([a, b])


def test_refinement_volume_bookkeeping():
    rng = random.Random(20240813)
    for _ in range(5):
        cuts_a = sorted({Q(rng.randint(0, 4)), Q(rng.randint(5, 8))})
        outer = box([0, 0], [8, 8])
        # two complexes slicing the square by vertical / horizontal lines
        ca = [intersect(outer, halfplane([1, 0], cuts_a[0])),
              intersect(outer, polyhedron(2, [([Q(-1), Q(0)], -cuts_a[0]), ([Q(1), Q(0)], cuts_a[1])])),
              intersect(outer, halfplane([-1, 0], -cuts_a[1]))]
        cb_cut = Q(rng.randint(1, 7))
        cb = [intersect(outer, halfplane([0, 1], cb_cut)),
              intersect(outer, halfplane([0, -1], -cb_cut))]
        for cell in ca:
            caps = [intersect(cell, b) for b in cb]
            total = sum(volume(cap) for cap in caps
                        if cap is not None and cap.dim == cell.dim)
            assert total == volume(cell)


def test_primitive_normal_examples():
    origin = single_point([0, 0])
    rx = ray_from([0, 0], [1, 0])
    assert primitive_normal(rx, origin) == [1, 0]

    diag = polyhedron(2, [], eqs=[([Q(1), Q(-1)], Q(0))])
    upper = halfplane([1, -1], 0)   # x <= y
    n = primitive_normal(upper, diag)
    assert n == [0, 1]
    # determinant test: basis of diag with n spans Z^2
    assert abs(det([[Q(1), Q(1)], [Q(x) for x in n]])) == 1


def test_stable_weight_examples():
    xaxis = Lattice(2, [[1, 0]])
    yaxis = Lattice(2, [[0, 1]])
    assert stable_weight(xaxis, 1, yaxis, 1) == 1
    l12 = Lattice(2, [[1, 2]])
    assert stable_weight(xaxis, 1, l12, 1) == 2
    assert stable_weight(xaxis, 2, l12, 3) == 12
    assert stable_weight(l12, 1, xaxis, 1) == stable_weight(xaxis, 1, l12, 1)
    with pytest.raises(ValueError):
        stable_weight(xaxis, 1, xaxis, 1)


def test_stable_weight_identity_oracle():
    # (mu1 ∩ mu2) ∧ mu_std = mu1 ∧ mu2: multiplier of the stable weight equals
    # |det[w a b]| for bases w of the intersection extended inside each factor
    rng = random.Random(31)
    tried = 0
    while tried < 12:
        vecs = [[rng.randint(-2, 2) for _ in range(3)] for _ in range(2)]
        if not any(vecs[0]) or not any(vecs[1]):
            continue
        l1, _ = saturate(vecs, 3)
        if l1.rank != 2:
            continue
        gens2 = [v for v in ([rng.randint(-2, 2) for _ in range(3)],
                             [rng.randint(-2, 2) for _ in range(3)]) if any(v)]
        if not gens2:
            continue
        l2, _ = saturate(gens2, 3)
        summed, _ = saturate(l1.rows + l2.rows, 3)
        if summed.rank != 3:
            continue
        tried += 1
        inter = intersection_lattice(l1, l2)
        w = inter.basis()
        a = sublattice_complement_in(inter, l1)
        b = sublattice_complement_in(inter, l2)
        mat = [[Q(x) for x in row] for row in (w + a + b)]
        lam1, lam2 = Q(rng.randint(1, 5)), Q(rng.randint(1, 5), rng.randint(1, 3))
        assert stable_weight(l1, lam1, l2, lam2) == lam1 * lam2 * abs(det(mat))


def test_product_polyhedron():
    seg = box([0], [1])
    assert product_polyhedron(seg, seg) is box([0, 0], [1, 1])

    emb = product_polyhedron(single_point([2]), seg)
    assert emb.dim == 1
    assert emb.base_point == (Q(2), Q(0))


def test_translate():
    sq = box([0, 0], [1, 1])
    t = translate(sq, [Q(1, 2), Q(3)])
    assert t.base_point == (Q(1, 2), Q(3))
    assert translate(t, [Q(-1, 2), Q(-3)]) is sq


def test_recession_cone():
    r = ray_from([1, 1], [0, 1])
    rec = recession_cone(r)
    assert rec is ray_from([0, 0], [0, 1])
    assert box([0, 0], [1, 1]).is_bounded()
    assert not r.is_bounded()


def test_triangulate_and_volume():
    sq = box([0, 0], [1, 1])
    tris = triangulate(sq)
    assert len(tris) == 2
    assert volume(sq) == 1

    cube = box([0, 0, 0], [2, 2, 2])
    assert volume(cube) == 8

    tri = polyhedron(2, [([Q(-1), Q(0)], Q(0)), ([Q(0), Q(-1)], Q(0)), ([Q(1), Q(1)], Q(1))])
    assert volume(tri) == Q(1, 2)

    # lattice length of a diagonal segment: one lattice step
    seg = segment([0, 0], [2, 2])
    assert volume(seg) == 2


def test_whole_space_and_point_charts():
    r2 = whole_space(2)
    assert r2.dim == 2 and r2.base_point == (Q(0), Q(0))
    p = single_point([Q(1, 3), Q(-2)])
    assert p.dim == 0
    assert p.chart.dim == 0
    assert p.base_point == (Q(1, 3), Q(-2))


def random_cells(rng, seen):
    """A random list of cells in R^1 to R^3 that need not form a complex.

    It mixes cells with lineality, their lower-dimensional faces, repeated
    cells, and cells cut out of another by a half-space or a hyperplane
    through it, which are contained in it without being faces; seen counts
    the nested cuts.
    """
    n = rng.randint(1, 3)
    dead = rng.randrange(n + 1)
    cells = []
    for _ in range(rng.randint(1, 3)):
        rows = [([Q(0) if j == dead else Q(rng.randint(-2, 2)) for j in range(n)],
                 Q(rng.randint(0, 3))) for _ in range(rng.randint(0, 4))]
        c = polyhedron(n, rows)
        if c is None:
            continue
        cells.append(c)
        cells.append(rng.choice(c.faces()))
        x = c.relint_point()
        a = [Q(rng.randint(-2, 2)) for _ in range(n)]
        b = sum(p * q for p, q in zip(a, x))
        cut = polyhedron(n, [(r[:-1], r[-1]) for r in c.ineq_rows] + [(a, b)],
                         eqs=[(r[:-1], r[-1]) for r in c.eq_rows]
                         + ([(a, b)] if rng.random() < 0.3 else []))
        if cut is not None and cut != c and cut not in c.faces():
            cells.append(cut)
            seen["nested"] += 1
        if rng.random() < 0.3:
            cells.append(rng.choice(cells))
    rng.shuffle(cells)
    return n, cells


def complex_of(cells):
    """The complex of the cells, in list order, that keep the face closure
    a complex by the oracle's check of every pair."""
    kept = []
    for c in cells:
        if polyhedra_oracle.face_compatibility_failure(
                Complex(kept + [c], validate=False)) is None:
            kept.append(c)
    return Complex(kept)


def test_maximal_cells_match_the_intersection_route():
    """The cells that are no cell's facet are the cells that the
    intersection route finds contained in no other cell of the face closure.

    The complexes are the cells of each random_cells list that keep a
    complex, greedily in list order (few whole lists form one, as they
    hold nested cells), the regions of random pl_max functions and the
    tiles of as_piecewise_form.
    """
    rng = random.Random(4111)
    seen = dict.fromkeys(("lineality", "lower", "nested", "several",
                          "pl_max", "tiles"), 0)
    complexes = []
    for _ in range(300):
        n, cells = random_cells(rng, seen)
        complexes.append((n, complex_of(cells)))
    for _ in range(20):
        n = rng.randint(1, 3)
        affines = [([rng.randint(-2, 2) for _ in range(n)], rng.randint(-2, 2))
                   for _ in range(rng.randint(1, 4))]
        complexes.append((n, pl_max(n, affines).complex))
        seen["pl_max"] += 1
        # cells through the origin, as every right-hand side is >= 0
        cells = [polyhedron(n, [([Q(rng.randint(-2, 2)) for _ in range(n)],
                                 Q(rng.randint(0, 2)))
                                for _ in range(rng.randint(1, 3))])
                 for _ in range(2)]
        # a top-degree form restricts to zero on every facet, so the
        # pieces agree on shared faces
        top = SuperForm.scalar(n, 1)
        for i in range(n):
            top = top.wedge(SuperForm.d_prime_x(n, i)).wedge(SuperForm.d_second_x(n, i))
        T = DeltaForm(n, [(c, top, 1) for c in cells if c.dim == n])
        complexes.append((n, as_piecewise_form(T).complex))
        seen["tiles"] += 1
    for n, cx in complexes:
        assert cx.maximal_cells() == polyhedra_oracle.maximal_cells_of(list(cx.cells))
        seen["lineality"] += any(c.lineality.rank > 0 for c in cx.cells)
        seen["lower"] += any(c.dim < n for c in cx.maximal_cells())
        seen["several"] += len(cx.maximal_cells()) > 1
    assert seen["several"] >= 80 and all(seen.values()), seen


def test_face_compatibility_matches_the_full_scan():
    """Pairing only generating cells keeps the verdict and certificate bytes.

    On the random lists of random_cells, some of them cut into two halves
    that do form a complex, the check agrees with the scan of every ordered
    pair of cells that it replaced.
    """
    rng = random.Random(6007)
    seen = dict.fromkeys(("complex", "not complex", "nested"), 0)
    for _ in range(300):
        n, cells = random_cells(rng, seen)
        if cells and rng.random() < 0.5:
            # both closed sides of a hyperplane through one cell
            c = cells[0]
            a = [Q(rng.randint(-2, 2)) for _ in range(n)]
            b = sum(p * q for p, q in zip(a, c.relint_point()))
            rows = [(r[:-1], r[-1]) for r in c.ineq_rows]
            eqs = [(r[:-1], r[-1]) for r in c.eq_rows]
            cells = [polyhedron(n, rows + [(a, b)], eqs=eqs),
                     polyhedron(n, rows + [([-x for x in a], -b)], eqs=eqs)]
        cx = Complex(cells, validate=False)
        got = cx.face_compatibility_failure()
        want = polyhedra_oracle.face_compatibility_failure(cx)
        assert dumps_canonical(got) == dumps_canonical(want)
        seen["complex" if got is None else "not complex"] += 1
    assert all(seen.values()), seen


def test_one_pass_certificates_match_the_two_pass_check():
    """Reading the certificate off the first failing pair of maximal cells
    gives the bytes of the check that then scanned every pair of the face
    closure again (polyhedra_oracle.two_pass_face_compatibility_failure).

    2,000 random_cells lists in R^1 to R^3; in a third of them the first
    cell is cut in two by a hyperplane, and in half of those only its two
    halves are kept.  Counted: lists
    that form no complex, complexes, lists whose maximal cells differ in
    dimension, and failures whose pair is not the first two maximal cells.
    """
    rng = random.Random(30)
    seen = dict.fromkeys(("complex", "not complex", "mixed dimensions",
                          "later pair", "nested"), 0)
    for _ in range(2000):
        n, cells = random_cells(rng, seen)
        r = rng.random()
        if cells and r < 0.35:
            c = cells[0]
            a = [Fraction(rng.randint(-2, 2)) for _ in range(n)]
            b = sum(p * q for p, q in zip(a, c.relint_point()))
            rows = [(r[:-1], r[-1]) for r in c.ineq_rows]
            eqs = [(r[:-1], r[-1]) for r in c.eq_rows]
            halves = [polyhedron(n, rows + [(a, b)], eqs=eqs),
                      polyhedron(n, rows + [([-x for x in a], -b)], eqs=eqs)]
            cells = halves if r < 0.17 else cells[1:] + halves
        cx = Complex(cells, validate=False)
        got = cx.face_compatibility_failure()
        want = polyhedra_oracle.two_pass_face_compatibility_failure(cx)
        assert dumps_canonical(got) == dumps_canonical(want)
        maximal = cx.maximal_cells()
        seen["complex" if got is None else "not complex"] += 1
        seen["mixed dimensions"] += len({c.dim for c in maximal}) > 1
        seen["later pair"] += got is not None and (
            [cx.cells[got["cell_a"]], cx.cells[got["cell_b"]]] != maximal[:2])
    assert seen["not complex"] >= 500 and seen["complex"] >= 100, seen
    assert seen["mixed dimensions"] >= 20 and seen["later pair"] >= 10, seen


def touching_cells():
    """Cells in R^2 and R^3 that touch without overlapping, as lists.

    Squares, cubes and segments that share only a vertex; triangles,
    segments and a ray whose cells are disjoint but whose bounding boxes
    share only a corner; two squares on a common edge; and a point.
    """
    def triangle(x, y, s):
        # conv{(x, y), (x + s, y), (x, y + s)} for s = 1, the mirror for s = -1
        return polyhedron(2, [([-s, 0], -s * x), ([0, -s], -s * y),
                              ([s, s], s * (x + y) + 1)])

    plane = [box([0, 0], [1, 1]), box([1, 1], [2, 2]), box([0, 1], [1, 2]),
             triangle(0, 0, 1), triangle(2, 2, -1), triangle(1, 1, 1),
             segment([0, 0], [1, 1]), segment([1, 1], [2, 0]),
             segment([1, 2], [2, 1]), ray_from([2, 2], [1, 0]),
             single_point([1, 1]), segment([3, 0], [3, 1])]
    space = [box([0] * 3, [1] * 3), box([1] * 3, [2] * 3),
             segment([0, 0, 2], [1, 1, 2]), segment([1, 1, 2], [2, 2, 3]),
             segment([1, 2, 2], [2, 1, 1])]
    return [plane, space]


@pytest.mark.parametrize("k", [0, 1])
def test_meeting_pairs_on_touching_cells(k):
    """polyhedra._meeting_pairs yields the pairs of the all-pairs loops it
    replaced, in their order: within one list, the pairs i < j that
    superforms scanned (polyhedra_oracle._meeting_pairs), and across two
    lists, those of the stable scan's loop (intersection_oracle.all_pairs).
    Cells that share only a vertex meet there; cells whose boxes share only
    a corner do not meet at all."""
    cells = touching_cells()[k]
    got = list(_meeting_pairs(cells))
    assert got == [(cells.index(a), cells.index(b), face)
                   for a, b, face in polyhedra_oracle._meeting_pairs(cells)]
    assert any(face.dim == 0 for _, _, face in got)
    left, right = cells[::2], cells[1::2]
    for a, b in ((left, right), (right, left), (cells, cells)):
        assert list(_meeting_pairs(a, b)) == list(all_pairs(a, b))
    # the touching pairs are kept, the boxes that only touch are not
    met = {(i, j) for i, j, _ in got}
    if k == 0:
        assert {(0, 1), (0, 2), (3, 6), (6, 7)} <= met
        assert not {(3, 5), (6, 8), (3, 4)} & met
        assert intersect(cells[3], cells[5]) is None
    else:
        assert (0, 1) in met and (2, 3) in met and (0, 4) not in met


def test_value_objects_compare_hash_and_print_by_value():
    seg, ray = segment([0, 0], [1, 1]), ray_from([0, 0], [1, 1])
    a, b = WeightedCell(seg, Q(3, 2)), WeightedCell(seg, Q(3, 2))
    assert a == b and hash(a) == hash(b)
    assert a != WeightedCell(seg, 1) and a != WeightedCell(ray, Q(3, 2)) and a != seg
    assert repr(a) == "WeightedCell(%r, weight=3/2)" % seg
    cx = Complex([seg])
    assert cx == Complex(list(seg.faces())) and hash(cx) == hash(Complex([seg]))
    assert cx != Complex([ray]) and cx != seg
    lat = Lattice(2, [[2, 2], [1, 1]])
    assert lat == seg.span and hash(lat) == hash(seg.span)
    assert lat != Lattice(2, [[1, 0]]) and lat != Lattice(3, [[1, 1, 0]]) and lat != seg
    assert repr(lat) == "Lattice(n=2, rows=((1, 1),))"
