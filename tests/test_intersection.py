"""Tests for divisor cuts, the wedge product, and stable intersections."""

import random
from fractions import Fraction as Q

import pytest

import intersection_oracle
import polyhedra_oracle
from test_polyhedra import touching_cells
from deltaforms.currents import (
    AffineMap,
    BalancingError,
    DeltaForm,
    PreconditionError,
    fundamental_cycle,
    ps_multiply,
    pullback_surjective,
    pushforward,
    translate_delta,
)
from deltaforms.intersection import (
    NonGenericError,
    TransversalityError,
    _deg,
    _stable_scan,
    _tri_sum,
    corner_locus,
    corner_locus_identity_check,
    displacement_product,
    divisor_commutes_check,
    divisor_intersect,
    generic_vector,
    gradient_second_form,
    is_generic,
    pl_max,
    product_property_suite,
    pullback_general,
    transversal_product,
    value_form,
    wedge_diagonal,
)
from deltaforms import polyhedra
from deltaforms.io import dumps_canonical, plfunction_json
from deltaforms.polyhedra import (Complex, polyhedron, ray_from, segment,
                                  single_point, whole_space)
from deltaforms.superforms import PLFunction, Poly, SuperForm


def tropical_line(weights=(1, 1, 1), apex=(0, 0)):
    """Balanced one-dimensional fan with rays (1,0), (0,1), (-1,-1)."""
    dirs = [(1, 0), (0, 1), (-1, -1)]
    return DeltaForm(2, [(ray_from(apex, d), SuperForm.scalar(1, 1), w)
                         for d, w in zip(dirs, weights)])


def tropical_curve(d, consts=None):
    """Corner locus of max over the degree-d monomials i x + j y + c_ij."""
    mono = [(i, j) for i in range(d + 1) for j in range(d + 1) if i + j <= d]
    if consts is None:
        consts = {(i, j): -Q(i * i + j * j + i * j) for i, j in mono}
    return corner_locus(pl_max(2, [((Q(i), Q(j)), consts[(i, j)])
                                   for i, j in mono]))


def point_mass(T):
    """Total rational weight of a zero-dimensional current."""
    total = Q(0)
    for cell, form, w in T.canonicalize().terms:
        assert cell.dim == 0
        (coef,) = form.terms.values()
        total += w * coef.constant_value()
    return total


def single_ray_current(apex, direction, weight=1):
    return DeltaForm(len(apex), [(ray_from(apex, direction),
                                  SuperForm.scalar(1, 1), weight)])


class TestPLMax:
    def test_three_piece_function(self):
        phi = pl_max(2, [([1, 0], 0), ([0, 1], 0), ([0, 0], 0)])
        assert len(phi.maximal) == 3
        grads = sorted(tuple(g) for g in
                       (phi.gradient(c) for c in phi.maximal))
        assert grads == [(0, 0), (0, 1), (1, 0)]

    def test_duplicate_regions_merged(self):
        phi = pl_max(2, [([1, 0], 0), ([1, 0], 0), ([0, 0], 0)])
        assert len(phi.maximal) == 2

    def test_value_and_gradient_forms(self):
        phi = pl_max(2, [([1, 0], 0), ([0, 0], 0)])
        assert value_form(phi).bidegree == (0, 0)
        dsp = gradient_second_form(phi)
        assert dsp.bidegree == (0, 1)
        pos = next(c for c in phi.maximal
                   if phi.gradient(c) == [Q(1), Q(0)])
        assert dsp.pieces[pos].terms == {((), (0,)): Poly.const(2, 1)}


    def test_trusted_construction_matches_the_checked_constructors(self):
        """pl_max skips the checks that hold by construction, and nothing else.

        Same document bytes, maximal cells and pieces as the route through
        the checked Complex and PLFunction, on random maxima of affine
        functions in R^1 to R^3, repeated functions included.
        """
        rng = random.Random(5113)
        for _ in range(60):
            n = rng.randint(1, 3)
            affines = [([Q(rng.randint(-2, 2)) for _ in range(n)],
                        Q(rng.randint(-4, 4), rng.randint(1, 2)))
                       for _ in range(rng.randint(1, 4))]
            got = pl_max(n, affines)
            want = polyhedra_oracle.pl_max(n, affines)
            assert (dumps_canonical(plfunction_json(got))
                    == dumps_canonical(plfunction_json(want)))
            assert got.complex == want.complex
            assert got.maximal == want.maximal
            assert list(got.pieces.items()) == list(want.pieces.items())


class TestCornerLocus:
    def test_kink_on_the_line(self):
        D = corner_locus(pl_max(1, [([1], 0), ([0], 0)]))
        assert D.equals(DeltaForm(1, [(single_point([0]),
                                       SuperForm.scalar(0, 1), 1)]))

    def test_slope_two_kink_has_weight_two(self):
        D = corner_locus(pl_max(1, [([2], 0), ([0], 0)]))
        (cell, form, w) = D.canonicalize().terms[0]
        assert cell.dim == 0 and w * form.terms[((), ())].constant_value() == 2

    def test_plane_corner_is_the_standard_fan(self):
        D = corner_locus(pl_max(2, [([1, 0], 0), ([0, 1], 0), ([0, 0], 0)]))
        expected = DeltaForm(2, [
            (ray_from((0, 0), d), SuperForm.scalar(1, 1), 1)
            for d in [(1, 1), (-1, 0), (0, -1)]])
        assert D.equals(expected)
        ok, cert = D.is_balanced()
        assert ok, cert

    def test_conic_is_balanced_of_pure_dimension_one(self):
        C = tropical_curve(2)
        assert {c.dim for c, _, _ in C.terms} == {1}
        ok, cert = C.is_balanced()
        assert ok, cert

    def test_affine_pieces_do_not_cut(self):
        D = corner_locus(pl_max(2, [([1, 2], 5)]))
        assert D.is_zero()


class TestDivisor:
    def test_requires_balanced_input(self):
        bad = single_ray_current((0, 0), (1, 0))
        phi = pl_max(2, [([1, 0], 0), ([0, 0], 0)])
        with pytest.raises(BalancingError):
            divisor_intersect(phi, bad)

    def test_requires_the_function_to_cover_the_current(self):
        # phi lives on y >= 0, which misses the ray (-1, -1) from the origin
        upper = polyhedron(2, [([0, -1], 0)])
        phi = PLFunction(Complex([upper]), {upper: ([1, 0], 0)})
        with pytest.raises(PreconditionError) as exc:
            divisor_intersect(phi, tropical_line())
        assert str(exc.value) == "function does not cover a cell of the current"
        assert exc.value.certificate == {
            "cell": {"dim": 1, "base_point": ["0/1", "0/1"]}}

    def test_successive_cuts_commute(self):
        phi1 = pl_max(2, [([1, 0], 0), ([0, 1], 0), ([0, 0], 0)])
        phi2 = pl_max(2, [([1, 1], 1), ([0, 0], 0)])
        assert divisor_commutes_check(phi1, phi2, fundamental_cycle(2))
        lhs = divisor_intersect(phi1, divisor_intersect(phi2,
                                                        fundamental_cycle(2)))
        rhs = divisor_intersect(phi2, divisor_intersect(phi1,
                                                        fundamental_cycle(2)))
        assert lhs.equals(rhs)

    def test_identity_with_derivatives(self):
        phi = pl_max(2, [([1, 0], 0), ([0, 1], 0), ([0, 0], 0)])
        report = corner_locus_identity_check(phi, fundamental_cycle(2))
        assert report["ok"], report
        assert "closed_collapse" in report

    def test_identity_on_a_curve(self):
        phi = pl_max(2, [([1, 1], 1), ([0, 0], 0)])
        report = corner_locus_identity_check(phi, tropical_line())
        assert report["ok"], report

    def test_cut_of_line_by_transverse_wall(self):
        phi = pl_max(2, [([1, 0], 1), ([0, 0], 0)])
        D = divisor_intersect(phi, tropical_line())
        assert point_mass(D) == 1
        # gradient jump (1,1) against ray direction (1,1) has index 2
        diag = pl_max(2, [([1, 1], 1), ([0, 0], 0)])
        assert point_mass(divisor_intersect(diag, tropical_line())) == 2


class TestWedgeDiagonal:
    def test_self_intersection_of_the_line(self):
        L = tropical_line()
        W = wedge_diagonal(L, L)
        assert W.equals(DeltaForm(2, [(single_point([0, 0]),
                                       SuperForm.scalar(0, 1), 1)]))

    def test_fundamental_cycle_is_the_unit(self):
        L = tropical_line()
        F = fundamental_cycle(2)
        assert wedge_diagonal(F, L).equals(L)
        assert wedge_diagonal(L, F).equals(L)

    def test_unit_survives_a_cleared_intern_cache(self):
        # cells built before the clear are equal to, but no longer the same
        # objects as, the ones built after it
        L = tropical_line()
        F = fundamental_cycle(2)
        assert wedge_diagonal(F, L).equals(L)
        saved = dict(polyhedra._CACHE)
        polyhedra._CACHE.clear()
        try:
            assert wedge_diagonal(F, L).equals(L)
            # the same rows again: the input memo went with the intern
            # table, so no pre-clear object comes back
            again = tropical_line()
            for (old, _, _), (new, _, _) in zip(L.terms, again.terms):
                assert new == old and new is not old
        finally:
            polyhedra._CACHE.clear()
            polyhedra._CACHE.update(saved)

    def test_translated_lines_meet_once(self):
        L = tropical_line()
        W = wedge_diagonal(L, tropical_line(apex=(3, 1)))
        assert point_mass(W) == 1
        (cell, _, _) = W.canonicalize().terms[0]
        assert cell.base_point == (Q(2), Q(0))

    def test_bilinear_in_the_weights(self):
        L = tropical_line()
        W = wedge_diagonal(tropical_line(weights=(2, 2, 2)), L)
        assert point_mass(W) == 2
        assert wedge_diagonal(L.scale(3), L).equals(
            wedge_diagonal(L, L).scale(3))

    def test_rejects_unbalanced_factor(self):
        with pytest.raises(BalancingError):
            wedge_diagonal(single_ray_current((0, 0), (1, 0)),
                           tropical_line())

    def test_degree_counts_multiply(self):
        line = tropical_curve(1)
        conic = tropical_curve(2)
        assert point_mass(wedge_diagonal(line, conic)) == 2
        assert point_mass(wedge_diagonal(conic, conic)) == 4

    def test_scalars_in_r0_multiply_on_every_route(self):
        # R^0 has no wall to walk, one point, and the index of Z^0 is 1
        S = DeltaForm(0, [(whole_space(0), SuperForm.scalar(0, 3), 1)])
        T = DeltaForm(0, [(whole_space(0), SuperForm.scalar(0, 2), 1)])
        six = DeltaForm(0, [(whole_space(0), SuperForm.scalar(0, 6), 1)])
        assert generic_vector(S, T) == []
        for product in (wedge_diagonal(S, T), transversal_product(S, T),
                        displacement_product(S, T, [])):
            assert product == six


class TestTransversal:
    def test_crossing_lines_pick_up_the_lattice_index(self):
        def full_line(direction):
            d = list(direction)
            normal = [-d[1], d[0]]
            cell = polyhedron_line(normal)
            return DeltaForm(2, [(cell, SuperForm.scalar(1, 1), 1)])

        def polyhedron_line(normal):
            from deltaforms.polyhedra import polyhedron
            return polyhedron(2, [], eqs=[([Q(x) for x in normal], Q(0))])

        A = full_line((1, 0))
        B = full_line((1, 2))
        P = transversal_product(A, B)
        assert P.equals(DeltaForm(2, [(single_point([0, 0]),
                                       SuperForm.scalar(0, 1), 2)]))

    def test_disjoint_cells_give_zero(self):
        A = single_ray_current((0, 0), (1, 0))
        B = single_ray_current((0, 5), (1, 0))
        assert transversal_product(A, B).is_zero()

    def test_an_empty_factor_gives_zero(self):
        A = single_ray_current((0, 0), (1, 0))
        for S, T in ((DeltaForm(2), A), (A, DeltaForm(2))):
            assert transversal_product(S, T) == DeltaForm(2)

    def test_overlapping_cells_rejected(self):
        A = single_ray_current((0, 0), (1, 1))
        with pytest.raises(TransversalityError) as e:
            transversal_product(A, A)
        assert "left" in e.value.certificate

    def test_meeting_at_endpoints_rejected(self):
        A = DeltaForm(2, [(segment((0, 0), (1, 0)),
                           SuperForm.scalar(1, 1), 1)])
        B = DeltaForm(2, [(segment((0, 0), (0, 1)),
                           SuperForm.scalar(1, 1), 1)])
        with pytest.raises(TransversalityError):
            transversal_product(A, B)

    def test_mixed_dimensions_rejected(self):
        A = single_ray_current((0, 0), (1, 0))
        mixed = A + DeltaForm(2, [(single_point([4, 4]),
                                   SuperForm.scalar(0, 1), 1)])
        with pytest.raises(TransversalityError):
            transversal_product(mixed, A)


class TestDisplacement:
    def test_stable_scan_matches_the_all_pairs_scan_on_touching_cells(self):
        """The scan over polyhedra._meeting_pairs gives the answer of the
        scan with its own all-pairs loop (intersection_oracle._stable_scan)
        on cells that share only a vertex or whose boxes share only a
        corner, at the zero vector and at displacements along and across
        the shared corners."""
        verdicts, kept = set(), 0
        for cells in touching_cells():
            n = cells[0].n
            left, right = tuple(cells[::2]), tuple(cells[1::2])
            for w in [(0,) * n, (1,) * n, (1, -1) + (0,) * (n - 2),
                      (2, 1) + (1,) * (n - 2), (-1,) + (0,) * (n - 1)]:
                for a, b in ((left, right), (right, left)):
                    got = _stable_scan(n, a, b, w)
                    assert got == intersection_oracle._stable_scan(n, a, b, w)
                    verdicts.add(got[1] is None)
                    kept += len(got[0] or ())
        assert verdicts == {True, False} and kept >= 10

    def test_diagonal_displacement_is_not_generic(self):
        L = tropical_line()
        ok, cert = is_generic((1, 1), L, L)
        assert not ok
        c1, c2 = cert
        assert c1.dim == 1 and c2.dim == 1

    def test_generic_vector_is_found_and_certified(self):
        L = tropical_line()
        v = generic_vector(L, L)
        ok, _ = is_generic(v, L, L)
        assert ok

    def test_an_empty_search_range_has_no_certificate(self):
        L = tropical_line()
        with pytest.raises(NonGenericError) as e:
            generic_vector(L, tropical_line(apex=(3, 1)), limit=0)
        assert e.value.certificate is None

    def test_rejects_non_generic_vector(self):
        L = tropical_line()
        with pytest.raises(NonGenericError) as e:
            displacement_product(L, L, (1, 1))
        assert e.value.certificate["vector"] == ["1/1", "1/1"]

    def test_matches_the_diagonal_route(self):
        cases = [
            (tropical_line(), tropical_line()),
            (tropical_line(), tropical_line(apex=(3, 1))),
            (tropical_curve(1), tropical_curve(2)),
            (tropical_curve(2), tropical_curve(2)),
        ]
        for S, T in cases:
            v = generic_vector(S, T)
            assert wedge_diagonal(S, T).equals(displacement_product(S, T, v))

    def test_point_on_line_displaces_off_and_back(self):
        P = DeltaForm(2, [(single_point([0, 0]), SuperForm.scalar(0, 1), 1)])
        L = tropical_line()
        v = generic_vector(L, P)
        prod = displacement_product(L, P, v)
        assert prod.is_zero()
        assert wedge_diagonal(L, P).equals(prod)


class TestNestedTerms:
    """Term cells inside other term cells, and terms of mixed dimension.

    The product is bilinear, so every route sums over every pair of terms,
    also where one term cell lies inside another.
    """

    xaxis = polyhedron(2, [], eqs=[([0, 1], 0)])

    def unit_current(self, cells):
        return DeltaForm(2, [(c, SuperForm.scalar(c.dim, 1), 1) for c in cells])

    def test_a_ray_inside_a_line_meets_a_wall_twice(self):
        # the tropical line's ray along x lies inside the x-axis, and both
        # meet x = 1 at (1, 0)
        S = self.unit_current([self.xaxis]) + tropical_line()
        T = self.unit_current([polyhedron(2, [], eqs=[([1, 0], 1)])])
        ray = ray_from((0, 0), (1, 0))
        assert polyhedra.intersect(ray, self.xaxis) == ray
        assert ray in [c for c, _, _ in S.terms]
        want = DeltaForm(2, [(single_point([1, 0]), SuperForm.scalar(0, 2), 1)])
        v = generic_vector(S, T)
        for got in (wedge_diagonal(S, T), transversal_product(S, T),
                    displacement_product(S, T, v)):
            assert got.equals(want)

    def test_a_point_on_a_line_survives_the_unit(self):
        # [x-axis] + [origin] times [R^2] is itself; the transversal route
        # takes one dimension at a time, as it requires pure factors
        S = self.unit_current([self.xaxis, single_point([0, 0])])
        F = fundamental_cycle(2)
        transversal = DeltaForm(2)
        for c, _, _ in S.terms:
            transversal = transversal + transversal_product(self.unit_current([c]), F)
        for got in (wedge_diagonal(S, F), transversal,
                    displacement_product(S, F, generic_vector(S, F))):
            assert got.equals(S)


class TestPullbackGeneral:
    def test_agrees_with_surjective_route_for_dilation(self):
        f = AffineMap([[2, 0], [0, 2]], [0, 0])
        L = tropical_line()
        assert pullback_general(f, L).equals(pullback_surjective(f, L))

    def test_embedding_pulls_axis_back_to_a_point(self):
        h = AffineMap([[1], [0]], [0, 0])
        from deltaforms.polyhedra import polyhedron
        yaxis = DeltaForm(2, [(polyhedron(2, [], eqs=[([Q(1), Q(0)], Q(0))]),
                               SuperForm.scalar(1, 1), 1)])
        back = pullback_general(h, yaxis)
        assert back.equals(DeltaForm(1, [(single_point([0]),
                                          SuperForm.scalar(0, 1), 1)]))

    def test_embedding_misses_a_far_point(self):
        h = AffineMap([[1], [0]], [0, 0])
        P = DeltaForm(2, [(single_point([0, 5]), SuperForm.scalar(0, 1), 1)])
        assert pullback_general(h, P).is_zero()


class TestPropertySuite:
    def test_every_identity_holds(self):
        report = product_property_suite()
        assert report["ok"], {k: v for k, v in report.items() if not v}
        for key in ("graded_commutativity", "associativity", "unit",
                    "leibniz_exterior", "projection_formula",
                    "pullback_multiplicative", "diagonal_formula"):
            assert key in report

    def test_degree_helpers_on_the_currents_the_corpus_never_builds(self):
        """_deg and _tri_sum, which the suite reads, on mixed and zero currents."""
        plane = fundamental_cycle(2)
        d_form = DeltaForm(2, [(whole_space(2), SuperForm.d_prime_x(2, 0), 1)])
        assert _deg(plane) == 0 and _deg(d_form) == 1
        assert _deg(DeltaForm(2, [])) == 0
        with pytest.raises(ValueError, match="mixed parity"):
            _deg(plane + d_form)
        assert _tri_sum(tropical_line()) == (0, 0, 1)
        assert _tri_sum(DeltaForm(2, [])) is None
        # (0, 0, 0) and (0, 0, 1): the same parity, two tridegrees
        mixed = plane + tropical_line()
        assert _deg(mixed) == 0
        with pytest.raises(ValueError, match="not trihomogeneous"):
            _tri_sum(mixed)
