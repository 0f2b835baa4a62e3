"""Tests for delta-forms: balancing, differentials, products, pairings."""

import random
from collections import Counter
from fractions import Fraction as Q
from math import gcd
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import currents_oracle
from deltaforms import currents
from deltaforms.currents import (
    AffineMap,
    BalancingError,
    DeltaForm,
    PreconditionError,
    as_piecewise_form,
    boundary_prime_via_contraction,
    boundary_second_via_contraction,
    chart_to_ambient,
    exterior_product,
    fundamental_cycle,
    hyperplane_pool,
    normalize_hyperplane,
    piecewise_to_delta,
    ps_multiply,
    pullback_surjective,
    pushforward,
    translate_delta,
    transport_form,
)
from deltaforms.intersection import (
    TransversalityError,
    _balanced_presentation,
    corner_locus,
    displacement_product,
    generic_vector,
    is_generic,
    pl_max,
    transversal_product,
)
from deltaforms.io import deltaform_json, dumps_canonical
from deltaforms.linalg import clear_denominators
from deltaforms.polyhedra import (
    Complex,
    affine_preimage,
    box,
    polyhedron,
    ray_from,
    segment,
    single_point,
    whole_space,
)
from deltaforms.superforms import (
    ContinuityError,
    PiecewiseForm,
    PLFunction,
    Poly,
    SuperForm,
)


def halfplane(n, normal_in, rhs=0):
    """Points with normal_in . x >= rhs."""
    return polyhedron(n, [([-Q(x) for x in normal_in], -Q(rhs))])


def tropical_line(weights=(1, 1, 1), apex=(0, 0)):
    rays = [ray_from(apex, [1, 0]), ray_from(apex, [0, 1]),
            ray_from(apex, [-1, -1])]
    return DeltaForm(2, [(r, SuperForm.scalar(1, w), 1)
                         for r, w in zip(rays, weights)])


def xvar(n, i):
    return Poly.variable(n, i)


def form_poly(p):
    return SuperForm.from_poly(p)


# ------------------------------------------------------------ structure --


class TestStructure:
    def test_chart_coefficient_dimension_enforced(self):
        with pytest.raises(ValueError):
            DeltaForm(2, [(ray_from([0, 0], [1, 0]), SuperForm.scalar(2, 1), 1)])

    def test_canonicalize_folds_weights(self):
        r = ray_from([0, 0], [1, 0])
        T = DeltaForm(2, [(r, SuperForm.scalar(1, 2), Q(3, 2))])
        C = T.canonicalize()
        assert len(C.terms) == 1
        cell, form, w = C.terms[0]
        assert w == 1
        assert form.eval_scalar([Q(5)]) == 3

    def test_canonicalize_merges_and_drops(self):
        r = ray_from([0, 0], [1, 0])
        T = DeltaForm(2, [(r, SuperForm.scalar(1, 2), 1),
                          (r, SuperForm.scalar(1, -2), 1)])
        assert T.canonicalize().terms == ()
        assert T.is_zero()

    def test_canonicalize_fixed_point(self):
        T = tropical_line().canonicalize()
        assert T.canonicalize().terms == T.terms

    def test_add_scale(self):
        L = tropical_line()
        Z = (L + L.scale(-1)).canonicalize()
        assert Z.is_zero()
        assert (L + L).equals(L.scale(2))

    def test_tridegree_components(self):
        r = ray_from([0, 0], [1, 0])
        mixed = SuperForm.scalar(1, 1) + SuperForm.d_prime_x(1, 0)
        T = DeltaForm(2, [(r, mixed, 1),
                          (whole_space(2), SuperForm.scalar(2, 1), 1)])
        comps = T.tridegree_components()
        assert set(comps) == {(0, 0, 1), (1, 0, 1), (0, 0, 0)}
        total = DeltaForm(2)
        for c in comps.values():
            total = total + c
        assert total.equals(T)

    def test_equals_across_presentations(self):
        left = halfplane(1, [-1])
        right = halfplane(1, [1])
        split = DeltaForm(1, [(left, SuperForm.scalar(1, 3), 1),
                              (right, SuperForm.scalar(1, 3), 1)])
        whole = DeltaForm(1, [(whole_space(1), SuperForm.scalar(1, 3), 1)])
        assert split.equals(whole)
        assert whole.equals(split)
        assert not whole.equals(DeltaForm(1, [(right, SuperForm.scalar(1, 3), 1)]))

    def test_equals_respects_coefficients(self):
        w = whole_space(1)
        a = DeltaForm(1, [(w, form_poly(xvar(1, 0)), 1)])
        b = DeltaForm(1, [(w, form_poly(xvar(1, 0) * 1), 1)])
        c = DeltaForm(1, [(w, form_poly(xvar(1, 0) * 2), 1)])
        assert a.equals(b)
        assert not a.equals(c)

    def test_equal_currents_hash_equal(self):
        T = tropical_line(weights=(2, 1, 1))
        assert T == T.scale(1) and hash(T) == hash(T.scale(1))
        assert T != T.scale(2) and T != tropical_line()

    def test_translate(self):
        L = tropical_line()
        M = translate_delta(L, [3, 1])
        assert M.equals(tropical_line(apex=(3, 1)))
        back = translate_delta(M, [-3, -1])
        assert back.equals(L)

    def test_translate_moves_coefficients(self):
        w = whole_space(1)
        T = DeltaForm(1, [(w, form_poly(xvar(1, 0)), 1)])
        M = translate_delta(T, [5])
        # the shifted coefficient at ambient x equals x - 5
        cell, form, _ = M.canonicalize().terms[0]
        amb = chart_to_ambient(form, cell)
        assert amb.eval_scalar([Q(7)]) == 2


# ------------------------------------------------------------ balancing --


class TestBalancing:
    def test_tropical_line_balanced(self):
        ok, cert = tropical_line().is_balanced()
        assert ok and cert is None

    def test_unbalanced_weights_certificate(self):
        ok, cert = tropical_line(weights=(1, 1, 2)).is_balanced()
        assert not ok
        assert cert["residue_vector"] == [1, 1]
        assert cert["face"]["dim"] == 0

    def test_halfline_alone_unbalanced(self):
        T = DeltaForm(1, [(halfplane(1, [1]), SuperForm.scalar(1, 1), 1)])
        ok, cert = T.is_balanced()
        assert not ok
        assert cert["face"]["base_point"] == ["0/1"]

    def test_fundamental_balanced(self):
        ok, _ = fundamental_cycle(3).is_balanced()
        assert ok
        assert DeltaForm(2).is_balanced() == (True, None)

    def test_polynomial_coefficients(self):
        # global polynomial restricted to the cells of a balanced cycle
        L = tropical_line()
        g = form_poly(xvar(2, 0) + xvar(2, 1) * xvar(2, 1))
        T = DeltaForm(2, [(c, g.restrict(c.chart), 1) for c, _, _ in L.terms])
        ok, _ = T.is_balanced()
        assert ok

    def test_mismatched_polynomials_unbalanced(self):
        rays = [ray_from([0, 0], [1, 0]), ray_from([0, 0], [0, 1]),
                ray_from([0, 0], [-1, -1])]
        forms = [form_poly(Poly.variable(1, 0)),  # u on first ray only
                 SuperForm.scalar(1, 1), SuperForm.scalar(1, 1)]
        T = DeltaForm(2, [(r, f, 1) for r, f in zip(rays, forms)])
        ok, cert = T.is_balanced()
        assert not ok

    def test_max_xy0_fan_balanced(self):
        # corner locus cells of max(x, y, 0)
        rays = [ray_from([0, 0], [-1, 0]), ray_from([0, 0], [0, -1]),
                ray_from([0, 0], [1, 1])]
        T = DeltaForm(2, [(r, SuperForm.scalar(1, 1), 1) for r in rays])
        ok, _ = T.is_balanced()
        assert ok

    def test_higher_bidegree_autobalanced(self):
        # coefficient degree above the facet dimension restricts to zero
        r = halfplane(1, [1])
        T = DeltaForm(1, [(r, form_poly(xvar(1, 0)).wedge(
            SuperForm.d_prime_x(1, 0)), 1)])
        ok, _ = T.is_balanced()
        assert ok


# ------------------------------------------------------ differentials --


class TestDifferentials:
    def test_dp_prime_polynomial(self):
        T = DeltaForm(1, [(whole_space(1),
                           form_poly(xvar(1, 0) * xvar(1, 0)), 1)])
        D = T.dp_prime()
        expected = DeltaForm(1, [(whole_space(1),
                                  form_poly(xvar(1, 0) * 2).wedge(
                                      SuperForm.d_prime_x(1, 0)), 1)])
        assert D.equals(expected)

    def test_boundary_prime_halfline(self):
        T = DeltaForm(1, [(halfplane(1, [1]), SuperForm.d_second_x(1, 0), 1)])
        B = T.boundary_prime()
        expected = DeltaForm(1, [(single_point([0]), SuperForm.scalar(0, -1), 1)])
        assert B.equals(expected)

    def test_boundary_second_halfline(self):
        T = DeltaForm(1, [(halfplane(1, [1]), SuperForm.d_prime_x(1, 0), 1)])
        B = T.boundary_second()
        expected = DeltaForm(1, [(single_point([0]), SuperForm.scalar(0, 1), 1)])
        assert B.equals(expected)

    def test_boundary_requires_balanced(self):
        T = DeltaForm(2, [(ray_from([0, 0], [1, 0]),
                           SuperForm.scalar(1, 1), 1)])
        # the (0,0,1) stratum of a lone ray is unbalanced at the apex
        with pytest.raises(BalancingError) as exc:
            T.boundary_prime()
        assert exc.value.certificate["face"]["dim"] == 0

    def test_boundary_oracle_agreement_halfplane(self):
        H = halfplane(2, [0, 1])
        coeff = form_poly(xvar(2, 0)).wedge(
            SuperForm.d_second_x(2, 1)).restrict(H.chart)
        T = DeltaForm(2, [(H, coeff, 1)])
        assert T.boundary_prime().equals(boundary_prime_via_contraction(T))
        assert T.boundary_second().equals(boundary_second_via_contraction(T))

    def test_boundary_oracle_agreement_wedge_cells(self):
        quad1 = polyhedron(2, [([-1, 0], 0), ([0, -1], 0)])
        quad2 = polyhedron(2, [([1, 0], 0), ([0, -1], 0)])
        amb = form_poly(xvar(2, 1)).wedge(SuperForm.d_second_x(2, 0))
        T = DeltaForm(2, [(quad1, amb.restrict(quad1.chart), 1),
                          (quad2, amb.restrict(quad2.chart), 1)])
        ok, _ = T.is_balanced()
        assert ok
        assert T.boundary_prime().equals(boundary_prime_via_contraction(T))
        assert T.boundary_second().equals(boundary_second_via_contraction(T))

    def test_boundary_oracle_agreement_with_a_point_cell(self):
        # both routes skip the point cells of a balanced current of mixed
        # dimension; the rays' coefficients carry every bidegree
        coeff = (SuperForm.scalar(1, 1) + SuperForm.d_prime_x(1, 0).scale(2)
                 + form_poly(xvar(1, 0) + 1).wedge(SuperForm.d_second_x(1, 0)))
        points = [single_point([Q(1, 2), Q(-1, 3)]), single_point([0, 0])]
        T = DeltaForm(2, [(p, SuperForm.scalar(0, 3), 1) for p in points]
                      + [(r, coeff, 1) for r, _, _ in tropical_line().terms])
        assert T.is_balanced()[0]
        assert any(c.dim == 0 for c, _, _ in currents.require_balanced(T).terms)
        bp, bs = T.boundary_prime(), T.boundary_second()
        assert not bp.is_zero() and not bs.is_zero()
        assert bp.equals(boundary_prime_via_contraction(T))
        assert bs.equals(boundary_second_via_contraction(T))

    def test_d_prime_on_closed_cycle_vanishes(self):
        assert tropical_line().d_prime().is_zero()
        assert tropical_line().d_second().is_zero()

    def test_d_prime_corner_of_max_x_0(self):
        # d' of the current d''phi ^ [R] is the corner locus of max(x, 0)
        left = halfplane(1, [-1])
        right = halfplane(1, [1])
        T = DeltaForm(1, [(left, SuperForm.zero(1), 1),
                          (right, SuperForm.d_second_x(1, 0)
                           .restrict(right.chart), 1)])
        D = T.d_prime()
        point = DeltaForm(1, [(single_point([0]), SuperForm.scalar(0, 1), 1)])
        assert D.equals(point)

    def test_second_differential_vanishes(self):
        # d'd' = 0 on a current with polynomial coefficient
        T = DeltaForm(1, [(whole_space(1),
                           form_poly(xvar(1, 0) * xvar(1, 0) * xvar(1, 0)), 1)])
        assert T.d_prime().d_prime().is_zero()
        assert T.d_second().d_second().is_zero()
        # mixed differentials anticommute
        a = T.d_prime().d_second()
        b = T.d_second().d_prime()
        assert (a + b).is_zero()


# ------------------------------------------------------------- pairing --


class TestPairing:
    def test_basic_integral(self):
        T = DeltaForm(1, [(whole_space(1),
                           form_poly(xvar(1, 0) * xvar(1, 0)), 1)])
        eta = SuperForm.d_prime_x(1, 0).wedge(SuperForm.d_second_x(1, 0))
        assert T.eval_pairing(eta, box([0], [1])) == Q(1, 3)
        # a cell that meets the window only in a point pairs to zero
        ray = DeltaForm(1, [(ray_from([0], [-1]), form_poly(xvar(1, 0)), 1)])
        assert ray.eval_pairing(eta, box([0], [1])) == 0

    def test_point_mass(self):
        T = DeltaForm(2, [(single_point([1, 1]), SuperForm.scalar(0, 5), 1)])
        eta = SuperForm.scalar(2, 1)
        assert T.eval_pairing(eta, box([0, 0], [2, 2])) == 5
        assert T.eval_pairing(eta, box([2, 2], [3, 3])) == 0

    def test_bidegree_mismatch(self):
        T = fundamental_cycle(1)
        with pytest.raises(ValueError, match="bidegree mismatch"):
            T.eval_pairing(SuperForm.scalar(1, 1), box([0], [1]))

    def test_unbounded_window_rejected(self):
        T = fundamental_cycle(1)
        eta = SuperForm.d_prime_x(1, 0).wedge(SuperForm.d_second_x(1, 0))
        with pytest.raises(ValueError, match="bounded"):
            T.eval_pairing(eta, whole_space(1))

    def test_duality_one_dim(self):
        # d'T(eta) = (-1)^{p+q+1} T(d'eta) for window-vanishing eta
        win = box([0], [1])
        x = xvar(1, 0)
        bump = x * (Poly.const(1, 1) - x)
        T = DeltaForm(1, [(whole_space(1), form_poly(x * x), 1)])
        eta = form_poly(bump).wedge(SuperForm.d_second_x(1, 0))
        assert T.d_prime().eval_pairing(eta, win) == -T.eval_pairing(eta.dprime(), win)
        eta2 = form_poly(bump).wedge(SuperForm.d_prime_x(1, 0))
        assert T.d_second().eval_pairing(eta2, win) == -T.eval_pairing(eta2.dsecond(), win)

    def test_duality_halfline_boundary(self):
        # T supported on a halfline meets the window boundary only where
        # the test factor vanishes, so the duality still holds; the sign
        # (-1)^{p+q+1} is +1 for a (0,1,0) current
        win = box([-1], [1])
        x = xvar(1, 0)
        bump = (Poly.const(1, 1) - x) * (Poly.const(1, 1) + x)
        T = DeltaForm(1, [(halfplane(1, [1]),
                           SuperForm.d_second_x(1, 0), 1)])
        eta = form_poly(bump)
        lhs = T.d_prime().eval_pairing(eta, win)
        rhs = T.eval_pairing(eta.dprime(), win)
        assert lhs == rhs
        assert lhs == 1


# ---------------------------------------------------- piecewise interface --


class TestPiecewise:
    def test_round_trip(self):
        left = halfplane(1, [-1])
        right = halfplane(1, [1])
        T = DeltaForm(1, [(left, SuperForm.zero(1), 1),
                          (right, form_poly(xvar(1, 0)), 1)])
        assert piecewise_to_delta(as_piecewise_form(T)).equals(T)

    def test_round_trip_two_dim(self):
        g = form_poly(xvar(2, 0) * xvar(2, 1)).wedge(
            SuperForm.d_prime_x(2, 0).wedge(SuperForm.d_second_x(2, 1)))
        T = ps_multiply(
            PiecewiseForm(Complex([whole_space(2)]), {whole_space(2): g}),
            fundamental_cycle(2))
        assert piecewise_to_delta(as_piecewise_form(T)).equals(T)

    def test_discontinuity_witnessed(self):
        left = halfplane(1, [-1])
        right = halfplane(1, [1])
        T = DeltaForm(1, [(left, SuperForm.scalar(1, 0), 1),
                          (right, SuperForm.scalar(1, 1), 1)])
        with pytest.raises(ContinuityError) as exc:
            as_piecewise_form(T)
        assert "difference" in exc.value.certificate

    def test_positive_codimension_rejected(self):
        with pytest.raises(ValueError):
            as_piecewise_form(tropical_line())

    def test_ps_multiply_covering_required(self):
        right = halfplane(1, [1])
        alpha = PiecewiseForm(Complex([right]), {right: SuperForm.scalar(1, 1)})
        with pytest.raises(PreconditionError):
            ps_multiply(alpha, fundamental_cycle(1))
        # alpha lives on y >= 0, which misses the ray (-1, -1) from the origin
        upper = halfplane(2, [0, 1])
        alpha = PiecewiseForm(Complex([upper]), {upper: SuperForm.scalar(2, 1)})
        with pytest.raises(PreconditionError) as exc:
            ps_multiply(alpha, tropical_line())
        assert str(exc.value) == "piecewise form does not cover a cell of the current"
        assert exc.value.certificate == {
            "cell": {"dim": 1, "base_point": ["0/1", "0/1"]}}

    def test_ps_multiply_kink(self):
        left = halfplane(1, [-1])
        right = halfplane(1, [1])
        cx = Complex([left, right])
        alpha = PiecewiseForm(cx, {left: SuperForm.zero(1),
                                   right: SuperForm.d_second_x(1, 0)})
        T = ps_multiply(alpha, fundamental_cycle(1))
        D = T.d_prime()
        assert D.equals(DeltaForm(1, [(single_point([0]),
                                       SuperForm.scalar(0, 1), 1)]))

    def test_ps_multiply_preserves_balancing(self):
        L = tropical_line()
        g = form_poly(xvar(2, 0) + 3 * xvar(2, 1))
        alpha = PiecewiseForm(Complex([whole_space(2)]), {whole_space(2): g})
        T = ps_multiply(alpha, L)
        ok, _ = T.is_balanced()
        assert ok


# ------------------------------------------------------------- products --


class TestExteriorProduct:
    def test_point_times_line(self):
        S = DeltaForm(1, [(single_point([0]), SuperForm.scalar(0, 1), 1)])
        E = exterior_product(S, fundamental_cycle(1))
        vertical = polyhedron(2, [], eqs=[([1, 0], 0)])
        assert E.equals(DeltaForm(2, [(vertical, SuperForm.scalar(1, 1), 1)]))

    def test_fundamental_times_fundamental(self):
        E = exterior_product(fundamental_cycle(1), fundamental_cycle(2))
        assert E.equals(fundamental_cycle(3))

    def test_coefficients_multiply(self):
        S = DeltaForm(1, [(whole_space(1), form_poly(xvar(1, 0)), 1)])
        T = DeltaForm(1, [(whole_space(1), form_poly(xvar(1, 0)), 1)])
        E = exterior_product(S, T)
        expected = DeltaForm(2, [(whole_space(2),
                                  form_poly(xvar(2, 0) * xvar(2, 1)), 1)])
        assert E.equals(expected)

    def test_weights_multiply(self):
        S = DeltaForm(1, [(single_point([0]), SuperForm.scalar(0, 2), 1)])
        T = DeltaForm(1, [(single_point([3]), SuperForm.scalar(0, 3), 1)])
        E = exterior_product(S, T)
        assert E.equals(DeltaForm(2, [(single_point([0, 3]),
                                       SuperForm.scalar(0, 6), 1)]))

    def test_balanced_times_balanced(self):
        E = exterior_product(tropical_line(), tropical_line())
        ok, _ = E.is_balanced()
        assert ok

    def test_form_degree_sign(self):
        # (d'x ^ [R]) x (d''y ^ [R]) carries d'x ^ d''y with no extra sign
        S = DeltaForm(1, [(whole_space(1), SuperForm.d_prime_x(1, 0), 1)])
        T = DeltaForm(1, [(whole_space(1), SuperForm.d_second_x(1, 0), 1)])
        E = exterior_product(S, T)
        expected = DeltaForm(2, [(whole_space(2),
                                  SuperForm.d_prime_x(2, 0).wedge(
                                      SuperForm.d_second_x(2, 1)), 1)])
        assert E.equals(expected)


class TestPushforward:
    def test_dilation_line(self):
        f = AffineMap([[2]], [0])
        T = DeltaForm(1, [(whole_space(1), form_poly(xvar(1, 0)), 1)])
        P = pushforward(f, T)
        # image coefficient y/2 times lattice index 2
        expected = DeltaForm(1, [(whole_space(1), form_poly(xvar(1, 0)), 1)])
        assert P.equals(expected)

    def test_shear_preserves_weight(self):
        f = AffineMap([[1, 1], [0, 1]], [0, 0])
        L = tropical_line()
        P = pushforward(f, L)
        ok, _ = P.is_balanced()
        assert ok
        rays = [ray_from([0, 0], [1, 0]), ray_from([0, 0], [1, 1]),
                ray_from([0, 0], [-2, -1])]
        expected = DeltaForm(2, [(r, SuperForm.scalar(1, 1), 1) for r in rays])
        assert P.equals(expected)

    def test_translation(self):
        f = AffineMap([[1, 0], [0, 1]], [3, 1])
        P = pushforward(f, tropical_line())
        assert P.equals(tropical_line(apex=(3, 1)))

    def test_embedding_point_weight(self):
        # x -> (x, 2x) halves the lattice length of the image of Z
        f = AffineMap([[1], [2]], [0, 0])
        T = fundamental_cycle(1)
        P = pushforward(f, T)
        line = polyhedron(2, [], eqs=[([2, -1], 0)])
        assert P.equals(DeltaForm(2, [(line, SuperForm.scalar(1, 1), 1)]))

    def test_collapse_rejected(self):
        f = AffineMap([[1, 0]], [0])
        with pytest.raises(PreconditionError, match="proper"):
            pushforward(f, fundamental_cycle(2))

    def test_bounded_collapse_rejected(self):
        f = AffineMap([[0]], [0])
        T = DeltaForm(1, [(segment([0], [1]), SuperForm.scalar(1, 1), 1)])
        with pytest.raises(PreconditionError, match="injective"):
            pushforward(f, T)

    def test_overlapping_images_merge(self):
        # two segments fold onto one: weights add on the overlap
        f = AffineMap([[-1]], [0])
        T = DeltaForm(1, [(segment([0], [1]), SuperForm.scalar(1, 1), 1)])
        P = pushforward(f, T)
        assert P.equals(DeltaForm(1, [(segment([-1], [0]),
                                       SuperForm.scalar(1, 1), 1)]))
        both = T + P
        Q2 = pushforward(AffineMap([[1]], [0]), both)
        assert Q2.equals(both)


class TestPullbackSurjective:
    def test_non_surjective_rejected(self):
        f = AffineMap([[1], [0]], [0, 0])
        with pytest.raises(ValueError, match="surjective"):
            pullback_surjective(f, fundamental_cycle(2))

    def test_projection_of_point(self):
        f = AffineMap([[1, 0]], [0])
        S = DeltaForm(1, [(single_point([0]), SuperForm.scalar(0, 1), 1)])
        P = pullback_surjective(f, S)
        vertical = polyhedron(2, [], eqs=[([1, 0], 0)])
        assert P.equals(DeltaForm(2, [(vertical, SuperForm.scalar(1, 1), 1)]))

    def test_sublattice_index(self):
        # the fiber direction of 2x + 4y has primitive generator (2, -1)
        f = AffineMap([[2, 4]], [0])
        S = DeltaForm(1, [(single_point([0]), SuperForm.scalar(0, 1), 1)])
        P = pullback_surjective(f, S)
        line = polyhedron(2, [], eqs=[([1, 2], 0)])
        assert P.equals(DeltaForm(2, [(line, SuperForm.scalar(1, 2), 1)]))

    def test_dilation(self):
        # x -> 2x maps the lattice with index 2, so the point pulls back
        # with weight 2 and the projection formula against [R] holds
        f = AffineMap([[2]], [0])
        S = DeltaForm(1, [(single_point([0]), SuperForm.scalar(0, 1), 1)])
        P = pullback_surjective(f, S)
        assert P.equals(DeltaForm(1, [(single_point([0]),
                                       SuperForm.scalar(0, 2), 1)]))
        # f_* f^* S = deg(f) . S since f_*[R] = 2 [R]
        assert pushforward(f, P).equals(S.scale(2))

    def test_commutes_with_differential(self):
        f = AffineMap([[1, 1]], [0])
        x = xvar(1, 0)
        S = DeltaForm(1, [(whole_space(1), form_poly(x * x), 1)])
        a = pullback_surjective(f, S.d_prime())
        b = pullback_surjective(f, S).d_prime()
        assert a.equals(b)
        a2 = pullback_surjective(f, S.d_second())
        b2 = pullback_surjective(f, S).d_second()
        assert a2.equals(b2)

    def test_pullback_of_fundamental(self):
        f = AffineMap([[1, 0], [0, 1]], [5, 7])
        P = pullback_surjective(f, tropical_line())
        assert P.equals(tropical_line(apex=(-5, -7)))


# ------------------------------------------------- primitive integer vectors --
#
# normalize_hyperplane and the residue vector of a balancing certificate are
# built on linalg.clear_denominators.  The copies below are the versions that
# cleared denominators by hand; pool keys and certificate bytes must not move.


def _old_normalize_hyperplane(a, b):
    a = [Q(x) for x in a]
    b = Q(b)
    nz = [x for x in a if x != 0]
    if not nz:
        return None
    den = 1
    for x in a + [b]:
        den = den * x.denominator // gcd(den, x.denominator)
    ia = [int(x * den) for x in a]
    ib = b * den
    g = 0
    for x in ia:
        g = gcd(g, abs(x))
    if g:
        ia = [x // g for x in ia]
        ib = ib / g
    lead = next(x for x in ia if x != 0)
    if lead < 0:
        ia = [-x for x in ia]
        ib = -ib
    return (tuple(ia), ib)


def _old_primitive_direction(v):
    den = 1
    for x in v:
        den = den * x.denominator // gcd(den, x.denominator)
    iv = [int(x * den) for x in v]
    g = 0
    for x in iv:
        g = gcd(g, abs(x))
    if g:
        iv = [x // g for x in iv]
    lead = next((x for x in iv if x != 0), 0)
    if lead < 0:
        iv = [-x for x in iv]
    return iv


RATIONALS = st.fractions(min_value=-6, max_value=6, max_denominator=6)
WEIGHTS = st.fractions(min_value=Q(1, 6), max_value=4, max_denominator=6)
DIRECTIONS = [(1, 0), (0, 1), (-1, -1), (-1, 0), (0, -1), (1, 2), (-2, 1),
              (3, -1)]


@settings(max_examples=300, deadline=None)
@given(st.lists(RATIONALS, min_size=1, max_size=4), RATIONALS)
def test_hyperplane_key_is_unchanged(a, b):
    new = normalize_hyperplane(a, b)
    old = _old_normalize_hyperplane(a, b)
    assert new == old
    if new is not None:
        assert all(type(x) is int for x in new[0])
        assert type(new[1]) is type(old[1])


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(DIRECTIONS), WEIGHTS), min_size=1,
                max_size=4, unique_by=lambda t: t[0]),
       st.tuples(RATIONALS, RATIONALS))
def test_residue_vector_is_unchanged(rays, apex):
    T = DeltaForm(2, [(ray_from(apex, d), SuperForm.scalar(1, w), 1)
                      for d, w in rays])
    with mock.patch.object(currents, "clear_denominators",
                           wraps=clear_denominators) as spy:
        ok, cert = T.is_balanced()
    if ok or "residue_vector" not in cert:
        return
    # the residue vector is the last vector the balancing check clears
    direction = spy.call_args.args[0]
    assert cert["residue_vector"] == _old_primitive_direction(direction)
    assert all(type(x) is int for x in cert["residue_vector"])


# ------------------------------------------- chart transport, slicing paths --
#
# Every coefficient moves between cells through Chart.transition_to, and
# equals and the divisor preparation slice through _sliced_terms.  The
# routes they replaced are kept in currents_oracle; on seeded random
# currents with polynomial coefficients, cells with lines among them, each
# function must return exactly the oracle's terms, or raise the same error.


MAPS = {
    "shear": AffineMap([[1, 1], [0, 1]], [Q(1, 2), -1]),
    "dilation": AffineMap([[2, 0], [0, 3]], [0, Q(2, 3)]),
    "embedding": AffineMap([[1, 0], [0, 1], [1, 2]], [1, 0, Q(-1, 2)]),
    "projection": AffineMap([[1, 0, 2], [0, 1, -1]], [Q(1, 3), 2]),
    "collapse": AffineMap([[1, 1]], [-1]),
}
SURJECTIVE = [name for name, f in MAPS.items() if f.is_surjective()]


def random_poly(rng, d):
    return Poly(d, {tuple(rng.randint(0, 2) for _ in range(d)):
                    Q(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(3)})


def random_form(rng, d):
    """A superform on R^d with polynomial coefficients in mixed bidegrees."""
    terms = {((), ()): random_poly(rng, d)}
    for _ in range(rng.randint(1, 3)):
        ii = tuple(sorted(rng.sample(range(d), rng.randint(0, d))))
        jj = tuple(sorted(rng.sample(range(d), rng.randint(0, d))))
        terms[(ii, jj)] = random_poly(rng, d)
    return SuperForm(d, terms)


def random_cell(rng, n, codim=None):
    """A nonempty cell from at most three random rows; most have lines.

    The inequalities hold at the origin and the equalities pass near it, so
    the cells of a corpus overlap.
    """
    while True:
        k = rng.randint(0, 1) if codim is None else codim
        rows = [([rng.randint(-2, 2) for _ in range(n)],
                 Q(rng.randint(-1 if i < k else 0, 3), rng.randint(1, 2)))
                for i in range(k + rng.randint(0, 3 - k))]
        ineqs, eqs = rows[k:], rows[:k]
        cell = polyhedron(n, ineqs, eqs=eqs)
        if cell is not None and (codim is None or cell.dim == n - codim):
            return cell


def random_current(rng, n, size=3, codim=None):
    cells = [random_cell(rng, n, codim) for _ in range(size)]
    return DeltaForm(n, [(c, random_form(rng, c.dim),
                          Q(rng.randint(1, 4), rng.randint(1, 3))) for c in cells])


def random_balanced(rng, n):
    """A corner locus times a random ambient form: balanced, non-constant."""
    phi = pl_max(n, [([rng.randint(-1, 1) for _ in range(n)], rng.randint(-1, 1))
                     for _ in range(3)])
    alpha = random_form(rng, n)
    return DeltaForm(n, [(c, alpha.restrict(c.chart).wedge(f), w)
                         for c, f, w in corner_locus(phi).terms])


def outcome(fn, *args):
    """("terms", the result's terms), or ("error", what the call raised)."""
    try:
        return "terms", fn(*args).terms
    except ValueError as e:
        return "error", (type(e), str(e), getattr(e, "certificate", None))


def corpus(seed, count, n):
    rng = random.Random(seed)
    return rng, [random_current(rng, n) for _ in range(count)]


def test_corpus_has_cells_with_lines_and_polynomial_coefficients():
    _, currents_ = corpus(0, 12, 2)
    cells = [(c, f) for T in currents_ for c, f, _ in T.terms]
    assert any(c.lineality.rank > 0 and c.dim < 2 for c, _ in cells)
    assert any(not c.is_bounded() and c.lineality.rank == 0 for c, _ in cells)
    assert any(p.terms.keys() - {(0,) * c.dim}
               for c, f in cells for p in f.terms.values())


@pytest.mark.parametrize("n", [2, 3])
def test_translate_delta_matches_the_oracle(n):
    rng, currents_ = corpus(1 + n, 10, n)
    for T in currents_:
        v = [Q(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(n)]
        assert (outcome(translate_delta, T, v)
                == outcome(currents_oracle.translate_delta, T, v))


def random_small_current(rng, n):
    """One or two points, rays or segments at rational points."""
    cells = []
    for _ in range(rng.randint(1, 2)):
        point = [Q(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(n)]
        step = [0] * n
        while not any(step):
            step = [rng.randint(-2, 2) for _ in range(n)]
        cells.append(rng.choice([
            single_point(point), ray_from(point, step),
            segment(point, [p + s for p, s in zip(point, step)])]))
    return DeltaForm(n, [(c, random_form(rng, c.dim),
                          Q(rng.randint(1, 4), rng.randint(1, 3))) for c in cells])


@pytest.mark.parametrize("name", list(MAPS))
def test_pushforward_matches_the_oracle(name):
    """The corpus, then currents of points, rays and segments, which every
    map here, injective or not, takes to images of dimension 0 and 1."""
    f = MAPS[name]
    rng, currents_ = corpus(11, 10, f.n)
    dims = set()
    for T in currents_ + [random_small_current(rng, f.n) for _ in range(30)]:
        got = outcome(pushforward, f, T)
        assert got == outcome(currents_oracle.pushforward, f, T)
        if got[0] == "terms":
            dims |= {c.dim for c, _, _ in got[1]}
    assert {0, 1} <= dims


@pytest.mark.parametrize("cell, message, key", [
    (ray_from([1, Q(1, 2)], [1, -1]), "pushforward is not proper on a cell",
     "recession_direction"),
    (segment([0, 0], [Q(3, 2), Q(-3, 2)]), "map is not injective on a cell",
     "kernel_direction"),
])
def test_pushforward_certificates_match_the_oracle(cell, message, key):
    f = MAPS["collapse"]
    T = DeltaForm(2, [(cell, SuperForm.scalar(1, 1), 1)])
    got = outcome(pushforward, f, T)
    want = outcome(currents_oracle.pushforward, f, T)
    assert got[0] == "error" and got[1][1] == message and key in got[1][2]
    assert dumps_canonical(got[1][2]) == dumps_canonical(want[1][2])
    assert got == want


@pytest.mark.parametrize("name", SURJECTIVE)
def test_pullback_surjective_matches_the_oracle(name):
    f = MAPS[name]
    _, currents_ = corpus(21, 10, f.m)
    for S in currents_:
        assert (outcome(pullback_surjective, f, S)
                == outcome(currents_oracle.pullback_surjective, f, S))


BOUNDARIES = "cells meet along their boundaries"
WRONG_DIMENSION = "cells meet in the wrong dimension"


@pytest.mark.parametrize("n", [2, 3])
def test_pair_products_match_the_oracle(n):
    """Both products against the oracle's on pure-dimensional pairs, where
    the zero vector is generic exactly when the transversal product
    succeeds.  In R^2 the transversal product reaches both of its
    TransversalityError messages (7 and 1 of the 20 pairs); in R^3 every
    pair meets transversally."""
    rng = random.Random(31 + n)
    made = 0
    messages = set()
    for _ in range(20):
        S = random_current(rng, n, size=2, codim=1)
        T = random_current(rng, n, size=2, codim=1)
        got = outcome(transversal_product, S, T)
        assert got == outcome(currents_oracle.transversal_product, S, T)
        assert is_generic([0] * n, S, T)[0] == (got[0] == "terms")
        if got[0] == "error":
            messages.add(got[1][:2])
        v = generic_vector(S, T)
        got = outcome(displacement_product, S, T, v)
        assert got == outcome(currents_oracle.displacement_product, S, T, v)
        made += got[0] == "terms" and bool(got[1])
    assert made >= 10
    if n == 2:
        assert messages == {(TransversalityError, BOUNDARIES),
                            (TransversalityError, WRONG_DIMENSION)}


def test_transversal_outcome_classes_match_the_oracle():
    """Pinned pairs, each with the outcome of the oracle, which reads
    relint_point and the cells' boundary rows.  Overlapping collinear
    segments in R^2 have a strict common point with index 0, so they meet
    in a larger dimension; two planar cones in R^3 that meet in one point
    have no strict common point and too low a dimension; segments that
    meet at an endpoint meet along their boundaries; crossing segments
    have a product."""
    def unit(n, cells):
        return DeltaForm(n, [(c, SuperForm.scalar(c.dim, 1), 1) for c in cells])

    quadrant = polyhedron(3, [([-1, 0, 0], 0), ([0, -1, 0], 0)], eqs=[([0, 0, 1], 0)])
    wall = polyhedron(3, [([0, 1, 0], 0), ([0, 0, -1], 0)], eqs=[([1, 0, 0], 0)])
    cases = [
        ([segment([0, 0], [2, 2])], [segment([1, 1], [3, 3])], WRONG_DIMENSION),
        ([quadrant], [wall], WRONG_DIMENSION),
        ([segment([0, 0], [1, 0])], [segment([1, 0], [1, 1])], BOUNDARIES),
        ([segment([0, 0], [2, 2])], [segment([0, 2], [2, 0])], None),
    ]
    for left, right, message in cases:
        n = left[0].n
        S, T = unit(n, left), unit(n, right)
        got = outcome(transversal_product, S, T)
        assert got == outcome(currents_oracle.transversal_product, S, T)
        assert is_generic([0] * n, S, T)[0] == (message is None)
        if message is None:
            assert got[0] == "terms" and got[1]
        else:
            assert got[1][:2] == (TransversalityError, message)


@pytest.mark.parametrize("n", [2, 3])
def test_equals_matches_the_oracle(n):
    rng, currents_ = corpus(41 + n, 8, n)
    verdicts = []
    for S, T in zip(currents_, currents_[1:] + currents_[:1]):
        R = T.refine()
        moved = translate_delta(T, [1] + [0] * (n - 1))
        for a, b in [(T, R), (R, T), (S + T, R + S), (T, moved), (S, T),
                     (R, R - T.scale(Q(1, 2)))]:
            verdict = a.equals(b)
            assert verdict == currents_oracle.equals(a, b)
            verdicts.append(verdict)
    assert True in verdicts and False in verdicts


def test_equals_on_identical_presentations_slices_nothing(monkeypatch):
    """Identical terms cancel in the difference, so equals() cuts no cell;
    a presentation that differs reaches slice_cell."""
    def refuse(*args):
        raise AssertionError("slice_cell called")

    pairs = [(tropical_line(), tropical_line()), (DeltaForm(2), DeltaForm(2))]
    for n in (1, 2, 3):
        _, currents_ = corpus(61 + n, 6, n)
        for T in currents_:
            pairs += [(T, T), (T, DeltaForm(n, T.terms)),
                      (T.scale(2), T + T), (T + T.scale(-1), DeltaForm(n))]
    monkeypatch.setattr(currents, "slice_cell", refuse)
    for a, b in pairs:
        assert a.equals(b) and b.equals(a)
    with pytest.raises(AssertionError, match="slice_cell called"):
        tropical_line().equals(tropical_line(weights=(2, 2, 2)))


def halves_of(T, a, b):
    """T's terms cut along a.x = b, each piece carrying its cell's form."""
    return DeltaForm(T.n, currents._sliced_terms(T.terms, [normalize_hyperplane(a, b)]))


def test_equals_verdicts_match_the_oracle_across_strata():
    """A segment against its two halves, differences in one or several
    tridegree strata, and scaled copies, in R^1 to R^3: the verdict of the
    refined difference is that of slicing both sides by their union pool."""
    seg = segment([0, 0], [2, 2])
    f = SuperForm.from_poly(Poly.affine([1], 1))
    whole = DeltaForm(2, [(seg, f, 1)])
    halves = halves_of(whole, [1, 0], 1)
    assert len(halves.terms) == 2
    cases = [(whole, halves, True), (halves, whole, True),
             (whole, halves.scale(2), False), (whole.scale(2), halves + halves, True)]
    rng = random.Random(71)
    for n in (1, 2, 3):
        for _ in range(12):
            T = random_current(rng, n, size=3)
            a = [rng.randint(-2, 2) or 1 for _ in range(n)]
            R = halves_of(T, a, Q(rng.randint(-1, 1), 2))
            S = random_current(rng, n, size=2)
            q = Q(rng.randint(1, 5), rng.randint(1, 3))
            cases += [(T, R, None), (T.scale(q), R.scale(q), None),
                      (T + S, R + S, None), (T, R + S, None),
                      (T + S.scale(q), R + S, None), (T.scale(q), R, None)]
    seen = Counter()
    for a, b, want in cases:
        verdict = a.equals(b)
        assert verdict == currents_oracle.equals(a, b)
        assert want is None or verdict == want
        several = len((a - b).tridegree_components()) > 1
        seen["equal" if verdict else "not equal"] += 1
        seen["equal over several strata" if verdict else "not equal over several strata"] += several
    assert min(seen.values()) >= 20, seen


def piecewise_outcome(fn, T):
    """The complex, pieces and piecewise_to_delta bytes of fn(T), or the
    ContinuityError it raised, with its certificate."""
    try:
        alpha = fn(T)
    except ContinuityError as e:
        return "error", str(e), e.certificate
    return (alpha.complex.cells, alpha.pieces,
            dumps_canonical(deltaform_json(piecewise_to_delta(alpha))))


def test_piecewise_forms_match_the_region_scan():
    """Seeded codimension-zero currents in R^1 to R^3, of overlapping cells,
    some pieces of them cancelled: as_piecewise_form, read off refine(),
    gives the complex, pieces, round-trip bytes and ContinuityError
    certificates of the scan of every region against every term that it
    replaced (currents_oracle.as_piecewise_form)."""
    rng = random.Random(73)
    seen = Counter()
    for n in (1, 2, 3):
        top = SuperForm.scalar(n, 1)
        for i in range(n):
            top = top.wedge(SuperForm.d_prime_x(n, i)).wedge(SuperForm.d_second_x(n, i))
        for _ in range(15):
            cells = [random_cell(rng, n, codim=0) for _ in range(rng.randint(1, 3))]
            kind = rng.choice(["scalar", "poly", "top"])
            forms = [SuperForm.scalar(n, rng.randint(-2, 2)) if kind == "scalar"
                     else SuperForm.from_poly(random_poly(rng, n)) if kind == "poly"
                     else top.scale(Q(rng.randint(1, 3))) for _ in cells]
            T = DeltaForm(n, [(c, f.restrict(c.chart), 1) for c, f in zip(cells, forms)])
            pieces = T.refine().terms
            gone = [t for t in pieces if rng.random() < 0.3]
            T = T - DeltaForm(n, gone)
            got = piecewise_outcome(as_piecewise_form, T)
            assert got == piecewise_outcome(currents_oracle.as_piecewise_form, T)
            seen["error" if got[0] == "error" else "form"] += 1
            seen["cancelled"] += bool(gone) and len(T.terms) > 0
            seen["overlapping"] += len(pieces) > len(cells)
    assert seen["error"] >= 10 and seen["form"] >= 10, seen
    assert seen["cancelled"] >= 10 and seen["overlapping"] >= 10, seen


@pytest.mark.parametrize("n", [2, 3])
def test_prepare_for_divisor_matches_the_oracle(n):
    rng = random.Random(51 + n)
    nonzero = 0
    for _ in range(6):
        phi = pl_max(n, [([rng.randint(-2, 2) for _ in range(n)],
                          rng.randint(-2, 2)) for _ in range(3)])
        for T in (random_balanced(rng, n), random_current(rng, n, size=2)):
            got = outcome(lambda phi, T: _balanced_presentation(
                T, hyperplane_pool(phi.maximal)), phi, T)
            assert got == outcome(currents_oracle._prepare_for_divisor, phi, T)
            nonzero += got[0] == "terms" and bool(got[1])
    assert nonzero >= 6


@pytest.mark.parametrize("name", ["identity"] + list(MAPS))
def test_transition_to_composes_chart_to_ambient_the_map_and_restrict(name):
    """Transport along f is the ambient extension, pulled back and restricted."""
    f = MAPS.get(name)
    rng = random.Random(61)
    for _ in range(8):
        if f is None:
            src = random_cell(rng, 3)
            dsts = [src] + list(src.facets())
        elif f.is_surjective():
            src = random_cell(rng, f.m)
            dst = affine_preimage(src, [list(r) for r in f.lin], list(f.shift), f.n)
            dsts = [dst] + list(dst.facets())
        else:
            dst = random_cell(rng, f.n)
            one = DeltaForm(f.n, [(dst, SuperForm.scalar(dst.dim, 1), 1)])
            src = pushforward(f, one).terms[0][0]
            dsts = [dst]
        # the coordinate functions in the coefficient expose the whole map
        coords = sum((Poly.variable(src.dim, j) * (j + 2) for j in range(src.dim)),
                     Poly.const(src.dim, 1))
        form = random_form(rng, src.dim) + SuperForm.from_poly(coords)
        amb = chart_to_ambient(form, src)
        if f is not None:
            amb = amb.pullback_affine([list(r) for r in f.lin], list(f.shift),
                                      k=f.n)
        for dst in dsts:
            assert transport_form(form, src, dst, f) == amb.restrict(dst.chart)
