"""Boundary work once per cell pair and once per current.

primitive_normal and currents._split_coordinates keep their answers in the
cell's per-facet slot, keyed by the facet, and a current computes both
boundary kinds in one pass and keeps them.  Each is checked against its
former body in facet_oracle, which remembers nothing, and the boundaries
also against the contraction route.
"""

import random

import pytest

import facet_oracle as oracle
from deltaforms.currents import (
    DeltaForm,
    _split_coordinates,
    boundary_prime_via_contraction,
    boundary_second_via_contraction,
)
from deltaforms.polyhedra import box, polyhedron, primitive_normal, single_point
from deltaforms.scalars import Q
from deltaforms.superforms import SuperForm
from test_currents import random_balanced
from test_transport import boundary_currents, random_rational_cell


def test_normals_and_split_frames_match_the_former_bodies():
    """Every facet of cells with rational vertices and of balanced cells,
    each pair asked twice."""
    rng = random.Random(29)
    cells = [random_rational_cell(rng.randint, rng.randint(1, 3))
             for _ in range(40)]
    for _ in range(4):
        T = random_balanced(rng, rng.randint(2, 3))
        cells += [c for c, _, _ in T.refine().terms]
    pairs = 0
    for sigma in cells:
        for tau in sigma.facets():
            for _ in range(2):
                assert primitive_normal(sigma, tau) == oracle.primitive_normal(sigma, tau)
                assert (_split_coordinates(sigma, tau)
                        == oracle._split_coordinates(sigma, tau))
            pairs += 1
    assert pairs > 50


def test_opposite_halfplanes_keep_their_own_normals():
    """x <= 0 and x >= 0 share the y-axis as their facet, with opposite
    normals, so a memo keyed by the facet alone returns a wrong one."""
    left = polyhedron(2, [([1, 0], 0)])
    right = polyhedron(2, [([-1, 0], 0)])
    (axis,) = left.facets()
    assert right.facets() == [axis]
    for _ in range(2):
        assert primitive_normal(left, axis) == [-1, 0]
        assert primitive_normal(right, axis) == [1, 0]
    for sigma in (left, right, left, right):
        assert _split_coordinates(sigma, axis) == oracle._split_coordinates(sigma, axis)
    assert _split_coordinates(left, axis)[2] == -_split_coordinates(right, axis)[2]


def _square_and(name):
    square = box([0, 0], [1, 1])
    if name == "vertex":
        return square, single_point([0, 0])
    if name == "the cell itself":
        return square, square
    if name == "facet of a disjoint cell":
        return square, box([2, 0], [3, 1]).facets()[0]
    # x = 1, 0 <= y <= 2: on the line of the square's facet x = 1, but
    # longer; the former scan found x <= 1 tight on it and gave a normal
    tall = box([0, 0], [1, 2])
    return square, next(f for f in tall.facets()
                        if f.contains([1, 0]) and f.contains([1, 2]))


@pytest.mark.parametrize("name", ["vertex", "the cell itself",
                                  "facet of a disjoint cell",
                                  "facet of an overlapping cell"])
def test_what_is_not_a_facet_has_no_normal(name):
    sigma, tau = _square_and(name)
    assert tau not in sigma.facets()
    with pytest.raises(ValueError, match="^tau is not a facet of sigma$"):
        primitive_normal(sigma, tau)
    with pytest.raises(ValueError, match="^tau is not a facet of sigma$"):
        _split_coordinates(sigma, tau)


def with_point_masses(rng, T):
    """T plus point cells, one of them a facet of T's first cell: still
    balanced."""
    vertex = T.terms[0][0].facets()[0]
    elsewhere = single_point([Q(rng.randint(-3, 3), rng.randint(1, 3))
                              for _ in range(T.n)])
    return T + DeltaForm(T.n, [(vertex, SuperForm.scalar(0, rng.randint(1, 3)), 1),
                               (elsewhere, SuperForm.scalar(0, -2), 1)])


def balanced_currents(rng, n):
    """Half-spaces, rays from a rational apex with polynomial coefficients
    (also with point masses) and a corner locus times an ambient form."""
    halves, star = boundary_currents(rng, n)
    return [halves, star, with_point_masses(rng, star), random_balanced(rng, n)]


def normals_cancel(T):
    """Whether the primitive normals around every facet of T's balanced
    refinement sum to zero (weights folded in, as the refinement has them)."""
    sums = {}
    for sigma, _, _ in T.refine().terms:
        for tau in sigma.facets() if sigma.dim else ():
            nv = primitive_normal(sigma, tau)
            sums[tau] = [x + y for x, y in zip(sums.get(tau, [0] * T.n), nv)]
    return not any(any(v) for v in sums.values())


@pytest.mark.parametrize("n", [2, 3])
def test_both_boundary_kinds_in_either_order(n):
    """Each kind asked twice, in both orders, on fresh copies: every answer
    equals the former one-pass-per-kind body and the contraction route,
    also where the normals around a facet do not cancel (see the next
    test)."""
    rng = random.Random(1700 + n)
    routes = {"prime": lambda T: T.boundary_prime(),
              "second": lambda T: T.boundary_second()}
    contraction = {"prime": boundary_prime_via_contraction,
                   "second": boundary_second_via_contraction}
    differ = nonzero = crossed = uncancelled = 0
    for _ in range(3):
        for T in balanced_currents(rng, n):
            want = {kind: oracle._boundary(DeltaForm(n, T.terms), kind)
                    for kind in routes}
            for order in (("prime", "second"), ("second", "prime")):
                S = DeltaForm(n, T.terms)
                for kind in order:
                    for _ in range(2):
                        assert routes[kind](S).terms == want[kind].terms
                assert (S.d_prime().terms
                        == (S.dp_prime() - want["prime"]).canonicalize().terms)
                assert (S.d_second().terms
                        == (S.dp_second() - want["second"]).canonicalize().terms)
            for kind in routes:
                agree = want[kind].equals(contraction[kind](DeltaForm(n, T.terms)))
                assert agree
                crossed += agree
            uncancelled += not normals_cancel(T)
            differ += want["prime"].terms != want["second"].terms
            nonzero += bool(want["prime"].terms) + bool(want["second"].terms)
    assert differ >= 6 and nonzero >= 14 and crossed >= 20
    assert uncancelled >= 1, uncancelled


def test_contraction_route_on_the_whole_space_cut_in_two():
    """[R^3, alpha] cut along -2x + 4y = 0 is the same current, which has
    no boundary.  The canonical normals of the halves are (1, 0, 0) and
    (1, 1, 0); their sum lies in the wall but is not zero, so the
    contraction route must contract with the transverse parts only."""
    alpha = (SuperForm.d_prime_x(3, 0).wedge(SuperForm.d_second_x(3, 1))
             + SuperForm.d_second_x(3, 2) + SuperForm.d_prime_x(3, 1))
    halves = [polyhedron(3, [(a, 0)]) for a in ([-2, 4, 0], [2, -4, 0])]
    T = DeltaForm(3, [(h, alpha.restrict(h.chart), 1) for h in halves])
    assert T.equals(DeltaForm(3, [(polyhedron(3, []), alpha, 1)]))
    assert not normals_cancel(T)
    assert T.boundary_prime().is_zero() and T.boundary_second().is_zero()
    assert boundary_prime_via_contraction(T).is_zero()
    assert boundary_second_via_contraction(T).is_zero()
