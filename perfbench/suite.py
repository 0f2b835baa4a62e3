"""The wedge-product property suite, one op per identity.

These are the checks of ``deltaforms.product_property_suite()`` on its fixed
inputs and in its order, each its own verdict, so that no op of the
``identities`` workload lasts seconds: a long op's time is the one the host's
changing speed blurs most.  Five checks are left out: graded commutativity,
associativity, trihomogeneity, pullback multiplicativity and the projection
formula are wedge products of tropical lines with each other or with the
fundamental cycle, which the ``wedge-diagonal`` workload and the unit check
measure, and they would take two thirds of a pass.  ``suite_ops()`` returns
``[(name, fn, args)]``; every ``fn(*args)`` must return True.
"""

from fractions import Fraction as Q

from deltaforms import (AffineMap, Complex, DeltaForm, PLFunction, Poly,
                        SuperForm, corner_locus, divisor_intersect,
                        exterior_product, fundamental_cycle, pl_max,
                        polyhedron, pullback_general, pullback_surjective,
                        pushforward, ray_from, single_point, wedge_diagonal,
                        whole_space)


def _deg(T):
    (deg,) = {(p + q) % 2 for p, q, _ in T.tridegrees()} or {0}
    return deg


def _line():
    return DeltaForm(2, [(ray_from((0, 0), d), SuperForm.scalar(1, 1), 1)
                         for d in ([1, 0], [0, 1], [-1, -1])])


def _poly_current(n, p):
    return DeltaForm(n, [(whole_space(n), SuperForm.from_poly(p), 1)])


def _wall_function(N, a, b):
    """max(x_a, x_b) on R^N as a two-piece PLFunction."""
    def unit(i):
        return [Q(1) if j == i else Q(0) for j in range(N)]

    row = [Q(0)] * N
    row[a], row[b] = Q(-1), Q(1)
    ge = polyhedron(N, [(row, Q(0))])
    le = polyhedron(N, [([-x for x in row], Q(0))])
    return PLFunction(Complex([ge, le]), {ge: (unit(a), 0), le: (unit(b), 0)})


def unit(F2, L, Txx):
    return (wedge_diagonal(F2, L).equals(L)
            and wedge_diagonal(L, F2).equals(L)
            and wedge_diagonal(F2, Txx).equals(Txx))


def leibniz_exterior(pairs):
    for s, t in pairs:
        sign = -1 if _deg(s) else 1
        for op in ("d_prime", "d_second", "dp_prime", "dp_second",
                   "boundary_prime", "boundary_second"):
            lhs = getattr(exterior_product(s, t), op)()
            rhs = (exterior_product(getattr(s, op)(), t)
                   + exterior_product(s, getattr(t, op)()).scale(sign))
            if not lhs.equals(rhs.canonicalize()):
                return False
    return True


def divisor_pushforward(phi, phi_back, fshear, T2):
    lhs = divisor_intersect(phi, pushforward(fshear, T2))
    return lhs.equals(pushforward(fshear, divisor_intersect(phi_back, T2)))


def diagonal_formula(L, T1):
    p1 = AffineMap.projection(3, range(2))
    p2 = AffineMap.projection(3, range(2, 3))
    return exterior_product(L, T1).equals(wedge_diagonal(
        pullback_surjective(p1, L), pullback_surjective(p2, T1)))


def partial_diagonal(T_mix):
    X = exterior_product(fundamental_cycle(1), T_mix)
    g = AffineMap([[1, 0], [1, 0], [0, 1]], [0, 0, 0])
    return divisor_intersect(_wall_function(3, 0, 1), X).equals(
        pushforward(g, T_mix))


def corner_locus_wedge(phi, Txx):
    return wedge_diagonal(corner_locus(phi), Txx).equals(
        divisor_intersect(phi, Txx))


def divisor_peeling(phi, L, F2):
    return divisor_intersect(phi, wedge_diagonal(L, F2)).equals(
        wedge_diagonal(divisor_intersect(phi, L), F2))


def embedding(h, S):
    xaxis = pushforward(h, fundamental_cycle(1))
    return pushforward(h, pullback_general(h, S)).equals(
        wedge_diagonal(xaxis, S))


def suite_ops():
    """The suite's identities as [(name, fn, args)], in the suite's order."""
    x0, x1 = Poly.variable(2, 0), Poly.variable(2, 1)
    u = Poly.variable(1, 0)
    L = _line()
    P0 = DeltaForm(2, [(single_point([0, 0]), SuperForm.scalar(0, 1), 1)])
    F2 = fundamental_cycle(2)
    Txx = _poly_current(2, x0 * x1)
    T1 = _poly_current(1, u * u)
    form_d = DeltaForm(2, [(whole_space(2), SuperForm.d_prime_x(2, 0), 1)])
    phi = pl_max(2, [([1, 0], 0), ([0, 1], 0), ([0, 0], 0)])
    phi_back = pl_max(2, [([1, 1], 0), ([0, 1], 0), ([0, 0], 0)])
    h = AffineMap([[1], [0]], [0, 0])
    yaxis = DeltaForm(2, [(polyhedron(2, [], eqs=[([1, 0], 0)]),
                           SuperForm.scalar(1, 1), 1)])
    return [
        ("unit", unit, (F2, L, Txx)),
        ("leibniz_exterior", leibniz_exterior,
         ([(Txx, T1), (T1, Txx), (form_d, T1)],)),
        ("divisor_pushforward", divisor_pushforward,
         (phi, phi_back, AffineMap([[1, 1], [0, 1]], [0, 0]),
          fundamental_cycle(2))),
        ("diagonal_formula", diagonal_formula, (L, T1)),
        ("partial_diagonal", partial_diagonal, (_poly_current(2, x0 + x1),)),
        ("corner_locus_wedge", corner_locus_wedge, (phi, Txx)),
        ("divisor_peeling", divisor_peeling, (phi, L, F2)),
        ("embedding_yaxis", embedding, (h, yaxis)),
        ("embedding_point", embedding, (h, P0)),
    ]
