"""Intersection calculus: divisors, wedge products, stable displacement.

The wedge product of two currents is computed two independent ways: by
cutting the exterior product with the diagonal walls, and by displacing one
factor by a generic vector and keeping the stable intersections.  Both are
exposed so results can be cross-checked exactly.
"""

from math import lcm

from .currents import (
    AffineMap,
    BalancingError,
    DeltaForm,
    PreconditionError,
    _check_balanced_refined,
    _covering_cell,
    _facet_stars,
    _sliced_terms,
    cell_summary,
    exterior_product,
    fundamental_cycle,
    hyperplane_pool,
    ps_multiply,
    pushforward,
    transport_form,
)
from .cones import int_dot
from .linalg import clear_denominators, rank, vec_dot
from .polyhedra import (
    _CACHE,
    Complex,
    ComplexError,
    implicit_rows,
    intersect,
    maximal_cells_of,
    polyhedron,
    primitive_normal,
    stable_weight,
)
from .scalars import Q, QONE, qof, qstr
from .superforms import PiecewiseForm, Poly, SuperForm, _plfunction


class NonGenericError(PreconditionError):
    pass


class TransversalityError(PreconditionError):
    pass


# ------------------------------------------------------------ PL functions --

def pl_max(n, affines):
    """The pointwise maximum of affine functions as a PLFunction.

    affines is a list of (lin, const) pairs; linearity regions that are not
    full-dimensional are absorbed by their neighbors.
    """
    affines = [([qof(a) for a in lin], qof(c)) for lin, c in affines]
    cells = {}
    for k, (lin_k, c_k) in enumerate(affines):
        ineqs = []
        for j, (lin_j, c_j) in enumerate(affines):
            if j == k:
                continue
            ineqs.append(([a - b for a, b in zip(lin_j, lin_k)], c_k - c_j))
        region = polyhedron(n, ineqs)
        if region is not None and region.dim == n:
            cells[region] = (lin_k, c_k)
    # the regions meet in faces, so they form a complex whose maximal cells
    # are the full-dimensional ones, and neighbouring pieces agree where
    # they meet: both hold by construction and are not checked again
    cx = Complex(list(cells), validate=False)
    return _plfunction(cx, [c for c in cx.cells if c.dim == n], cells)


def value_form(phi):
    """The function phi as a piecewise (0,0) superform."""
    pieces = {}
    for cell in phi.maximal:
        lin, c = phi.affine_on(cell)
        pieces[cell] = SuperForm.from_poly(Poly.affine(lin, c))
    return PiecewiseForm(phi.complex, pieces)


def gradient_second_form(phi):
    """The second-kind differential of phi as a piecewise (0,1) form."""
    n = phi.complex.n
    pieces = {}
    for cell in phi.maximal:
        lin = phi.gradient(cell)
        f = SuperForm.zero(n)
        for i, g in enumerate(lin):
            if g:
                f = f + SuperForm.d_second_x(n, i).scale(g)
        pieces[cell] = f
    return PiecewiseForm(phi.complex, pieces)


# ------------------------------------------------------ divisor intersection --

def _complex_presentation(T, pool=()):
    """T sliced along the pool and, if its cells form no complex, refined."""
    C = DeltaForm(T.n, _sliced_terms(T.canonicalize().terms, pool)).canonicalize()
    try:
        Complex([c for c, _, _ in C.terms])
        return C
    except ComplexError:
        return C.refine(extra_hyperplanes=pool)


def _balanced_presentation(T, pool=(), factor=None):
    """_complex_presentation(T, pool), checked for balance on itself.

    The verdict is is_balanced()'s, as refine() adds walls inside cells, whose
    spokes cancel, and splits facets, whose residues restrict; the face may
    differ, so a wedge factor ("left", "right") raises with is_balanced()'s."""
    R = _complex_presentation(T, pool)
    ok, cert = _check_balanced_refined(R)
    if not ok and factor:
        raise BalancingError("wedge factor (%s) is not balanced" % factor, T.is_balanced()[1])
    if not ok:
        raise BalancingError("current is not balanced", cert)
    return R


def _divisor_core(phi, R):
    """Facet contributions of cutting R by phi.

    R must be a complex-compatible presentation, balanced, with every term
    cell covered by a maximal cell of phi.  At a facet the local function is
    extended linearly by zero on the canonical complement, and each adjacent
    cell contributes the gradient jump against its inward normal.

    Only the stars where phi bends are evaluated: phi . R lives where phi is
    not affine (Allermann & Rau 2010).  If every cell around tau has the one
    gradient g, then g - base_grad = sum_j (g . comp_j) w_j over the duals of
    tau's chart, so the star's sum is sum_j (g . comp_j) residue_j with the
    residues that _check_balanced_refined requires to be zero.
    _balanced_presentation checks them on the presentation divisor_intersect
    cuts and on both factors of wedge_diagonal's product, which each cut
    keeps balanced; so a skipped star adds exactly zero.
    """
    n = R.n
    gradients = {cell: phi.gradient(_covering_cell(phi.maximal, cell, "function"))
                 for cell, _, _ in R.terms}
    stars = _facet_stars(R.terms)
    out = []
    for tau in sorted(stars, key=lambda c: c.sort_key):
        contributions = sorted(stars[tau], key=lambda t: t[0].sort_key)
        g0 = gradients[contributions[0][0]]
        if all(gradients[sigma] == g0 for sigma, _ in contributions):
            continue
        # the star's gradients over one common denominator, so the chart's
        # integer rows and normals meet them in integers
        den = lcm(*(x.denominator for sigma, _ in contributions
                    for x in gradients[sigma]))
        grads = {sigma: [x.numerator * (den // x.denominator) for x in gradients[sigma]]
                 for sigma, _ in contributions}
        # den times the gradient that agrees with g0 on tau and is zero on
        # the complement: sum_k (g0 . basis_k) u_k over the chart's dual rows
        ch = tau.chart
        g0 = grads[contributions[0][0]]
        base_grad = [0] * n
        for b, u in zip(ch.basis, ch.u_rows):
            c = int_dot(g0, b)
            base_grad = [x + c * y for x, y in zip(base_grad, u)]
        beta = SuperForm.zero(tau.dim)
        for sigma, form in contributions:
            jump = [a - b for a, b in zip(grads[sigma], base_grad)]
            c = int_dot(jump, primitive_normal(sigma, tau))
            if c:
                beta = beta + transport_form(form, sigma, tau).scale(Q(c, den))
        if not beta.is_zero():
            out.append((tau, beta, QONE))
    return DeltaForm(n, out).canonicalize()


def divisor_intersect(phi, T):
    """The current cut out by a piecewise linear function.

    Requires T balanced and phi defined on all of its support; raises with a
    certificate otherwise.  The codimension grows by one; applying two
    functions commutes.
    """
    if phi.complex.n != T.n:
        raise ValueError("function lives in the wrong ambient space")
    return _divisor_core(phi, _balanced_presentation(T, hyperplane_pool(phi.maximal)))


def corner_locus(phi):
    """The divisor of phi: its corner locus with canonical weights."""
    return divisor_intersect(phi, fundamental_cycle(phi.complex.n))


def divisor_commutes_check(phi1, phi2, T):
    """Exact equality of the two orders of cutting T by two functions."""
    a = divisor_intersect(phi1, divisor_intersect(phi2, T))
    b = divisor_intersect(phi2, divisor_intersect(phi1, T))
    return a.equals(b)


def corner_locus_identity_check(phi, T):
    """Cross-check the three expressions for cutting T by phi.

    The divisor formula, the derivative of the gradient form against T, and
    the pure boundary version must agree; for a closed T the repeated
    differential of phi T collapses to the same current.
    """
    D = divisor_intersect(phi, T)
    dsp = gradient_second_form(phi)
    wedge = ps_multiply(dsp, T)
    expr2 = (wedge.d_prime() + ps_multiply(dsp, T.d_prime())).canonicalize()
    expr3 = (wedge.boundary_prime().scale(-1)
             + ps_multiply(dsp, T.boundary_prime()).scale(-1)).canonicalize()
    report = {
        "derivative_form": D.equals(expr2),
        "boundary_form": D.equals(expr3),
    }
    if T.d_prime().is_zero() and T.d_second().is_zero():
        phiT = ps_multiply(value_form(phi), T)
        report["closed_collapse"] = D.equals(phiT.d_second().d_prime())
    report["ok"] = all(v for k, v in report.items() if k != "ok")
    return report


# ------------------------------------------------------------ diagonal wedge --

def _wall_function(N, a, b):
    """max(x_a, x_b) on R^N as a two-piece PLFunction."""
    return pl_max(N, [([int(j == i) for j in range(N)], 0) for i in (a, b)])


def wedge_diagonal(S, T):
    """Wedge product computed on the diagonal of the product space.

    The exterior product is cut by the walls max(x_i, y_i) for each
    coordinate, then projected back along the first factor.  Both inputs
    must be balanced.
    """
    if S.n != T.n:
        raise ValueError("wedge factors live in different spaces")
    n = S.n
    A = _balanced_presentation(S, factor="left")
    B = _balanced_presentation(T, factor="right")
    X = exterior_product(A, B)
    for i in range(n, 0, -1):
        phi = _wall_function(2 * n, i - 1, n + i - 1)
        pool = hyperplane_pool(phi.maximal)
        X = DeltaForm(2 * n, _sliced_terms(X.terms, pool)).canonicalize()
        X = _divisor_core(phi, X)
        if not X.terms:
            return DeltaForm(n)
    p1 = AffineMap.projection(2 * n, range(n))
    return pushforward(p1, X)


# ------------------------------------------------- transversal intersection --

def _touches_own_boundary(cell, pt):
    return any(vec_dot(r[:-1], pt) == r[-1] for r in cell.ineq_rows)


def transversal_product(S, T):
    """Wedge product of currents in general position, pair by pair.

    All cells of each factor must have one dimension, every intersection
    must have the expected dimension and avoid both boundaries, and the
    weight picks up the index of the sum of the two direction lattices.
    """
    A, B = S.canonicalize(), T.canonicalize()
    if A.n != B.n:
        raise ValueError("product factors live in different spaces")
    n = A.n
    if not A.terms or not B.terms:
        return DeltaForm(n)
    dims_a = {c.dim for c, _, _ in A.terms}
    dims_b = {c.dim for c, _, _ in B.terms}
    if len(dims_a) > 1 or len(dims_b) > 1:
        raise TransversalityError(
            "transversal product requires factors of pure dimension",
            {"dims": [sorted(dims_a), sorted(dims_b)]})
    r1 = n - dims_a.pop()
    r2 = n - dims_b.pop()
    out = []
    for c1, f1, w1 in A.terms:
        for c2, f2, w2 in B.terms:
            pi = intersect(c1, c2)
            if pi is None:
                continue
            cert = {"left": cell_summary(c1), "right": cell_summary(c2)}
            if pi.dim != n - r1 - r2:
                raise TransversalityError(
                    "cells meet in the wrong dimension", cert)
            rp = pi.relint_point()
            if _touches_own_boundary(c1, rp) or _touches_own_boundary(c2, rp):
                raise TransversalityError(
                    "cells meet along their boundaries", cert)
            try:
                idx = stable_weight(c1.span, w1, c2.span, w2)
            except ValueError:
                raise TransversalityError(
                    "direction spaces are not transversal", cert)
            form = transport_form(f1, c1, pi).wedge(transport_form(f2, c2, pi))
            out.append((pi, form, idx))
    return DeltaForm(n, out).canonicalize()


# ------------------------------------------------------ stable displacement --
#
# Displacing T by eps v for an infinitesimal eps > 0 is decided over Q.  For
# maximal cells c1 of S and c2 of T, the lifted polyhedron
#
#     L = {(x, s) in R^(n+1) : x in c1, x - s v in c2, s >= 0}
#
# has the rows of c1 padded with 0, the rows of c2 padded with -a.v, and the
# row -s <= 0, all integers.  Its projection onto s is the closed interval of
# shifts at which the pair meets, so the pair meets for all small eps > 0
# exactly when c1 and c2 meet (s = 0) and L has a point with s > 0.  The best
# common slack of the pair's inequalities is a concave function of s that is
# >= 0 at s = 0, so it is > 0 for all small s > 0 exactly when L has a point
# strictly inside every inequality row, -s <= 0 included.  Both verdicts are
# read off L's implicit rows (polyhedra.implicit_rows), the rows every
# generator of L's homogenized cone is tight on: a strict point exists when
# there are none, and a point with s > 0 when -s <= 0 is not one of them.
# These are the verdicts of the stable intersection (Jensen & Yu 2016) as
# eps -> 0+.
# Scaling v by a positive factor only rescales s, so v is cleared to a
# primitive integer vector first and L's rows are integers.

def _lifted_system(c1, c2, w):
    """Rows, right-hand sides and equalities of L for an integer vector w."""
    rows, rhs, eqs = [], [], []
    for cell, shifted in ((c1, False), (c2, True)):
        for r in cell.ineq_rows:
            rows.append((*r[:-1], -int_dot(r[:-1], w) if shifted else 0))
            rhs.append(r[-1])
        for r in cell.eq_rows:
            eqs.append(((*r[:-1], -int_dot(r[:-1], w) if shifted else 0), r[-1]))
    rows.append((0,) * len(w) + (-1,))
    rhs.append(0)
    return rows, rhs, eqs


def _stable_pairs(A, B, v):
    """The pairs of maximal cells that meet after displacing B by eps v.

    A and B are canonical.  Returns (pairs, None), pairs a list of
    (c1, c2, c1 & c2) in the order of A's and B's terms, or (None, (c1, c2))
    for the first pair that meets for small eps without a strict interior
    point or with affine hulls that are not transversal.  The answer is
    kept in polyhedra._CACHE, so displacement_product does not check again
    the vector that generic_vector accepted.
    """
    w = clear_denominators(v)
    left = maximal_cells_of([c for c, _, _ in A.terms])
    right = maximal_cells_of([c for c, _, _ in B.terms])
    memo = ("stable", tuple(left), tuple(right), tuple(w))
    found = _CACHE.get(memo)
    if found is None:
        found = _CACHE[memo] = _stable_scan(A.n, left, right, w)
    return found


def _stable_scan(n, left, right, w):
    """_stable_pairs's answer for maximal cells and a primitive integer w."""
    pairs = []
    for c1 in left:
        for c2 in right:
            pi = intersect(c1, c2)
            if pi is None:
                continue
            rows, rhs, eqs = _lifted_system(c1, c2, w)
            implicit = implicit_rows(n + 1, rows, rhs, eqs)
            if not implicit:
                eq_lin = [r[:-1] for r in c1.eq_rows + c2.eq_rows]
                if rank(eq_lin) != (n - c1.dim) + (n - c2.dim):
                    return None, (c1, c2)
                pairs.append((c1, c2, pi))
            elif len(rows) - 1 not in implicit:
                # no strict point, but the pair still meets at some s > 0
                return None, (c1, c2)
    return pairs, None


def is_generic(v, S, T):
    """Whether displacing T by eps v meets S transversally for small eps.

    Checked on every pair of maximal cells: a surviving intersection must
    have a strict interior point and transversal affine hulls.  Returns
    (True, None) or (False, (left cell, right cell)).
    """
    _, pair = _stable_pairs(S.canonicalize(), T.canonicalize(),
                            [qof(x) for x in v])
    return pair is None, pair


def displacement_product(S, T, v):
    """Wedge product by displacing T with a generic vector.

    Pairs of maximal cells that still meet after an infinitesimal shift by v
    contribute their intersection with the stable lattice index; the vector
    must be generic or a NonGenericError names the failing pair.
    """
    if S.n != T.n:
        raise ValueError("product factors live in different spaces")
    v = [qof(x) for x in v]
    A, B = S.canonicalize(), T.canonicalize()
    pairs, failing = _stable_pairs(A, B, v)
    if failing is not None:
        raise NonGenericError(
            "displacement vector is not generic",
            {"vector": [qstr(x) for x in v],
             "left": cell_summary(failing[0]),
             "right": cell_summary(failing[1])})
    terms_a = {c: (f, w) for c, f, w in A.terms}
    terms_b = {c: (f, w) for c, f, w in B.terms}
    out = []
    for c1, c2, pi in pairs:
        f1, w1 = terms_a[c1]
        f2, w2 = terms_b[c2]
        idx = stable_weight(c1.span, w1, c2.span, w2)
        form = transport_form(f1, c1, pi).wedge(transport_form(f2, c2, pi))
        out.append((pi, form, idx))
    return DeltaForm(A.n, out).canonicalize()


def generic_vector(S, T, limit=64):
    """Deterministic search for a displacement vector generic for S and T."""
    n = S.n
    k = 1
    while k <= limit:
        v = [Q(k) ** i for i in range(1, n + 1)]
        ok, _ = is_generic(v, S, T)
        if ok:
            return v
        k += 1
    raise NonGenericError("no generic vector found in the search range", None)


# ------------------------------------------------------------ general pullback --

def pullback_general(f, S):
    """Pull back along any affine map through its graph.

    The graph of f is pushed into the product space, wedged with the lifted
    current, and projected back to the source.
    """
    if f.m != S.n:
        raise ValueError("map target does not match the current")
    n, m = f.n, f.m
    graph_rows = ([[QONE if j == i else Q(0) for j in range(n)]
                   for i in range(n)] + [list(r) for r in f.lin])
    graph_map = AffineMap(graph_rows, [Q(0)] * n + list(f.shift))
    gamma = pushforward(graph_map, fundamental_cycle(n))
    lifted = exterior_product(fundamental_cycle(n), S)
    prod = wedge_diagonal(gamma, lifted)
    p1 = AffineMap.projection(n + m, range(n))
    return pushforward(p1, prod)


# ------------------------------------------------------------ property suite --

def _deg(T):
    degs = {(p + q) % 2 for p, q, _ in T.tridegrees()}
    if len(degs) > 1:
        raise ValueError("current has mixed parity")
    return degs.pop() if degs else 0


def _tri_sum(T):
    tri = T.tridegrees()
    if not tri:
        return None
    if len(tri) > 1:
        raise ValueError("current is not trihomogeneous")
    return tri[0]


def product_property_suite():
    """Run the exactness checks for the wedge product on a fixed corpus.

    Returns a report dict with one entry per named identity; "ok" is the
    conjunction.  Everything is exact rational arithmetic on deterministic
    inputs.
    """
    from .polyhedra import ray_from, single_point, whole_space

    checks = {}

    def line(apex=(0, 0), weights=(1, 1, 1)):
        rays = [ray_from(apex, [1, 0]), ray_from(apex, [0, 1]),
                ray_from(apex, [-1, -1])]
        return DeltaForm(2, [(r, SuperForm.scalar(1, w), 1)
                             for r, w in zip(rays, weights)])

    def poly_current(n, p):
        return DeltaForm(n, [(whole_space(n),
                              SuperForm.from_poly(p), 1)])

    x0, x1 = Poly.variable(2, 0), Poly.variable(2, 1)
    u = Poly.variable(1, 0)

    L = line()
    Lshift = line(apex=(3, 1))
    P0 = DeltaForm(2, [(single_point([0, 0]), SuperForm.scalar(0, 1), 1)])
    F2 = fundamental_cycle(2)
    Txx = poly_current(2, x0 * x1)
    T1 = poly_current(1, u * u)
    form_d = DeltaForm(2, [(whole_space(2),
                            SuperForm.d_prime_x(2, 0), 1)])

    # graded commutativity: wedge(S, T) = (-1)^{deg S deg T} wedge(T, S)
    comm = []
    for s, t in [(L, Lshift), (L, Txx), (form_d, L), (form_d, form_d)]:
        sign = -1 if (_deg(s) and _deg(t)) else 1
        a = wedge_diagonal(s, t)
        b = wedge_diagonal(t, s).scale(sign)
        comm.append(a.equals(b))
    checks["graded_commutativity"] = all(comm)

    # associativity on a triple with a point outcome
    a1 = wedge_diagonal(wedge_diagonal(L, Lshift), F2)
    a2 = wedge_diagonal(L, wedge_diagonal(Lshift, F2))
    checks["associativity"] = a1.equals(a2)

    # unit: the fundamental cycle is neutral
    checks["unit"] = (wedge_diagonal(F2, L).equals(L)
                      and wedge_diagonal(L, F2).equals(L)
                      and wedge_diagonal(F2, Txx).equals(Txx))

    # Leibniz rules on the exterior product
    leib = []
    for s, t in [(Txx, T1), (T1, Txx), (form_d, T1)]:
        sign = -1 if _deg(s) else 1
        for op in ("d_prime", "d_second", "dp_prime", "dp_second",
                   "boundary_prime", "boundary_second"):
            lhs = getattr(exterior_product(s, t), op)()
            rhs = (exterior_product(getattr(s, op)(), t)
                   + exterior_product(s, getattr(t, op)()).scale(sign))
            leib.append(lhs.equals(rhs.canonicalize()))
    checks["leibniz_exterior"] = all(leib)

    # trihomogeneity of products of trihomogeneous currents
    tri = []
    for s, t in [(L, Lshift), (form_d, L)]:
        st1, st2 = _tri_sum(s), _tri_sum(t)
        prod = wedge_diagonal(s, t)
        st = _tri_sum(prod)
        tri.append(st is None or st == tuple(a + b for a, b in zip(st1, st2)))
    checks["trihomogeneity"] = all(tri)

    # projection formula: f_*(T ^ f*S) = f_*T ^ S for a dilation
    f = AffineMap([[2, 0], [0, 2]], [0, 0])
    from .currents import pullback_surjective
    S_ = line(apex=(2, 2))
    T_ = F2
    lhs = pushforward(f, wedge_diagonal(T_, pullback_surjective(f, S_)))
    rhs = wedge_diagonal(pushforward(f, T_), S_)
    checks["projection_formula"] = lhs.equals(rhs)

    # divisor through pushforward: D . f_*T = f_*(f*D . T)
    phi = pl_max(2, [([1, 0], 0), ([0, 1], 0), ([0, 0], 0)])
    fshear = AffineMap([[1, 1], [0, 1]], [0, 0])
    T2 = fundamental_cycle(2)
    finv = AffineMap([[1, -1], [0, 1]], [0, 0])
    phi_back = pl_max(2, [([1, 1], 0), ([0, 1], 0), ([0, 0], 0)])
    lhs = divisor_intersect(phi, pushforward(fshear, T2))
    rhs = pushforward(fshear, divisor_intersect(phi_back, T2))
    checks["divisor_pushforward"] = lhs.equals(rhs)

    # pullback multiplicativity: f*(S1 ^ S2) = f*S1 ^ f*S2
    lhs = pullback_surjective(f, wedge_diagonal(L, Lshift))
    rhs = wedge_diagonal(pullback_surjective(f, L),
                         pullback_surjective(f, Lshift))
    checks["pullback_multiplicative"] = lhs.equals(rhs)

    # diagonal formula: S x T = wedge of the two lifted factors
    lhsd = exterior_product(L, T1)
    p1 = AffineMap.projection(3, range(2))
    p2 = AffineMap.projection(3, range(2, 3))
    rhsd = wedge_diagonal(pullback_surjective(p1, L),
                          pullback_surjective(p2, T1))
    checks["diagonal_formula"] = lhsd.equals(rhsd)

    # partial diagonal: D . ([R] x T) = g_*T with g(y, z) = (y, y, z)
    T_mix = poly_current(2, x0 + x1)
    X = exterior_product(fundamental_cycle(1), T_mix)
    wall = _wall_function(3, 0, 1)
    lhsp = divisor_intersect(wall, X)
    g = AffineMap([[1, 0], [1, 0], [0, 1]], [0, 0, 0])
    rhsp = pushforward(g, T_mix)
    checks["partial_diagonal"] = lhsp.equals(rhsp)

    # corner locus against the unit: C ^ T = C . T
    C = corner_locus(phi)
    lhsc = wedge_diagonal(C, Txx)
    rhsc = divisor_intersect(phi, Txx)
    checks["corner_locus_wedge"] = lhsc.equals(rhsc)

    # divisors peel off one factor at a time
    lhsf = divisor_intersect(phi, wedge_diagonal(L, F2))
    rhsf = wedge_diagonal(divisor_intersect(phi, L), F2)
    checks["divisor_peeling"] = lhsf.equals(rhsf)

    # embedding: h_* h^* S = (h_*[R^k]) ^ S
    h = AffineMap([[1], [0]], [0, 0])
    xaxis = pushforward(h, fundamental_cycle(1))
    for S_emb, name in [(DeltaForm(2, [(polyhedron(2, [], eqs=[([1, 0], 0)]),
                                        SuperForm.scalar(1, 1), 1)]), "yaxis"),
                        (P0, "point")]:
        lhs_e = pushforward(h, pullback_general(h, S_emb))
        rhs_e = wedge_diagonal(xaxis, S_emb)
        checks["embedding_%s" % name] = lhs_e.equals(rhs_e)

    checks["ok"] = all(v for k, v in checks.items() if k != "ok")
    return checks
