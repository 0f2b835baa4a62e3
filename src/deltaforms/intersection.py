"""Intersection calculus: divisors, wedge products, stable displacement.

The wedge product of two currents is computed two independent ways: by
walking each pair of factor cells to the diagonal, and by displacing one
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
from .cones import cut, int_dot
from .linalg import (
    _ivec_primitive as _primitive,
    clear_denominators,
    lattice_index,
    rank,
)
from .polyhedra import (
    _CACHE,
    Complex,
    _first_misfit,
    _meeting_pairs,
    implicit_rows,
    intersect,
    polyhedron,
    primitive_normal,
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
    return _plfunction(cx, cx.maximal_cells(), cells)


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

def _forms_complex(T):
    """Whether T's term cells generate a polyhedral complex: whether every
    two meet in a common face, as the closure's maximal cells are term
    cells (Complex.face_compatibility_failure)."""
    return _first_misfit([c for c, _, _ in T.terms]) is None


def _complex_presentation(T, pool=()):
    """T sliced along the pool and, if its cells form no complex, refined.

    Cells that meet in common faces still do once each is sliced by one set
    of hyperplanes: two pieces meet in the common face of their cells met
    with the hyperplanes that part them, a face of both (the common
    refinement of a complex and an arrangement; Ziegler 1995).  So when T's
    own cells, which are few, form a complex, the sliced current is
    returned unchecked, and with an empty pool that is T itself.  Otherwise
    the sliced cells are checked, unless they are T's again, and refined if
    they fail, along C's own hyperplanes: no pool hyperplane crosses C.
    """
    C = DeltaForm(T.n, _sliced_terms(T.terms, pool)) if pool else T
    if _forms_complex(T) or pool and _forms_complex(C):
        return C
    return C.refine()


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
    cuts, so a skipped star adds exactly zero.
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
        for sigma, form in contributions:
            jump = [a - b for a, b in zip(grads[sigma], base_grad)]
            c = int_dot(jump, primitive_normal(sigma, tau))
            if c:
                out.append((tau, transport_form(form, sigma, tau), Q(c, den)))
    return DeltaForm(n, out)


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
    expr2 = wedge.d_prime() + ps_multiply(dsp, T.d_prime())
    expr3 = (wedge.boundary_prime().scale(-1)
             + ps_multiply(dsp, T.boundary_prime()).scale(-1))
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

def _factor_cone(cell):
    """A wedge factor's cell as the walk to the diagonal reads it.

    (cell, rays, lines, masks, first), once per cell: the generators (x, t)
    of the cone over the cell, per ray the bit mask of the inequality rows
    a.x <= b tight on it (a.x = b t), and what the first wall reads of the
    last coordinate x_n: whether a line moves it, its least and greatest
    value and the set of its values at the points x / t, and its signs on
    the recession rays (t = 0).  R^0 has no wall, and first is None.
    """
    rays, lines = cell.generators()
    masks = [sum(1 << k for k, row in enumerate(cell.ineq_rows)
                 if int_dot(row[:-1], r) == row[-1] * r[-1]) for r in rays]
    first = None
    if cell.n:
        points = {Q(r[-2], r[-1]) for r in rays if r[-1]}
        first = (any(ln[-2] for ln in lines), min(points), max(points), points,
                 {(r[-2] > 0) - (r[-2] < 0) for r in rays if not r[-1]})
    return cell, rays, lines, masks, first


def _meets_first_wall(F1, F2):
    """Whether the first wall x_n = y_n keeps c1 x c2, read off the factors.

    The signs of h = x_n - y_n on the generators of the cone over c1 x c2:
    v1 t2 - v2 t1 on two points, v1 on a recession ray of c1, -v2 on one of
    c2, and v1 or -v2 on a line.  The walk's sign tests drop the pair when
    no generator has h > 0, or when none has h < 0 and no point has h = 0.
    """
    if F1[-1] is None:
        return True
    moves1, lo1, hi1, points1, signs1 = F1[-1]
    moves2, lo2, hi2, points2, signs2 = F2[-1]
    if moves1 or moves2:
        return True
    if not (hi1 > lo2 or 1 in signs1 or -1 in signs2):
        return False
    return lo1 < hi2 or -1 in signs1 or 1 in signs2 or not points1.isdisjoint(points2)


def _product_cone(F1, F2):
    """The cone over c1 x c2 in R^(2n+1), with masks over its rows.

    Its lines are the factors' lines, padded, and its rays the two points
    joined, (x1 t2, x2 t1, t1 t2), and each factor's recession rays, padded.
    Bit 0 is the row t >= 0, then come c1's inequality rows and c2's.
    Returns (lines, rays, zeros, bit), bit the first bit above every row.
    """
    c1, rays1, lines1, masks1, _ = F1
    c2, rays2, lines2, masks2, _ = F2
    pad = (0,) * c2.n
    shift = 1 + len(c1.ineq_rows)
    top = 1 << (shift + len(c2.ineq_rows))
    lines = [ln[:-1] + pad + ln[-1:] for ln in lines1] + [pad + ln for ln in lines2]
    rays, zeros = [], []
    for r1, m1 in zip(rays1, masks1):
        t1 = r1[-1]
        if not t1:
            rays.append(r1[:-1] + pad + (0,))
            zeros.append(m1 << 1 | (top - (1 << shift)) | 1)
            continue
        for r2, m2 in zip(rays2, masks2):
            t2 = r2[-1]
            if t2:
                rays.append(_primitive([x * t2 for x in r1[:-1]]
                                       + [x * t1 for x in r2[:-1]] + [t1 * t2]))
                zeros.append(m1 << 1 | m2 << shift)
    for r2, m2 in zip(rays2, masks2):
        if not r2[-1]:
            rays.append(pad + r2)
            zeros.append((1 << shift) - 2 | m2 << shift | 1)
    return lines, rays, zeros, top


def _reaches_diagonal(F1, F2, n):
    """Whether the walk carries c1 x c2 over every wall to the diagonal.

    For i = n, ..., 1 the cone's generators meet the wall h = x_i - y_i,
    as in wedge_diagonal.  A wall that crosses the cell cuts the cone with
    one step of the double description method (cones.cut); a wall that
    only supports it keeps the rays with h = 0, if they span a facet.  The
    masks count the inequality rows and the walls, not the factors'
    equalities, so the step's space is the linear hull of the cone over
    c1 x c2, of dimension dim; d is the dimension of the cone so far.
    """
    lines, rays, zeros, bit = _product_cone(F1, F2)
    dim = d = F1[0].dim + F2[0].dim + 1
    for i in range(n, 0, -1):
        a, b = i - 1, n + i - 1
        crossing = any(ln[a] != ln[b] for ln in lines)
        if not crossing:
            if (all(r[a] <= r[b] for r in rays)
                    or all(r[a] > r[b] or not r[-1] and r[a] == r[b] for r in rays)):
                return False
            crossing = any(r[a] < r[b] for r in rays)
        h = [0] * (2 * n + 1)
        h[a], h[b] = 1, -1
        lines, rays, zeros = cut([h], bit, lines, rays, zeros, dim)
        on = [k for k, z in enumerate(zeros) if z & bit]
        rays, zeros = [rays[k] for k in on], [zeros[k] for k in on]
        if not crossing and rank(lines + rays) != d - 1:
            return False
        d -= 1
        bit <<= 1
    return True


def _walk_factor(T, side):
    """T's presented terms as the walk reads them: (cell, form, cone).

    _balanced_presentation(T) with each cell's _factor_cone, kept in
    polyhedra._CACHE under ("factor", T): the key is T's value, so equal
    factors parsed apart are presented once.  An unbalanced factor raises
    before anything is kept, on every call, with its side's message.
    """
    key = ("factor", T)
    terms = _CACHE.get(key)
    if terms is None:
        terms = _CACHE[key] = tuple(
            (c, f, _factor_cone(c))
            for c, f, _ in _balanced_presentation(T, factor=side).terms)
    return terms


def wedge_diagonal(S, T):
    """Wedge product computed on the diagonal of the product space.

    S x T, for balanced S and T, is cut by the walls max(x_i, y_i) and
    projected back along the first factor.  max(x_i, y_i) = y_i + max(h, 0)
    with h = x_i - y_i; the linear y_i cuts a balanced current to zero (each
    star's sum is a combination of the balancing residues, as in
    _divisor_core), and max(h, 0) bends only on h = 0, so each cell is cut
    on its own and every cut stays balanced.  A cell sigma keeps sigma & H,
    H = {h = 0}, when H crosses it or H supports it in a facet on the side
    h >= 0, with weight c, h on the inward primitive normal of the slice, as
    h maps the cell's lattice onto cZ with kernel the slice's.  So each pair
    of terms (c1, f1), (c2, f2) is walked alone: c1 x c2 is cut by the
    walls i = n, ..., 1, and a chain that does not stop ends on the
    diagonal copy of c1 & c2.

    The walk keeps only the generators of the cone over the cell so far
    (_reaches_diagonal), which the factors' generators give, and builds
    no polyhedron in R^2n.  This is exact:
    - Every sign test asks something of every generator ("every ray has
      h <= 0", "a line has h != 0"), so any generating set gives the same
      verdict as the cell's own.  The first wall's tests are read off the
      factors' generators (_meets_first_wall), before any product ray.
    - c = 0, h constant on the cell's hull, needs no test of its own: h is
      then 0 on every line and on every recession ray, and of one sign on
      the points, so a sign test drops the cell.
    - A wall with h != 0 on a line, or with both strict signs on the rays,
      meets the relative interior: the slice is not empty and one dimension
      lower.  Its generators are one step of the double description
      method (cones.cut).  A wall with h >= 0 on the cell supports it in
      the face of the generators with h = 0, a facet when they span a
      space one dimension lower.
    - The span of each slice is the span before it met with ker h, which
      stays saturated.  h reads only x - y, so the walls' gcds are those of
      the chain Lambda_1 + Lambda_2 in Z^n met with x_n = 0, then with
      x_(n-1) = 0, and so on: the diagonal of the Hermite normal form of
      Lambda_1 + Lambda_2 in the coordinate order n, ..., 1.  A pair that
      reaches the diagonal has c != 0 at every wall, so that lattice has
      full rank and the product of the gcds is its index [Z^n : Lambda_1 +
      Lambda_2], which the product of the pivots of one HNF gives in any
      coordinate order (lattice_index).
    The diagonal copy of c1 & c2 projects onto c1 & c2, and the projection
    maps its lattice onto that of c1 & c2 with index 1.  So the pair's term
    is written on c1 & c2 directly: f1 x f2 pulled back along x -> (x, x)
    is f1 and f2, each moved into the chart of c1 & c2, wedged, and the
    weight is that index.  Summing terms on one cell is linear, so summing
    once at the end changes nothing.  Each factor is presented and read
    once per value (_walk_factor).
    """
    if S.n != T.n:
        raise ValueError("wedge factors live in different spaces")
    n = S.n
    A = _walk_factor(S, "left")
    B = _walk_factor(T, "right")
    out = []
    for c1, f1, F1 in A:
        for c2, f2, F2 in B:
            if _meets_first_wall(F1, F2) and _reaches_diagonal(F1, F2, n):
                pi = intersect(c1, c2)
                form = transport_form(f1, c1, pi).wedge(transport_form(f2, c2, pi))
                out.append((pi, form, lattice_index(c1.span.rows + c2.span.rows, n)))
    return DeltaForm(n, out)


# ------------------------------------------------- transversal intersection --

def transversal_product(S, T):
    """Wedge product of currents in general position, pair by pair.

    All cells of each factor must have one dimension; the product is then
    displacement_product at v = 0, which must be generic.  This is exact,
    as L = (c1 & c2) x [0, oo) at w = 0 (_stable_pairs):
    - the lifted row -s <= 0 is never implicit;
    - a strict common point with index != 0 forces dim = d1 + d2 - n;
    - a strict common point with index 0 forces a larger dimension;
    - no strict point means some row is tight at c1 & c2's relint_point.
    So the failing pair meets "in the wrong dimension" when the dimension
    of c1 & c2 is not d1 + d2 - n, else "along their boundaries".
    """
    if S.n != T.n:
        raise ValueError("product factors live in different spaces")
    n = S.n
    if not S.terms or not T.terms:
        return DeltaForm(n)
    dims_a = {c.dim for c, _, _ in S.terms}
    dims_b = {c.dim for c, _, _ in T.terms}
    if len(dims_a) > 1 or len(dims_b) > 1:
        raise TransversalityError(
            "transversal product requires factors of pure dimension",
            {"dims": [sorted(dims_a), sorted(dims_b)]})
    pairs, failing = _stable_pairs(S, T, [0] * n)
    if failing is not None:
        c1, c2 = failing
        wrong = intersect(c1, c2).dim != dims_a.pop() + dims_b.pop() - n
        raise TransversalityError(
            "cells meet in the wrong dimension" if wrong
            else "cells meet along their boundaries",
            {"left": cell_summary(c1), "right": cell_summary(c2)})
    return _pair_products(S, T, pairs)


# ------------------------------------------------------ stable displacement --
#
# Displacing T by eps v for an infinitesimal eps > 0 is decided over Q.  The
# product is bilinear, so every pair of terms is displaced on its own (Fulton
# & Sturmfels 1997): for a term cell c1 of S and a term cell c2 of T, the
# lifted polyhedron
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
    """The pairs of terms that meet after displacing B by eps v.

    Every pair of terms is scanned, as the product is bilinear.  Returns
    (pairs, None), pairs a list of (i, j, A's cell i & B's cell j, index) in
    the order of A's and B's terms, or (None, (c1, c2)) for the first pair
    that meets for small eps without a strict interior point or with affine
    hulls that are not transversal.  index is [Z^n : Lambda_1 + Lambda_2]
    for the cells' direction lattices (lattice_index), which is 0 exactly
    when the spans do not sum to R^n, so one HNF both tests the pair and
    gives its weight.  Terms are sorted by cell, so the indices hold for any
    current on the same cells, and the answer is kept in polyhedra._CACHE
    under the two tuples of cells: displacement_product does not check
    again the vector that generic_vector accepted.  The zero vector tests
    the closed pairs for transversality (transversal_product).
    """
    w = tuple(clear_denominators(v))
    left = tuple(c for c, _, _ in A.terms)
    right = tuple(c for c, _, _ in B.terms)
    memo = ("stable", left, right, w)
    found = _CACHE.get(memo)
    if found is None:
        found = _CACHE[memo] = _stable_scan(A.n, left, right, w)
    return found


def _stable_scan(n, left, right, w):
    """_stable_pairs's answer for two tuples of cells and a primitive w."""
    pairs = []
    for i, j, pi in _meeting_pairs(left, right):
        c1, c2 = left[i], right[j]
        rows, rhs, eqs = _lifted_system(c1, c2, w)
        implicit = implicit_rows(n + 1, rows, rhs, eqs)
        if not implicit:
            idx = lattice_index(c1.span.rows + c2.span.rows, n)
            if not idx:
                return None, (c1, c2)
            # a pair whose closed cells meet below the expected dimension
            # meets after the shift in cells that shrink onto that face,
            # so its limit is zero
            if pi.dim == c1.dim + c2.dim - n:
                pairs.append((i, j, pi, idx))
        elif len(rows) - 1 not in implicit:
            # no strict point, but the pair still meets at some s > 0
            return None, (c1, c2)
    return pairs, None


def is_generic(v, S, T):
    """Whether displacing T by eps v meets S transversally for small eps.

    Checked on every pair of terms: a surviving intersection must have a
    strict interior point and transversal affine hulls.  Returns
    (True, None) or (False, (left cell, right cell)); at v = 0, True exactly
    when transversal_product accepts pure-dimensional factors.
    """
    _, pair = _stable_pairs(S, T, [qof(x) for x in v])
    return pair is None, pair


def displacement_product(S, T, v):
    """Wedge product by displacing T with a generic vector.

    Every pair of terms that still meets after an infinitesimal shift by v
    contributes its intersection, weighted by the index of the sum of the
    two direction lattices that _stable_pairs found; the vector must be
    generic or a NonGenericError names the failing pair.
    """
    if S.n != T.n:
        raise ValueError("product factors live in different spaces")
    v = [qof(x) for x in v]
    pairs, failing = _stable_pairs(S, T, v)
    if failing is not None:
        raise NonGenericError(
            "displacement vector is not generic",
            {"vector": [qstr(x) for x in v],
             "left": cell_summary(failing[0]),
             "right": cell_summary(failing[1])})
    return _pair_products(S, T, pairs)


def _pair_products(S, T, pairs):
    """The product of the pairs _stable_pairs kept, each weighted by its index."""
    out = []
    for i, j, pi, idx in pairs:
        c1, f1, _ = S.terms[i]
        c2, f2, _ = T.terms[j]
        form = transport_form(f1, c1, pi).wedge(transport_form(f2, c2, pi))
        out.append((pi, form, idx))
    return DeltaForm(S.n, out)


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
            leib.append(lhs.equals(rhs))
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
    wall = pl_max(3, [([1, 0, 0], 0), ([0, 1, 0], 0)])
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
