"""Chart transports and slicing paths that deltaforms used before every
coefficient moved between cells through Chart.transition_to.

Kept verbatim as reference oracles for the tests, and not collected by
pytest.

- translate_delta, pushforward and pullback_surjective each build the
  chart-to-chart map by hand from u_rows, a base point and the affine map.
- pushforward also writes the image's rows out entry by entry on a set of
  independent rows of the map (_independent_rows, and _local_hrep, once
  Polyhedron.local_hrep), takes a point cell to a point without a
  transport, and moves the coefficient along the inverted transition.
- transversal_product and displacement_product carry each factor's
  coefficient to the intersection through ambient coordinates:
  chart_to_ambient(f, c).restrict(pi.chart).
- equals sums each tridegree stratum over its sliced pieces in
  _stratum_totals, a third copy of the slicing loop; equals(a, b) is the
  former method body.
- _prepare_for_divisor slices along the function's walls and checks the
  complex in its own body rather than through _complex_presentation.
- rational_pushforward and rational_pullback_surjective are the bodies
  that came before the map layer ran in integers: per cell, the rational
  kernel decided injectivity, the recession cone met the fibre of every
  cell with lines, each dual of the left (or right) inverse came from its
  own rational solve, the coefficient moved along the AffineMap of the left
  inverse through transport_form, and the lattice index was a rational
  determinant of Lattice.coords.
- exterior_product lifts each factor's coefficient to ambient coordinates,
  pulls it back along the projections onto the product space, wedges, and
  restricts to the product cell's chart; its product cells come from
  polyhedra_oracle.product_polyhedron, through polyhedron().
- RawDeltaForm is DeltaForm from when its constructor kept the terms as
  given (weights coerced, sorted by sort_key) and canonicalize() folded the
  weights, merged the cells and dropped zero coefficients.
- as_piecewise_form is the body from before it read T.refine(): every
  region of the arrangement is tested at its relint_point against every
  term, and each covering term's form is lifted to ambient coordinates.
- stable_weight is the former polyhedra.stable_weight, from before the
  displacement and transversal products took the index that
  linalg.lattice_index reads and dropped the term weights, which are
  always 1.

Everything else (cells, transports for the identity map, the stable pairs,
the balancing check) is the library's own, except invert, which left the
library once no caller needed a rational inverse: it comes from
linalg_oracle, whose invert has the same body.  So do solve_linear,
kernel_rational and vec_sub, which left the library with the rational map
layer, and integer_kernel and coords, the library's former RREF kernel and
Lattice.coords.  displacement_product reads the stable pairs as the
library returns them, by term index, and weighs each with stable_weight.
"""

from deltaforms.cones import int_dot
from deltaforms.currents import (
    AffineMap,
    BalancingError,
    DeltaForm,
    PreconditionError,
    _check_balanced_refined,
    _sliced_terms,
    cell_summary,
    chart_to_ambient,
    hyperplane_pool,
    slice_cell,
    transport_form,
)
from deltaforms.intersection import (
    NonGenericError,
    TransversalityError,
    _stable_pairs,
)
from deltaforms.linalg import lattice_index, mat_mul_vec, rank, vec_dot
from deltaforms.polyhedra import (
    Complex,
    ComplexError,
    affine_preimage,
    intersect,
    polyhedron,
    recession_cone,
    single_point,
    translate,
    whole_space,
)
from deltaforms.scalars import Q, QONE, QZERO, qof, qstr
from deltaforms.superforms import PiecewiseForm, SuperForm
from linalg_oracle import coords as lattice_coords
from linalg_oracle import (
    det,
    integer_kernel,
    invert,
    kernel_rational,
    solve_linear,
    vec_sub,
)
from polyhedra_oracle import product_polyhedron


def stable_weight(l1, lam1, l2, lam2):
    """Multiplier on span(l1) ∩ span(l2) for transversal stable intersection.

    Requires span(l1) + span(l2) = R^n; the multiplier is
    lam1 * lam2 * [Z^n : l1 + l2].
    """
    index = lattice_index(l1.rows + l2.rows, l1.n)
    if not index:
        raise ValueError("spans are not transversal")
    return qof(lam1) * qof(lam2) * index


class RawDeltaForm:
    """Finite sum of weighted polyhedral currents; canonical weights are 1."""

    def __init__(self, n, terms=()):
        self.n = int(n)
        norm = []
        for cell, form, weight in terms:
            if cell.n != self.n:
                raise ValueError("cell lives in the wrong ambient space")
            if not isinstance(form, SuperForm):
                raise TypeError("coefficient must be a SuperForm")
            if form.n != cell.dim:
                raise ValueError(
                    "coefficient must be written in the chart coordinates of its cell")
            norm.append((cell, form, qof(weight)))
        norm.sort(key=lambda t: t[0].sort_key)
        self.terms = tuple(norm)

    def canonicalize(self):
        """Fold weights into coefficients, leaving 1, merge cells, drop zero terms."""
        acc = {}
        for cell, form, w in self.terms:
            f = form if w == 1 else form.scale(w)
            if cell in acc:
                acc[cell] = acc[cell] + f
            else:
                acc[cell] = f
        terms = [(cell, f, QONE) for cell, f in acc.items() if not f.is_zero()]
        return RawDeltaForm(self.n, terms)


def translate_delta(T, v):
    """The current shifted by the vector v."""
    v = [qof(x) for x in v]
    out = []
    for cell, form, w in T.canonicalize().terms:
        moved = translate(cell, v)
        mch, cch = moved.chart, cell.chart
        lin = [[int_dot(u, b) for b in mch.basis] for u in cch.u_rows]
        off = [vec_dot(u, vec_sub(vec_sub(list(mch.base), v), list(cch.base)))
               for u in cch.u_rows]
        out.append((moved, form.pullback_affine(lin, off, k=moved.dim), w))
    return DeltaForm(T.n, out)


def _independent_rows(rows, d):
    sel = []
    have = []
    for i, row in enumerate(rows):
        if rank(have + [list(row)]) > len(sel):
            sel.append(i)
            have.append(list(row))
            if len(sel) == d:
                break
    return sel


def _local_hrep(cell):
    """Inequalities of the polyhedron in chart coordinates (full-dim)."""
    ch = cell.chart
    rows = []
    rhs = []
    for r in cell.ineq_rows:
        a = r[:-1]
        rows.append([vec_dot(a, bs) for bs in ch.basis])
        rhs.append(r[-1] - vec_dot(a, ch.base))
    return rows, rhs


def pushforward(f, T):
    """Image current under an affine map injective and proper on each cell."""
    if f.n != T.n:
        raise ValueError("map domain does not match the current")
    A = T.canonicalize()
    m = f.m
    out = []
    ker_eqs = [(list(row), QZERO) for row in f.lin]
    for cell, form, w in A.terms:
        rec = recession_cone(cell)
        if rec.dim > 0:
            fiber = polyhedron(f.n, [], eqs=ker_eqs)
            cap = intersect(rec, fiber) if fiber is not None else None
            if cap is not None and cap.dim > 0:
                raise PreconditionError(
                    "pushforward is not proper on a cell",
                    {"cell": cell_summary(cell),
                     "recession_direction": [qstr(x) for x in cap.span.basis()[0]]})
        sch = cell.chart
        kernel = kernel_rational([list(r) for r in f.lin]
                                 + [list(wr) for wr in sch.w_rows], f.n)
        if kernel:
            raise PreconditionError(
                "map is not injective on a cell",
                {"cell": cell_summary(cell),
                 "kernel_direction": [qstr(x) for x in kernel[0]]})
        d = cell.dim
        c0 = f.apply(list(sch.base))
        if d == 0:
            out.append((single_point(c0), form, w))
            continue
        mcols = [f.apply_linear(bs) for bs in sch.basis]
        mrows = [[mcols[k][i] for k in range(d)] for i in range(m)]
        sel = _independent_rows(mrows, d)
        sinv = invert([mrows[i] for i in sel])
        ineqs = []
        lrows, lrhs = _local_hrep(cell)
        for arow, b in zip(lrows, lrhs):
            coeffs = [sum(arow[k] * sinv[k][j] for k in range(d)) for j in range(d)]
            full = [QZERO] * m
            for j, i in enumerate(sel):
                full[i] = coeffs[j]
            ineqs.append((full, b + sum(coeffs[j] * c0[sel[j]] for j in range(d))))
        eqs = []
        for i in range(m):
            if i in sel:
                continue
            coeffs = [sum(mrows[i][k] * sinv[k][j] for k in range(d)) for j in range(d)]
            row = [QZERO] * m
            row[i] = QONE
            rhs = c0[i]
            for j, si in enumerate(sel):
                row[si] -= coeffs[j]
                rhs -= coeffs[j] * c0[si]
            eqs.append((row, rhs))
        nu = polyhedron(m, ineqs, eqs=eqs)
        if nu is None:
            raise AssertionError("image of a nonempty cell is empty")
        idx = abs(det([lattice_coords(nu.span, col) for col in mcols]))
        nch = nu.chart
        a_rows = [[int_dot(u, col) for col in mcols] for u in nch.u_rows]
        a_off = [vec_dot(nch.u_rows[j], vec_sub(c0, list(nch.base)))
                 for j in range(d)]
        ainv = invert(a_rows)
        shift = mat_mul_vec(ainv, [-o for o in a_off])
        out.append((nu, form.pullback_affine(ainv, shift), w * idx))
    return DeltaForm(m, out).canonicalize()


def pullback_surjective(f, S):
    """Preimage current under a surjective affine map."""
    if f.m != S.n:
        raise ValueError("map target does not match the current")
    if not f.is_surjective():
        raise ValueError("map is not surjective; use the general pull-back")
    A = S.canonicalize()
    n, m = f.n, f.m
    kb = integer_kernel([list(r) for r in f.lin], n)
    vcols = [solve_linear([list(r) for r in f.lin],
                          [QONE if i == j else QZERO for i in range(m)])
             for j in range(m)]
    full = [[(vcols[j][i] if j < m else Q(kb[j - m][i])) for j in range(n)]
            for i in range(n)]
    dv = abs(det(full))
    out = []
    for cell, form, w in A.terms:
        pre = affine_preimage(cell, [list(r) for r in f.lin], list(f.shift), n)
        if pre is None:
            raise AssertionError("preimage of a nonempty cell is empty")
        wcols = [solve_linear([list(r) for r in f.lin], [Q(x) for x in bs])
                 for bs in cell.chart.basis]
        coords = [lattice_coords(pre.span, v) for v in wcols + [list(b) for b in kb]]
        if any(c is None for c in coords):
            raise AssertionError("preimage directions escape the preimage span")
        lam = w * abs(det(coords)) / dv
        pch, nch = pre.chart, cell.chart
        img_base = f.apply(list(pch.base))
        lin = [[vec_dot(nch.u_rows[j], f.apply_linear(bs))
                for bs in pch.basis] for j in range(cell.dim)]
        off = [vec_dot(nch.u_rows[j], vec_sub(img_base, list(nch.base)))
               for j in range(cell.dim)]
        out.append((pre, form.pullback_affine(lin, off, k=pre.dim), lam))
    return DeltaForm(n, out).canonicalize()


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
            form = chart_to_ambient(f1, c1).restrict(pi.chart).wedge(
                chart_to_ambient(f2, c2).restrict(pi.chart))
            out.append((pi, form, idx))
    return DeltaForm(n, out).canonicalize()


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
    out = []
    for i, j, pi, _ in pairs:
        c1, f1, w1 = A.terms[i]
        c2, f2, w2 = B.terms[j]
        idx = stable_weight(c1.span, w1, c2.span, w2)
        form = chart_to_ambient(f1, c1).restrict(pi.chart).wedge(
            chart_to_ambient(f2, c2).restrict(pi.chart))
        out.append((pi, form, idx))
    return DeltaForm(A.n, out).canonicalize()


def _stratum_totals(terms, pool):
    totals = {}
    for cell, form, w in terms:
        f = form.scale(w)
        for piece in slice_cell(cell, pool):
            g = transport_form(f, cell, piece) if piece != cell else f
            totals[piece] = totals[piece] + g if piece in totals else g
    return {piece: f for piece, f in totals.items() if not f.is_zero()}


def equals(self, other):
    """Exact equality as currents, over a common refinement per stratum."""
    if not isinstance(other, DeltaForm) or other.n != self.n:
        return False
    ca = self.tridegree_components()
    cb = other.tridegree_components()
    for key in set(ca) | set(cb):
        ta = ca[key].terms if key in ca else ()
        tb = cb[key].terms if key in cb else ()
        pool = hyperplane_pool([c for c, _, _ in ta]
                               + [c for c, _, _ in tb])
        if _stratum_totals(ta, pool) != _stratum_totals(tb, pool):
            return False
    return True


def _prepare_for_divisor(phi, T):
    """Slice T along phi's walls and verify compatibility and balancing."""
    R0 = T.canonicalize()
    pool = hyperplane_pool(phi.maximal)
    R = DeltaForm(T.n, _sliced_terms(R0.terms, pool)).canonicalize()
    try:
        Complex([c for c, _, _ in R.terms])
    except ComplexError:
        R = R.refine(extra_hyperplanes=pool)
    ok, cert = _check_balanced_refined(R)
    if not ok:
        raise BalancingError("current is not balanced", cert)
    return R


def exterior_product(S, T):
    """Product current on the product space, coefficients lifted and wedged."""
    A, B = S.canonicalize(), T.canonicalize()
    n, m = A.n, B.n
    p1 = [[QONE if j == i else QZERO for j in range(n + m)] for i in range(n)]
    p2 = [[QONE if j == n + i else QZERO for j in range(n + m)] for i in range(m)]
    zn = [QZERO] * n
    zm = [QZERO] * m
    lifts_b = [(c2, chart_to_ambient(f2, c2).pullback_affine(p2, zm, k=n + m), w2)
               for c2, f2, w2 in B.terms]
    out = []
    for c1, f1, w1 in A.terms:
        lift1 = chart_to_ambient(f1, c1).pullback_affine(p1, zn, k=n + m)
        for c2, lift2, w2 in lifts_b:
            prod = product_polyhedron(c1, c2)
            form = lift1.wedge(lift2).restrict(prod.chart)
            out.append((prod, form, w1 * w2))
    return DeltaForm(n + m, out).canonicalize()


def rational_pushforward(f, T):
    """Image current under an affine map injective and proper on each cell.

    On each cell f has an affine left inverse g on the cell's affine hull:
    with c0 = f(base) and mcols the images f_lin(b_k) of the chart basis,
    the duals p_k . mcols[j] = [k = j] give g(y) = base + sum_k
    (p_k . (y - c0)) b_k.  The image is the cell's inequalities pulled back
    along g, cut to the affine hull of the image by the integer kernel of
    mcols.  polyhedron() canonicalizes and interns it, so the image does not
    depend on the duals off that hull.  The coefficient is pulled back along
    g by one transport_form, and the weight gains the lattice index of the
    image.
    """
    if f.n != T.n:
        raise ValueError("map domain does not match the current")
    A = T.canonicalize()
    m = f.m
    out = []
    ker_eqs = [(list(row), QZERO) for row in f.lin]
    for cell, form, w in A.terms:
        rec = recession_cone(cell)
        if rec.dim > 0:
            fiber = polyhedron(f.n, [], eqs=ker_eqs)
            cap = intersect(rec, fiber) if fiber is not None else None
            if cap is not None and cap.dim > 0:
                raise PreconditionError(
                    "pushforward is not proper on a cell",
                    {"cell": cell_summary(cell),
                     "recession_direction": [qstr(x) for x in cap.span.basis()[0]]})
        sch = cell.chart
        kernel = kernel_rational([list(r) for r in f.lin]
                                 + [list(wr) for wr in sch.w_rows], f.n)
        if kernel:
            raise PreconditionError(
                "map is not injective on a cell",
                {"cell": cell_summary(cell),
                 "kernel_direction": [qstr(x) for x in kernel[0]]})
        c0 = f.apply(sch.base)
        mcols = [f.apply_linear(b) for b in sch.basis]
        d = cell.dim
        duals = [solve_linear(mcols, [QONE if j == k else QZERO for j in range(d)])
                 for k in range(d)]
        lin = [[sum(b[i] * p[j] for b, p in zip(sch.basis, duals)) for j in range(m)]
               for i in range(f.n)]
        g = AffineMap(lin, vec_sub(sch.base, mat_mul_vec(lin, c0)))
        nu = polyhedron(
            m, [([vec_dot(r[:-1], col) for col in zip(*g.lin)],
                 r[-1] - vec_dot(r[:-1], g.shift)) for r in cell.ineq_rows],
            eqs=[(k, vec_dot(k, c0)) for k in integer_kernel(mcols, m)])
        if nu is None:
            raise AssertionError("image of a nonempty cell is empty")
        idx = abs(det([lattice_coords(nu.span, col) for col in mcols]))
        out.append((nu, transport_form(form, cell, nu, g), w * idx))
    return DeltaForm(m, out).canonicalize()


def rational_pullback_surjective(f, S):
    """Preimage current under a surjective affine map."""
    if f.m != S.n:
        raise ValueError("map target does not match the current")
    if not f.is_surjective():
        raise ValueError("map is not surjective; use the general pull-back")
    A = S.canonicalize()
    n, m = f.n, f.m
    kb = integer_kernel([list(r) for r in f.lin], n)
    vcols = [solve_linear([list(r) for r in f.lin],
                          [QONE if i == j else QZERO for i in range(m)])
             for j in range(m)]
    full = [[(vcols[j][i] if j < m else Q(kb[j - m][i])) for j in range(n)]
            for i in range(n)]
    dv = abs(det(full))
    out = []
    for cell, form, w in A.terms:
        pre = affine_preimage(cell, [list(r) for r in f.lin], list(f.shift), n)
        if pre is None:
            raise AssertionError("preimage of a nonempty cell is empty")
        wcols = [solve_linear([list(r) for r in f.lin], [Q(x) for x in bs])
                 for bs in cell.chart.basis]
        coords = [lattice_coords(pre.span, v) for v in wcols + [list(b) for b in kb]]
        if any(c is None for c in coords):
            raise AssertionError("preimage directions escape the preimage span")
        lam = w * abs(det(coords)) / dv
        out.append((pre, transport_form(form, cell, pre, f), lam))
    return DeltaForm(n, out).canonicalize()


def as_piecewise_form(T):
    """Present a codimension-zero current as a piecewise smooth form.

    The ambient space is tiled along every constraint hyperplane of the
    terms; regions outside the support carry the zero form.  Incompatible
    boundary values surface as a ContinuityError with a witness.
    """
    tri = T.tridegrees()
    if any(r != 0 for _, _, r in tri):
        raise ValueError("only codimension-zero currents restrict to forms")
    if len({(p, q) for p, q, _ in tri}) > 1:
        raise ValueError("coefficients have mixed bidegree")
    cells = [c for c, _, _ in T.terms]
    pool = hyperplane_pool(cells)
    regions = slice_cell(whole_space(T.n), pool)
    pieces = {}
    for reg in regions:
        rp = reg.relint_point()
        total = SuperForm.zero(T.n)
        for cell, form, _ in T.terms:
            if cell.contains(rp):
                total = total + chart_to_ambient(form, cell)
        pieces[reg] = total
    cx = Complex(regions, validate=False)
    return PiecewiseForm(cx, pieces)
