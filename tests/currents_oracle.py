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

Everything else (cells, transports for the identity map, the stable pairs,
the balancing check) is the library's own.
"""

from deltaforms.cones import int_dot
from deltaforms.currents import (
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
    _touches_own_boundary,
)
from deltaforms.linalg import (
    det,
    integer_kernel,
    invert,
    kernel_rational,
    mat_mul_vec,
    rank,
    solve_linear,
    vec_dot,
    vec_sub,
)
from deltaforms.polyhedra import (
    Complex,
    ComplexError,
    affine_preimage,
    intersect,
    polyhedron,
    recession_cone,
    single_point,
    stable_weight,
    translate,
)
from deltaforms.scalars import Q, QONE, QZERO, qof, qstr


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
        idx = abs(det([nu.span.coords(col) for col in mcols]))
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
        coords = [pre.span.coords(v) for v in wcols + [list(b) for b in kb]]
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
    terms_a = {c: (f, w) for c, f, w in A.terms}
    terms_b = {c: (f, w) for c, f, w in B.terms}
    out = []
    for c1, c2, pi in pairs:
        f1, w1 = terms_a[c1]
        f2, w2 = terms_b[c2]
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
