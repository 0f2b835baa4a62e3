"""The divisor layer as deltaforms ran it before it skipped the stars where
the function is affine, kept verbatim as reference oracles for the tests and
not collected by pytest.

- _divisor_core transports, normals and charts every star of every facet,
  also those whose cells all carry one gradient, and drops the stars whose
  contributions cancel afterwards.
- _covering_cell tests each maximal cell at the cell's relint_point, in
  Fractions, through Polyhedron.contains.
- _facet_stars scales every form by its weight while grouping, also in the
  stars that are then dropped.
- _wall_cut is one step of wedge_diagonal's loop before it cut one cell at
  a time: max(x_a, x_b) as a two-piece PLFunction (_wall_function), every
  term sliced along its wall, then the library's _divisor_core, looked up
  when called, so that a test can swap in the one above.
- _cell_wall_cut is the step that replaced it: one pass over the terms of
  the whole current, each cell cut by the wall on its own.
- wedge_diagonal_by_walls is wedge_diagonal before it walked each pair of
  factor cells to the diagonal: the whole exterior product (built by
  _exterior_product, which moves a product with lines into its chart in a
  branch of its own), then one cut of the whole current per wall, by
  _cell_wall_cut or by the cut a test passes in.
- _wall_slice is the per-cell step that replaced _cell_wall_cut, kept
  verbatim: the wall's sign tests on the cell's generators, then the cell
  met with the wall as a polyhedron.
- wedge_diagonal_by_polyhedra is wedge_diagonal before it walked on cone
  generators: each pair of factor cells c1 x c2 is built as a polyhedron
  in R^2n (product_polyhedron), cut by _wall_slice wall by wall
  (walk_by_polyhedra), and every chain that reaches the diagonal gets
  f1 x f2 in its chart (_product_form) and is projected back (pushforward).
- _wall_gcds is how the walk weighed a pair that reaches the diagonal
  before it read the weight off one HNF (linalg.lattice_index): the gcd of
  each wall over a chain of lattices, one integer kernel per wall, on the
  RREF kernel of linalg_oracle that the library used then.
- _complex_presentation is the presentation before it checked the factor's
  own cells first: it slices along the pool, rebuilding the current also
  when the pool is empty, and checks the sliced cells.
- _forms_complex is the verdict on a current's cells before it was one pass
  over the pairs of term cells (polyhedra._first_misfit): it builds the
  Complex of the cells, with their face closure, and catches the
  ComplexError, certificate and all.
- _stable_scan is the stable scan from before it read
  polyhedra._meeting_pairs: its own loop over every pair of cells of the
  two lists, which skips the pairs that do not meet.  all_pairs is that
  loop alone, as _stable_scan and transversal_product each wrote it.

Everything else (transports, normals, the balancing check) is the
library's own.
"""

from math import gcd

from deltaforms import intersection
from deltaforms.cones import int_dot
from deltaforms.currents import (
    AffineMap,
    DeltaForm,
    PreconditionError,
    _product_form,
    _sliced_terms,
    cell_summary,
    hyperplane_pool,
    pushforward,
    transport_form,
)
from deltaforms.intersection import _lifted_system
from deltaforms.linalg import lattice_index, vec_dot
from deltaforms.polyhedra import (
    Complex,
    ComplexError,
    _dual_coords,
    implicit_rows,
    intersect,
    polyhedron,
    primitive_normal,
    product_polyhedron,
)
from deltaforms.scalars import QONE, QZERO
from deltaforms.superforms import SuperForm, _shifted
from linalg_oracle import integer_kernel


def _covering_cell(maximal, cell, what):
    """The first maximal cell, in sort order, containing the cell's relint point."""
    rp = cell.relint_point()
    for M in sorted(maximal, key=lambda c: c.sort_key):
        if M.contains(rp):
            return M
    raise PreconditionError("%s does not cover a cell of the current" % what,
                            {"cell": cell_summary(cell)})


def _facet_stars(terms):
    """Group the terms' cells around their shared facets."""
    stars = {}
    for cell, form, w in terms:
        if cell.dim == 0:
            continue
        for tau in cell.facets():
            stars.setdefault(tau, []).append((cell, form.scale(w)))
    return stars


def _divisor_core(phi, R):
    """Facet contributions of cutting R by phi.

    R must be a complex-compatible presentation, balanced, with every term
    cell covered by a maximal cell of phi.  At a facet the local function is
    extended linearly by zero on the canonical complement, and each adjacent
    cell contributes the gradient jump against its inward normal.
    """
    n = R.n
    gradients = {cell: phi.gradient(_covering_cell(phi.maximal, cell, "function"))
                 for cell, _, _ in R.terms}
    stars = _facet_stars(R.terms)
    out = {}
    for tau in sorted(stars, key=lambda c: c.sort_key):
        contributions = sorted(stars[tau], key=lambda t: t[0].sort_key)
        g0 = gradients[contributions[0][0]]
        # the gradient that agrees with g0 on tau and is zero on the
        # complement: sum_k (g0 . basis_k) u_k over the chart's dual rows
        ch = tau.chart
        base_grad = [QZERO] * n
        for b, u in zip(ch.basis, ch.u_rows):
            c = vec_dot(g0, b)
            base_grad = [x + c * y for x, y in zip(base_grad, u)]
        beta = SuperForm.zero(tau.dim)
        for sigma, form in contributions:
            jump = [a - b for a, b in zip(gradients[sigma], base_grad)]
            c = vec_dot(jump, primitive_normal(sigma, tau))
            if c:
                beta = beta + transport_form(form, sigma, tau).scale(c)
        if not beta.is_zero():
            out[tau] = out.get(tau, SuperForm.zero(tau.dim)) + beta
    return DeltaForm(n, [(tau, beta, QONE) for tau, beta in out.items()
                         if not beta.is_zero()]).canonicalize()


def _wall_function(N, a, b):
    """max(x_a, x_b) on R^N as a two-piece PLFunction."""
    return intersection.pl_max(N, [([int(j == i) for j in range(N)], 0) for i in (a, b)])


def _wall_cut(X, a, b):
    """X sliced along the wall x_a = x_b, then cut by max(x_a, x_b)."""
    phi = _wall_function(X.n, a, b)
    pool = hyperplane_pool(phi.maximal)
    X = DeltaForm(X.n, _sliced_terms(X.terms, pool)).canonicalize()
    return intersection._divisor_core(phi, X)


def _cell_wall_cut(X, a, b):
    """The canonical balanced current X on R^N cut by max(x_a, x_b).

    One pass over the terms by wedge_diagonal's per-cell rule, with
    h = x_a - x_b: each cell's generators tell on which sides of h = 0 it
    lies, and canonicalize sums the slices that land on one cell.
    """
    h = [0] * X.n
    h[a], h[b] = 1, -1
    wall = polyhedron(X.n, [], eqs=[(h, 0)])
    out = []
    for sigma, form, _ in X.terms:
        c = gcd(*(r[a] - r[b] for r in sigma.span.rows))
        if not c:
            continue
        rays, lines = sigma.generators()
        if all(ln[a] == ln[b] for ln in lines) and all(r[a] <= r[b] for r in rays):
            continue
        tau = intersect(sigma, wall)
        if tau is not None and tau.dim == sigma.dim - 1:
            out.append((tau, transport_form(form, sigma, tau).scale(c), QONE))
    return DeltaForm(X.n, out).canonicalize()


def _exterior_product(S, T):
    """Product current on the product space, each cell built from its factors.

    The HNF basis of span(c1 x c2) is block-diag(basis c1, basis c2), so when
    the product's base point is the two base points joined, f1 wedged with f2
    renamed past c1's coordinates is the coefficient in the product's chart.
    Otherwise (a product with lines) the wedge moves once from the joined
    factor charts into it, along the factors' padded dual rows.
    """
    A, B = S.canonicalize(), T.canonicalize()
    n, m = A.n, B.n
    out = []
    for c1, f1, _ in A.terms:
        ch1 = c1.chart
        for c2, f2, _ in B.terms:
            ch2 = c2.chart
            prod = product_polyhedron(c1, c2)
            k = prod.dim
            form = _shifted(f1, k, 0).wedge(_shifted(f2, k, c1.dim))
            base = ch1.base + ch2.base
            if prod.chart.base != base:
                duals = ([u + (0,) * m for u in ch1.u_rows]
                         + [(0,) * n + u for u in ch2.u_rows])
                m_rows = [[int_dot(u, b) for b in prod.chart.basis] for u in duals]
                form = form.pullback_affine(
                    m_rows, _dual_coords(duals, prod.chart.base, base), k=k)
            out.append((prod, form, QONE))
    return DeltaForm(n + m, out).canonicalize()


def wedge_diagonal_by_walls(S, T, cut=None):
    """The exterior product of the balanced factors cut by each wall in
    turn, by cut (default _cell_wall_cut), then projected back."""
    if cut is None:
        cut = _cell_wall_cut
    if S.n != T.n:
        raise ValueError("wedge factors live in different spaces")
    n = S.n
    A = intersection._balanced_presentation(S, factor="left")
    B = intersection._balanced_presentation(T, factor="right")
    X = _exterior_product(A, B)
    for i in range(n, 0, -1):
        X = cut(X, i - 1, n + i - 1)
        if not X.terms:
            return DeltaForm(n)
    p1 = AffineMap.projection(2 * n, range(n))
    return pushforward(p1, X)


def _wall_slice(sigma, a, b):
    """(sigma & H, c) for the cell sigma and the wall max(x_a, x_b), or None.

    h = x_a - x_b, H = {h = 0} and c = gcd_k h(b_k) over sigma's lattice
    basis.  None when c = 0, when h <= 0 on sigma, or when sigma & H is not
    a facet of sigma or of its half h >= 0.  If h >= 0 on sigma, sigma & H
    is the face of the rays with h = 0, empty unless one is a point (t > 0).
    """
    c = gcd(*(r[a] - r[b] for r in sigma.span.rows))
    if not c:
        return None
    rays, lines = sigma.generators()
    if all(ln[a] == ln[b] for ln in lines) and (
            all(r[a] <= r[b] for r in rays)
            or all(r[a] > r[b] or not r[-1] and r[a] == r[b] for r in rays)):
        return None
    tau = intersect(sigma, polyhedron(sigma.n, [], eqs=[(
        [(j == a) - (j == b) for j in range(sigma.n)], 0)]))
    return (tau, c) if tau is not None and tau.dim == sigma.dim - 1 else None


def walk_by_polyhedra(c1, c2, n):
    """(sigma & Delta, weight) for sigma = c1 x c2 cut by the walls i = n,
    ..., 1 with _wall_slice, or None where the chain stops."""
    tau, weight = product_polyhedron(c1, c2), 1
    for i in range(n, 0, -1):
        cut = _wall_slice(tau, i - 1, n + i - 1)
        if cut is None:
            return None
        tau, weight = cut[0], weight * cut[1]
    return tau, weight


def wedge_diagonal_by_polyhedra(S, T):
    """wedge_diagonal with each pair of cells walked as polyhedra in R^2n,
    f1 x f2 moved into the last cell's chart and projected back."""
    if S.n != T.n:
        raise ValueError("wedge factors live in different spaces")
    n = S.n
    A = intersection._balanced_presentation(S, factor="left")
    B = intersection._balanced_presentation(T, factor="right")
    out = []
    for c1, f1, _ in A.terms:
        for c2, f2, _ in B.terms:
            walked = walk_by_polyhedra(c1, c2, n)
            if walked is not None:
                tau, weight = walked
                out.append((tau, _product_form(c1, f1, c2, f2, tau), weight))
    p1 = AffineMap.projection(2 * n, range(n))
    return pushforward(p1, DeltaForm(2 * n, out))


def _wall_gcds(c1, c2, n):
    """The product of the walls' gcds on the walk from c1 x c2 to the diagonal.

    The lattice of c1 x c2 is Lambda_1 (+) Lambda_2, and each wall's slice
    has the lattice of the slice before it met with ker h, h = x_i - y_i,
    for i = n, ..., 1.  h maps each lattice onto cZ, c the gcd of h over a
    basis; an integer kernel of those values gives a basis of the next.  h
    reads only x - y, so each basis vector is kept as its image x - y.
    """
    rows = [list(r) for r in c1.span.rows] + [[-x for x in r] for r in c2.span.rows]
    weight = 1
    for i in range(n - 1, -1, -1):
        values = [r[i] for r in rows]
        weight *= gcd(*values)
        rows = [[int_dot(z, col) for col in zip(*rows)]
                for z in integer_kernel([values], len(values))]
    return weight


def _complex_presentation(T, pool=()):
    """T sliced along the pool and, if its cells form no complex, refined."""
    C = DeltaForm(T.n, _sliced_terms(T.terms, pool))
    try:
        Complex([c for c, _, _ in C.terms])
        return C
    except ComplexError:
        return C.refine(extra_hyperplanes=pool)


def _forms_complex(T):
    """Whether T's term cells form a polyhedral complex."""
    try:
        Complex([c for c, _, _ in T.terms])
    except ComplexError:
        return False
    return True


def all_pairs(left, right):
    """(i, j, left[i] & right[j]) for every pair that meets, in (i, j) order."""
    for i, c1 in enumerate(left):
        for j, c2 in enumerate(right):
            pi = intersect(c1, c2)
            if pi is None:
                continue
            yield i, j, pi


def _stable_scan(n, left, right, w):
    """_stable_pairs's answer for two tuples of cells and a primitive w."""
    pairs = []
    for i, c1 in enumerate(left):
        for j, c2 in enumerate(right):
            pi = intersect(c1, c2)
            if pi is None:
                continue
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


def count_calls(m, module, name, fn=None):
    """Set module.name to fn (default: itself) through the monkeypatch
    context m, counting its calls; returns the list to which each call
    appends its positional arguments."""
    fn = getattr(module, name) if fn is None else fn
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    m.setattr(module, name, counted)
    return calls


def install_wedge_by_walls(m, cut=None):
    """Set intersection.wedge_diagonal to wedge_diagonal_by_walls with cut,
    counting its calls (count_calls), so a test can tell that it ran."""
    return count_calls(m, intersection, "wedge_diagonal",
                       lambda S, T: wedge_diagonal_by_walls(S, T, cut))
