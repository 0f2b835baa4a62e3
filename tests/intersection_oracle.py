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

Everything else (transports, normals, the balancing check) is the
library's own.
"""

from deltaforms import intersection
from deltaforms.currents import (
    DeltaForm,
    PreconditionError,
    _sliced_terms,
    cell_summary,
    hyperplane_pool,
    transport_form,
)
from deltaforms.linalg import vec_dot
from deltaforms.polyhedra import primitive_normal
from deltaforms.scalars import QONE, QZERO
from deltaforms.superforms import SuperForm


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
