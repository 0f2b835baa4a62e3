"""Chart transport as deltaforms did it before identity maps were skipped and
offsets and minors were taken in integers.

Kept verbatim as reference oracles for the tests, and not collected by
pytest.

- to_local(chart, x) is the former Chart.to_local body, in Fractions.
- transition_to(chart, other, f) is the former Chart.transition_to body: it
  builds the image base point in Fractions and reads the offset off
  to_local(other, base).
- transport_form pulls back along every transition, the identity included.
- pullback_affine(form, ...) is the former SuperForm.pullback_affine body:
  every entry of the map becomes a Fraction, and each minor is the rational
  det.
- restrict(form, chart) is the former SuperForm.restrict body, which wraps
  the integer chart basis in Fractions.
- chart_to_ambient and _split_coordinates are the former bodies from
  currents: the ambient shift is a Fraction vec_dot with the chart base,
  and the boundary's split coordinates invert the integer transition in
  Fractions.  They call to_local and pullback_affine of this module.

Everything else (charts, cells, compose_affine) is the library's own.
"""

from itertools import combinations

from deltaforms.cones import int_dot
from deltaforms.linalg import mat_mul_vec, vec_dot
from deltaforms.polyhedra import primitive_normal
from deltaforms.scalars import Q, QONE, qof
from deltaforms.superforms import _superform
from linalg_oracle import det, invert, vec_sub


def to_local(self, x):
    dx = [qof(v) - b for v, b in zip(x, self.base)]
    return [vec_dot(u, dx) for u in self.u_rows]


def transition_to(self, other, f=None):
    """Affine map u_other = M . u_self + c from x to f(x), or to x.

    u_self are this chart's coordinates of x and u_other are other's
    coordinates of f(x); f is anything with apply and apply_linear, such
    as an affine map, and must carry this chart's span into other's.
    """
    if f is None:
        cols, base = self.basis, self.base
    else:
        cols = [f.apply_linear(b) for b in self.basis]
        base = f.apply(self.base)
    m_rows = [[int_dot(u, col) for col in cols] for u in other.u_rows]
    return m_rows, to_local(other, base)


def transport_form(form, src_cell, dst_cell, f=None):
    """Pull a chart-coordinate form of src_cell back to dst_cell along f.

    The result is the form at f(x), written in dst_cell's chart coordinates
    of x; f is None for the identity.  f must carry the affine hull of
    dst_cell into that of src_cell.
    """
    m_rows, off = transition_to(dst_cell.chart, src_cell.chart, f)
    return pullback_affine(form, m_rows, off, k=dst_cell.dim)


def pullback_affine(form, lin_rows, shift, k=None):
    """Pull back along u -> shift + lin.u from R^k to this form's R^n.

    lin_rows is n x k.  Coefficients are composed with the map and each
    generator d x_i is replaced by the corresponding row combination.
    k is inferred from lin_rows except when n = 0 leaves no rows.
    """
    self = form
    n = self.n
    if len(lin_rows) != n or len(shift) != n:
        raise ValueError("affine map shape mismatch")
    if k is None:
        k = len(lin_rows[0]) if n and lin_rows else 0
    lin = [[qof(x) for x in row] for row in lin_rows]
    shift = [qof(s) for s in shift]
    minors = {}

    def nonzero_minors(rows):
        """(cols, det) for the nonzero minors of lin on the given rows."""
        if rows not in minors:
            pairs = [((), QONE)] if not rows else [
                (cols, det([[lin[r][c] for c in cols] for r in rows]))
                for cols in combinations(range(k), len(rows))]
            minors[rows] = [(cols, d) for cols, d in pairs if d]
        return minors[rows]

    out = {}
    for (ii, jj), p in self.terms.items():
        scales = [((kk, mm), di * dj) for kk, di in nonzero_minors(ii)
                  for mm, dj in nonzero_minors(jj)]
        if not scales:
            continue
        comp = p.compose_affine(lin, shift, k)
        if comp.is_zero():
            continue
        for key, c in scales:
            q = comp * c
            out[key] = out[key] + q if key in out else q
    return _superform(k, out)


def restrict(form, chart):
    """Restriction to a cell: pull back along u -> base + B u."""
    self = form
    if chart.n != self.n:
        raise ValueError("ambient dimension mismatch")
    lin = [[Q(chart.basis[kk][i]) for kk in range(chart.dim)]
           for i in range(self.n)]
    return pullback_affine(self, lin, list(chart.base))


def chart_to_ambient(form, cell):
    """Extend a chart-coordinate form of the cell to an ambient form."""
    ch = cell.chart
    lin = [list(u) for u in ch.u_rows]
    shift = [-vec_dot(u, ch.base) for u in ch.u_rows]
    return pullback_affine(form, lin, shift, k=cell.n)


def _split_coordinates(sigma, tau):
    """Affine change from sigma-chart coordinates to (tau-chart, transverse).

    The transverse coordinate is the first complement dual of tau that is
    nonzero on the facet normal; its product with the extracted coefficient
    does not depend on this choice.
    """
    nvec = primitive_normal(sigma, tau)
    tch, sch = tau.chart, sigma.chart
    j0 = None
    for j, w_row in enumerate(tch.w_rows):
        if vec_dot(w_row, nvec) != 0:
            j0 = j
            break
    if j0 is None:
        raise AssertionError("facet normal lies in the facet span")
    w = tch.w_rows[j0]
    scale = vec_dot(w, nvec)
    rows = [[int_dot(u, b) for b in sch.basis] for u in tch.u_rows + (w,)]
    off = list(to_local(tch, sch.base))
    off.append(vec_dot(w, vec_sub(list(sch.base), list(tch.base))))
    inv = invert(rows)
    shift = mat_mul_vec(inv, [-o for o in off])
    return inv, shift, scale
