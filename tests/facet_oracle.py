"""Facet routes that deltaforms used before each cell kept a per-facet slot,
kept verbatim as reference oracles for the tests and not collected by
pytest.

- primitive_normal is the former body: it checks the dimensions, takes
  tau's span in rational coordinates of sigma's span, and finds the facet
  row by scanning every inequality row of sigma against tau's span and
  rational base point.  Nothing is remembered between calls.  It solves
  sum_k u_k (-a.b_k) = g by an extended gcd (_xgcd_vector) and reduces u
  modulo the HNF of tau's coordinates (_reduce_mod_rows), the two helpers
  that the library kept until it read (g, u) off the first row of one HNF.
- _split_coordinates is the former body, without the memo; it calls the
  primitive_normal of this module.
- _boundary(T, kind) is the former body: one pass per kind, each pulling
  every coefficient back to the split coordinates of every facet.  It
  calls the _split_coordinates of this module.

Everything else (cells, charts, the balanced refinement, the extraction of
the normal parts) is the library's own.
"""

from deltaforms.cones import int_dot
from deltaforms.currents import DeltaForm, _extract_normal_parts, require_balanced
from deltaforms.linalg import _int_rref, hnf
from deltaforms.polyhedra import Polyhedron, _dual_coords
from deltaforms.scalars import Q, QONE
from linalg_oracle import coords as lattice_coords


def _xgcd_vector(f):
    """Integer u with f.u = gcd(f) for a nonzero integer vector f."""
    u = [0] * len(f)
    g = 0
    for i, x in enumerate(f):
        if x == 0:
            continue
        if g == 0:
            g = abs(x)
            u = [0] * len(f)
            u[i] = 1 if x > 0 else -1
            continue
        # extended gcd of g and x
        a, b = g, abs(x)
        s0, s1 = 1, 0
        t0, t1 = 0, 1
        while b:
            qq, a, b = a // b, b, a % b
            s0, s1 = s1, s0 - qq * s1
            t0, t1 = t1, t0 - qq * t1
        # s0*g + t0*|x| = gcd
        u = [s0 * c for c in u]
        u[i] += t0 * (1 if x > 0 else -1)
        g = a
    return u, g


def _reduce_mod_rows(u, h_rows):
    u = list(u)
    for row in h_rows:
        p = next(j for j, x in enumerate(row) if x != 0)
        q = u[p] // row[p]
        if q:
            u = [a - q * b for a, b in zip(u, row)]
    return u


def primitive_normal(sigma: Polyhedron, tau: Polyhedron):
    """Canonical primitive lattice normal of the facet tau inside sigma.

    Generates span(sigma) together with span(tau); points from tau into sigma.
    The facet row a of sigma that is tight on tau maps span(sigma) onto gZ,
    with kernel span(tau).  So with b_k the HNF basis of span(sigma), every
    u with sum_k u_k (-a.b_k) = g gives a normal sum_k u_k b_k that points
    inwards, and these u form one coset of tau's coordinates in the b_k; the
    HNF of those coordinates reduces it to one canonical u.
    """
    if tau.dim != sigma.dim - 1:
        raise ValueError("tau must be a facet of sigma")
    coords = []
    for t in tau.span.rows:
        c = lattice_coords(sigma.span, t)
        if c is None or any(x.denominator != 1 for x in c):
            raise ValueError("tau is not a subcell of sigma")
        coords.append([x.numerator for x in c])
    # the facet-defining inequality of sigma that is tight on tau
    tau_base = tau.base_point
    a = next((r[:-1] for r in sigma.ineq_rows
              if not any(int_dot(r[:-1], t) for t in tau.span.rows)
              and int_dot(r[:-1], tau_base) == r[-1]), None)
    if a is None:
        raise ValueError("tau is not a facet of sigma")
    bs = sigma.span.rows
    u, _ = _xgcd_vector([-int_dot(a, b) for b in bs])
    u = _reduce_mod_rows(u, hnf(coords) if coords else [])
    return [sum(c * b[i] for c, b in zip(u, bs)) for i in range(sigma.n)]


def _split_coordinates(sigma, tau):
    """Affine change from sigma-chart coordinates to (tau-chart, transverse).

    The transverse coordinate is the first complement dual of tau that is
    nonzero on the facet normal; its product with the extracted coefficient
    does not depend on this choice.
    """
    nvec = primitive_normal(sigma, tau)
    tch, sch = tau.chart, sigma.chart
    w = next((w for w in tch.w_rows if int_dot(w, nvec)), None)
    if w is None:
        raise AssertionError("facet normal lies in the facet span")
    rows = [[int_dot(u, b) for b in sch.basis] for u in tch.u_rows + (w,)]
    off = _dual_coords(tch.u_rows + (w,), sch.base, tch.base)
    # the integer RREF of [rows | I] holds the inverse, row i over red[i][i]
    d = len(rows)
    red, _ = _int_rref([row + [int(i == j) for j in range(d)]
                        for i, row in enumerate(rows)])
    inv = [[x if r[i] == 1 else Q(x, r[i]) for x in r[d:]] for i, r in enumerate(red)]
    return inv, [-int_dot(r, off) for r in inv], int_dot(w, nvec)


def _boundary(T, kind):
    R = require_balanced(T)
    collected = {}
    for cell, form, w in R.terms:
        if cell.dim == 0:
            continue
        f = form.scale(w)
        for tau in cell.facets():
            inv, shift, scale = _split_coordinates(cell, tau)
            split = f.pullback_affine(inv, shift)
            first, second = _extract_normal_parts(split, tau.dim)
            if kind == "prime":
                beta = second.scale(-scale)
            else:
                beta = first.scale(scale)
            if beta.is_zero():
                continue
            collected[tau] = collected[tau] + beta if tau in collected else beta
    return DeltaForm(T.n, [(tau, beta, QONE)
                           for tau, beta in collected.items()]).canonicalize()
