"""The superform kernel that deltaforms used before the unchecked Poly factory.

Kept verbatim as the reference oracle for the tests, and not collected by
pytest.  `Poly` re-validates every arithmetic result through its public
constructor and expands `compose_affine` as products of `Poly` objects;
`pullback_affine` recomputes each minor for every term; and
`check_balanced_refined` transports each coefficient once per complement
row and once more for the residue direction.

`pullback_affine` is the method body over a SuperForm whose coefficients are
first copied into oracle polynomials; it returns the terms of the pulled-back
form as {(I, J): Poly}.  `check_balanced_refined` runs on the library's own
presentation, cells and transports.

`integrate_local` is the version that substituted from the first vertex of
each simplex, before the simplices were integrated from the chart base; it
runs on the library's own `Poly`.  `triangulate` is the pulling
triangulation that the library integrated with before it integrated by the
facet recursion, and `integrate_top` and `boundary_integral` are the
library's bodies of that time, on the library's `SuperForm.restrict` and on
this `integrate_local`: the triangulation route, the cross-check for an
integrator that is itself a divergence theorem.
"""

from fractions import Fraction
from itertools import combinations
from math import factorial

from deltaforms.currents import cell_summary, transport_form
from deltaforms.linalg import clear_denominators, vec_dot
from deltaforms.polyhedra import WeightedCell, primitive_normal
from deltaforms.scalars import Q, QONE, QZERO, qof
from deltaforms.superforms import SuperForm, _sign_reorder
from linalg_oracle import det


class Poly:
    """Polynomial with rational coefficients in n variables."""

    __slots__ = ("n", "terms")

    def __init__(self, n, terms=None):
        self.n = n
        clean = {}
        for exps, c in (terms or {}).items():
            c = qof(c)
            if c != 0:
                exps = tuple(int(e) for e in exps)
                if len(exps) != n or any(e < 0 for e in exps):
                    raise ValueError("bad exponent tuple")
                clean[exps] = clean.get(exps, QZERO) + c
        self.terms = {e: c for e, c in clean.items() if c != 0}

    @classmethod
    def const(cls, n, c):
        return cls(n, {tuple([0] * n): qof(c)})

    @classmethod
    def variable(cls, n, i):
        e = [0] * n
        e[i] = 1
        return cls(n, {tuple(e): QONE})

    @classmethod
    def affine(cls, lin, c):
        n = len(lin)
        terms = {tuple([0] * n): qof(c)}
        for i, a in enumerate(lin):
            e = [0] * n
            e[i] = 1
            terms[tuple(e)] = qof(a)
        return cls(n, terms)

    def is_zero(self):
        return not self.terms

    def __add__(self, other):
        other = self._coerce(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out.get(e, QZERO) + c
        return Poly(self.n, out)

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __neg__(self):
        return Poly(self.n, {e: -c for e, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, str)):
            c = qof(other)
            return Poly(self.n, {e: c * v for e, v in self.terms.items()})
        other = self._coerce(other)
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                out[e] = out.get(e, QZERO) + c1 * c2
        return Poly(self.n, out)

    __rmul__ = __mul__

    def _coerce(self, other):
        if isinstance(other, Poly):
            if other.n != self.n:
                raise ValueError("variable count mismatch")
            return other
        return Poly.const(self.n, qof(other))

    def partial(self, i):
        out = {}
        for e, c in self.terms.items():
            if e[i]:
                e2 = list(e)
                e2[i] -= 1
                out[tuple(e2)] = out.get(tuple(e2), QZERO) + c * e[i]
        return Poly(self.n, out)

    def compose_affine(self, lin_rows, shift, k):
        """Substitute x_i = shift_i + sum_j lin_rows[i][j] u_j; result in k vars."""
        subs = [Poly.affine([qof(lin_rows[i][j]) for j in range(k)], shift[i])
                if k else Poly.const(0, qof(shift[i]))
                for i in range(self.n)]
        out = Poly.const(k, 0)
        powers = [{} for _ in range(self.n)]
        for e, c in self.terms.items():
            term = Poly.const(k, c)
            for i, exp in enumerate(e):
                if exp == 0:
                    continue
                cache = powers[i]
                if exp not in cache:
                    p = Poly.const(k, 1)
                    for _ in range(exp):
                        p = p * subs[i]
                    cache[exp] = p
                term = term * cache[exp]
            out = out + term
        return out


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
    out = {}
    for (ii, jj), p in self.terms.items():
        p = Poly(p.n, p.terms)
        comp = p.compose_affine(lin, [qof(s) for s in shift], k)
        if comp.is_zero():
            continue
        for kk in combinations(range(k), len(ii)):
            di = det([[lin[r][c] for c in kk] for r in ii]) if ii else QONE
            if di == 0:
                continue
            for mm in combinations(range(k), len(jj)):
                dj = det([[lin[r][c] for c in mm] for r in jj]) if jj else QONE
                if dj == 0:
                    continue
                q = comp * (di * dj)
                key = (kk, mm)
                out[key] = out[key] + q if key in out else q
    return {key: q for key, q in out.items() if not q.is_zero()}


def _facet_stars(terms):
    """Group the terms' cells around their shared facets."""
    stars = {}
    for cell, form, w in terms:
        if cell.dim == 0:
            continue
        for tau in cell.facets():
            stars.setdefault(tau, []).append((cell, form.scale(w)))
    return stars


def check_balanced_refined(R):
    """Balancing check for a presentation whose cells share facets exactly."""
    for (p, q, r), comp in R.tridegree_components().items():
        stars = _facet_stars(comp.terms)
        for tau in sorted(stars, key=lambda c: c.sort_key):
            contributions = stars[tau]
            residues = []
            direction = [QZERO] * R.n
            constant_coeffs = True
            for w_row in tau.chart.w_rows:
                beta = SuperForm.zero(tau.dim)
                for sigma, form in contributions:
                    c = vec_dot(w_row, primitive_normal(sigma, tau))
                    if c:
                        beta = beta + transport_form(form, sigma, tau).scale(c)
                residues.append(beta)
            for sigma, form in contributions:
                rest = transport_form(form, sigma, tau)
                if rest.bidegrees() in ([], [(0, 0)]):
                    c = rest.eval_scalar(list(tau.chart.to_local(tau.base_point)))
                    nv = primitive_normal(sigma, tau)
                    direction = [d + c * x for d, x in zip(direction, nv)]
                else:
                    constant_coeffs = False
            if any(not b.is_zero() for b in residues):
                cert = {
                    "face": cell_summary(tau),
                    "tridegree": (p, q, r),
                    "residues": [repr(b) for b in residues],
                }
                if constant_coeffs and any(x != 0 for x in direction):
                    iv = clear_denominators(direction)
                    if next(x for x in iv if x) < 0:
                        iv = [-x for x in iv]
                    cert["residue_vector"] = iv
                return False, cert
    return True, None


def triangulate(p):
    """Pulling triangulation into simplices, each a tuple of ambient vertices.

    Deterministic: cones the lexicographically smallest vertex over the
    triangulations of the facets that miss it.  Bounded cells only.
    """
    if not p.is_bounded():
        raise ValueError("cannot triangulate an unbounded polyhedron")
    if p.dim == 0:
        return [(tuple(p.base_point),)]
    apex = tuple(min(tuple(v) for v in p.vertices()))
    out = []
    for f in p.facets():
        if f.contains(apex):
            continue
        for s in triangulate(f):
            out.append(s + (apex,))
    return out


def integrate_poly_over_simplex(p, verts):
    """Exact integral of p over the simplex with the given local vertices."""
    d = p.n
    if len(verts) != d + 1:
        raise ValueError("vertex count mismatch")
    if d == 0:
        return p.constant_value()
    v0 = verts[0]
    lin = [[verts[i + 1][j] - v0[j] for i in range(d)] for j in range(d)]
    jac = abs(det(lin))
    if jac == 0:
        return QZERO
    h = p.compose_affine(lin, v0, d)
    total = QZERO
    for e, c in h.terms.items():
        num = 1
        for k in e:
            num *= factorial(k)
        total += c * Fraction(num, factorial(sum(e) + d))
    return jac * total


def integrate_local(g, cell):
    """Integral of a chart-coordinate polynomial over the cell's chart image."""
    chart = cell.chart
    if g.n != chart.dim:
        raise ValueError("polynomial lives in the wrong chart")
    if cell.dim == 0:
        return g.constant_value()
    total = QZERO
    for simplex in triangulate(cell):
        verts = [chart.to_local(v) for v in simplex]
        total += integrate_poly_over_simplex(g, verts)
    return total


def integrate_top(eta, wc):
    """Exact integral of a (d,d)-form over a bounded weighted cell of dim d."""
    cell = wc.cell
    d = cell.dim
    if eta.n != cell.n:
        raise ValueError("ambient dimension mismatch")
    if not eta.is_zero():
        bd = eta.bidegree()
        if bd != (d, d):
            raise ValueError(f"form bidegree {bd} does not match cell dimension {d}")
    if not cell.is_bounded():
        raise ValueError("cannot integrate over an unbounded cell")
    if eta.is_zero():
        return QZERO
    loc = eta.restrict(cell.chart)
    full = tuple(range(d))
    g = loc.terms.get((full, full))
    if g is None:
        return QZERO
    return wc.weight * _sign_reorder(d) * integrate_local(g, cell)


def boundary_integral(alpha, wc, which):
    """Boundary pairing of Stokes type over the facets of a bounded cell.

    which='first' pairs with the second-slot normals and carries a leading
    minus sign; which='second' pairs with first-slot normals and a plus sign.
    Facet weights are the canonical lattice weights; the result is checked to
    be invariant under rescaling one facet weight.
    """
    if which not in ("first", "second"):
        raise ValueError("which must be 'first' or 'second'")
    cell = wc.cell
    m = cell.dim
    if not cell.is_bounded():
        raise ValueError("cannot integrate over an unbounded cell")
    if not alpha.is_zero():
        bd = alpha.bidegree()
        want = (m - 1, m) if which == "first" else (m, m - 1)
        if bd != want:
            raise ValueError(f"form bidegree {bd} does not match {want}")
    slot = "second" if which == "first" else "prime"
    total = QZERO
    checked = False
    for tau in cell.facets():
        w = primitive_normal(cell, tau)
        nvec = [wc.weight * Q(x) for x in w]
        contracted = alpha.contract(nvec, slot)
        val = integrate_top(contracted, WeightedCell(tau, 1))
        if not checked:
            # facet-weight independence: double the facet weight, halve n
            half = alpha.contract([x / 2 for x in nvec], slot)
            val2 = integrate_top(half, WeightedCell(tau, 2))
            if val2 != val:
                raise AssertionError("boundary term depends on the facet weight")
            checked = True
        total += val
    return -total if which == "first" else total
