"""Exact linear programming over Q and over the ordered field Q(eps).

Two-phase primal simplex with Bland's rule on a dense tableau.  All pivots
and comparisons happen in the coefficient field, so verdicts are exact and
the same input always yields the same witness.

Polyhedron canonicalization does not use it (see polyhedra).  The callers
are Polyhedron.relint_point (strict_interior over Q) and the displacement
route in intersection, whose is_generic and displacement_product test each
pair of cells for feasibility and a strict interior point of the displaced
system over Q(eps).
"""

from __future__ import annotations

from fractions import Fraction

from .scalars import EpsRational, Q, qof


class LPError(Exception):
    pass


def _field_of(*value_lists):
    for vals in value_lists:
        for v in vals:
            if isinstance(v, EpsRational):
                return EpsRational
    return Fraction


def _lift(x, field):
    if field is EpsRational:
        return EpsRational.coerce(x)
    return qof(x)


class LPResult:
    __slots__ = ("status", "value", "witness", "certificate")

    def __init__(self, status, value=None, witness=None, certificate=None):
        self.status = status          # 'optimal' | 'unbounded' | 'infeasible'
        self.value = value
        self.witness = witness
        self.certificate = certificate

    def __repr__(self):
        return f"LPResult({self.status}, value={self.value})"


class _Simplex:
    """max c.x  s.t.  A x <= b, x free.  Variables split x = u - w, u,w >= 0."""

    def __init__(self, a_rows, b, c, field):
        self.field = field
        self.zero = _lift(0, field)
        self.one = _lift(1, field)
        m = len(a_rows)
        n = len(c)
        self.m, self.n = m, n
        # columns: u_0..u_{n-1}, w_0..w_{n-1}, slacks s_0..s_{m-1}
        self.ncols = 2 * n + m
        self.rows = []
        for i in range(m):
            row = [_lift(x, field) for x in a_rows[i]]
            row += [-x for x in row[:n]]
            row += [self.one if j == i else self.zero for j in range(m)]
            row.append(_lift(b[i], field))
            self.rows.append(row)
        self.obj = [_lift(x, field) for x in c]
        self.obj += [-x for x in self.obj[:n]]
        self.obj += [self.zero] * m
        self.basis = [2 * n + i for i in range(m)]

    def _pivot(self, r, col):
        rows = self.rows
        prow = rows[r]
        inv = self.one / prow[col]
        rows[r] = [x * inv for x in prow]
        prow = rows[r]
        for i in range(self.m):
            if i != r:
                f = rows[i][col]
                if f != self.zero:
                    rows[i] = [a - f * b for a, b in zip(rows[i], prow)]
        self.basis[r] = col

    def _price_out(self, obj):
        """Express an objective row in terms of nonbasic columns."""
        red = list(obj) + [self.zero]
        for r, col in enumerate(self.basis):
            f = red[col]
            if f != self.zero:
                red = [a - f * b for a, b in zip(red, self.rows[r])]
        return red

    def _optimize(self, red):
        """Bland's rule loop. Mutates tableau; returns ('optimal'|'unbounded', red)."""
        while True:
            enter = None
            for j in range(self.ncols):
                if red[j] > self.zero:
                    enter = j
                    break
            if enter is None:
                return "optimal", red
            leave = None
            best = None
            for i in range(self.m):
                a = self.rows[i][enter]
                if a > self.zero:
                    ratio = self.rows[i][-1] / a
                    if best is None or ratio < best or (ratio == best and self.basis[i] < self.basis[leave]):
                        best = ratio
                        leave = i
            if leave is None:
                return "unbounded", red
            self._pivot(leave, enter)
            f = red[enter]
            red = [a - f * b for a, b in zip(red, self.rows[leave])]

    def run(self):
        # phase 1: if some b < 0, add artificial column and drive it out
        neg = [i for i in range(self.m) if self.rows[i][-1] < self.zero]
        if neg:
            art = self.ncols
            for i in range(self.m):
                self.rows[i].insert(art, -self.one)
            self.ncols += 1
            aux = [self.zero] * self.ncols
            aux[art] = -self.one
            worst = min(range(self.m), key=lambda i: (self.rows[i][-1], i))
            self._pivot(worst, art)
            red = self._price_out(aux)
            status, red = self._optimize(red)
            aux_val = self._objective_value(aux)
            if aux_val < self.zero:
                # infeasible; multipliers on slack columns give a Farkas row
                cert = self._farkas(aux)
                self._drop_artificial(art)
                return LPResult("infeasible", certificate=cert)
            if art in self.basis:
                r = self.basis.index(art)
                piv = next((j for j in range(self.ncols - 1)
                            if j != art and self.rows[r][j] != self.zero), None)
                if piv is None:
                    del self.rows[r]
                    del self.basis[r]
                    self.m -= 1
                else:
                    self._pivot(r, piv)
            self._drop_artificial(art)
        red = self._price_out(list(self.obj))
        status, red = self._optimize(red)
        if status == "unbounded":
            return LPResult("unbounded")
        x = self._witness()
        return LPResult("optimal", value=self._objective_value(self.obj), witness=x)

    def _drop_artificial(self, art):
        for i in range(self.m):
            del self.rows[i][art]
        self.ncols -= 1
        self.basis = [b if b < art else b - 1 for b in self.basis]

    def _objective_value(self, obj):
        val = self.zero
        for r, col in enumerate(self.basis):
            if obj[col] != self.zero:
                val = val + obj[col] * self.rows[r][-1]
        return val

    def _witness(self):
        vals = [self.zero] * self.ncols
        for r, col in enumerate(self.basis):
            vals[col] = self.rows[r][-1]
        return [vals[j] - vals[self.n + j] for j in range(self.n)]

    def _farkas(self, aux):
        """y >= 0 with y.A = 0 and y.b < 0, from phase-1 dual prices."""
        red = self._price_out(aux)
        n2 = 2 * self.n
        y = []
        for i in range(self.m):
            # reduced cost of slack i equals -y_i for the aux objective
            y.append(-red[n2 + i] if n2 + i < len(red) - 1 else self.zero)
        return y


def _prepare(a_rows, b, eqs):
    rows = [list(r) for r in a_rows]
    rhs = list(b)
    if eqs:
        for coeffs, val in eqs:
            rows.append(list(coeffs))
            rhs.append(val)
            rows.append([-x for x in coeffs])
            rhs.append(-val)
    return rows, rhs


def lp_extremum(c, a_rows, b, sense="max", eqs=None):
    """Exact extremum of c.x over {A x <= b} (+ optional equalities).

    Returns LPResult with exact witness; 'unbounded' or 'infeasible' as
    appropriate.  Field is Q, or Q(eps) when any entry is an EpsRational.
    """
    rows, rhs = _prepare(a_rows, b, eqs)
    field = _field_of(c, rhs, *rows)
    if sense == "min":
        res = lp_extremum([-x for x in c], rows, rhs, "max")
        if res.status == "optimal":
            res = LPResult("optimal", value=-res.value, witness=res.witness)
        return res
    if sense != "max":
        raise ValueError("sense must be 'max' or 'min'")
    if not rows:
        if all((x == 0 if not isinstance(x, EpsRational) else x.is_zero()) for x in c):
            return LPResult("optimal", value=_lift(0, field), witness=[_lift(0, field)] * len(c))
        return LPResult("unbounded")
    sim = _Simplex(rows, rhs, c, field)
    return sim.run()


def lp_feasible(a_rows, b, eqs=None):
    """Feasibility of {A x <= b} (+ equalities) with witness or certificate.

    The certificate is a Farkas vector y >= 0 for the inequality rows after
    equality expansion: y.A = 0 with y.b < 0.
    """
    rows, rhs = _prepare(a_rows, b, eqs)
    if not rows:
        return LPResult("feasible", witness=[])
    n = len(rows[0])
    field = _field_of(rhs, *rows)
    zero = _lift(0, field)
    sim = _Simplex(rows, rhs, [zero] * n, field)
    res = sim.run()
    if res.status == "infeasible":
        y = res.certificate
        # validate; fall back to a direct dual solve if pricing was degenerate
        if y is None or not _valid_farkas(rows, rhs, y, field):
            y = _dual_farkas(rows, rhs, field)
        return LPResult("infeasible", certificate=y)
    return LPResult("feasible", witness=res.witness)


def _valid_farkas(rows, rhs, y, field):
    zero = _lift(0, field)
    if any(v < zero for v in y):
        return False
    n = len(rows[0])
    for j in range(n):
        s = zero
        for i, r in enumerate(rows):
            s = s + y[i] * r[j]
        if s != zero:
            return False
    t = zero
    for i in range(len(rows)):
        t = t + y[i] * rhs[i]
    return t < zero


def _dual_farkas(rows, rhs, field):
    """Solve for a Farkas certificate directly: min y.b, y.A=0, y>=0, sum y=1."""
    m = len(rows)
    n = len(rows[0])
    zero = _lift(0, field)
    one = _lift(1, field)
    a2 = []
    b2 = []
    for i in range(m):  # -y_i <= 0
        a2.append([-one if j == i else zero for j in range(m)])
        b2.append(zero)
    eqs = []
    for j in range(n):
        eqs.append(([r[j] for r in rows], zero))
    eqs.append(([one] * m, one))
    res = lp_extremum([-_lift(x, field) for x in rhs], a2, b2, "max", eqs=eqs)
    if res.status != "optimal" or not (-res.value < zero):
        raise LPError("failed to produce a Farkas certificate")
    return res.witness


def strict_interior(a_rows, b, eqs=None):
    """A point with A x < b strictly and equalities exact, or None.

    Maximizes the common inequality slack t, capped at 1.  Equalities stay
    equalities (no slack), so this finds a relative-interior point.
    """
    eqs = list(eqs or [])
    field = _field_of(b, [v for _, v in eqs], *(list(r) for r in a_rows),
                      *(list(g) for g, _ in eqs))
    one = _lift(1, field)
    zero = _lift(0, field)
    if not a_rows and not eqs:
        return []
    n = len(a_rows[0]) if a_rows else len(eqs[0][0])
    ext = [list(r) + [one] for r in a_rows]
    rhs = list(b)
    ext.append([zero] * n + [one])  # t <= 1
    rhs.append(one)
    eqs2 = [(list(g) + [zero], v) for g, v in eqs]
    res = lp_extremum([zero] * n + [one], ext, rhs, "max", eqs=eqs2)
    if res.status != "optimal" or not (res.value > zero):
        return None
    return res.witness[:n]
