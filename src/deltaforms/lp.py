"""Exact linear programming over Q.

Two-phase primal simplex with Bland's rule on a dense tableau of Fractions,
so verdicts are exact and the same input always yields the same witness.

Polyhedron canonicalization does not use it (see polyhedra).  The callers
are Polyhedron.relint_point, through strict_interior, and
intersection._stable_pairs, which asks strict_interior and lp_extremum
about the lifted system of a pair of cells.
"""

from __future__ import annotations

from fractions import Fraction

from .scalars import QONE, QZERO, qof


class LPResult:
    __slots__ = ("status", "value", "witness")

    def __init__(self, status, value=None, witness=None):
        self.status = status          # 'optimal' | 'unbounded' | 'infeasible'
        self.value = value
        self.witness = witness

    def __repr__(self):
        return f"LPResult({self.status}, value={self.value})"


class _Simplex:
    """max c.x  s.t.  A x <= b, x free.  Variables split x = u - w, u,w >= 0."""

    def __init__(self, a_rows, b, c):
        # the scalar field; perfbench/tracer.py reads it to classify solves
        self.field = Fraction
        m = len(a_rows)
        n = len(c)
        self.m, self.n = m, n
        # columns: u_0..u_{n-1}, w_0..w_{n-1}, slacks s_0..s_{m-1}
        self.ncols = 2 * n + m
        self.rows = []
        for i in range(m):
            row = [qof(x) for x in a_rows[i]]
            row += [-x for x in row[:n]]
            row += [QONE if j == i else QZERO for j in range(m)]
            row.append(qof(b[i]))
            self.rows.append(row)
        self.obj = [qof(x) for x in c]
        self.obj += [-x for x in self.obj[:n]]
        self.obj += [QZERO] * m
        self.basis = [2 * n + i for i in range(m)]

    def _pivot(self, r, col):
        rows = self.rows
        prow = rows[r]
        inv = QONE / prow[col]
        rows[r] = [x * inv for x in prow]
        prow = rows[r]
        for i in range(self.m):
            if i != r:
                f = rows[i][col]
                if f:
                    rows[i] = [a - f * b for a, b in zip(rows[i], prow)]
        self.basis[r] = col

    def _price_out(self, obj):
        """Express an objective row in terms of nonbasic columns."""
        red = list(obj) + [QZERO]
        for r, col in enumerate(self.basis):
            f = red[col]
            if f:
                red = [a - f * b for a, b in zip(red, self.rows[r])]
        return red

    def _optimize(self, red):
        """Bland's rule loop. Mutates tableau; returns ('optimal'|'unbounded', red)."""
        while True:
            enter = None
            for j in range(self.ncols):
                if red[j] > QZERO:
                    enter = j
                    break
            if enter is None:
                return "optimal", red
            leave = None
            best = None
            for i in range(self.m):
                a = self.rows[i][enter]
                if a > QZERO:
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
        neg = [i for i in range(self.m) if self.rows[i][-1] < QZERO]
        if neg:
            art = self.ncols
            for i in range(self.m):
                self.rows[i].insert(art, -QONE)
            self.ncols += 1
            aux = [QZERO] * self.ncols
            aux[art] = -QONE
            worst = min(range(self.m), key=lambda i: (self.rows[i][-1], i))
            self._pivot(worst, art)
            red = self._price_out(aux)
            self._optimize(red)
            if self._objective_value(aux) < QZERO:
                return LPResult("infeasible")
            if art in self.basis:
                r = self.basis.index(art)
                piv = next((j for j in range(self.ncols - 1)
                            if j != art and self.rows[r][j]), None)
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
        val = QZERO
        for r, col in enumerate(self.basis):
            if obj[col]:
                val = val + obj[col] * self.rows[r][-1]
        return val

    def _witness(self):
        vals = [QZERO] * self.ncols
        for r, col in enumerate(self.basis):
            vals[col] = self.rows[r][-1]
        return [vals[j] - vals[self.n + j] for j in range(self.n)]


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
    appropriate.
    """
    rows, rhs = _prepare(a_rows, b, eqs)
    if sense == "min":
        res = lp_extremum([-x for x in c], rows, rhs, "max")
        if res.status == "optimal":
            res = LPResult("optimal", value=-res.value, witness=res.witness)
        return res
    if sense != "max":
        raise ValueError("sense must be 'max' or 'min'")
    if not rows:
        if all(x == 0 for x in c):
            return LPResult("optimal", value=QZERO, witness=[QZERO] * len(c))
        return LPResult("unbounded")
    return _Simplex(rows, rhs, c).run()


def strict_interior(a_rows, b, eqs=None):
    """A point with A x < b strictly and equalities exact, or None.

    Maximizes the common inequality slack t, capped at 1.  Equalities stay
    equalities (no slack), so this finds a relative-interior point.
    """
    eqs = list(eqs or [])
    if not a_rows and not eqs:
        return []
    n = len(a_rows[0]) if a_rows else len(eqs[0][0])
    ext = [list(r) + [QONE] for r in a_rows]
    rhs = list(b)
    ext.append([QZERO] * n + [QONE])  # t <= 1
    rhs.append(QONE)
    eqs2 = [(list(g) + [QZERO], v) for g, v in eqs]
    res = lp_extremum([QZERO] * n + [QONE], ext, rhs, "max", eqs=eqs2)
    if res.status != "optimal" or not (res.value > 0):
        return None
    return res.witness[:n]
