"""The Q(eps) displacement route that deltaforms used before the lifted system.

Kept verbatim as the reference oracle for the tests, and not collected by
pytest.  It holds the ordered field Q(eps) (EpsRational, eps an
infinitesimal > 0), the simplex that runs over Q or over Q(eps) with Farkas
certificates for infeasible systems, and the displacement checks that shift
the second cell's right-hand side by eps (a.v) and solve over Q(eps).

Its displacement checks pair only the maximal term cells of each factor
(_maximal_cells_of), so it is a reference only on currents where every
term cell is maximal.  Where a term cell lies inside another, the product
is bilinear and sums over every pair of terms, so the oracle is a reference
on each pair of single terms.
"""

from fractions import Fraction

from deltaforms.currents import DeltaForm, cell_summary, chart_to_ambient
from deltaforms.intersection import NonGenericError
from deltaforms.linalg import vec_dot
from deltaforms.polyhedra import intersect
from deltaforms.scalars import Q, QONE, QZERO, qof, qstr
from currents_oracle import stable_weight
from linalg_oracle import rank


def _eqs_rational(p):
    """The former Polyhedron.eqs_rational: equalities as rational (e, f)."""
    return [([Q(x) for x in r[:-1]], Q(r[-1])) for r in p.eq_rows]


def _ineqs_rational(p):
    """The former Polyhedron.ineqs_rational: rational rows and right sides."""
    return ([ [Q(x) for x in r[:-1]] for r in p.ineq_rows ],
            [Q(r[-1]) for r in p.ineq_rows])


# -- polynomial helpers over Q, coefficients listed by ascending degree --

def _ptrim(c):
    i = len(c)
    while i > 0 and c[i - 1] == 0:
        i -= 1
    return tuple(c[:i])


def _padd(a, b):
    n = max(len(a), len(b))
    return _ptrim([(a[i] if i < len(a) else QZERO) + (b[i] if i < len(b) else QZERO)
                   for i in range(n)])


def _pneg(a):
    return tuple(-x for x in a)


def _pmul(a, b):
    if not a or not b:
        return ()
    out = [QZERO] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return _ptrim(out)


def _pscale(a, s):
    if not s:
        return ()
    return tuple(x * s for x in a)


def _pdivmod(a, b):
    # b nonzero
    a = list(a)
    q = [QZERO] * max(0, len(a) - len(b) + 1)
    lead = b[-1]
    while len(a) >= len(b) and _ptrim(a):
        a = list(_ptrim(a))
        if len(a) < len(b):
            break
        k = len(a) - len(b)
        f = a[-1] / lead
        q[k] = f
        for i in range(len(b)):
            a[k + i] -= f * b[i]
        a = a[:-1]
    return _ptrim(q), _ptrim(a)


def _pgcd(a, b):
    a, b = _ptrim(a), _ptrim(b)
    while b:
        _, r = _pdivmod(a, b)
        a, b = b, r
    if a:
        a = _pscale(a, 1 / a[-1])
    return a


def _low(a):
    """(index, coeff) of the lowest-degree nonzero term; a nonzero."""
    for i, x in enumerate(a):
        if x:
            return i, x
    raise ValueError("zero polynomial")


class EpsRational:
    """Element of the ordered field Q(eps), eps an infinitesimal > 0.

    Stored as a reduced fraction of polynomials in eps; the denominator is
    normalized so its lowest-degree coefficient is 1, hence plain rationals
    have denominator (1,).  Sign of p/q as eps -> 0+ is the sign of the
    lowest-order coefficient of p.
    """

    __slots__ = ("num", "den")

    def __init__(self, num=0, den=None):
        if isinstance(num, EpsRational):
            self.num, self.den = num.num, num.den
            return
        if isinstance(num, (int, Fraction, str)):
            num = (qof(num),)
        num = _ptrim(tuple(qof(c) for c in num))
        if den is None:
            den = (QONE,)
        else:
            den = _ptrim(tuple(qof(c) for c in den))
        if not den:
            raise ZeroDivisionError("zero denominator in Q(eps)")
        if not num:
            self.num, self.den = (), (QONE,)
            return
        g = _pgcd(num, den)
        if len(g) > 1 or g[0] != 1:
            num, _ = _pdivmod(num, g)
            den, _ = _pdivmod(den, g)
        _, lc = _low(den)
        if lc != 1:
            num = _pscale(num, 1 / lc)
            den = _pscale(den, 1 / lc)
        self.num, self.den = num, den

    @staticmethod
    def eps() -> "EpsRational":
        return EpsRational((QZERO, QONE))

    @staticmethod
    def coerce(x) -> "EpsRational":
        return x if isinstance(x, EpsRational) else EpsRational(x)

    def is_zero(self) -> bool:
        return not self.num

    def is_rational(self) -> bool:
        return len(self.num) <= 1 and self.den == (QONE,)

    def is_polynomial(self) -> bool:
        return self.den == (QONE,)

    def rational_part(self) -> Fraction:
        """Value at eps = 0; requires a denominator nonzero at 0."""
        if self.den[0] == 0:
            raise ZeroDivisionError("pole at eps = 0")
        return (self.num[0] if self.num else QZERO) / self.den[0]

    def coefficients(self):
        """Polynomial coefficients by ascending degree (polynomials only)."""
        if not self.is_polynomial():
            raise ValueError("not a polynomial in eps")
        return self.num if self.num else (QZERO,)

    def sign(self) -> int:
        if not self.num:
            return 0
        _, c = _low(self.num)
        return 1 if c > 0 else -1

    def __add__(self, other):
        o = EpsRational.coerce(other)
        return EpsRational(_padd(_pmul(self.num, o.den), _pmul(o.num, self.den)),
                           _pmul(self.den, o.den))

    __radd__ = __add__

    def __neg__(self):
        r = EpsRational.__new__(EpsRational)
        r.num, r.den = _pneg(self.num), self.den
        return r

    def __sub__(self, other):
        return self + (-EpsRational.coerce(other))

    def __rsub__(self, other):
        return EpsRational.coerce(other) + (-self)

    def __mul__(self, other):
        o = EpsRational.coerce(other)
        return EpsRational(_pmul(self.num, o.num), _pmul(self.den, o.den))

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = EpsRational.coerce(other)
        if not o.num:
            raise ZeroDivisionError("division by zero in Q(eps)")
        return EpsRational(_pmul(self.num, o.den), _pmul(self.den, o.num))

    def __rtruediv__(self, other):
        return EpsRational.coerce(other) / self

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, EpsRational)):
            o = EpsRational.coerce(other)
            return self.num == o.num and self.den == o.den
        return NotImplemented

    def __hash__(self):
        if self.is_rational():
            return hash(self.num[0] if self.num else QZERO)
        return hash((self.num, self.den))

    def __lt__(self, other):
        return (self - EpsRational.coerce(other)).sign() < 0

    def __le__(self, other):
        return (self - EpsRational.coerce(other)).sign() <= 0

    def __gt__(self, other):
        return (self - EpsRational.coerce(other)).sign() > 0

    def __ge__(self, other):
        return (self - EpsRational.coerce(other)).sign() >= 0

    def __bool__(self):
        return bool(self.num)

    def __repr__(self):
        if not self.num:
            return "EpsRational(0)"
        terms = []
        for i, c in enumerate(self.num):
            if not c:
                continue
            if i == 0:
                terms.append(str(c))
            elif i == 1:
                terms.append(f"{c}*eps")
            else:
                terms.append(f"{c}*eps^{i}")
        s = " + ".join(terms)
        if self.den != (QONE,):
            s = f"({s})/({self.den})"
        return f"EpsRational({s})"

    def serialize(self):
        """Coefficient list by ascending eps-degree, as 'p/q' strings."""
        return [qstr(c) for c in self.coefficients()]


EPS = EpsRational.eps()


def eps_at(x, value: Fraction) -> Fraction:
    """Evaluate an EpsRational (or rational) at a rational eps = value."""
    if not isinstance(x, EpsRational):
        return qof(x)
    num = sum((c * value ** i for i, c in enumerate(x.num)), QZERO)
    den = sum((c * value ** i for i, c in enumerate(x.den)), QZERO)
    if den == 0:
        raise ZeroDivisionError("denominator vanishes at this eps")
    return num / den


# ------------------------------------------------------ LP over Q and Q(eps) --

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


# ------------------------------------------------------ stable displacement --

def _maximal_cells_of(T):
    cells = [c for c, _, _ in T.terms]
    out = []
    for c in cells:
        if not any(o != c and intersect(c, o) == c for o in cells):
            out.append(c)
    return out


def _displaced_system(c1, c2, v):
    """Constraints of c1 and of c2 shifted by eps v, over Q(eps)."""
    eps = EpsRational.eps()
    rows, rhs, eqs = [], [], []
    r1, b1 = _ineqs_rational(c1)
    for a, b in zip(r1, b1):
        rows.append([EpsRational.coerce(x) for x in a])
        rhs.append(EpsRational.coerce(b))
    for a, b in _eqs_rational(c1):
        eqs.append(([EpsRational.coerce(x) for x in a], EpsRational.coerce(b)))
    r2, b2 = _ineqs_rational(c2)
    for a, b in zip(r2, b2):
        rows.append([EpsRational.coerce(x) for x in a])
        rhs.append(EpsRational.coerce(b) + eps * vec_dot(a, v))
    for a, b in _eqs_rational(c2):
        eqs.append(([EpsRational.coerce(x) for x in a],
                    EpsRational.coerce(b) + eps * vec_dot(a, v)))
    return rows, rhs, eqs


def is_generic(v, S, T):
    """Whether displacing T by eps v meets S transversally for small eps.

    Checked on every pair of maximal cells: a surviving intersection must
    have a strict interior point and transversal affine hulls.  Returns
    (True, None) or (False, (left cell, right cell)).
    """
    A, B = S.canonicalize(), T.canonicalize()
    n = A.n
    v = [qof(x) for x in v]
    for c1 in _maximal_cells_of(A):
        for c2 in _maximal_cells_of(B):
            rows, rhs, eqs = _displaced_system(c1, c2, v)
            feas = lp_feasible(rows, rhs, eqs=eqs)
            if feas.status != "feasible":
                continue
            if strict_interior(rows, rhs, eqs=eqs) is None:
                return False, (c1, c2)
            eq_lin = ([a for a, _ in _eqs_rational(c1)]
                      + [a for a, _ in _eqs_rational(c2)])
            expected = (n - c1.dim) + (n - c2.dim)
            if rank(eq_lin) != expected:
                return False, (c1, c2)
    return True, None


def displacement_product(S, T, v):
    """Wedge product by displacing T with a generic vector.

    Pairs of maximal cells that still meet after an infinitesimal shift by v
    contribute their intersection with the stable lattice index; the vector
    must be generic or a NonGenericError names the failing pair.
    """
    if S.n != T.n:
        raise ValueError("product factors live in different spaces")
    v = [qof(x) for x in v]
    ok, pair = is_generic(v, S, T)
    if not ok:
        raise NonGenericError(
            "displacement vector is not generic",
            {"vector": [qstr(x) for x in v],
             "left": cell_summary(pair[0]),
             "right": cell_summary(pair[1])})
    A, B = S.canonicalize(), T.canonicalize()
    n = A.n
    max_a = set(_maximal_cells_of(A))
    max_b = set(_maximal_cells_of(B))
    out = []
    for c1, f1, w1 in A.terms:
        if c1 not in max_a:
            continue
        for c2, f2, w2 in B.terms:
            if c2 not in max_b:
                continue
            rows, rhs, eqs = _displaced_system(c1, c2, v)
            if lp_feasible(rows, rhs, eqs=eqs).status != "feasible":
                continue
            pi = intersect(c1, c2)
            if pi is None:
                raise AssertionError("stable pair lost its intersection at eps = 0")
            idx = stable_weight(c1.span, w1, c2.span, w2)
            form = chart_to_ambient(f1, c1).restrict(pi.chart).wedge(
                chart_to_ambient(f2, c2).restrict(pi.chart))
            out.append((pi, form, idx))
    return DeltaForm(n, out).canonicalize()


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
