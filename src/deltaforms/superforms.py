"""Polynomial superforms: a bigraded exterior algebra over two copies of the
coordinate differentials, with differentials, contraction, affine pull-back,
restriction to charts, piecewise-linear functions, and exact integration.

A form is a sum of terms poly * d'x_I ∧ d''x_J with I, J ascending index
tuples; all generators have degree 1 and anticommute across both families.

Integrals are in each cell's lattice measure, by Lasserre's facet recursion
(Proc. AMS 126, 1998) down the face lattice that the cell caches.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import gcd, lcm, prod
from operator import add

from .cones import int_dot
from .linalg import _bareiss, vec_dot
from .polyhedra import (Chart, Complex, WeightedCell, _facet_entry,
                        _meeting_pairs, primitive_normal)
from .scalars import Q, QONE, QZERO, qof


# ---------------------------------------------------------------- polynomials

def _poly(n, terms):
    """Poly over terms already in normal form, without re-validating them.

    Arithmetic results come here: the exponents are tuples of n ints and no
    coefficient is zero.  Input from documents and callers goes through
    Poly(n, terms), which checks both.
    """
    p = object.__new__(Poly)
    p.n = n
    p.terms = terms
    return p


def _convolve(a, b):
    """Product of two {exponents: coefficient} dicts; may hold zeros."""
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(map(add, e1, e2))
            out[e] = out[e] + c1 * c2 if e in out else c1 * c2
    return out


def _nonzero(terms):
    return {e: c for e, c in terms.items() if c}


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
        self.terms = _nonzero(clean)

    @classmethod
    def const(cls, n, c):
        c = qof(c)
        return _poly(n, {(0,) * n: c} if c else {})

    @classmethod
    def variable(cls, n, i):
        e = [0] * n
        e[i] = 1
        return _poly(n, {tuple(e): QONE})

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

    def constant_value(self):
        if not self.terms:
            return QZERO
        if list(self.terms) == [tuple([0] * self.n)]:
            return self.terms[tuple([0] * self.n)]
        raise ValueError("not a constant polynomial")

    def __add__(self, other):
        other = self._coerce(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            if e in out:
                c += out[e]
                if not c:
                    del out[e]
                    continue
            out[e] = c
        return _poly(self.n, out)

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __neg__(self):
        return _poly(self.n, {e: -c for e, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, str)):
            c = qof(other)
            if not c:
                return _poly(self.n, {})
            return _poly(self.n, {e: c * v for e, v in self.terms.items()})
        other = self._coerce(other)
        return _poly(self.n, _nonzero(_convolve(self.terms, other.terms)))

    __rmul__ = __mul__

    def _coerce(self, other):
        if isinstance(other, Poly):
            if other.n != self.n:
                raise ValueError("variable count mismatch")
            return other
        return Poly.const(self.n, other)

    def partial(self, i):
        out = {}
        for e, c in self.terms.items():
            if e[i]:
                e2 = list(e)
                e2[i] -= 1
                out[tuple(e2)] = c * e[i]
        return _poly(self.n, out)

    def eval(self, pt):
        pt = [qof(x) for x in pt]
        total = QZERO
        for e, c in self.terms.items():
            v = c
            for x, k in zip(pt, e):
                for _ in range(k):
                    v *= x
            total += v
        return total

    def compose_affine(self, lin_rows, shift, k):
        """Substitute x_i = shift_i + sum_j lin_rows[i][j] u_j; result in k vars.

        Each substitution is an integer affine form over its own denominator,
        so its powers and their products are expanded in ints.  The terms are
        summed over the common denominator of their scales, and each monomial
        of the result becomes one Fraction at the end.
        """
        zero = (0,) * k
        monomials = [zero[:j] + (1,) + zero[j + 1:] for j in range(k)] + [zero]
        subs, dens = [], []
        for i in range(self.n):
            row = [x if type(x) is int else qof(x)
                   for x in (*lin_rows[i][:k], shift[i])]
            den = lcm(*(x.denominator for x in row))
            subs.append({m: x.numerator * (den // x.denominator)
                         for m, x in zip(monomials, row) if x})
            dens.append(den)
        powers = [[{zero: 1}] for _ in range(self.n)]
        expanded = []
        common = 1
        for e, c in self.terms.items():
            term = None
            den = c.denominator
            for i, exp in enumerate(e):
                if exp:
                    cache = powers[i]
                    while len(cache) <= exp:
                        cache.append(_convolve(cache[-1], subs[i]))
                    term = cache[exp] if term is None else _convolve(term, cache[exp])
                    den *= dens[i] ** exp
            expanded.append(({zero: 1} if term is None else term, c.numerator, den))
            common = lcm(common, den)
        out = {}
        for term, num, den in expanded:
            scale = num * (common // den)
            for m, v in term.items():
                out[m] = out[m] + scale * v if m in out else scale * v
        return _poly(k, {m: Fraction(v, common) for m, v in out.items() if v})

    def total_degree(self):
        return max((sum(e) for e in self.terms), default=0)

    def __eq__(self, other):
        return isinstance(other, Poly) and self.n == other.n and self.terms == other.terms

    def __hash__(self):
        return hash((self.n, tuple(sorted(self.terms.items()))))

    def sorted_terms(self):
        return sorted(self.terms.items())

    def __repr__(self):
        if not self.terms:
            return "Poly(0)"
        bits = []
        for e, c in self.sorted_terms():
            mono = "*".join(f"x{i}^{k}" if k > 1 else f"x{i}"
                            for i, k in enumerate(e) if k)
            bits.append(f"{c}" + (f"*{mono}" if mono else ""))
        return "Poly(" + " + ".join(bits) + ")"


# ----------------------------------------------------------------- superforms

def _merge_indices(a, b):
    """Merge two ascending tuples; (merged, sign) or (None, 0) on collision."""
    out = []
    sign = 1
    i = j = 0
    while i < len(a) and j < len(b):
        if a[i] == b[j]:
            return None, 0
        if a[i] < b[j]:
            out.append(a[i])
            i += 1
        else:
            # b[j] jumps over the remaining elements of a
            if (len(a) - i) % 2:
                sign = -sign
            out.append(b[j])
            j += 1
    out.extend(a[i:])
    out.extend(b[j:])
    return tuple(out), sign


def _sort_indices(idx):
    """(ascending tuple, sign of the sort) of generators; (None, 0) on a repeat."""
    out, sign = (), 1
    for i in idx:
        out, s = _merge_indices(out, (i,))
        if out is None:
            return None, 0
        sign *= s
    return out, sign


def _superform(n, terms):
    """SuperForm over sorted, in-range index pairs and Poly coefficients.

    Arithmetic results come here, and only coefficients that cancelled to
    zero are dropped.  Input from documents and callers goes through
    SuperForm(n, terms), which also range-checks the indices and sorts them
    with the sign of the permutation, dropping a term with a repeated one.
    """
    f = object.__new__(SuperForm)
    f.n = n
    f.terms = {k: p for k, p in terms.items() if p.terms}
    return f


def _shifted(form, k, offset):
    """form in k variables, its variables and generators i renamed i + offset."""
    pad = (0,) * offset, (0,) * (k - form.n - offset)
    return _superform(k, {
        (tuple(i + offset for i in ii), tuple(j + offset for j in jj)):
            _poly(k, {pad[0] + e + pad[1]: c for e, c in p.terms.items()})
        for (ii, jj), p in form.terms.items()})


class SuperForm:
    """Normal-form sum of poly * d'x_I ∧ d''x_J terms in n variables."""

    __slots__ = ("n", "terms")

    def __init__(self, n, terms=None):
        self.n = n
        clean = {}
        for (ii, jj), p in (terms or {}).items():
            if not isinstance(p, Poly):
                p = Poly.const(n, p)
            if p.n != n:
                raise ValueError("coefficient variable count mismatch")
            ii = tuple(int(x) for x in ii)
            jj = tuple(int(x) for x in jj)
            if any(x < 0 or x >= n for x in ii + jj):
                raise ValueError("generator index out of range")
            ii, si = _sort_indices(ii)
            jj, sj = _sort_indices(jj)
            if ii is None or jj is None:
                continue
            if si * sj < 0:
                p = -p
            if (ii, jj) in clean:
                p = clean[(ii, jj)] + p
            if not p.is_zero():
                clean[(ii, jj)] = p
            elif (ii, jj) in clean:
                del clean[(ii, jj)]
        self.terms = clean

    # -- constructors -------------------------------------------------------
    @classmethod
    def zero(cls, n):
        return cls(n, {})

    @classmethod
    def from_poly(cls, p: Poly):
        return cls(p.n, {((), ()): p})

    @classmethod
    def scalar(cls, n, c):
        return cls.from_poly(Poly.const(n, c))

    @classmethod
    def d_prime_x(cls, n, i):
        return cls(n, {((i,), ()): Poly.const(n, 1)})

    @classmethod
    def d_second_x(cls, n, i):
        return cls(n, {((), (i,)): Poly.const(n, 1)})

    # -- structure -----------------------------------------------------------
    def is_zero(self):
        return not self.terms

    def bidegrees(self):
        return sorted({(len(i), len(j)) for i, j in self.terms})

    def bidegree(self):
        """The unique (p, q), None for the zero form; error when mixed."""
        degs = self.bidegrees()
        if not degs:
            return None
        if len(degs) > 1:
            raise ValueError("form has mixed bidegree")
        return degs[0]

    def component(self, p, q):
        return _superform(self.n, {(i, j): poly for (i, j), poly in self.terms.items()
                                   if (len(i), len(j)) == (p, q)})

    def __add__(self, other):
        other = self._coerce(other)
        out = dict(self.terms)
        for key, p in other.terms.items():
            out[key] = out[key] + p if key in out else p
        return _superform(self.n, out)

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __neg__(self):
        return _superform(self.n, {k: -p for k, p in self.terms.items()})

    def _coerce(self, other):
        if isinstance(other, SuperForm):
            if other.n != self.n:
                raise ValueError("ambient dimension mismatch")
            return other
        if isinstance(other, Poly):
            return SuperForm.from_poly(other)
        return SuperForm.scalar(self.n, qof(other))

    def scale(self, c):
        if isinstance(c, Poly):
            return _superform(self.n, {k: p * c for k, p in self.terms.items()})
        c = qof(c)
        return _superform(self.n, {k: p * c for k, p in self.terms.items()})

    def wedge(self, other):
        other = self._coerce(other)
        out = {}
        for (i1, j1), p1 in self.terms.items():
            for (i2, j2), p2 in other.terms.items():
                ii, s1 = _merge_indices(i1, i2)
                if ii is None:
                    continue
                jj, s2 = _merge_indices(j1, j2)
                if jj is None:
                    continue
                # moving the d' block of the second factor across the d''
                # block of the first costs one sign per crossing pair
                sign = s1 * s2 * (-1) ** (len(i2) * len(j1))
                p = p1 * p2
                if sign < 0:
                    p = -p
                key = (ii, jj)
                out[key] = out[key] + p if key in out else p
        return _superform(self.n, out)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, str)):
            return self.scale(other)
        return self.wedge(other)

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction, str)):
            return self.scale(other)
        return NotImplemented

    def dprime(self):
        out = {}
        for (ii, jj), p in self.terms.items():
            for i in range(self.n):
                dp = p.partial(i)
                if dp.is_zero():
                    continue
                ii2, sign = _merge_indices((i,), ii)
                if ii2 is None:
                    continue
                q = dp if sign > 0 else -dp
                key = (ii2, jj)
                out[key] = out[key] + q if key in out else q
        return _superform(self.n, out)

    def dsecond(self):
        out = {}
        for (ii, jj), p in self.terms.items():
            block = (-1) ** len(ii)
            for i in range(self.n):
                dp = p.partial(i)
                if dp.is_zero():
                    continue
                jj2, sign = _merge_indices((i,), jj)
                if jj2 is None:
                    continue
                q = dp if sign * block > 0 else -dp
                key = (ii, jj2)
                out[key] = out[key] + q if key in out else q
        return _superform(self.n, out)

    def contract(self, vec, slot):
        """Interior product with v' (slot='prime') or v'' (slot='second')."""
        if slot not in ("prime", "second"):
            raise ValueError("slot must be 'prime' or 'second'")
        vec = [qof(x) for x in vec]
        if len(vec) != self.n:
            raise ValueError("vector dimension mismatch")
        out = {}

        def put(key, poly):
            if not poly.is_zero():
                out[key] = out[key] + poly if key in out else poly

        for (ii, jj), p in self.terms.items():
            if slot == "prime":
                for pos, i in enumerate(ii):
                    if vec[i] == 0:
                        continue
                    c = vec[i] * (-1) ** pos
                    put((ii[:pos] + ii[pos + 1:], jj), p * c)
            else:
                block = (-1) ** len(ii)
                for pos, j in enumerate(jj):
                    if vec[j] == 0:
                        continue
                    c = vec[j] * (-1) ** pos * block
                    put((ii, jj[:pos] + jj[pos + 1:]), p * c)
        return _superform(self.n, out)

    def pullback_affine(self, lin_rows, shift, k=None):
        """Pull back along u -> shift + lin.u from R^k to this form's R^n.

        lin_rows is n x k.  Coefficients are composed with the map and each
        generator d x_i is replaced by the corresponding row combination.
        k is inferred from lin_rows except when n = 0 leaves no rows.
        Int entries stay ints.  The minors are integer Bareiss determinants
        of lin cleared to one common denominator D, divided by D to the
        size of the minor, so an integer map keeps int minors throughout.
        """
        n = self.n
        if len(lin_rows) != n or len(shift) != n:
            raise ValueError("affine map shape mismatch")
        if k is None:
            k = len(lin_rows[0]) if n and lin_rows else 0
        if k == n and not any(shift) and all(
                len(row) == k and all(x == (i == j) for j, x in enumerate(row))
                for i, row in enumerate(lin_rows)):
            # the identity map: forms are never changed in place, so share it
            return self
        lin = [[x if type(x) is int else qof(x) for x in row] for row in lin_rows]
        shift = [s if type(s) is int else qof(s) for s in shift]
        den = lcm(*(x.denominator for row in lin for x in row))
        ilin = [[x.numerator * (den // x.denominator) for x in row] for row in lin]
        minors = {}

        def nonzero_minors(rows):
            """(cols, det) for the nonzero minors of lin on the given rows."""
            if rows not in minors:
                scale = den ** len(rows)
                pairs = [((), 1)] if not rows else [
                    (cols, _bareiss([[ilin[r][c] for c in cols] for r in rows])[1])
                    for cols in combinations(range(k), len(rows))]
                minors[rows] = [(cols, d if scale == 1 else Q(d, scale))
                                for cols, d in pairs if d]
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
                q = comp if c == 1 else comp * c
                out[key] = out[key] + q if key in out else q
        return _superform(k, out)

    def restrict(self, chart: Chart):
        """Restriction to a cell: pull back along u -> base + B u."""
        if chart.n != self.n:
            raise ValueError("ambient dimension mismatch")
        lin = [[chart.basis[kk][i] for kk in range(chart.dim)]
               for i in range(self.n)]
        return self.pullback_affine(lin, list(chart.base))

    def eval_scalar(self, pt):
        """Value of the (0,0) component at a point."""
        p = self.terms.get(((), ()))
        return p.eval(pt) if p is not None else QZERO

    def __eq__(self, other):
        return (isinstance(other, SuperForm) and self.n == other.n
                and self.terms == other.terms)

    def __hash__(self):
        return hash((self.n, tuple(sorted(self.terms.items(),
                                          key=lambda kv: kv[0]))))

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda kv: (len(kv[0][0]), len(kv[0][1]), kv[0]))

    def __repr__(self):
        if not self.terms:
            return "SuperForm(0)"
        bits = []
        for (ii, jj), p in self.sorted_terms():
            gens = [f"d'x{i}" for i in ii] + [f"d''x{j}" for j in jj]
            bits.append("(" + repr(p) + ")" + ("*" + "^".join(gens) if gens else ""))
        return "SuperForm[" + " + ".join(bits) + "]"


# ---------------------------------------------------------------- integration

def _sign_reorder(d):
    """Sign from d'u_1 d''u_1 ... d'u_d d''u_d to d'u_{1..d} ∧ d''u_{1..d}."""
    return -1 if (d * (d - 1) // 2) % 2 else 1


def _monomial_integral(sigma, e, memo):
    """Integral of the ambient monomial x^e over sigma in its lattice measure.

    Lasserre's facet recursion: with x0 the base point of sigma (a vertex),
    k = dim sigma and q = |e|, the divergence theorem for (x - x0) x^e on
    the affine hull of sigma gives (k + q) I(sigma, e) = sum_tau h_tau
    I(tau, e) + sum_i x0_i e_i I(sigma, e - 1_i).  tau runs over the facets,
    (a, b) is the row a.x <= b that sigma keeps for tau, and h_tau =
    (b - a.x0) / g, with g the gcd of a over sigma's span basis, is the
    lattice distance from x0 to tau, so the Euclidean norms cancel.  x0 is
    kept in ints where integral, and int_dot(row, .) stops at a's n entries.
    A point is evaluated.  memo keeps each (face, e), and for each face its
    facets with h_tau != 0, so each face is visited once per monomial.
    """
    key = (sigma, e)
    val = memo.get(key)
    if val is None:
        x0 = [x.numerator if x.denominator == 1 else x for x in sigma.base_point]
        if not sigma.dim:
            val = prod(x ** k for x, k in zip(x0, e) if k)
        else:
            heights = memo.get(sigma)
            if heights is None:
                bs = sigma.span.rows
                heights = memo[sigma] = []
                for tau in sigma.facets():
                    row = _facet_entry(sigma, tau)[0]
                    h = row[-1] - int_dot(row, x0)
                    if h:
                        heights.append((tau, Q(h, gcd(*(int_dot(row, b) for b in bs)))))
            total = sum(h * _monomial_integral(tau, e, memo) for tau, h in heights)
            for i, k in enumerate(e):
                if k and x0[i]:
                    lower = e[:i] + (k - 1,) + e[i + 1:]
                    total += x0[i] * k * _monomial_integral(sigma, lower, memo)
            val = Q(total, sigma.dim + sum(e))
        memo[key] = val
    return val


def integrate_top(eta: SuperForm, wc: WeightedCell):
    """Exact integral of a (d,d)-form over a bounded weighted cell of dim d.

    On the chart x = base + B u, p d'x_I ∧ d''x_J restricts to the minors of
    B on the rows I and J times p d'u ∧ d''u, so each ambient coefficient
    goes to _monomial_integral as it is, with one memo for the whole form.
    """
    if _top_is_zero(eta, wc.cell):
        return QZERO
    return _integrate_top(eta, wc, {})


def _top_is_zero(eta, cell):
    """integrate_top's checks: raise unless eta is a form to integrate over
    cell, and say whether it is zero."""
    d = cell.dim
    if eta.n != cell.n:
        raise ValueError("ambient dimension mismatch")
    zero = eta.is_zero()
    if not zero:
        bd = eta.bidegree()
        if bd != (d, d):
            raise ValueError(f"form bidegree {bd} does not match cell dimension {d}")
    if not cell.is_bounded():
        raise ValueError("cannot integrate over an unbounded cell")
    return zero


def _integrate_top(eta, wc, memo):
    """integrate_top's sum, unchecked, with a memo of _monomial_integral.

    The memo's values depend only on the face and the monomial, so one memo
    serves every call over faces of one cell.
    """
    cell = wc.cell
    d = cell.dim
    basis = cell.span.rows

    def minor(idx):
        return _bareiss([[b[i] for b in basis] for i in idx])[1]

    total = 0
    for (ii, jj), p in eta.terms.items():
        scale = minor(ii) * minor(jj)
        if scale:
            total += scale * sum(c * _monomial_integral(cell, e, memo)
                                 for e, c in p.terms.items())
    return wc.weight * _sign_reorder(d) * total


def boundary_integral(alpha: SuperForm, wc: WeightedCell, which: str):
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
    memo = {}
    for tau in cell.facets():
        w = primitive_normal(cell, tau)
        nvec = [wc.weight * Q(x) for x in w]
        contracted = alpha.contract(nvec, slot)
        val = _integrate_top(contracted, WeightedCell(tau, 1), memo)
        if not checked:
            # facet-weight independence: double the facet weight, halve n
            half = alpha.contract([x / 2 for x in nvec], slot)
            val2 = _integrate_top(half, WeightedCell(tau, 2), memo)
            if val2 != val:
                raise AssertionError("boundary term depends on the facet weight")
            checked = True
        total += val
    return -total if which == "first" else total


def stokes_check(alpha: SuperForm, wc: WeightedCell, which: str):
    """(integral of d-alpha, boundary integral, equal?) for Stokes' theorem."""
    if which not in ("first", "second"):
        raise ValueError("which must be 'first' or 'second'")
    d_alpha = alpha.dprime() if which == "first" else alpha.dsecond()
    lhs = integrate_top(d_alpha, wc)
    rhs = boundary_integral(alpha, wc, which)
    return lhs, rhs, lhs == rhs


# ------------------------------------------------------- piecewise structures

class ContinuityError(ValueError):
    def __init__(self, message, certificate=None):
        super().__init__(message)
        self.certificate = certificate


class PLFunction:
    """Piecewise-linear function on the maximal cells of a complex."""

    def __init__(self, cx: Complex, pieces):
        self.complex = cx
        self.maximal = cx.maximal_cells()
        mapped = dict(pieces)
        if set(mapped) != set(self.maximal):
            raise ValueError("pieces must cover exactly the maximal cells")
        self.pieces = {cell: ([qof(a) for a in lin], qof(c))
                       for cell, (lin, c) in mapped.items()}
        for cell, (lin, _) in self.pieces.items():
            if len(lin) != cell.n:
                raise ValueError("linear part has wrong dimension")
        self._check_continuity()

    def _check_continuity(self):
        for i, j, face in _meeting_pairs(self.maximal):
            a, b = self.maximal[i], self.maximal[j]
            ch = face.chart
            for pt in [list(ch.base)] + [[x + y for x, y in zip(ch.base, bs)]
                                         for bs in ch.basis]:
                va = vec_dot(self.pieces[a][0], pt) + self.pieces[a][1]
                vb = vec_dot(self.pieces[b][0], pt) + self.pieces[b][1]
                if va != vb:
                    raise ContinuityError(
                        "pieces disagree on a shared face",
                        {"point": [str(x) for x in pt],
                         "values": [str(va), str(vb)]})

    def value(self, x):
        x = [qof(v) for v in x]
        for cell in self.maximal:
            if cell.contains(x):
                lin, c = self.pieces[cell]
                return vec_dot(lin, x) + c
        raise ValueError("point outside the support of the function")

    def gradient(self, cell):
        return list(self.pieces[cell][0])

    def affine_on(self, cell):
        lin, c = self.pieces[cell]
        return list(lin), c


def _plfunction(cx, maximal, pieces):
    """PLFunction whose maximal cells (in cx's order) and pieces hold by
    construction, as in pl_max; PLFunction(cx, pieces) checks both."""
    f = object.__new__(PLFunction)
    f.complex, f.maximal, f.pieces = cx, maximal, pieces
    return f


class PiecewiseForm:
    """A superform given per maximal cell, compatible on shared faces."""

    def __init__(self, cx: Complex, pieces):
        self.complex = cx
        self.maximal = cx.maximal_cells()
        mapped = dict(pieces)
        if set(mapped) != set(self.maximal):
            raise ValueError("pieces must cover exactly the maximal cells")
        self.pieces = mapped
        degs = set()
        for cell, form in mapped.items():
            if form.n != cell.n:
                raise ValueError("form ambient dimension mismatch")
            degs.update(form.bidegrees())
        if len(degs) > 1:
            raise ValueError("pieces have mixed bidegree")
        self.bidegree = next(iter(degs)) if degs else None
        self._check_compatibility()

    def _check_compatibility(self):
        for i, j, face in _meeting_pairs(self.maximal):
            ra = self.pieces[self.maximal[i]].restrict(face.chart)
            rb = self.pieces[self.maximal[j]].restrict(face.chart)
            if ra != rb:
                raise ContinuityError(
                    "forms disagree on a shared face",
                    {"face_dim": face.dim, "difference": repr(ra - rb)})
