"""Delta-forms: weighted polyhedral currents with superform coefficients.

A current is a finite sum of terms (cell, coefficient, weight) where the
coefficient is a SuperForm written in the chart coordinates of the cell and
the weight is a rational multiplier of the canonical lattice weight.  The
DeltaForm constructor is the one place that normalizes: it folds each
weight into its coefficient, sums the terms on each cell and drops zero
coefficients, so every stored weight is 1 and no operation multiplies by it.

A coefficient moves from one cell to another by one pull-back along
Chart.transition_to (transport_form), for the identity or for an affine
map cleared to integers, and is passed on unchanged when the transition is
the identity map; a constant (0,0) coefficient is rewritten in the new
cell's number of variables without a transition.  The map layer is in
integers: pushforward decides injectivity and properness on each cell from
one integer elimination, whose right block holds the affine left inverse
that the image is pulled back along, and pullback_surjective takes its
right inverse from one integer elimination.  _product_form wedges two factors' coefficients in the
joined factor chart and pulls the wedge back once into a cell inside the
product.  Only the contraction boundary route, pairings with ambient test
forms, and the ambient lift of as_piecewise_form go through ambient
coordinates (chart_to_ambient).
"""

from copy import deepcopy

from .cones import int_dot
from .linalg import (
    _bareiss,
    _int_duals,
    _int_rref,
    _over_denominator,
    _ratio,
    clear_denominators,
    integer_kernel,
    mat_mul_vec,
    vec_dot,
)
from .polyhedra import (
    Complex,
    WeightedCell,
    _dual_coords,
    _facet_entry,
    _int_coords,
    _meeting_pairs,
    _pairs,
    affine_preimage,
    intersect,
    polyhedron,
    primitive_normal,
    product_polyhedron,
    recession_cone,
    translate,
    whole_space,
)
from .scalars import Q, QONE, QZERO, qof, qstr
from .superforms import (
    PiecewiseForm,
    Poly,
    SuperForm,
    _integrate_top,
    _shifted,
    _superform,
    _top_is_zero,
)


class PreconditionError(ValueError):
    """A mathematical precondition failed; carries a machine-readable certificate."""

    def __init__(self, message, certificate=None):
        super().__init__(message)
        self.certificate = certificate


class BalancingError(PreconditionError):
    pass


def cell_summary(cell):
    """Small readable description of a cell for error certificates."""
    return {
        "dim": cell.dim,
        "base_point": [qstr(x) for x in cell.base_point],
    }


# ------------------------------------------------------------- affine maps --

class AffineMap:
    """x -> lin . x + shift from R^n to R^m; ints is (L, s, D), lin and shift
    times their common denominator D as ints, cleared once per map."""

    __slots__ = ("n", "m", "lin", "shift", "ints")

    def __init__(self, lin_rows, shift):
        self.lin = tuple(tuple(qof(x) for x in row) for row in lin_rows)
        self.shift = tuple(qof(s) for s in shift)
        self.m = len(self.lin)
        if len(self.shift) != self.m:
            raise ValueError("shift length must match the number of rows")
        self.n = len(self.lin[0]) if self.lin else 0
        if any(len(row) != self.n for row in self.lin):
            raise ValueError("rows must have equal length")
        flat, den = _over_denominator([x for row in self.lin for x in row]
                                      + list(self.shift))
        n, m = self.n, self.m
        self.ints = [flat[i * n:(i + 1) * n] for i in range(m)], flat[m * n:], den

    @classmethod
    def identity(cls, n):
        return cls([[1 if j == i else 0 for j in range(n)] for i in range(n)],
                   [0] * n)

    @classmethod
    def projection(cls, n, coords):
        """Coordinate projection R^n -> R^len(coords)."""
        rows = [[1 if j == i else 0 for j in range(n)] for i in coords]
        return cls(rows, [0] * len(coords))

    def apply(self, x):
        return [vec_dot(row, x) + s for row, s in zip(self.lin, self.shift)]

    def apply_linear(self, v):
        return mat_mul_vec(self.lin, v)

    def is_surjective(self):
        return _int_duals(self.ints[0], self.n) is not None

    def __repr__(self):
        return "AffineMap(%r, %r)" % (self.lin, self.shift)


# -------------------------------------------------------- chart transports --

def transport_form(form, src_cell, dst_cell, f=None):
    """Pull a chart-coordinate form of src_cell back to dst_cell along f.

    The result is the form at f(x), written in dst_cell's chart coordinates
    of x; f is None for the identity.  f must carry the affine hull of
    dst_cell into that of src_cell.  When the transition is the identity
    map, pullback_affine returns the form itself.

    A constant (0,0) form c has no generator to take a Jacobian factor and
    composes with any map to c, so it needs no transition: it is c in
    dst_cell.dim variables, and the form itself when the dimension stays.
    """
    k = dst_cell.dim
    if len(form.terms) == 1:
        (gens, p), = form.terms.items()
        if gens == ((), ()) and len(p.terms) == 1:
            (e, c), = p.terms.items()
            if not any(e):
                return form if k == form.n else SuperForm.scalar(k, c)
    m_rows, off = dst_cell.chart.transition_to(src_cell.chart, f)
    return form.pullback_affine(m_rows, off, k=k)


def chart_to_ambient(form, cell):
    """Extend a chart-coordinate form of the cell to an ambient form."""
    ch = cell.chart
    lin = [list(u) for u in ch.u_rows]
    # u = lin . x + shift, where shift is the chart coordinates of the origin
    return form.pullback_affine(lin, ch.to_local([0] * cell.n), k=cell.n)


# ------------------------------------------------------ hyperplane slicing --

def normalize_hyperplane(a, b):
    """Canonical key for the hyperplane a.x = b, or None when degenerate.

    a becomes the primitive integer vector with a positive leading entry,
    and b is scaled by the same factor.  An integer row keeps an int b
    when the factor leaves it integral.
    """
    ia = clear_denominators(a)
    j = next((j for j, x in enumerate(ia) if x), None)
    if j is None:
        return None
    if ia[j] < 0:
        ia = [-x for x in ia]
    if type(a[j]) is int and type(b) is int:
        return tuple(ia), _ratio(b * ia[j], a[j])
    return tuple(ia), qof(b) * ia[j] / qof(a[j])


def hyperplane_pool(cells):
    """Sorted canonical hyperplanes carrying any constraint of the cells."""
    seen = set()
    for c in cells:
        for r in c.ineq_rows + c.eq_rows:
            key = normalize_hyperplane(r[:-1], r[-1])
            if key is not None:
                seen.add(key)
    return sorted(seen)


def slice_cell(cell, hyperplanes):
    """Cut the cell along each hyperplane that crosses its relative interior.

    Returns the full-dimensional closed pieces; they tile the cell and their
    new walls all lie on pool hyperplanes.  Pieces of different cells sliced
    by the same pool meet in common faces when the cells already do, or
    when the pool holds every cell's own hyperplanes, as in refine().  The
    integer normals of normalize_hyperplane keys go to polyhedron() as they
    are.
    """
    pieces = [cell]
    for a, b in hyperplanes:
        nxt = []
        for p in pieces:
            if not p.crosses(a, b):
                nxt.append(p)
                continue
            base_ineqs = _pairs(p.ineq_rows)
            eqs = _pairs(p.eq_rows)
            nxt.append(polyhedron(p.n, base_ineqs + [(a, b)], eqs=eqs))
            nxt.append(polyhedron(p.n, base_ineqs + [([-x for x in a], -b)], eqs=eqs))
        pieces = nxt
    return pieces


def _sliced_terms(terms, hyperplanes):
    out = []
    for cell, form, w in terms:
        for piece in slice_cell(cell, hyperplanes):
            if piece == cell:
                out.append((cell, form, w))
            else:
                out.append((piece, transport_form(form, cell, piece), w))
    return out


# ------------------------------------------------------------- delta forms --

class DeltaForm:
    """Finite sum of weighted polyhedral currents, canonical from the start.

    The constructor folds each weight into its coefficient, sums the terms
    on each cell and drops zero coefficients, so terms holds one
    (cell, form, 1) per cell, sorted by sort_key.
    """

    __slots__ = ("n", "terms", "_balancing", "_boundaries")

    def __init__(self, n, terms=()):
        self.n = int(n)
        self._balancing = None  # memo of _balanced_refinement
        self._boundaries = None  # memo of _boundary
        acc = {}
        for cell, form, weight in terms:
            if cell.n != self.n:
                raise ValueError("cell lives in the wrong ambient space")
            if not isinstance(form, SuperForm):
                raise TypeError("coefficient must be a SuperForm")
            if form.n != cell.dim:
                raise ValueError(
                    "coefficient must be written in the chart coordinates of its cell")
            w = qof(weight)
            f = form if w == 1 else form.scale(w)
            acc[cell] = acc[cell] + f if cell in acc else f
        norm = [(cell, f, QONE) for cell, f in acc.items() if not f.is_zero()]
        norm.sort(key=lambda t: t[0].sort_key)
        self.terms = tuple(norm)

    # -- structure -----------------------------------------------------------

    def canonicalize(self):
        """The current itself: it is canonical as constructed."""
        return self

    def is_zero(self):
        return not self.terms

    def __add__(self, other):
        if not isinstance(other, DeltaForm) or other.n != self.n:
            raise ValueError("can only add delta-forms on the same space")
        return DeltaForm(self.n, self.terms + other.terms)

    def __sub__(self, other):
        return self + other.scale(-1)

    def __neg__(self):
        return self.scale(-1)

    def scale(self, c):
        c = qof(c)
        return DeltaForm(self.n, [(cell, form.scale(c), w)
                                  for cell, form, w in self.terms])

    def __eq__(self, other):
        """Structural equality of canonical presentations."""
        if not isinstance(other, DeltaForm):
            return NotImplemented
        return self.n == other.n and self.terms == other.terms

    def __hash__(self):
        return hash((self.n, self.terms))

    def __repr__(self):
        return "DeltaForm(n=%d, %d terms)" % (self.n, len(self.terms))

    def tridegree_components(self):
        """Decomposition by (coefficient bidegree, cell codimension)."""
        buckets = {}
        for cell, form, w in self.terms:
            r = self.n - cell.dim
            for p, q in form.bidegrees():
                comp = form.component(p, q)
                buckets.setdefault((p, q, r), []).append((cell, comp, w))
        return {key: DeltaForm(self.n, terms)
                for key, terms in sorted(buckets.items())}

    def tridegrees(self):
        return sorted({(p, q, self.n - c.dim)
                       for c, f, _ in self.terms for p, q in f.bidegrees()})

    # -- refinement and equality ----------------------------------------------

    def refine(self, extra_hyperplanes=()):
        """Equivalent presentation sliced along every constraint hyperplane.

        The sliced cells intersect pairwise in common faces, which the raw
        term cells of a sum need not do.
        """
        pool = set(hyperplane_pool([c for c, _, _ in self.terms]))
        for h in extra_hyperplanes:
            if h is not None:
                pool.add(h)
        return DeltaForm(self.n, _sliced_terms(self.terms, sorted(pool)))

    def equals(self, other):
        """Exact equality as currents: each tridegree stratum of self - other
        refines to no terms, as its refined cells, of one dimension, are
        equal or meet in lower dimension.  Identical terms cancel in the
        difference, so equal presentations slice nothing."""
        if not isinstance(other, DeltaForm) or other.n != self.n:
            return False
        return all(part.refine().is_zero()
                   for part in (self - other).tridegree_components().values())

    # -- balancing -------------------------------------------------------------

    def is_balanced(self):
        """Verdict plus a certificate naming a facet with nonzero residue."""
        _, ok, cert = _balanced_refinement(self)
        return ok, deepcopy(cert)

    # -- differential operators -------------------------------------------------

    def dp_prime(self):
        """Cellwise first-kind derivative of the coefficients."""
        return DeltaForm(self.n, [(cell, form.dprime(), w)
                                  for cell, form, w in self.terms])

    def dp_second(self):
        """Cellwise second-kind derivative of the coefficients."""
        return DeltaForm(self.n, [(cell, form.dsecond(), w)
                                  for cell, form, w in self.terms])

    def boundary_prime(self):
        """Facet-supported part of the first-kind current differential.

        Both kinds are computed together, once per current (_boundary).
        """
        return _boundary(self)[0]

    def boundary_second(self):
        """Facet-supported part of the second-kind current differential.

        Both kinds are computed together, once per current (_boundary).
        """
        return _boundary(self)[1]

    def d_prime(self):
        """First-kind current differential."""
        return self.dp_prime() - self.boundary_prime()

    def d_second(self):
        """Second-kind current differential."""
        return self.dp_second() - self.boundary_second()

    # -- evaluation ---------------------------------------------------------------

    def eval_pairing(self, eta, window):
        """Pair with an ambient superform over a bounded window.

        The current must have a uniform current degree (s, t) and eta the
        complementary bidegree (n - s, n - t).
        """
        if not window.is_bounded():
            raise ValueError("evaluation window must be bounded")
        if window.n != self.n:
            raise ValueError("evaluation window lives in the wrong ambient space")
        if eta.n != self.n:
            raise ValueError("test form lives in the wrong ambient space")
        if eta.is_zero():
            return QZERO
        degs = {(p + r, q + r) for p, q, r in self.tridegrees()}
        if len(degs) > 1:
            raise ValueError("bidegree mismatch: current degree is not uniform")
        if not degs:
            return QZERO
        s, t = next(iter(degs))
        eb = eta.bidegree()
        if eb != (self.n - s, self.n - t):
            raise ValueError("bidegree mismatch: test form has bidegree %r, "
                             "expected %r" % (eb, (self.n - s, self.n - t)))
        total = QZERO
        memo = {}  # one Lasserre memo for every piece
        for i, _, piece in _meeting_pairs([c for c, _, _ in self.terms], (window,)):
            cell, form, _ = self.terms[i]
            if piece.dim < cell.dim:
                continue
            a = transport_form(form, cell, piece)
            g = chart_to_ambient(a, piece).wedge(eta)
            if not _top_is_zero(g, piece):
                total += _integrate_top(g, WeightedCell(piece, 1), memo)
        return total


# ----------------------------------------------------------------- balancing --

def _facet_stars(terms):
    """Group terms around their shared facets, as (cell, form)."""
    stars = {}
    for cell, form, _ in terms:
        if cell.dim:
            for tau in cell.facets():
                stars.setdefault(tau, []).append((cell, form))
    return stars


def _check_balanced_refined(R):
    """Balancing check for a presentation whose cells share facets exactly.

    Each coefficient is transported to the facet once, with its normal, and
    reused for every complement row and for the residue direction.
    """
    for (p, q, r), comp in R.tridegree_components().items():
        stars = _facet_stars(comp.terms)
        for tau in sorted(stars, key=lambda c: c.sort_key):
            spokes = [(primitive_normal(sigma, tau), transport_form(form, sigma, tau))
                      for sigma, form in stars[tau]]
            residues = []
            for w_row in tau.chart.w_rows:
                beta = SuperForm.zero(tau.dim)
                for nv, rest in spokes:
                    c = vec_dot(w_row, nv)
                    if c:
                        beta = beta + rest.scale(c)
                residues.append(beta)
            if all(b.is_zero() for b in residues):
                continue
            cert = {
                "face": cell_summary(tau),
                "tridegree": (p, q, r),
                "residues": [repr(b) for b in residues],
            }
            if all(rest.bidegrees() in ([], [(0, 0)]) for _, rest in spokes):
                local = list(tau.chart.to_local(tau.base_point))
                direction = [QZERO] * R.n
                for nv, rest in spokes:
                    c = rest.eval_scalar(local)
                    direction = [d + c * x for d, x in zip(direction, nv)]
                if any(x != 0 for x in direction):
                    iv = clear_denominators(direction)
                    if next(x for x in iv if x) < 0:
                        iv = [-x for x in iv]
                    cert["residue_vector"] = iv
            return False, cert
    return True, None


def _balanced_refinement(T):
    """(refined presentation, verdict, certificate) of T, computed once per current."""
    if T._balancing is None:
        R = T.refine()
        T._balancing = (R,) + _check_balanced_refined(R)
    return T._balancing


def require_balanced(T):
    """Refined presentation of T, or BalancingError with certificate."""
    R, ok, cert = _balanced_refinement(T)
    if not ok:
        raise BalancingError("current is not balanced", deepcopy(cert))
    return R


# ------------------------------------------------------- boundary operators --

def _drop_last_variable(p, m):
    """Set the last of m+1 polynomial variables to zero and drop it."""
    terms = {}
    for exps, c in p.terms.items():
        if exps[m] == 0:
            terms[exps[:m]] = c
    return Poly(m, terms)


def _extract_normal_parts(form, m):
    """Coefficients of the two normal generators in split coordinates.

    form lives in coordinates (u_1 .. u_m, z); returns the coefficient forms
    of the first-kind and second-kind generators of z, restricted to z = 0,
    as forms in the u coordinates.
    """
    first = {}
    second = {}
    for (ii, jj), p in form.terms.items():
        in_i = m in ii
        in_j = m in jj
        if in_i and in_j:
            continue
        if not in_i and not in_j:
            continue
        q = _drop_last_variable(p, m)
        if q.is_zero():
            continue
        if in_i:
            pos = ii.index(m)
            sign = -1 if pos % 2 else 1
            key = (tuple(x for x in ii if x != m), jj)
            tgt = first
        else:
            pos = jj.index(m)
            sign = -1 if (len(ii) + pos) % 2 else 1
            key = (ii, tuple(x for x in jj if x != m))
            tgt = second
        q = q * sign
        tgt[key] = tgt[key] + q if key in tgt else q
    return _superform(m, first), _superform(m, second)


def _split_coordinates(sigma, tau):
    """Affine change from sigma-chart coordinates to (tau-chart, transverse).

    The transverse coordinate is the first complement dual of tau that is
    nonzero on the facet normal; its product with the extracted coefficient
    does not depend on this choice.  Returns (inv, shift, scale), kept in
    sigma's per-facet slot next to the normal, so it is computed once per
    pair; callers do not change it.
    """
    entry = _facet_entry(sigma, tau)
    if entry[2] is None:
        nvec = primitive_normal(sigma, tau)
        tch, sch = tau.chart, sigma.chart
        w = next((w for w in tch.w_rows if int_dot(w, nvec)), None)
        if w is None:
            raise AssertionError("facet normal lies in the facet span")
        duals = tch.u_rows + (w,)
        off = _dual_coords(duals, sch.base, tch.base)
        # the change M[i][j] = duals[i] . b_j inverted: its columns' integer
        # duals are scale M^-1
        cols = [[int_dot(u, b) for u in duals] for b in sch.basis]
        inv, scale = _int_duals(cols, len(cols))
        inv = [[_ratio(x, scale) for x in r] for r in inv]
        entry[2] = inv, [-int_dot(r, off) for r in inv], int_dot(w, nvec)
    return entry[2]


def _boundary(T):
    """(boundary_prime, boundary_second) of T, computed together once per current.

    Each coefficient is pulled back to the split coordinates of each facet
    once; the second-kind normal part of that pull-back gives the first-kind
    boundary and the first-kind part the second-kind one.
    """
    if T._boundaries is None:
        R = require_balanced(T)
        prime, second = [], []
        for cell, form, _ in R.terms:
            if cell.dim == 0:
                continue
            for tau in cell.facets():
                inv, shift, scale = _split_coordinates(cell, tau)
                first_part, second_part = _extract_normal_parts(
                    form.pullback_affine(inv, shift), tau.dim)
                prime.append((tau, second_part, -scale))
                second.append((tau, first_part, scale))
        T._boundaries = DeltaForm(T.n, prime), DeltaForm(T.n, second)
    return T._boundaries


def boundary_prime_via_contraction(T):
    """Boundary of the first kind computed by contracting facet normals.

    Independent route to the same current as DeltaForm.boundary_prime: the
    ambient coefficient is contracted in the second slot with the part of
    the primitive facet normal transverse to the facet, and restricted to
    the facet.
    """
    return _boundary_contraction(T, "second", -1)


def boundary_second_via_contraction(T):
    """Boundary of the second kind computed by contracting facet normals."""
    return _boundary_contraction(T, "prime", 1)


def _boundary_contraction(T, slot, sign):
    R = require_balanced(T)
    out = []
    for cell, form, _ in R.terms:
        if cell.dim == 0:
            continue
        amb = chart_to_ambient(form, cell)
        for tau in cell.facets():
            # the part of the normal transverse to tau, sum_j (w_j . nu) comp_j
            # over tau's complement duals: balancing cancels these around
            # tau, while the whole normals may sum to a vector along tau
            ch = tau.chart
            coef = [int_dot(w, primitive_normal(cell, tau)) for w in ch.w_rows]
            nvec = [sum(k * c[i] for k, c in zip(coef, ch.comp)) for i in range(T.n)]
            beta = amb.contract([Q(x) for x in nvec], slot).restrict(tau.chart)
            out.append((tau, beta, sign))
    return DeltaForm(T.n, out)


# --------------------------------------------------------------- products --

def _covering_cell(maximal, cell, what):
    """The first maximal cell, in sort order, containing the cell's relint point.

    The point is taken homogeneous, X = (x, t) the sum of the cell's cone
    rays (relint_point is x / t), and tested in integers: a.x = b t on each
    equality row of a maximal cell and a.x <= b t on each inequality row.
    """
    rays, _ = cell.generators()
    X = [sum(col) for col in zip(*rays)]

    def slack(r):
        # a.x - b t; zip stops int_dot at the n entries of a
        return int_dot(r[:-1], X) - r[-1] * X[-1]

    for M in sorted(maximal, key=lambda c: c.sort_key):
        if not any(map(slack, M.eq_rows)) and all(slack(r) <= 0 for r in M.ineq_rows):
            return M
    raise PreconditionError("%s does not cover a cell of the current" % what,
                            {"cell": cell_summary(cell)})


def ps_multiply(alpha, T):
    """Multiply a piecewise smooth form into a current, cell by cell.

    The current is refined along the walls of alpha's complex; every refined
    cell must be covered by a maximal cell of alpha.
    """
    if alpha.complex.n != T.n:
        raise ValueError("piecewise form lives in the wrong ambient space")
    pool = hyperplane_pool(alpha.maximal)
    out = []
    for cell, form, w in _sliced_terms(T.terms, pool):
        covering = _covering_cell(alpha.maximal, cell, "piecewise form")
        restricted = alpha.pieces[covering].restrict(cell.chart)
        out.append((cell, restricted.wedge(form), w))
    return DeltaForm(T.n, out)


def _product_form(c1, f1, c2, f2, cell):
    """f1 x f2 written in the chart of a cell inside c1 x c2.

    f1 wedged with f2 renamed past c1's coordinates lives in the joined
    factor chart (the two base points joined, the factors' u_rows padded),
    exact on the hull of c1 x c2, so one pull-back moves it into cell's
    chart.  For cell = c1 x c2 with the joined base point that is the
    identity (its HNF basis is block-diag(basis c1, basis c2)), and
    pullback_affine returns the wedge unchanged."""
    ch1, ch2, ch = c1.chart, c2.chart, cell.chart
    k = c1.dim + c2.dim
    form = _shifted(f1, k, 0).wedge(_shifted(f2, k, c1.dim))
    duals = ([u + (0,) * c2.n for u in ch1.u_rows]
             + [(0,) * c1.n + u for u in ch2.u_rows])
    m_rows = [[int_dot(u, b) for b in ch.basis] for u in duals]
    return form.pullback_affine(
        m_rows, _dual_coords(duals, ch.base, ch1.base + ch2.base), k=cell.dim)


def exterior_product(S, T):
    """Product current on the product space, each cell built from its factors
    (product_polyhedron), with the coefficient _product_form gives."""
    out = []
    for c1, f1, _ in S.terms:
        for c2, f2, _ in T.terms:
            prod = product_polyhedron(c1, c2)
            out.append((prod, _product_form(c1, f1, c2, f2, prod), QONE))
    return DeltaForm(S.n + T.n, out)


def fundamental_cycle(n):
    """The whole space with unit weight and coefficient 1."""
    return DeltaForm(n, [(whole_space(n), SuperForm.scalar(n, 1), QONE)])


def translate_delta(T, v):
    """The current shifted by the vector v."""
    back = AffineMap(AffineMap.identity(T.n).lin, [-qof(x) for x in v])
    out = []
    for cell, form, w in T.terms:
        moved = translate(cell, v)
        out.append((moved, transport_form(form, cell, moved, back), w))
    return DeltaForm(T.n, out)


# ----------------------------------------------------- pushforward, pullback --

def _not_injective(f, cell):
    """Raise the error of a cell on whose affine hull f is not injective: not
    proper if its recession cone meets ker f beyond 0, else not injective,
    with the first vector of the rational kernel of f on the hull."""
    rec = recession_cone(cell)
    if rec.dim > 0:
        cap = intersect(rec, polyhedron(f.n, [], eqs=[(row, 0) for row in f.lin]))
        if cap.dim > 0:
            raise PreconditionError(
                "pushforward is not proper on a cell",
                {"cell": cell_summary(cell),
                 "recession_direction": [qstr(x) for x in cap.span.basis()[0]]})
    red, pivots = _int_rref([clear_denominators(r) for r in f.lin]
                            + [list(w) for w in cell.chart.w_rows])
    free = next(c for c in range(f.n) if c not in pivots)
    direction = [int(c == free) for c in range(f.n)]
    for r, p in zip(red, pivots):
        direction[p] = Q(-r[free], r[p])
    raise PreconditionError(
        "map is not injective on a cell",
        {"cell": cell_summary(cell),
         "kernel_direction": [qstr(x) for x in direction]})


def pushforward(f, T):
    """Image current under an affine map injective and proper on each cell.

    Per cell, one integer RREF of [L b_k | I] (f.ints = L, s, D; b_k the
    chart basis) decides both: rank d = dim cell means f is injective on the
    affine hull, and so proper, as the recession cone lies in the hull's
    directions; a lower rank raises what _not_injective finds.  Its duals
    p_k . f_lin(b_j) = [k = j] give the left inverse g(y) = base +
    sum_k (p_k . (y - c0)) b_k, c0 = f(base).  The image is the cell's
    inequalities pulled back along g, cut by the integer kernel of the
    L b_k; the coefficient is pulled back along g in the image's chart
    (M[k][j] = p_k . nb_j, c[k] = p_k . (nb - c0)), and the weight is
    the lattice index, a Bareiss determinant over D^d.  All in integers.
    """
    if f.n != T.n:
        raise ValueError("map domain does not match the current")
    m = f.m
    L, s, D = f.ints
    out = []
    for cell, form, _ in T.terms:
        sch = cell.chart
        icols = [[int_dot(row, b) for row in L] for b in sch.basis]
        inverse = _int_duals(icols, m)
        if inverse is None:
            _not_injective(f, cell)
        # p_k = D q_k / lam; the image rows are the rational ones times lam delta
        q, lam = inverse
        qt = [[qk[j] for qk in q] for j in range(m)]
        B, delta = _over_denominator(sch.base)
        cB = [int_dot(row, B) + x * delta for row, x in zip(L, s)]  # D delta c0
        ineqs = []
        for r in cell.ineq_rows:
            a = [int_dot([int_dot(r, b) for b in sch.basis], col) for col in qt]
            ineqs.append(([D * delta * x for x in a],
                          lam * (r[-1] * delta - int_dot(r, B)) + int_dot(a, cB)))
        eqs = [([D * delta * x for x in k], int_dot(k, cB))
               for k in integer_kernel(icols, m).rows]
        nu = polyhedron(m, ineqs, eqs=eqs)
        if nu is None:
            raise AssertionError("image of a nonempty cell is empty")
        idx = abs(_bareiss([_int_coords(nu.span.rows, c) for c in icols])[1])
        N, eta = _over_denominator(nu.chart.base)
        diff = [D * delta * x - eta * c for x, c in zip(N, cB)]  # D delta eta (nb - c0)
        m_rows = [[_ratio(D * int_dot(qk, nb), lam) for nb in nu.chart.basis]
                  for qk in q]
        off = [_ratio(int_dot(qk, diff), lam * delta * eta) for qk in q]
        out.append((nu, form.pullback_affine(m_rows, off, k=len(q)),
                    idx if D == 1 else Q(idx, D ** len(q))))
    return DeltaForm(m, out)


def pullback_surjective(f, S):
    """Preimage current under a surjective affine map.

    One integer RREF of [L | I] (f.ints = L, s, D) decides surjectivity and
    gives a right inverse, L v_j = lam e_j.  With kb the kernel of L, the
    weight is the index of the lifted chart basis and kb in the preimage's
    span over that of the v_j and kb in Z^n, times (lam / D)^(m - dim).
    """
    if f.m != S.n:
        raise ValueError("map target does not match the current")
    n, m = f.n, f.m
    L, _, D = f.ints
    inverse = _int_duals(L, n)
    if inverse is None:
        raise ValueError("map is not surjective; use the general pull-back")
    v, lam = inverse
    vt = list(zip(*v))
    kb = integer_kernel(L, n).basis()
    dv = abs(_bareiss(v + kb)[1])
    out = []
    for cell, form, _ in S.terms:
        pre = affine_preimage(cell, f.lin, f.shift, n)
        if pre is None:
            raise AssertionError("preimage of a nonempty cell is empty")
        lifts = [[int_dot(row, b) for row in vt] for b in cell.chart.basis]
        index = abs(_bareiss([_int_coords(pre.span.rows, x) for x in lifts + kb])[1])
        e = m - cell.dim
        out.append((pre, transport_form(form, cell, pre, f),
                    Q(index * lam ** e, dv * D ** e)))
    return DeltaForm(n, out)


# ------------------------------------------------- piecewise-form interface --

def as_piecewise_form(T):
    """Present a codimension-zero current as a piecewise smooth form.

    The ambient space is tiled along every constraint hyperplane of the
    terms, the cells of T.refine() are the regions inside the support, and
    the chart of a full-dimensional cell is an affine isomorphism, so each
    refined form lifts to the sum of its terms' ambient forms; regions
    outside the support carry the zero form.  Incompatible boundary values
    surface as a ContinuityError with a witness.
    """
    tri = T.tridegrees()
    if any(r != 0 for _, _, r in tri):
        raise ValueError("only codimension-zero currents restrict to forms")
    if len({(p, q) for p, q, _ in tri}) > 1:
        raise ValueError("coefficients have mixed bidegree")
    pool = hyperplane_pool([c for c, _, _ in T.terms])
    regions = slice_cell(whole_space(T.n), pool)
    refined = {cell: form for cell, form, _ in T.refine().terms}
    pieces = {reg: chart_to_ambient(refined[reg], reg) if reg in refined
              else SuperForm.zero(T.n) for reg in regions}
    cx = Complex(regions, validate=False)
    return PiecewiseForm(cx, pieces)


def piecewise_to_delta(alpha):
    """The current integrating a piecewise smooth form over the whole space."""
    terms = [(cell, alpha.pieces[cell].restrict(cell.chart), QONE)
             for cell in alpha.maximal]
    return DeltaForm(alpha.complex.n, terms)
