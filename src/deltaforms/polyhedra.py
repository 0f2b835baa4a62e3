"""Rational polyhedra in canonical form, charts, face lattices.

Every polyhedron is reduced to a canonical irredundant description (implicit
equalities in integer RREF, inequalities primitive, deduplicated, irredundant
and sorted) and interned, so equal polyhedra share one object and its cached
charts and face lattices.  The intern table is also keyed by each input
system, its rows primitive integers, so a repeated input returns the same
object (or None) without canonicalizing again.  Two more tagged entry
kinds hold what depends only on a direction space: the span lattice, keyed
by the primitive linear parts of the canonical equalities, and the frame of
each lattice (its complement and the dual rows of a chart), so a new cell's
chart costs only its base point.  Two more kinds are keyed by values of
other modules: the pairs of cells that meet after a generic displacement
(intersection._stable_pairs), and each balanced wedge factor's presented
cells, forms and walk state, keyed by the current and kept only once it is
found balanced (intersection._walk_factor).  Interning saves work only:
compare polyhedra with ==, never with `is`, because a cleared intern table
makes equal copies, and one clear empties the input keys, the span, frame,
stable and factor entries and the canonical ones.

There is no linear programming: emptiness, implicit equalities and facets
are read off the lineality, vertices and extreme rays of the homogenized cone
{(u, t) : a.u <= b t, t >= 0}, found by exact integer double description
(see cones and _canonicalize).  Rows are integers from entry to canonical
form: polyhedron(), the one door for rational rows, checks and clears them
once, and every cell is made by _from_rows from integer rows.  Implicit
rows join the equalities in RREF; facet rows are reduced modulo them, scaled to
primitive integers, deduplicated and sorted.  implicit_rows answers the same
question for any system, which decides whether it has a point strictly
inside a given row.  Polyhedra cache their generators, seeded from the
canonicalization when the cone is pointed (with lines, the rays are not
unique, and only canonical input rows keep them), and read off them the
vertices (rays with t > 0), boundedness (no lines and no ray with t = 0), a
relative-interior point (the sum of the rays) and on which sides of a
hyperplane they lie (crosses).  A complex reads its maximal cells off its
faces: they are the cells that are no cell's facet (Complex).  Every loop
over the pairs of cells that meet reads one scan (_meeting_pairs); the
diagonal walk keeps its own, as it decides a pair before intersecting it.

Faces come from vertex-facet incidences (Kaibel & Pfetsch 2002): a row is
a facet when its set of tight rays holds a point and is maximal by
inclusion, facet i is row i made an equality, and its facets are read off
the rays tight on row i.  A pointed cell seeds each facet with those rays,
so its whole face lattice runs no double description.  The facets key a
per-facet slot on the cell: each entry keeps the facet's own row and is
filled lazily with what depends only on the pair (cell, facet), the
primitive normal and the boundary's split frame (currents), so each is
computed once per pair.
"""

from __future__ import annotations

from itertools import combinations, product
from math import lcm

from .linalg import (
    Lattice,
    _int_rref,
    _ivec_primitive as _primitive,
    _over_denominator,
    _ratio,
    _unimodular_inverse,
    clear_denominators,
    complement_lattice,
    hnf,
    integer_kernel,
    vec_dot,
)
from .cones import double_description, int_dot
from .scalars import Q, QONE, QZERO, qof, qstr

# The intern table maps canonical keys to polyhedra, the memo keys of
# _from_rows (its primitive rows) to what it returned (None for an empty
# set), ("span", n, rows) to a span lattice, ("frame", n, rows) to a
# lattice's frame, ("stable", left, right, w) to intersection._stable_pairs's
# answer and ("factor", T) to the walk-ready terms of a balanced wedge
# factor T (intersection._walk_factor), so one clear empties all six.  A
# span, frame, stable or factor entry is only ever recomputed from its key,
# so any of them is safe to evict.
_CACHE: dict = {}
_MISS = object()


def _reduce_mod_eqs(row, eq_rows, pivots):
    """A positive multiple of row, minus integer RREF rows, zero at their pivots."""
    for erow, p in zip(eq_rows, pivots):
        f = row[p]
        if f:
            c = erow[p]
            row = [c * x - f * y for x, y in zip(row, erow)]
    return row


def _homogenized_cone(n, ineqs, eqs):
    """Generators of {(u, t) : a.u <= b t, t >= 0} over the free coordinates.

    The rows are integer.  The equalities are brought to RREF and their
    pivot coordinates eliminated; u runs over the remaining coordinates.
    Row 0 of the cone is t >= 0 and row i + 1 is inequality i.  Returns
    (eq_red, pivots, free, lines, rays, zeros) as in cones.double_description,
    or None if the set is empty: the equalities are inconsistent or no
    generator has t > 0.
    """
    eq_red, pivots = _int_rref(eqs)
    if n in pivots:
        return None
    free = [j for j in range(n) if j not in pivots]
    cone = [[0] * len(free) + [-1]]
    for row in ineqs:
        row = _reduce_mod_eqs(row, eq_red, pivots)
        cone.append(_primitive([row[j] for j in free] + [-row[-1]]))
    lines, rays, zeros = double_description(cone, len(free) + 1)
    if not any(r[-1] > 0 for r in rays):
        return None
    return eq_red, pivots, free, lines, rays, zeros


def _cone_generators(n, cone):
    """(rays, lines) of a _homogenized_cone lifted to primitive vectors (x, t).

    The free coordinates and t are scaled by the lcm of the pivots, so each
    pivot coordinate is an exact integer quotient.
    """
    eq_red, pivots, free, lines, rays, _ = cone
    scale = lcm(*(row[p] for row, p in zip(eq_red, pivots)))

    def lift(y):
        x = [0] * n
        for k, j in enumerate(free):
            x[j] = scale * y[k]
        t = scale * y[-1]
        for row, p in zip(eq_red, pivots):
            x[p] = (row[-1] * t - int_dot(row[:-1], x)) // row[p]
        return tuple(_primitive(x + [t]))

    return tuple(map(lift, rays)), tuple(map(lift, lines))


def _tight_rows(m, zeros):
    """Indices i < m of the inequality rows that every ray is tight on.

    Lines are tight on every row, so these rows hold with equality on the
    whole cone.
    """
    return [i for i in range(m) if all(z >> (i + 1) & 1 for z in zeros)]


def implicit_rows(n, ineqs, eqs):
    """Indices of the rows a.x <= b that hold with equality on the whole set.

    ineqs and eqs are integer rows (a, b) for a.x <= b and a.x = b.  Returns
    None when the set is empty.  The set has a point strictly inside every
    inequality row exactly when the list is empty, and a point strictly
    inside row i exactly when i is not in it.
    """
    cone = _homogenized_cone(n, ineqs, eqs)
    return None if cone is None else _tight_rows(len(ineqs), cone[5])


def _bits(flags):
    """The bit mask with bit k set for each true flag k."""
    return sum(1 << k for k, f in enumerate(flags) if f)


def _facet_rows(rows, sets, points, eq_red, pivots):
    """Canonical facet rows among rows, given each row's set of tight rays.

    A row is a facet when its set holds a point (a ray with t > 0), so that
    the row is tight somewhere on the set, and is maximal by inclusion among
    such sets (Kaibel & Pfetsch 2002).  Facet rows are reduced modulo the
    equalities, made primitive, deduplicated and sorted.
    """
    live = [(row, s) for row, s in zip(rows, sets) if s & points]
    return tuple(sorted({
        tuple(_primitive(_reduce_mod_eqs(row, eq_red, pivots))) for row, s in live
        if not any(s != t and s & t == s for _, t in live)}))


def _canonicalize(n, ineqs, eqs):
    """Canonical (eq_rows, ineq_rows, generators), or None if empty.

    Row layout: each row is (a_1, ..., a_n, b) in integers for a.x <= b
    resp. a.x = b.  The given equalities are eliminated first.  The set is
    empty when no generator of its homogenized cone has t > 0.  A row is an
    implicit equality when every generator is tight on it; the facets among
    the other rows are read off their tight rays (_facet_rows).  generators
    is Polyhedron.generators() of a pointed cone, whose rays are unique, or
    of canonical input rows, on which generators() would rerun this cone;
    else None.
    """
    cone = _homogenized_cone(n, ineqs, eqs)
    if cone is None:
        return None
    eq_red, pivots, _, lines, rays, zeros = cone
    implicit = _tight_rows(len(ineqs), zeros)
    if implicit:
        eq_red, pivots = _int_rref([*eqs, *(ineqs[i] for i in implicit)])
        if n in pivots:
            raise AssertionError("inconsistent equalities on a feasible set")
    rest = [i for i in range(len(ineqs)) if i not in implicit]
    ineq_rows = _facet_rows([ineqs[i] for i in rest],
                            [_bits(z >> (i + 1) & 1 for z in zeros) for i in rest],
                            _bits(r[-1] > 0 for r in rays), eq_red, pivots)
    keep = not lines or tuple(map(tuple, ineqs)) == ineq_rows
    return (tuple(map(tuple, eq_red)), ineq_rows,
            _cone_generators(n, cone) if keep else None)


def _duals(basis, comp):
    """(u_rows, w_rows): the rows of the inverse of the matrix with columns
    basis and comp, split after the basis."""
    minv = _unimodular_inverse(list(zip(*(basis + comp))))
    d = len(basis)
    return tuple(map(tuple, minv[:d])), tuple(map(tuple, minv[d:]))


def _frame(lat):
    """(comp, u_rows, w_rows) of a saturated lattice, once per lattice.

    comp is the rows of complement_lattice(lat), and u_rows and w_rows are
    _duals(lat.rows, comp), as in Chart.  Kept in _CACHE under the
    lattice's rows, so every cell with this direction space shares them.
    """
    key = ("frame", lat.n, lat.rows)
    frame = _CACHE.get(key)
    if frame is None:
        comp = complement_lattice(lat).rows
        frame = _CACHE[key] = (comp, *_duals(lat.rows, comp))
    return frame


def _dual_coords(rows, x, base, xden=1):
    """The integer rows applied to x / xden - base.

    Taken in integers over a common denominator of x / xden and base, so the
    values are ints when that denominator is 1, and Fractions otherwise.
    """
    x = [v if type(v) is int else qof(v) for v in x]
    den = lcm(*(v.denominator * xden for v in x), *(b.denominator for b in base))
    dx = [v.numerator * (den // (v.denominator * xden))
          - b.numerator * (den // b.denominator) for v, b in zip(x, base)]
    out = [int_dot(r, dx) for r in rows]
    return out if den == 1 else [Q(c, den) for c in out]


class Chart:
    """Affine chart of a polyhedron: x = base + sum_k u_k basis_k.

    u_rows are the dual functionals recovering u from x (zero on the chosen
    integral complement), w_rows the complement duals.  They are the rows of
    the inverse of the matrix with columns basis and comp.  The basis
    generates the cell's lattice and comp a complement of it in Z^n, so that
    matrix is unimodular and the duals are integer vectors.
    """

    __slots__ = ("n", "base", "basis", "comp", "u_rows", "w_rows")

    def __init__(self, n, base, basis, comp):
        self.n = n
        self.base = tuple(qof(x) for x in base)
        self.basis = tuple(tuple(int(x) for x in row) for row in basis)
        self.comp = tuple(tuple(int(x) for x in row) for row in comp)
        if len(self.basis) + len(self.comp) != n:
            raise ValueError("basis and complement must fill the ambient space")
        self.u_rows, self.w_rows = _duals(self.basis, self.comp)

    @property
    def dim(self):
        return len(self.basis)

    def to_local(self, x):
        """Chart coordinates of x: the u_rows applied to x - base."""
        return _dual_coords(self.u_rows, x, self.base)

    def to_ambient(self, u):
        x = list(self.base)
        for k, c in enumerate(u):
            c = qof(c)
            for i in range(self.n):
                x[i] += c * self.basis[k][i]
        return x

    def transition_to(self, other: "Chart", f=None):
        """Affine map u_other = M . u_self + c from x to f(x), or to x.

        u_self are this chart's coordinates of x and u_other are other's
        coordinates of f(x); f is an AffineMap, and must carry this chart's
        span into other's.  Taken in integers, over the denominator of f.ints
        and of the base point: entries are ints when they are integral.
        """
        if f is None:
            m_rows = [[int_dot(u, b) for b in self.basis] for u in other.u_rows]
            return m_rows, other.to_local(self.base)
        L, s, den = f.ints
        B, bden = _over_denominator(self.base)
        cols = [[int_dot(row, b) for row in L] for b in self.basis]
        m_rows = [[_ratio(int_dot(u, c), den) for c in cols] for u in other.u_rows]
        image = [int_dot(row, B) + x * bden for row, x in zip(L, s)]
        return m_rows, _dual_coords(other.u_rows, image, other.base, den * bden)


class Polyhedron:
    """Canonical interned rational polyhedron {x : A x <= b, E x = f}.

    Besides its rows it caches what depends only on the cell: span, chart,
    base point, generators, faces, and _facets, the per-facet slot.  That
    dict holds the facets in sort order, each keying its entry [row,
    normal, split frame] (_facet_entry): row is the inequality row that the
    facet makes tight, and the other two start as None and are filled on
    first use by primitive_normal and currents._split_coordinates.

    Its hash and sort_key are computed once, when the cell is interned.
    The rows are int tuples, whose hashes are the same in every process, so
    set and dict orders do not depend on when a cell was made.
    """

    __slots__ = ("n", "eq_rows", "ineq_rows", "_hash", "sort_key", "_span",
                 "_chart", "_base", "_facets", "_faces", "_generators")

    def __init__(self, n, eq_rows, ineq_rows, _token=None):
        if _token is not _SENTINEL:
            raise TypeError("use polyhedron() to construct instances")
        self.n = n
        self.eq_rows = eq_rows
        self.ineq_rows = ineq_rows
        self._hash = hash((n, eq_rows, ineq_rows))
        self.sort_key = (n, len(eq_rows), eq_rows, ineq_rows)
        self._span = None
        self._chart = None
        self._base = None
        self._facets = None
        self._faces = None
        self._generators = None

    # -- identity ----------------------------------------------------------
    @property
    def key(self):
        return (self.n, self.eq_rows, self.ineq_rows)

    def __eq__(self, other):
        return self is other or (isinstance(other, Polyhedron) and self.key == other.key)

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"Polyhedron(n={self.n}, dim={self.dim}, eqs={len(self.eq_rows)}, ineqs={len(self.ineq_rows)})"

    # -- basic geometry ------------------------------------------------------
    @property
    def dim(self):
        return self.n - len(self.eq_rows)

    def contains(self, pt) -> bool:
        """_holds at pt cleared to x / t; ValueError unless pt has n entries."""
        x, t = _over_denominator([qof(v) for v in _checked(pt, self.n)])
        return self._holds(x + [t])

    def _holds(self, X):
        """Whether x / t lies in the polyhedron, for ints X = (x, t), t > 0:
        a.x = b t on each equality row and a.x <= b t on each inequality row."""
        return (all(int_dot(r[:-1], X) == r[-1] * X[-1] for r in self.eq_rows)
                and all(int_dot(r[:-1], X) <= r[-1] * X[-1] for r in self.ineq_rows))

    @property
    def span(self) -> Lattice:
        """Integral lattice of directions along the affine hull.

        One Lattice per direction space, kept in _CACHE under the primitive
        linear parts of the canonical equalities: these are an integer RREF
        with every pivot among the first n columns, so they depend only on
        the direction space (the right-hand side changes only the scaling).
        """
        if self._span is None:
            rows = tuple(tuple(_primitive(r[:-1])) for r in self.eq_rows)
            key = ("span", self.n, rows)
            span = _CACHE.get(key)
            if span is None:
                span = _CACHE[key] = integer_kernel(rows, self.n)
            self._span = span
        return self._span

    @property
    def lineality(self) -> Lattice:
        return integer_kernel([r[:-1] for r in self.eq_rows + self.ineq_rows], self.n)

    @property
    def base_point(self):
        """Canonical point: the lexicographically smallest vertex.

        Cells without vertices are first cut down by zeroing the lineality
        coordinates of the canonical complement decomposition; the cut is
        pointed and translates bijectically to the lineality quotient.
        """
        if self._base is None:
            if self.dim == 0:
                # n integer RREF rows: row i is a_i x_i = b
                self._base = tuple(Q(r[-1], r[i]) for i, r in enumerate(self.eq_rows))
            else:
                gens = self._generators
                lin = self.lineality if gens is None or gens[1] else None
                if lin is not None and lin.rank > 0:
                    _, u_rows, _ = _frame(lin)
                    cut = _from_rows(self.n, self.ineq_rows, self.eq_rows
                                     + tuple(row + (0,) for row in u_rows))
                    self._base = tuple(cut.base_point)
                else:
                    self._base = min(tuple(v) for v in self.vertices())
        return self._base

    @property
    def chart(self) -> Chart:
        """The chart at base_point on the span's frame (_frame), unchecked."""
        if self._chart is None:
            ch = self._chart = Chart.__new__(Chart)
            ch.n, ch.base, ch.basis = self.n, self.base_point, self.span.rows
            ch.comp, ch.u_rows, ch.w_rows = _frame(self.span)
        return self._chart

    def relint_point(self):
        """The sum of the cone's rays, dehomogenized.

        A strictly positive combination of the rays lies in the relative
        interior of the cone, and its t is > 0 because some ray's is, so
        dividing by t gives a relative-interior point of the polyhedron.
        """
        rays, _ = self.generators()
        total = [sum(col) for col in zip(*rays)]
        return [Q(x, total[-1]) for x in total[:-1]]

    def generators(self):
        """(rays, lines) of the cone over the polyhedron, in R^(n+1).

        Primitive integer vectors (x, t): a ray with t > 0 is the point x / t,
        a ray with t = 0 a recession direction x, and lines span the
        lineality space (t = 0).
        """
        if self._generators is None:
            self._generators = _cone_generators(self.n, _homogenized_cone(
                self.n, self.ineq_rows, self.eq_rows))
        return self._generators

    def crosses(self, a, b) -> bool:
        """True when a.x - b takes both strict signs on the polyhedron."""
        h = clear_denominators([*a, -b if type(b) is int else -qof(b)])
        rays, lines = self.generators()
        if any(int_dot(h, ln) for ln in lines):
            return True
        vals = [int_dot(h, r) for r in rays]
        return any(v > 0 for v in vals) and any(v < 0 for v in vals)

    def is_bounded(self) -> bool:
        """No lines and no ray with t = 0, i.e. no recession direction."""
        rays, lines = self.generators()
        return not lines and all(r[-1] > 0 for r in rays)

    # -- faces --------------------------------------------------------------
    def facets(self):
        """The facets, read off the incidences of the cached generators.

        Facet i is row i made an equality; its facets are the other rows
        whose tight rays within it pass _facet_rows.  A pointed cell hands
        each facet its tight rays, which are the facet's extreme rays.
        Canonical rows and facets correspond one to one, so each facet
        keeps row i in its entry of the per-facet slot.
        """
        if self._facets is None:
            rows = self.ineq_rows
            rays, lines = self.generators()
            masks = [_bits(int_dot(row[:-1], r) == row[-1] * r[-1] for r in rays)
                     for row in rows]
            points = _bits(r[-1] > 0 for r in rays)
            out = []
            for i, row in enumerate(rows):
                eq_red, pivots = _int_rref([*self.eq_rows, row])
                others = [j for j in range(len(rows)) if j != i]
                tight = None if lines else (
                    tuple(r for k, r in enumerate(rays) if masks[i] >> k & 1), ())
                out.append((_intern(self.n, tuple(map(tuple, eq_red)), _facet_rows(
                    [rows[j] for j in others], [masks[i] & masks[j] for j in others],
                    points, eq_red, pivots), tight), row))
            out.sort(key=lambda fr: fr[0].sort_key)
            self._facets = {f: [row, None, None] for f, row in out}
        return list(self._facets)

    def faces(self):
        """All faces including the polyhedron itself, sorted by dimension."""
        if self._faces is None:
            seen = {self}
            frontier = [self]
            while frontier:
                nxt = []
                for p in frontier:
                    for f in p.facets():
                        if f not in seen:
                            seen.add(f)
                            nxt.append(f)
                frontier = nxt
            self._faces = tuple(sorted(seen, key=lambda p: (p.dim, p.sort_key)))
        return list(self._faces)

    def vertices(self):
        """The rays with t > 0 as points, or [] when there are lines."""
        rays, lines = self.generators()
        if lines:
            return []
        return [[Q(x, r[-1]) for x in r[:-1]] for r in rays if r[-1] > 0]


_SENTINEL = object()


def polyhedron(n, ineqs=(), eqs=()):
    """Canonical interned polyhedron from inequalities a.x <= b (and equalities).

    ineqs and eqs are iterables of (a, b) with rational entries, each a of n
    entries (else ValueError); this one door for rational rows clears each
    once for _from_rows.  Returns None when the set is empty.
    """
    ineqs = [clear_denominators([*_checked(a, n), b]) for a, b in ineqs]
    eqs = [clear_denominators([*_checked(e, n), f]) for e, f in eqs]
    return _from_rows(n, ineqs, eqs)


def _from_rows(n, ineqs, eqs):
    """Canonical interned polyhedron from integer rows (a_1, ..., a_n, b).

    Each row, for a.x <= b resp. a.x = b, is made primitive; the answer is
    memoized under n and these rows, in a tagged 4-tuple that no canonical
    key equals.  Returns None when the set is empty; a new pointed
    polyhedron keeps its canonicalization's generators.
    """
    memo = ("polyhedron", n, tuple(map(tuple, map(_primitive, ineqs))),
            tuple(map(tuple, map(_primitive, eqs))))
    inst = _CACHE.get(memo, _MISS)
    if inst is not _MISS:
        return inst
    canon = _canonicalize(n, memo[2], memo[3])
    inst = None if canon is None else _intern(n, *canon)
    _CACHE[memo] = inst
    return inst


def _checked(v, n):
    """v, or ValueError when it has not n entries."""
    if len(v) != n:
        raise ValueError("vector has length %d, expected %d" % (len(v), n))
    return v


def _intern(n, eq_rows, ineq_rows, generators):
    """The interned polyhedron with these rows; a new one keeps generators."""
    key = (n, eq_rows, ineq_rows)
    inst = _CACHE.get(key)
    if inst is None:
        inst = Polyhedron(n, eq_rows, ineq_rows, _token=_SENTINEL)
        inst._generators = generators
        _CACHE[key] = inst
    return inst


def intersect(p: Polyhedron, q: Polyhedron):
    if p.n != q.n:
        raise ValueError("ambient dimensions differ")
    return _from_rows(p.n, p.ineq_rows + q.ineq_rows, p.eq_rows + q.eq_rows)


def recession_cone(p: Polyhedron):
    return _from_rows(p.n, [r[:-1] + (0,) for r in p.ineq_rows],
                      [r[:-1] + (0,) for r in p.eq_rows])


def translate(p: Polyhedron, v):
    """p + v, the preimage of p under x -> x - v."""
    n = p.n
    return affine_preimage(p, [[int(i == j) for j in range(n)] for i in range(n)],
                           [-qof(x) for x in _checked(v, n)], n)


def product_polyhedron(p: Polyhedron, q: Polyhedron):
    """p x q inside R^{p.n + q.n}, assembled from the factors' canonical rows.

    p's rows padded with zeros on the right, then q's padded on the left, are
    canonical for p x q, so no double description runs: the equalities stay
    an integer RREF (primitive rows, positive pivots, in disjoint column
    blocks), each inequality stays primitive and zero at every pivot, and the
    facets of p x q are F x q and p x G, so the padded rows, sorted, are its
    facet rows.  Two pointed factors seed a new product's rays, (x1 t2, x2 t1,
    t1 t2) made primitive for each two vertices x1/t1 and x2/t2 and each
    factor's recession rays padded, and its lexicographically smallest
    vertex, the two base points joined.  With lines, generators() runs the
    double description on these rows.
    """
    n1, n2 = p.n, q.n
    left, right = (0,) * n1, (0,) * n2
    key = (n1 + n2,
           tuple(r[:-1] + right + r[-1:] for r in p.eq_rows)
           + tuple(left + r for r in q.eq_rows),
           tuple(sorted([r[:-1] + right + r[-1:] for r in p.ineq_rows]
                        + [left + r for r in q.ineq_rows])))
    inst = _CACHE.get(key)
    if inst is None:
        (rays1, lines1), (rays2, lines2) = p.generators(), q.generators()
        gens = None
        if not lines1 and not lines2:
            gens = (tuple(tuple(_primitive([*(x * r2[-1] for x in r1[:-1]),
                                            *(x * r1[-1] for x in r2[:-1]),
                                            r1[-1] * r2[-1]]))
                          for r1 in rays1 if r1[-1] for r2 in rays2 if r2[-1])
                    + tuple(r[:-1] + right + (0,) for r in rays1 if not r[-1])
                    + tuple(left + r for r in rays2 if not r[-1]), ())
        inst = _intern(*key, gens)
        if gens is not None:
            inst._base = p.base_point + q.base_point
    return inst


def affine_preimage(p: Polyhedron, lin_rows, shift, domain_n):
    """{x : lin.x + shift in p} as a polyhedron in R^domain_n.

    With lin and shift cleared to ints L, s over D, each row a.y <= b of p
    pulls back to a.L x <= D b - a.s.
    """
    k = len(shift)
    flat, den = _over_denominator([x for row in lin_rows for x in row] + list(shift))
    s = flat[k * domain_n:]
    cols = [flat[j:k * domain_n:domain_n] for j in range(domain_n)]

    def pull(rows):
        # zip stops int_dot at the k entries of a
        return [[int_dot(r, col) for col in cols] + [den * r[-1] - int_dot(r, s)]
                for r in rows]

    return _from_rows(domain_n, pull(p.ineq_rows), pull(p.eq_rows))


# ------------------------------------------------------------- constructors --

def whole_space(n):
    return polyhedron(n, [])


def single_point(coords):
    coords = [qof(x) for x in coords]
    n = len(coords)
    eqs = [([QONE if j == i else QZERO for j in range(n)], coords[i]) for i in range(n)]
    return polyhedron(n, [], eqs=eqs)


def box(lo, hi):
    lo = [qof(x) for x in lo]
    hi = [qof(x) for x in _checked(hi, len(lo))]
    n = len(lo)
    ineqs = []
    for i in range(n):
        unit = [QONE if j == i else QZERO for j in range(n)]
        ineqs.append((unit, hi[i]))
        ineqs.append(([-x for x in unit], -lo[i]))
    return polyhedron(n, ineqs)


def _line_eqs(point, f):
    """Equalities k.x = k.point cutting out the line point + R f (f integer)."""
    return [(k, vec_dot(k, point)) for k in integer_kernel([f], len(f)).rows]


def ray_from(apex, direction):
    """Half-line apex + t*direction, t >= 0."""
    apex = [qof(x) for x in apex]
    f = clear_denominators(direction)
    # t >= 0 in terms of x: f is a functional positive on the direction
    return polyhedron(len(apex), [([-x for x in f], -vec_dot(f, apex))],
                      eqs=_line_eqs(apex, f))


def segment(a, b):
    a = [qof(x) for x in a]
    b = [qof(x) for x in _checked(b, len(a))]
    f = clear_denominators([y - x for x, y in zip(a, b)])
    # f is a positive multiple of b - a, so f.a <= f.b
    return polyhedron(len(a), [(f, vec_dot(f, b)), ([-x for x in f], -vec_dot(f, a))],
                      eqs=_line_eqs(a, f))


# -------------------------------------------------------------- complexes ----

class ComplexError(ValueError):
    def __init__(self, message, certificate=None):
        super().__init__(message)
        self.certificate = certificate


class Complex:
    """A finite set of cells closed under faces, pairwise intersecting in faces.

    Its maximal cells are the cells that are no cell's facet.  In a set
    closed under faces whose cells meet in common faces, a cell inside
    another meets it in itself, so it is a face of that cell; and a proper
    face is a facet of some face one dimension up, which is again a cell.
    maximal_cells and the complex check both read this set, so the
    validate=False callers must pass cells that form a complex, which the
    check decides on pairs of maximal cells (face_compatibility_failure).
    """

    def __init__(self, cells, validate=True):
        closed = {f for c in cells if c is not None for f in c.faces()}
        self.cells = tuple(sorted(closed, key=lambda p: (-p.dim, p.sort_key)))
        if self.cells and any(c.n != self.cells[0].n for c in self.cells):
            raise ValueError("cells live in different ambient spaces")
        self.n = self.cells[0].n if self.cells else None
        covered = {f for c in self.cells for f in c.facets()}
        self._maximal = [c for c in self.cells if c not in covered]
        if validate:
            err = self.face_compatibility_failure()
            if err is not None:
                raise ComplexError("cells do not form a polyhedral complex", err)

    def face_compatibility_failure(self):
        """None if every pairwise intersection is a face of both, else a report.

        The report names the first two cells, in the order of cells, that
        do not meet in a common face, and one pass over the maximal cells
        finds them.  A cell x that is not maximal is a proper face of a
        maximal cell M, and sorts after M, as cells are sorted by falling
        dimension.  If x fails against a cell y, then y is not M, and M
        fails against y too: were M & y a face of both, x & y = x & (M & y)
        would be a face of both x and y.  The pair of M and y comes first,
        so the first failing pair of all cells is a pair of maximal cells,
        and the first failing one among them.
        """
        found = _first_misfit(self._maximal)
        if found is None:
            return None
        a, b, cap = found
        return {
            "cell_a": self.cells.index(a),
            "cell_b": self.cells.index(b),
            "intersection_dim": cap.dim,
            "witness_point": [qstr(x) for x in cap.relint_point()],
        }

    def maximal_cells(self):
        """The cells that are no cell's facet, in the order of cells."""
        return list(self._maximal)

    def __eq__(self, other):
        return isinstance(other, Complex) and self.cells == other.cells

    def __hash__(self):
        return hash(self.cells)


def _meeting_pairs(left, right=None):
    """(i, j, left[i] & right[j]) for every two cells that meet, in (i, j)
    order; without right, the pairs i < j of left, in combinations order."""
    if right is None:
        pairs, right = combinations(range(len(left)), 2), left
    else:
        pairs = product(range(len(left)), range(len(right)))
    for i, j in pairs:
        cap = intersect(left[i], right[j])
        if cap is not None:
            yield i, j, cap


def _first_misfit(cells):
    """(a, b, a & b) for the first two cells, in list order, that do not
    meet in a common face; None when every two do."""
    for i, j, cap in _meeting_pairs(cells):
        if cap not in cells[i].faces() or cap not in cells[j].faces():
            return cells[i], cells[j], cap
    return None


# ---------------------------------------------------------- lattice normals --

def _facet_entry(sigma: Polyhedron, tau: Polyhedron):
    """sigma's per-facet entry [row, normal, split frame] for its facet tau.

    Raises ValueError when tau is not among sigma.facets().
    """
    if sigma._facets is None:
        sigma.facets()
    entry = sigma._facets.get(tau)
    if entry is None:
        raise ValueError("tau is not a facet of sigma")
    return entry


def _int_coords(rows, v):
    """Coordinates of v in integer HNF rows, for v in the lattice they generate.

    Each coordinate is read off its row's pivot column, once the rows
    before it are subtracted, and is an exact integer quotient.
    """
    rest = list(v)
    out = []
    for row in rows:
        p = next(j for j, x in enumerate(row) if x)
        c = rest[p] // row[p]
        if c:
            rest = [x - c * y for x, y in zip(rest, row)]
        out.append(c)
    return out


def primitive_normal(sigma: Polyhedron, tau: Polyhedron):
    """Canonical primitive lattice normal of the facet tau inside sigma.

    Generates span(sigma) together with span(tau); points from tau into sigma.
    The facet row a of sigma that is tight on tau maps span(sigma) onto gZ,
    with kernel span(tau).  So with b_k the HNF basis of span(sigma), every
    u with sum_k u_k (-a.b_k) = g gives a normal sum_k u_k b_k that points
    inwards, and these u form one coset of tau's coordinates in the b_k.
    The rows (-a.b_k, e_k) generate every (sum_k u_k (-a.b_k), u), and
    their HNF gives both: its first row is (g, u), and u is reduced modulo
    its other rows, which are (0, x) for tau's coordinates x, so u is the
    canonical one.
    a is the row that facets() keeps for tau, and the normal is kept in
    sigma's per-facet slot, so it is computed once per pair.  Raises
    ValueError when tau is not a facet of sigma.
    """
    entry = _facet_entry(sigma, tau)
    if entry[1] is None:
        a = entry[0][:-1]
        bs = sigma.span.rows
        u = hnf([[-int_dot(a, b)] + [int(i == k) for i in range(len(bs))]
                 for k, b in enumerate(bs)])[0][1:]
        entry[1] = tuple(sum(c * b[i] for c, b in zip(u, bs)) for i in range(sigma.n))
    return list(entry[1])


# --------------------------------------------------------- weighted cells ----

class WeightedCell:
    """A polyhedron with a positive rational multiplier of its lattice weight."""

    __slots__ = ("cell", "weight")

    def __init__(self, cell: Polyhedron, weight):
        w = qof(weight)
        if w <= 0:
            raise ValueError("weight must be positive")
        self.cell = cell
        self.weight = w

    def __eq__(self, other):
        return (isinstance(other, WeightedCell)
                and self.cell == other.cell and self.weight == other.weight)

    def __hash__(self):
        return hash((self.cell, self.weight))

    def __repr__(self):
        return f"WeightedCell({self.cell!r}, weight={self.weight})"
