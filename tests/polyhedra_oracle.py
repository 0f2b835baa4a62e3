"""Routes of deltaforms' face and complex layer that were replaced, kept
verbatim as reference oracles for the tests and not collected by pytest.

- maximal_cells_of, from before containment was read off each cell's cached
  generators: a cell is contained in another exactly when their
  intersection, canonicalized through polyhedron(), is the cell itself.
- facets and faces, from before facets were read off vertex-facet
  incidences: one polyhedron() call, so one double description, per
  inequality row, walked down the face lattice.  The bodies are the old
  Polyhedron methods without the per-instance cache, so calling them leaves
  the cells' cached faces alone.
- face_compatibility_failure, from before only generating cells were
  paired: every ordered pair of cells is intersected.
- pl_max, from before it built its complex and PLFunction trusted: both go
  through the checked constructors.
- span, base_point and chart, from before a span lattice and its frame (the
  complement and the chart's dual rows) were kept once per direction space:
  every cell builds its own span, complement and unimodular inverse.  These
  are the old Polyhedron property bodies, with their per-instance caches, so
  property(span) and friends put the old route back on the class.
- product_polyhedron, from before the product's canonical rows were
  assembled from the factors': the padded rows go through polyhedron(),
  which runs a double description on the product.
- polyhedron_hash and sort_key, from before both were computed once when a
  cell is interned: the old __hash__ and sort_key bodies, which rebuilt
  their tuples on every call.
"""

from deltaforms.linalg import (
    Lattice,
    _identity_lattice,
    _int_rref,
    _rref_kernel,
    _unimodular_inverse,
    complement_lattice,
)
from deltaforms.polyhedra import Chart, Complex, _pairs, intersect, polyhedron
from deltaforms.scalars import Q, qof, qstr
from deltaforms.superforms import PLFunction


def maximal_cells_of(cells):
    """The cells contained in no other cell of the list, in list order."""
    return [c for c in cells
            if not any(o != c and intersect(c, o) == c for o in cells)]


def facets(self):
    out = []
    ineqs = _pairs(self.ineq_rows)
    eqs = _pairs(self.eq_rows)
    for row in ineqs:
        f = polyhedron(self.n, ineqs, eqs=eqs + [row])
        if f is None:
            raise AssertionError("facet of a canonical row is empty")
        if f not in out:
            out.append(f)
    return sorted(out, key=lambda p: p.sort_key)


def faces(self):
    """All faces including the polyhedron itself, sorted by dimension."""
    seen = {self}
    frontier = [self]
    while frontier:
        nxt = []
        for p in frontier:
            for f in facets(p):
                if f not in seen:
                    seen.add(f)
                    nxt.append(f)
        frontier = nxt
    return sorted(seen, key=lambda p: (p.dim, p.sort_key))


def face_compatibility_failure(self):
    """None if every pairwise intersection is a face of both, else a report."""
    for i in range(len(self.cells)):
        for j in range(i + 1, len(self.cells)):
            a, b = self.cells[i], self.cells[j]
            cap = intersect(a, b)
            if cap is None:
                continue
            if cap not in a.faces() or cap not in b.faces():
                return {
                    "cell_a": i,
                    "cell_b": j,
                    "intersection_dim": cap.dim,
                    "witness_point": [qstr(x) for x in cap.relint_point()],
                }
    return None


def pl_max(n, affines):
    """The pointwise maximum of affine functions as a PLFunction.

    affines is a list of (lin, const) pairs; linearity regions that are not
    full-dimensional are absorbed by their neighbors.
    """
    affines = [([qof(a) for a in lin], qof(c)) for lin, c in affines]
    cells = {}
    for k, (lin_k, c_k) in enumerate(affines):
        ineqs = []
        for j, (lin_j, c_j) in enumerate(affines):
            if j == k:
                continue
            ineqs.append(([a - b for a, b in zip(lin_j, lin_k)], c_k - c_j))
        region = polyhedron(n, ineqs)
        if region is not None and region.dim == n:
            cells[region] = (lin_k, c_k)
    return PLFunction(Complex(list(cells)), cells)


def span(self) -> Lattice:
    """Integral lattice of directions along the affine hull."""
    if self._span is None:
        if self.eq_rows:
            # the canonical equalities are an integer RREF with every
            # pivot among the first n columns
            rows = [r[:-1] for r in self.eq_rows]
            self._span = _rref_kernel(
                rows, [next(j for j, x in enumerate(r) if x) for r in rows], self.n)
        else:
            self._span = _identity_lattice(self.n)
    return self._span


def base_point(self):
    """Canonical point: the lexicographically smallest vertex.

    Cells without vertices are first cut down by zeroing the lineality
    coordinates of the canonical complement decomposition; the cut is
    pointed and translates bijectically to the lineality quotient.
    """
    if self._base is None:
        if self.dim == 0:
            red, pivots = _int_rref(self.eq_rows)
            self._base = tuple(Q(r[-1], r[p]) for r, p in zip(red, pivots))
        else:
            gens = self._generators
            lin = self.lineality if gens is None or gens[1] else None
            if lin is not None and lin.rank > 0:
                comp = complement_lattice(lin)
                minv = _unimodular_inverse(list(zip(*(comp.rows + lin.rows))))
                cut = polyhedron(
                    self.n, _pairs(self.ineq_rows),
                    eqs=_pairs(self.eq_rows)
                    + [(row, 0) for row in minv[comp.rank:]])
                self._base = tuple(cut.base_point)
            else:
                self._base = min(tuple(v) for v in self.vertices())
    return self._base


def chart(self) -> Chart:
    if self._chart is None:
        comp = complement_lattice(self.span)
        self._chart = Chart(self.n, self.base_point, self.span.rows, comp.rows)
    return self._chart


def product_polyhedron(p, q):
    """p x q inside R^{p.n + q.n}."""
    n1, n2 = p.n, q.n
    left, right = (0,) * n1, (0,) * n2
    ineqs = ([(r[:-1] + right, r[-1]) for r in p.ineq_rows]
             + [(left + r[:-1], r[-1]) for r in q.ineq_rows])
    eqs = ([(r[:-1] + right, r[-1]) for r in p.eq_rows]
           + [(left + r[:-1], r[-1]) for r in q.eq_rows])
    return polyhedron(n1 + n2, ineqs, eqs=eqs)


def polyhedron_hash(self):
    return hash(self.key)


def sort_key(self):
    return (self.n, len(self.eq_rows), self.eq_rows, self.ineq_rows)
