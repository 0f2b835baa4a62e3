"""Polyhedral cones in exact integer arithmetic.

double_description enumerates the generators of a cone {y : h.y <= 0 for
every row h} by the incremental double description method with lineality
(Fukuda & Prodon, *Double description method revisited*, 1996).  Its step,
cut, meets a cone given by its generators with one more half-space; the
step is shared, as intersection.wedge_diagonal cuts the cone over a pair of
factor cells by each wall with it and never builds a polyhedron for the
pair.  All vectors stay primitive integer vectors, so no rational
arithmetic is involved: the polyhedron rows that the cones come from are
integers already.  The bit masks of the rows tight on each ray also decide
facets and whole face lattices (polyhedra._facet_rows).
"""

from __future__ import annotations

from operator import mul

from .linalg import _ivec_primitive as _primitive


def int_dot(u, v):
    """The dot product u.v, summed in one builtin loop.

    map stops at the shorter argument, as zip does, so a full row (a, b)
    dotted with a point of n coordinates gives a.x over a's n entries.
    """
    return sum(map(mul, u, v))


def double_description(rows, dim):
    """Generators of the cone {y in Q^dim : h.y <= 0 for every row h}.

    Incremental double description with lineality (Fukuda & Prodon 1996) on
    primitive integer vectors: the whole space cut by one row at a time.
    Returns (lines, rays, zeros): a basis of the lineality space, one vector
    per extreme ray of the cone modulo it, and per ray a bit mask of the
    rows that vanish on it, bit k for row k.  Lines vanish on every row.
    """
    lines = [[int(i == j) for j in range(dim)] for i in range(dim)]
    return cut(rows, 1, lines, [], [], dim)


def cut(rows, bit, lines, rays, zeros, dim):
    """The cone met with h.y <= 0 for each h in rows, one step of the double
    description method per row.

    The cone is given by lines, rays and masks as double_description returns
    them, inside a linear space of dimension dim that the rows the masks
    count cut it out of.  Row k gets the mask bit bit << k, above every bit
    used so far.  Returns the new (lines, rays, zeros); the lists passed in
    may be changed.  After a row, the rays on h.y = 0 are those whose mask
    holds its bit.

    Adjacency is decided combinatorially: two rays span a 2-face exactly when
    no third ray vanishes on every row that both vanish on.  The rows that
    both vanish on have rank dim - len(lines) - 2 then, so fewer of them
    rule the pair out at once.  Both tests are exact only when the masks
    count every row that cuts the cone out of that space.  The walk to the
    diagonal (intersection.wedge_diagonal) cuts the cone over a product of
    cells with this step, one wall at a time.
    """
    for k, h in enumerate(rows):
        bit_k = bit << k
        vals = [int_dot(h, ln) for ln in lines]
        piv = next((i for i, v in enumerate(vals) if v), None)
        if piv is not None:
            # h cuts the lineality space: the pivot line becomes a ray into
            # h < 0, everything else is projected along it onto h = 0
            l0 = lines.pop(piv)
            c = vals.pop(piv)
            if c > 0:
                l0 = [-x for x in l0]
                c = -c
            lines = [_primitive([c * x - v * y for x, y in zip(ln, l0)])
                     if v else ln for ln, v in zip(lines, vals)]
            for i, r in enumerate(rays):
                v = int_dot(h, r)
                if v:
                    rays[i] = _primitive([v * y - c * x for x, y in zip(r, l0)])
                zeros[i] |= bit_k
            rays.append(l0)
            zeros.append(bit_k - 1)
            continue
        vals = [int_dot(h, r) for r in rays]
        pos = [i for i, v in enumerate(vals) if v > 0]
        neg = [i for i, v in enumerate(vals) if v < 0]
        if not pos:
            zeros = [z | bit_k if v == 0 else z for z, v in zip(zeros, vals)]
            continue
        need = dim - len(lines) - 2
        new_rays = []
        new_zeros = []
        for i in pos:
            for j in neg:
                common = zeros[i] & zeros[j]
                if common.bit_count() < need:
                    continue
                if any(zeros[q] & common == common for q in range(len(rays))
                       if q != i and q != j):
                    continue
                new_rays.append(_primitive([vals[i] * y - vals[j] * x
                                            for x, y in zip(rays[i], rays[j])]))
                new_zeros.append(common | bit_k)
        keep = [i for i, v in enumerate(vals) if v <= 0]
        rays = [rays[i] for i in keep] + new_rays
        zeros = [zeros[i] | bit_k if vals[i] == 0 else zeros[i] for i in keep] + new_zeros
    return lines, rays, zeros
