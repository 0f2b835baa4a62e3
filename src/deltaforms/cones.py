"""Polyhedral cones in exact integer arithmetic.

double_description enumerates the generators of a cone {y : h.y <= 0 for
every row h} by the incremental double description method with lineality
(Fukuda & Prodon, *Double description method revisited*, 1996).  All vectors
stay primitive integer vectors, so no rational arithmetic is involved: the
polyhedron rows that the cones come from are integers already.  The bit
masks of the rows tight on each ray also decide facets and whole face
lattices (polyhedra._facet_rows).
"""

from __future__ import annotations

from .linalg import _ivec_primitive as _primitive


def int_dot(u, v):
    return sum(x * y for x, y in zip(u, v))


def double_description(rows, dim):
    """Generators of the cone {y in Q^dim : h.y <= 0 for every row h}.

    Incremental double description with lineality (Fukuda & Prodon 1996) on
    primitive integer vectors.  Returns (lines, rays, zeros): a basis of the
    lineality space, one vector per extreme ray of the cone modulo it, and per
    ray a bit mask of the rows that vanish on it.  Lines vanish on every row.
    Adjacency is decided combinatorially: two rays span a 2-face exactly when
    no third ray vanishes on every row that both vanish on.
    """
    lines = [[int(i == j) for j in range(dim)] for i in range(dim)]
    rays = []
    zeros = []
    for k, h in enumerate(rows):
        bit = 1 << k
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
                zeros[i] |= bit
            rays.append(l0)
            zeros.append(bit - 1)
            continue
        vals = [int_dot(h, r) for r in rays]
        pos = [i for i, v in enumerate(vals) if v > 0]
        neg = [i for i, v in enumerate(vals) if v < 0]
        if not pos:
            zeros = [z | bit if v == 0 else z for z, v in zip(zeros, vals)]
            continue
        need = dim - len(lines) - 2
        new_rays = []
        new_zeros = []
        for i in pos:
            for j in neg:
                common = zeros[i] & zeros[j]
                if bin(common).count("1") < need:
                    continue
                if any(zeros[q] & common == common for q in range(len(rays))
                       if q != i and q != j):
                    continue
                new_rays.append(_primitive([vals[i] * y - vals[j] * x
                                            for x, y in zip(rays[i], rays[j])]))
                new_zeros.append(common | bit)
        keep = [i for i, v in enumerate(vals) if v <= 0]
        rays = [rays[i] for i in keep] + new_rays
        zeros = [zeros[i] | bit if vals[i] == 0 else zeros[i] for i in keep] + new_zeros
    return lines, rays, zeros
