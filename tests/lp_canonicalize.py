"""The LP-based canonicalizer that deltaforms used before double description.

Kept verbatim as the reference oracle for the property tests: it finds
implicit equalities with one exact simplex LP per inequality row and drops
redundant rows with one more LP per row.  Not collected by pytest.
"""

from fractions import Fraction

from deltaforms.linalg import clear_denominators, vec_dot
from deltaforms.scalars import Q, qof
from eps_oracle import lp_extremum, lp_feasible
from linalg_oracle import rref


def _row_reduce_mod_eqs(a, b, eq_rows):
    """Eliminate equality-pivot coordinates from an inequality row."""
    a = list(a)
    b = b
    for erow in eq_rows:
        ea, eb = erow[:-1], erow[-1]
        p = next(j for j, x in enumerate(ea) if x != 0)
        if a[p] != 0:
            f = Fraction(a[p], ea[p])
            a = [x - f * y for x, y in zip(a, ea)]
            b = b - f * eb
    return a, b


def lp_canonicalize(n, ineqs, eqs):
    """Canonical (eq_rows, ineq_rows) as integer tuples, or None if empty.

    Row layout: each row is (a_1, ..., a_n, b) for a.x <= b resp. a.x = b.
    """
    rows = [[qof(x) for x in a] for a, _ in ineqs]
    rhs = [qof(b) for _, b in ineqs]
    eqlist = [([qof(x) for x in e], qof(f)) for e, f in eqs]
    feas = lp_feasible([r[:] for r in rows], rhs[:], eqs=[(e[:], f) for e, f in eqlist])
    if feas.status == "infeasible":
        return None

    # find the rows that hold with equality on the whole set
    m = len(rows)
    nonimplicit = set()

    def absorb(pt):
        for j in range(m):
            if j not in nonimplicit and vec_dot(rows[j], pt) < rhs[j]:
                nonimplicit.add(j)

    if feas.witness is not None:
        absorb(feas.witness)
    implicit = []
    for i in range(m):
        if i in nonimplicit:
            continue
        lo = lp_extremum(rows[i], [r[:] for r in rows], rhs[:], "min",
                         eqs=[(e[:], f) for e, f in eqlist])
        if lo.status == "optimal" and lo.value == rhs[i]:
            implicit.append(i)
        else:
            nonimplicit.add(i)
            if lo.status == "optimal":
                absorb(lo.witness)

    eq_aug = [list(e) + [f] for e, f in eqlist]
    eq_aug += [rows[i] + [rhs[i]] for i in implicit]
    eq_red, pivots = rref(eq_aug)
    if any(p == n for p in pivots):
        raise AssertionError("inconsistent equalities on a feasible set")
    eq_rows = [tuple(clear_denominators(r)) for r in eq_red]

    seen = {}
    for i in range(m):
        if i in implicit:
            continue
        a, b = _row_reduce_mod_eqs(rows[i], rhs[i], eq_rows)
        if all(x == 0 for x in a):
            continue
        prim = clear_denominators(a + [b])
        key = tuple(prim[:-1])
        if key not in seen or prim[-1] < seen[key]:
            seen[key] = prim[-1]
    cand = sorted((list(a) + [b]) for a, b in seen.items())

    # irredundancy: drop rows implied by the others, in deterministic order
    kept = [True] * len(cand)
    eqs_for_lp = [([Q(x) for x in r[:-1]], Q(r[-1])) for r in eq_rows]
    for i in range(len(cand)):
        others_rows = [[Q(x) for x in cand[j][:-1]] for j in range(len(cand))
                       if j != i and kept[j]]
        others_rhs = [Q(cand[j][-1]) for j in range(len(cand)) if j != i and kept[j]]
        hi = lp_extremum([Q(x) for x in cand[i][:-1]], others_rows, others_rhs,
                         "max", eqs=eqs_for_lp)
        if hi.status == "optimal" and hi.value <= cand[i][-1]:
            kept[i] = False
    ineq_rows = tuple(tuple(r) for r, k in zip(cand, kept) if k)
    return tuple(eq_rows), ineq_rows
