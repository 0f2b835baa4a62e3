"""Exact scalars: arbitrary-precision rationals.

Rationals are fractions.Fraction throughout; no floats and no tolerances.
Infinitesimal displacements are decided over Q as well, by treating the
displacement as one more coordinate and reading the verdicts off the
implicit rows of the lifted polyhedron (see intersection._stable_pairs and
polyhedra.implicit_rows).  Integer vectors are the other exact scalars:
polyhedron rows are cleared of denominators once, on entry, and stay
integers through canonicalization, and the double description in cones runs
on primitive integer vectors only.
"""

from __future__ import annotations

from fractions import Fraction

Q = Fraction

QZERO = Q(0)
QONE = Q(1)


def qof(x) -> Fraction:
    """Coerce ints, Fractions and 'p/q' strings to Fraction."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Q(x)
    if isinstance(x, str):
        return Q(x.strip())
    raise TypeError(f"not a rational: {x!r}")


def qstr(x) -> str:
    """Serialize a rational as 'p/q' with q > 0."""
    x = qof(x)
    return f"{x.numerator}/{x.denominator}"
