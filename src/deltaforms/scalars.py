"""Exact scalars: arbitrary-precision rationals.

Rationals are fractions.Fraction throughout; no floats and no tolerances.
Infinitesimal displacements are decided over Q as well, by treating the
displacement as one more coordinate and reading the verdicts off the
implicit rows of the lifted polyhedron (see intersection._stable_pairs and
polyhedra.implicit_rows, which takes its integer rows).  Integer vectors
are the other exact scalars: polyhedron rows are cleared of denominators
once, at polyhedron(), the one door for rational rows, and stay integers
through canonicalization, and the double description in cones runs on
primitive integer vectors only.
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


# Integers of smaller magnitude have fewer digits than the interpreter's
# default limit on int -> str conversion (4300 digits).
_STR_BOUND = 10 ** 4000


def _decimal(m: int) -> str:
    """str(m), converted in pieces that stay below the int -> str limit.

    Outputs are bounded by the input caps of io (degree and digit count) but
    can still pass that limit: the integral of x^64 over an interval with
    1000-digit endpoints has about 65,000 digits.
    """
    if -_STR_BOUND < m < _STR_BOUND:
        return str(m)
    if m < 0:
        return "-" + _decimal(-m)
    half = m.bit_length() * 3 // 20  # about half of its decimal digits
    high, low = divmod(m, 10 ** half)
    return _decimal(high) + _decimal(low).zfill(half)


def qstr(x) -> str:
    """Serialize a rational as 'p/q' with q > 0."""
    x = qof(x)
    return f"{_decimal(x.numerator)}/{_decimal(x.denominator)}"
