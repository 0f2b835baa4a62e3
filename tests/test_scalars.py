import random
from fractions import Fraction

import pytest

from deltaforms.scalars import Q, qof, qstr
from eps_oracle import EPS, EpsRational, eps_at


def test_qof_parsing():
    assert qof("3/4") == Fraction(3, 4)
    assert qof("-2") == Fraction(-2)
    assert qof(5) == Fraction(5)
    assert qof(Fraction(1, 3)) == Fraction(1, 3)


def test_qstr_always_fraction_form():
    assert qstr(Fraction(1, 2)) == "1/2"
    assert qstr(Fraction(3)) == "3/1"
    assert qstr(Fraction(-7, 2)) == "-7/2"
    assert qstr(Fraction(0)) == "0/1"


def test_eps_is_positive_infinitesimal():
    assert EPS > 0
    assert EPS < Fraction(1, 10**9)
    assert -EPS < 0
    assert EPS * EPS < EPS
    assert 1 + EPS > 1


def test_eps_arithmetic_round_trip():
    a = 2 + 3 * EPS
    b = 1 - EPS
    assert (a * b - b * a).is_zero()
    assert ((a / b) * b - a).is_zero()
    assert (a - a).is_zero()
    assert (a + b).rational_part() == 3


def test_rational_part_and_poles():
    x = (1 + EPS) / EPS
    with pytest.raises(ZeroDivisionError):
        x.rational_part()
    assert (EPS / EPS).rational_part() == 1
    assert ((EPS * EPS + EPS) / EPS).rational_part() == 1


def test_comparisons_respect_limit_order():
    # sign at eps -> 0+ ; ties broken by higher-order terms
    assert 2 * EPS > EPS
    assert EPS - EPS * EPS > 0
    assert (1 + EPS) > (1 + EPS * EPS)
    assert not (EPS < EPS)


def test_field_axioms_randomized():
    rng = random.Random(20240811)

    def rand_poly():
        return EpsRational(
            tuple(Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(rng.randint(1, 3)))
        )

    for _ in range(200):
        a, b, c = rand_poly(), rand_poly(), rand_poly()
        assert ((a + b) + c - (a + (b + c))).is_zero()
        assert ((a * b) * c - (a * (b * c))).is_zero()
        assert (a * (b + c) - (a * b + a * c)).is_zero()
        if not b.is_zero():
            q = a / b
            assert (q * b - a).is_zero()


def test_eps_powers_below_every_positive_rational():
    rng = random.Random(20240814)
    for _ in range(50):
        q = Fraction(rng.randint(1, 9), rng.randint(1, 9))
        k = rng.randint(1, 4)
        power = EpsRational.coerce(1)
        for _ in range(k):
            power = power * EPS
        assert 0 < power < q


def test_sign_of_quotient():
    assert (EPS / (1 - EPS)).sign() == 1
    assert ((-EPS) / (1 + EPS)).sign() == -1
    assert (EPS - EPS).sign() == 0


def test_eps_at_evaluates():
    x = (1 + 2 * EPS) / (1 - EPS)
    assert eps_at(x, Fraction(1, 2)) == Fraction(4)
    assert eps_at(EpsRational.coerce(7), Fraction(1, 3)) == 7


def test_serialize_polynomial_values():
    x = 1 + 2 * EPS
    assert x.serialize() == ["1/1", "2/1"]
    assert EpsRational.coerce(0).serialize() == ["0/1"]
    with pytest.raises(ValueError):
        (1 / EPS).serialize()


def test_hash_compatible_with_rationals():
    assert hash(EpsRational.coerce(Fraction(3, 2))) == hash(Fraction(3, 2))
    d = {EpsRational.coerce(2): "a"}
    assert d[EpsRational.coerce(2)] == "a"
