"""Field arithmetic in Q(sqrt 3) and the rational helpers."""

import math
import random
from fractions import Fraction

import pytest

from prismres.exact import (
    Qsqrt3,
    TWO_MINUS_SQRT3,
    TWO_PLUS_SQRT3,
    rational_to_float,
    to_rational,
    two_minus_sqrt3_pow,
)


def test_structural_equality_and_hash():
    assert Qsqrt3(2, -1) == TWO_MINUS_SQRT3
    assert Qsqrt3(1, 0) == 1
    assert Qsqrt3(Fraction(1, 2)) == Fraction(1, 2)
    assert Qsqrt3(0, 1) != Qsqrt3(1, 0)
    assert hash(Qsqrt3(5)) == hash(5)
    assert len({Qsqrt3(1, 2), Qsqrt3(1, 2), Qsqrt3(2, 1)}) == 2


def test_unit_product():
    assert TWO_MINUS_SQRT3 * TWO_PLUS_SQRT3 == 1
    assert TWO_MINUS_SQRT3.norm() == 1
    assert TWO_MINUS_SQRT3.inverse() == TWO_PLUS_SQRT3
    assert TWO_MINUS_SQRT3.conjugate() == TWO_PLUS_SQRT3


def test_mixed_scalar_arithmetic():
    assert 0 + Qsqrt3(Fraction(5, 12)) == Qsqrt3(Fraction(5, 12))
    assert Fraction(1, 2) * Qsqrt3(0, 2) == Qsqrt3(0, 1)
    assert 1 - TWO_MINUS_SQRT3 == Qsqrt3(-1, 1)
    assert 6 / Qsqrt3(0, 1) == Qsqrt3(0, 2)
    assert Qsqrt3(1, 1) + Fraction(1, 3) == Qsqrt3(Fraction(4, 3), 1)


def test_cube_of_the_decay_base():
    x = TWO_MINUS_SQRT3
    assert x * x * x == Qsqrt3(26, -15)
    assert x ** 3 == Qsqrt3(26, -15)


def test_pow_special_cases():
    assert two_minus_sqrt3_pow(0) == 1
    assert two_minus_sqrt3_pow(1) == TWO_MINUS_SQRT3
    assert two_minus_sqrt3_pow(-1) == TWO_PLUS_SQRT3
    assert two_minus_sqrt3_pow(3) == Qsqrt3(26, -15)
    x = Qsqrt3(Fraction(1, 2), Fraction(-3, 7))  # neither a unit nor integral
    power = Qsqrt3(1)
    for k in range(12):
        assert x ** k == power and x ** -k == power.inverse(), k
        power = power * x


def test_pow_additivity_randomized():
    rng = random.Random(20260813)
    for _ in range(25):
        m = rng.randrange(-200, 201)
        k = rng.randrange(-200, 201)
        assert two_minus_sqrt3_pow(m + k) == two_minus_sqrt3_pow(m) * two_minus_sqrt3_pow(k)


def test_field_axioms_randomized():
    rng = random.Random(7)

    def draw():
        return Qsqrt3(Fraction(rng.randrange(-9, 10), rng.randrange(1, 8)),
                      Fraction(rng.randrange(-9, 10), rng.randrange(1, 8)))

    for _ in range(60):
        x, y, z = draw(), draw(), draw()
        assert (x + y) * z == x * z + y * z
        assert x * (y * z) == (x * y) * z
        assert x - y == -(y - x)
        assert x.norm() == (x * x.conjugate()).as_rational()
        if x != Qsqrt3(0):
            assert x * x.inverse() == 1
            assert x.inverse() == 1 / x
            assert x.norm() != 0


def test_components_stay_canonical():
    q = Qsqrt3(Fraction(2, 4), Fraction(6, 8)) + Qsqrt3(Fraction(1, 2), Fraction(1, 4))
    assert q.a == 1 and q.a.denominator == 1
    assert q.b == 1


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        Qsqrt3(0).inverse()
    with pytest.raises(ZeroDivisionError):
        Qsqrt3(1) / Qsqrt3(0)


def test_rationality_gate():
    assert Qsqrt3(Fraction(5, 12)).is_rational
    assert Qsqrt3(Fraction(5, 12)).as_rational() == Fraction(5, 12)
    assert not TWO_MINUS_SQRT3.is_rational
    with pytest.raises(ValueError):
        TWO_MINUS_SQRT3.as_rational()


def test_float_conversion():
    assert float(Qsqrt3(1)) == 1.0
    assert float(Qsqrt3(Fraction(3, 5))) == 0.6
    assert abs(float(TWO_MINUS_SQRT3) - 0.2679491924311227) <= 1e-12
    assert float(Qsqrt3(Fraction(10 ** 400))) == math.inf
    assert float(Qsqrt3(Fraction(-10 ** 400))) == -math.inf


def test_str_forms():
    assert str(Qsqrt3(Fraction(5, 12))) == "5/12"
    assert str(Qsqrt3(0, Fraction(-1, 2))) == "-1/2*sqrt3"
    assert str(Qsqrt3(2, -1)) == "2 - 1*sqrt3"
    assert str(Qsqrt3(0)) == "0"
    assert str(Qsqrt3(0, Fraction(1, 3))) == "1/3*sqrt3"


def test_to_rational():
    assert to_rational("5/12") == Fraction(5, 12)
    assert to_rational(7) == 7
    with pytest.raises(TypeError):
        to_rational(0.5)


def test_rational_to_float_saturates():
    big = Fraction(10) ** 400
    assert rational_to_float(big) == math.inf
    assert rational_to_float(-big) == -math.inf
    assert rational_to_float(1 / big) == 0.0
    assert rational_to_float(Fraction(3, 4)) == 0.75
