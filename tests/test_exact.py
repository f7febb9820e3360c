"""Field arithmetic in Q(sqrt 3) and its conversions."""

import math
import random
from fractions import Fraction

import pytest

from prismres.exact import (
    Qsqrt3,
    TWO_MINUS_SQRT3,
    TWO_PLUS_SQRT3,
    _over,
    _split_one_plus_x_pow,
    two_minus_sqrt3_pow,
)
from prismres.ladder import _branch_parts, ladder_branch


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
    assert _recip(TWO_MINUS_SQRT3) == TWO_PLUS_SQRT3
    assert TWO_MINUS_SQRT3.conjugate() == TWO_PLUS_SQRT3


def test_mixed_scalar_arithmetic():
    assert 0 + Qsqrt3(Fraction(5, 12)) == Qsqrt3(Fraction(5, 12))
    assert Fraction(1, 2) * Qsqrt3(0, 2) == Qsqrt3(0, 1)
    assert 1 - TWO_MINUS_SQRT3 == Qsqrt3(-1, 1)
    assert Qsqrt3(0, 2) * Qsqrt3(0, 1) == 6
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
    recip = _recip(x)
    power = Qsqrt3(1)
    for k in range(12):
        assert x ** k == power and x ** k * recip ** k == 1, k
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
            w = _recip(x)
            assert x * w == 1 and (w.a, w.b) == _ref_inv((x.a, x.b))
            assert x.norm() != 0


def test_components_stay_canonical():
    q = Qsqrt3(Fraction(2, 4), Fraction(6, 8)) + Qsqrt3(Fraction(1, 2), Fraction(1, 4))
    assert q.a == 1 and q.a.denominator == 1
    assert q.b == 1


def test_division_by_zero():
    assert Qsqrt3(0).norm() == 0
    with pytest.raises(ZeroDivisionError):
        _recip(Qsqrt3(0))
    with pytest.raises(TypeError):
        Qsqrt3(1) / Qsqrt3(0)


def test_qsqrt3_is_a_ring_without_division():
    # dropping only the inversion from __pow__ would make x ** -k return x ** k
    x, y = Qsqrt3(Fraction(1, 2), Fraction(-3, 7)), Qsqrt3(2, 1)
    with pytest.raises(ValueError, match="negative exponent"):
        x ** -1
    for divide in (lambda: x / y, lambda: x / 2, lambda: 2 / x, lambda: x / Fraction(1, 2)):
        with pytest.raises(TypeError):
            divide()
    assert not hasattr(Qsqrt3, "inverse")
    with pytest.raises(TypeError):  # values leave the field through as_rational()
        float(Qsqrt3(1))
    for k in range(71):
        assert two_minus_sqrt3_pow(-k) * two_minus_sqrt3_pow(k) == 1, k


def test_rationality_gate():
    assert Qsqrt3(Fraction(5, 12)).is_rational
    assert Qsqrt3(Fraction(5, 12)).as_rational() == Fraction(5, 12)
    assert not TWO_MINUS_SQRT3.is_rational
    with pytest.raises(ValueError):
        TWO_MINUS_SQRT3.as_rational()


def test_str_forms():
    assert str(Qsqrt3(Fraction(5, 12))) == "5/12"
    assert str(Qsqrt3(0, Fraction(-1, 2))) == "-1/2*sqrt3"
    assert str(Qsqrt3(2, -1)) == "2 - 1*sqrt3"
    assert str(Qsqrt3(0)) == "0"
    assert str(Qsqrt3(0, Fraction(1, 3))) == "1/3*sqrt3"


def test_components_accept_strings_and_reject_floats():
    assert Qsqrt3("5/12") == Fraction(5, 12)
    assert Qsqrt3(7, "-1/2") == Qsqrt3(7, Fraction(-1, 2))
    for a, b in ((0.5, 0), (0, 0.5)):
        with pytest.raises(TypeError, match="refusing to coerce float"):
            Qsqrt3(a, b)


# -- the unreduced integer representation ---------------------------------
# A field element is held as (p + q sqrt3)/d, not in lowest terms; these
# tests pin that its public semantics are those of two lowest-terms Fractions.


def _ref_mul(x, y):
    return (x[0] * y[0] + 3 * x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def _ref_inv(x):
    norm = x[0] * x[0] - 3 * x[1] * x[1]
    return (x[0] / norm, -x[1] / norm)


def _ref_pow(x, k):
    out = (Fraction(1), Fraction(0))
    for _ in range(k):
        out = _ref_mul(out, x)
    return out


def _recip(z):
    """1/z for a nonzero z, as its conjugate over its rational norm."""
    return z.conjugate() * (1 / z.norm())


def _lowest(value: Fraction) -> bool:
    return value.denominator > 0 and math.gcd(value.numerator, value.denominator) == 1


def test_differential_against_a_fraction_pair_reference():
    rng = random.Random(20261019)

    def small():
        return Fraction(rng.randrange(-30, 31), rng.randrange(1, 13))

    pool = []
    for _ in range(8):
        a, b = small(), small()
        pool.append((Qsqrt3(a, b), (a, b)))
    for step in range(500):
        (x, rx), (y, ry) = rng.choice(pool), rng.choice(pool)
        if rng.random() < 0.25:  # a scalar operand on either side
            s = rng.choice([rng.randrange(-5, 6), small()])
            y, ry = s, (Fraction(s), Fraction(0))
            if rng.random() < 0.5:
                x, rx, y, ry = y, ry, x, rx
        op = rng.choice("+-*^")
        if op == "+":
            z, rz = x + y, (rx[0] + ry[0], rx[1] + ry[1])
        elif op == "-":
            z, rz = x - y, (rx[0] - ry[0], rx[1] - ry[1])
        elif op == "*":
            z, rz = x * y, _ref_mul(rx, ry)
        else:
            if not isinstance(x, Qsqrt3):
                continue
            k = rng.randrange(0, 4)
            z, rz = x ** k, _ref_pow(rx, k)
        assert (z.a, z.b) == rz, (step, op)
        assert _lowest(z.a) and _lowest(z.b), step
        assert z == Qsqrt3(*rz) and hash(z) == hash(Qsqrt3(*rz)), step
        assert z.is_rational == (rz[1] == 0), step
        # keep operands small: rz bounds the value, and the second test bounds
        # the unreduced triple, which no ring operation shrinks
        if (max(abs(c.numerator) + c.denominator for c in rz) < 2 ** 200
                and max(abs(z._p), abs(z._q), z._d) < 2 ** 40000):
            pool[rng.randrange(len(pool))] = (z, rz)


def test_equal_values_by_different_paths_compare_and_hash_equal():
    x = Qsqrt3(Fraction(3, 4), Fraction(-5, 6))
    for k in range(1, 9):
        one = x ** k * _recip(x) ** k
        assert one == 1 and one == Fraction(1) and one == Qsqrt3(1), k
        assert hash(one) == hash(1) == hash(Fraction(1)), k
        assert one.is_rational and one.as_rational() == 1, k
    u, v, w = Qsqrt3(Fraction(1, 6), 2), Qsqrt3(-3, Fraction(7, 10)), Qsqrt3(Fraction(9, 4), -1)
    roundabout = (u + v) * w * _recip(w)
    assert roundabout == u + v and hash(roundabout) == hash(u + v)
    assert len({roundabout, u + v, v + u}) == 1
    half = Qsqrt3(Fraction(2, 4)) * 6 * Fraction(1, 3)
    assert half == 1 and hash(half) == hash(1) and str(half) == "1"
    assert x + x.conjugate() == Fraction(3, 2) and (x + x.conjugate()).is_rational
    assert repr(roundabout) == repr(u + v)


def test_components_are_in_lowest_terms_after_long_chains():
    x, total = Qsqrt3(Fraction(2, 3), Fraction(1, 5)), Qsqrt3(0)
    for k in range(1, 40):
        total = total + Fraction(1, k) * x ** k - Qsqrt3(Fraction(1, k + 1), Fraction(k, 7))
    back = total
    for k in range(1, 40):
        back = back * (k + 1) * Fraction(1, k + 1) + Qsqrt3(Fraction(k, 3), -Fraction(1, k)) \
            - Qsqrt3(Fraction(k, 3), -Fraction(1, k))
    assert back == total and hash(back) == hash(total)
    for value in (total, back, total * _recip(total)):
        assert _lowest(value.a) and _lowest(value.b)
    assert total * _recip(total) == 1


def test_unit_powers_never_take_a_gcd(monkeypatch):
    want = {k: two_minus_sqrt3_pow(k) for k in range(-70, 71)}

    def refuse(*args):
        raise AssertionError("gcd taken")

    with monkeypatch.context() as m:
        m.setattr(math, "gcd", refuse)
        got = {k: two_minus_sqrt3_pow(k) for k in range(-70, 71)}
        same = all(got[k] == want[k] for k in got)
    assert same


def test_recip_one_plus_x_pow_is_the_inverse():
    for n in range(1, 401):
        for s in (1, -1):
            recip = _over(*_split_one_plus_x_pow(n, s))
            assert recip * (1 + s * two_minus_sqrt3_pow(n)) == 1, (n, s)


def test_recip_one_plus_x_pow_and_ladder_branches_never_take_a_gcd(monkeypatch):
    # a reciprocal through a Fraction norm reduces by one gcd, so it would trip this
    def refuse(*args):
        raise AssertionError("gcd taken")

    with monkeypatch.context() as m:
        m.setattr(math, "gcd", refuse)
        got = {(n, s): _over(*_split_one_plus_x_pow(n, s)) for n in range(1, 301) for s in (1, -1)}
        branches = {(n, name): _over(*_branch_parts(n, name))
                    for n in (1, 2, 3, 40, 301) for name in ("rung_diag", "side_rung")}
    assert all(got[n, s] * (1 + s * two_minus_sqrt3_pow(n)) == 1 for n, s in got)
    assert all(type(b) is Qsqrt3 and ladder_branch(*key) == b for key, b in branches.items())
