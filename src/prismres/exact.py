"""Exact scalar arithmetic: arbitrary-precision rationals and the field Q(sqrt 3).

Every closed form in this package lives in Q(sqrt 3).  The field route
computes the provably rational quantities here and certifies them rational
before they escape, so no precision is lost; it is the independent check of
the integer kernel (genfib.gfib) that the served closed forms use.
"""

from __future__ import annotations

import math
from fractions import Fraction

SQRT3 = math.sqrt(3.0)

_ZERO = Fraction(0)


def to_rational(value: int | str | Fraction) -> Fraction:
    """Coerce an int, Fraction, or string like "5/12" to an exact rational.

    Floats are rejected: silently promoting a binary float to its exact
    binary-expansion rational is never what an exact computation wants.
    """
    if isinstance(value, float):
        raise TypeError(f"refusing to coerce float {value!r} to an exact rational")
    return Fraction(value)


def rational_to_float(value: Fraction) -> float:
    """Nearest binary64 to an exact rational, saturating to +-inf on overflow."""
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


class Qsqrt3:
    """An element a + b*sqrt(3) of the quadratic field Q(sqrt 3).

    Both components are Fractions.  Because sqrt(3) is irrational the
    representation is unique, so equality and hashing are componentwise.
    Instances are immutable by convention; arithmetic returns new objects.

    Mixed arithmetic with int and Fraction works on either side:

        >>> (Qsqrt3(2, -1) * Qsqrt3(2, 1)).as_rational()
        Fraction(1, 1)
    """

    __slots__ = ("a", "b")

    def __init__(self, a: int | Fraction = 0, b: int | Fraction = 0):
        self.a = to_rational(a)
        self.b = to_rational(b)

    @classmethod
    def _of(cls, a: Fraction, b: Fraction) -> "Qsqrt3":
        """An element from two Fractions already in hand, without coercing them again.

        The operators build every result this way: Fraction arithmetic on
        Fraction components (and small int literals) yields Fractions.
        """
        z = object.__new__(cls)
        z.a = a
        z.b = b
        return z

    # -- representation ------------------------------------------------

    def __repr__(self) -> str:
        return f"Qsqrt3({self.a}, {self.b})"

    def __str__(self) -> str:
        if self.b == 0:
            return str(self.a)
        root = f"{abs(self.b)}*sqrt3"
        if self.a == 0:
            return root if self.b > 0 else "-" + root
        sign = "+" if self.b > 0 else "-"
        return f"{self.a} {sign} {root}"

    # -- field structure -----------------------------------------------

    @staticmethod
    def _coerce(other) -> "Qsqrt3 | None":
        if isinstance(other, Qsqrt3):
            return other
        if isinstance(other, (int, Fraction)):
            return Qsqrt3._of(Fraction(other), _ZERO)
        return None

    def __eq__(self, other) -> bool:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.a == o.a and self.b == o.b

    def __hash__(self) -> int:
        if self.b == 0:
            return hash(self.a)
        return hash((self.a, self.b))

    def __bool__(self) -> bool:
        return bool(self.a) or bool(self.b)

    def __neg__(self) -> "Qsqrt3":
        return Qsqrt3._of(-self.a, -self.b)

    def __add__(self, other) -> "Qsqrt3":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return Qsqrt3._of(self.a + o.a, self.b + o.b)

    __radd__ = __add__

    def __sub__(self, other) -> "Qsqrt3":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return Qsqrt3._of(self.a - o.a, self.b - o.b)

    def __rsub__(self, other) -> "Qsqrt3":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other) -> "Qsqrt3":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return Qsqrt3._of(self.a * o.a + 3 * self.b * o.b, self.a * o.b + self.b * o.a)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Qsqrt3":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other) -> "Qsqrt3":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def __pow__(self, exponent: int) -> "Qsqrt3":
        if not isinstance(exponent, int):
            return NotImplemented
        base = self.inverse() if exponent < 0 else self
        # from the top bit down, so no squaring is left over after the last bit
        result = Qsqrt3(1)
        for bit in bin(abs(exponent))[2:]:
            result = result * result
            if bit == "1":
                result = result * base
        return result

    def conjugate(self) -> "Qsqrt3":
        """The Galois conjugate a - b*sqrt(3)."""
        return Qsqrt3._of(self.a, -self.b)

    def norm(self) -> Fraction:
        """Field norm a^2 - 3 b^2; zero only for the zero element."""
        return self.a * self.a - 3 * self.b * self.b

    def inverse(self) -> "Qsqrt3":
        """Multiplicative inverse conjugate/norm."""
        n = self.norm()
        if n == 0:
            raise ZeroDivisionError("division by zero in Q(sqrt3)")
        return Qsqrt3._of(self.a / n, -self.b / n)

    # -- conversions ----------------------------------------------------

    @property
    def is_rational(self) -> bool:
        return self.b == 0

    def as_rational(self) -> Fraction:
        """The value as an exact rational; raises if the sqrt(3) part is nonzero."""
        if self.b != 0:
            raise ValueError(f"{self} has a nonzero sqrt(3) component")
        return self.a

    def __float__(self) -> float:
        return rational_to_float(self.a) + rational_to_float(self.b) * SQRT3


TWO_MINUS_SQRT3 = Qsqrt3(2, -1)
TWO_PLUS_SQRT3 = Qsqrt3(2, 1)


def two_minus_sqrt3_pow(exponent: int) -> Qsqrt3:
    """(2 - sqrt3)^exponent, exactly.

    2 - sqrt3 is a unit (norm 1), so negative exponents just flip the sign
    of the sqrt(3) component; the components grow linearly in digit count.
    """
    return TWO_MINUS_SQRT3 ** exponent
