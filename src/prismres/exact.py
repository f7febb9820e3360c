"""The field Q(sqrt 3), exactly.

Every closed form in this package lives in Q(sqrt 3).  The field route
computes the provably rational quantities here and certifies them rational
before they escape, so no precision is lost; it is the independent check of
the integer kernel (genfib.gfib) that the served closed forms use.  A field
element is held as three ints (p + q sqrt3)/d, not two Fractions, so only an
inversion pays for a gcd.
"""

from __future__ import annotations

import math
from fractions import Fraction

SQRT3 = math.sqrt(3.0)


class Qsqrt3:
    """An element (p + q*sqrt(3))/d of the quadratic field Q(sqrt 3).

    p, q and d are ints with d > 0, and the triple need not be in lowest
    terms: sums, differences and products are plain integer arithmetic with
    no gcd, and only inverse() reduces, by one three-way gcd, which keeps the
    sizes bounded.  Integer elements, such as the powers of the unit
    2 - sqrt3, keep d = 1.  The components a = p/d and b = q/d are
    lowest-terms Fractions; because sqrt(3) is irrational they are unique,
    so equality (by cross-multiplying) and hashing are componentwise.
    Instances are immutable by convention; arithmetic returns new objects.

    Mixed arithmetic with int and Fraction works on either side:

        >>> (Qsqrt3(2, -1) * Qsqrt3(2, 1)).as_rational()
        Fraction(1, 1)
    """

    __slots__ = ("_p", "_q", "_d")

    def __init__(self, a: int | str | Fraction = 0, b: int | str | Fraction = 0):
        """The element a + b sqrt3 from ints, Fractions or strings such as "5/12".

        Floats are rejected: silently promoting a binary float to its exact
        binary-expansion rational is never what an exact computation wants.
        """
        for c in (a, b):
            if isinstance(c, float):
                raise TypeError(f"refusing to coerce float {c!r} to an exact rational")
        a, b = Fraction(a), Fraction(b)
        d = math.lcm(a.denominator, b.denominator)
        self._p = a.numerator * (d // a.denominator)
        self._q = b.numerator * (d // b.denominator)
        self._d = d

    @classmethod
    def _of(cls, p: int, q: int, d: int) -> "Qsqrt3":
        """The element (p + q sqrt3)/d from ints already in hand, d > 0, unreduced."""
        z = object.__new__(cls)
        z._p = p
        z._q = q
        z._d = d
        return z

    @property
    def a(self) -> Fraction:
        """The rational component, in lowest terms."""
        return Fraction(self._p, self._d)

    @property
    def b(self) -> Fraction:
        """The sqrt(3) component, in lowest terms."""
        return Fraction(self._q, self._d)

    # -- representation ------------------------------------------------

    def __repr__(self) -> str:
        return f"Qsqrt3({self.a}, {self.b})"

    def __str__(self) -> str:
        a, b = self.a, self.b
        if b == 0:
            return str(a)
        root = f"{abs(b)}*sqrt3"
        if a == 0:
            return root if b > 0 else "-" + root
        sign = "+" if b > 0 else "-"
        return f"{a} {sign} {root}"

    # -- field structure -----------------------------------------------

    @staticmethod
    def _coerce(other) -> "Qsqrt3 | None":
        if isinstance(other, Qsqrt3):
            return other
        if isinstance(other, int):
            return Qsqrt3._of(other, 0, 1)
        if isinstance(other, Fraction):
            return Qsqrt3._of(other.numerator, 0, other.denominator)
        return None

    def __eq__(self, other) -> bool:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._p * o._d == o._p * self._d and self._q * o._d == o._q * self._d

    def __hash__(self) -> int:
        if self._q == 0:
            return hash(self.a)
        return hash((self.a, self.b))

    def __bool__(self) -> bool:
        return bool(self._p) or bool(self._q)

    def __neg__(self) -> "Qsqrt3":
        return Qsqrt3._of(-self._p, -self._q, self._d)

    def __add__(self, other) -> "Qsqrt3":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        d, e = self._d, o._d
        if d == e:
            return Qsqrt3._of(self._p + o._p, self._q + o._q, d)
        return Qsqrt3._of(self._p * e + o._p * d, self._q * e + o._q * d, d * e)

    __radd__ = __add__

    def __sub__(self, other) -> "Qsqrt3":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + -o

    def __rsub__(self, other) -> "Qsqrt3":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + -self

    def __mul__(self, other) -> "Qsqrt3":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        p, q, r, s = self._p, self._q, o._p, o._q
        return Qsqrt3._of(p * r + 3 * q * s, p * s + q * r, self._d * o._d)

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
        result = Qsqrt3._of(1, 0, 1)
        for bit in bin(abs(exponent))[2:]:
            result = result * result
            if bit == "1":
                result = result * base
        return result

    def conjugate(self) -> "Qsqrt3":
        """The Galois conjugate a - b*sqrt(3)."""
        return Qsqrt3._of(self._p, -self._q, self._d)

    def norm(self) -> Fraction:
        """Field norm a^2 - 3 b^2; zero only for the zero element."""
        return Fraction(self._p * self._p - 3 * self._q * self._q, self._d * self._d)

    def inverse(self) -> "Qsqrt3":
        """Multiplicative inverse conjugate/norm, reduced by one three-way gcd.

        1/((p + q sqrt3)/d) = d (p - q sqrt3)/(p^2 - 3 q^2); an integral unit
        such as 2 - sqrt3 has norm 1 and so keeps d = 1.  A rational element
        is just d/p, and its gcd is taken on p and d, not on their squares.
        """
        p, q, d = self._p, self._q, self._d
        if q == 0 and p:
            g = math.gcd(p, d) if p > 0 else -math.gcd(p, d)
            return Qsqrt3._of(d // g, 0, p // g)
        norm = p * p - 3 * q * q
        if norm == 0:
            raise ZeroDivisionError("division by zero in Q(sqrt3)")
        if norm < 0:
            norm, d = -norm, -d
        p, q = d * p, -d * q
        g = math.gcd(p, q, norm)
        return Qsqrt3._of(p // g, q // g, norm // g)

    # -- conversions ----------------------------------------------------

    @property
    def is_rational(self) -> bool:
        return self._q == 0

    def as_rational(self) -> Fraction:
        """The value as an exact rational; raises if the sqrt(3) part is nonzero."""
        if self._q != 0:
            raise ValueError(f"{self} has a nonzero sqrt(3) component")
        return self.a

    def __float__(self) -> float:
        """The value in binary64 within 2 ulp, +-inf past its range, never nan.

        Where p and q share a sign, p + q sqrt3 is taken to 64 fraction bits
        by one isqrt and divided by d as ints.  Otherwise it is the norm
        p^2 - 3 q^2 over d (p - q sqrt3), whose two terms share a sign.  So
        nothing cancels, and the one int division rounds correctly.
        """
        p, q, d = self._p, self._q, self._d
        root = math.isqrt(3 * q * q << 128)
        if q < 0:
            root = -root
        if p * q >= 0:
            num, den = (p << 64) + root, d << 64
        else:
            num, den = (p * p - 3 * q * q) << 64, d * ((p << 64) - root)
        try:
            return num / den
        except OverflowError:
            return math.inf if (num > 0) == (den > 0) else -math.inf


TWO_MINUS_SQRT3 = Qsqrt3(2, -1)
TWO_PLUS_SQRT3 = Qsqrt3(2, 1)


def two_minus_sqrt3_pow(exponent: int) -> Qsqrt3:
    """(2 - sqrt3)^exponent, exactly.

    2 - sqrt3 is a unit (norm 1), so negative exponents are powers of its
    inverse 2 + sqrt3; either way every step is an integer product with
    d = 1 and no gcd, and the components grow linearly in digit count.
    """
    if exponent < 0:
        return TWO_PLUS_SQRT3 ** -exponent
    return TWO_MINUS_SQRT3 ** exponent
