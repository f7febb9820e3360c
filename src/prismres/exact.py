"""The field Q(sqrt 3), exactly.

Every closed form in this package lives in Q(sqrt 3).  The field route
computes the provably rational quantities here, and each leaves as a
Fraction through Qsqrt3.as_rational(), the one check that its sqrt(3) part
cancelled; there is no float() of an element.  The route is the independent
check of the integer kernel (genfib.gfib) that the served closed forms use.
A field element is held as three ints (p + q sqrt3)/d, not two Fractions, and
Qsqrt3 is only a ring: it adds, subtracts, multiplies and raises to powers
>= 0, and its arithmetic takes no gcd, so the triple grows along a long chain
of operations; Qsqrt3(z.a, z.b) rebuilds z reduced.  The field route's one
recurring denominator, 1 +- (2 - sqrt3)^n, is never inverted in the field:
_split_one_plus_x_pow factors it as a power of the unit at half the exponent
times an integer and a fixed surd, and _over divides by such a product with
no gcd.
"""

from __future__ import annotations

import math
from fractions import Fraction

SQRT3 = math.sqrt(3.0)


class Qsqrt3:
    """An element (p + q*sqrt(3))/d of the quadratic field Q(sqrt 3).

    p, q and d are ints with d > 0, and the triple need not be in lowest
    terms: sums, differences, products and powers are plain integer
    arithmetic with no gcd.  Integer elements, such as the powers of the
    unit 2 - sqrt3, keep d = 1.  The components a = p/d and b = q/d are
    lowest-terms Fractions; because sqrt(3) is irrational they are unique,
    so equality (by cross-multiplying) and hashing are componentwise.  Only
    .a, .b, norm(), hash and as_rational reduce, through Fraction; the
    triple itself is never reduced, so it grows along a long chain, and
    Qsqrt3(z.a, z.b) rebuilds z in lowest terms.  There is no float(): a
    value leaves the field through as_rational(), which raises ValueError
    unless the sqrt(3) component is zero.  Instances are immutable by
    convention; arithmetic returns new objects.

    Mixed arithmetic with int and Fraction works on either side:

        >>> (Qsqrt3(2, -1) * Qsqrt3(2, 1)).as_rational()
        Fraction(1, 1)

    There is no division, inverse or negative power; the reciprocal of a
    nonzero z is its conjugate over its rational norm:

        >>> z = Qsqrt3(1, 1)
        >>> w = z.conjugate() * (1 / z.norm())
        >>> w, z * w == 1
        (Qsqrt3(-1/2, 1/2), True)
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

    # -- ring structure ------------------------------------------------

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

    def __pow__(self, exponent: int) -> "Qsqrt3":
        if not isinstance(exponent, int):
            return NotImplemented
        if exponent < 0:
            raise ValueError(f"negative exponent {exponent}: Qsqrt3 does not divide")
        # from the top bit down, so no squaring is left over after the last bit
        result = Qsqrt3._of(1, 0, 1)
        for bit in bin(exponent)[2:]:
            result = result * result
            if bit == "1":
                result = result * self
        return result

    def conjugate(self) -> "Qsqrt3":
        """The Galois conjugate a - b*sqrt(3)."""
        return Qsqrt3._of(self._p, -self._q, self._d)

    def norm(self) -> Fraction:
        """Field norm a^2 - 3 b^2; zero only for the zero element."""
        return Fraction(self._p * self._p - 3 * self._q * self._q, self._d * self._d)

    # -- conversions ----------------------------------------------------

    @property
    def is_rational(self) -> bool:
        return self._q == 0

    def as_rational(self) -> Fraction:
        """The value as an exact rational; raises if the sqrt(3) part is nonzero."""
        if self._q != 0:
            raise ValueError(f"{self} has a nonzero sqrt(3) component")
        return self.a


TWO_MINUS_SQRT3 = Qsqrt3(2, -1)
TWO_PLUS_SQRT3 = Qsqrt3(2, 1)


def two_minus_sqrt3_pow(exponent: int) -> Qsqrt3:
    """(2 - sqrt3)^exponent, exactly.

    2 - sqrt3 is a unit (norm 1), so a negative exponent raises the constant
    2 + sqrt3 instead, with no inversion; either way every step is an
    integer product with d = 1 and no gcd, and the components grow linearly
    in digit count.
    """
    if exponent < 0:
        return TWO_PLUS_SQRT3 ** -exponent
    return TWO_MINUS_SQRT3 ** exponent


# the fixed surd tau of 1 + s x^n = x^j c tau, by (n % 2, s)
_SURDS = {(0, 1): Qsqrt3._of(1, 0, 1), (0, -1): Qsqrt3._of(0, 1, 1),
          (1, 1): Qsqrt3._of(3, -1, 1), (1, -1): Qsqrt3._of(-1, 1, 1)}


def _split_one_plus_x_pow(n: int, s: int) -> tuple[Qsqrt3, int, Qsqrt3]:
    """(x^-j, c, tau) with 1 + s x^n = x^j c tau, x = 2 - sqrt3, j = n // 2 and s = +-1.

    Write 1 + s x^n = x^j (x^-j + s x^(n-j)).  With x^-j = u_j + a_j sqrt3,
    its conjugate is x^j = u_j - a_j sqrt3, and x^-(j+1) = (2 + sqrt3) x^-j
    gives u_(j+1) = 2 u_j + 3 a_j and a_(j+1) = u_j + 2 a_j.  So for n = 2j
    the bracket is 2 u_j (s = 1) or 2 a_j sqrt3 (s = -1), and for
    n = 2j + 1, where x^(n-j) = x^(j+1), it is (u_j + a_j)(3 - sqrt3) (s = 1)
    or (u_j + 3 a_j)(sqrt3 - 1) (s = -1): an integer c times the fixed surd
    tau = 1, sqrt3, 3 - sqrt3 or sqrt3 - 1, from the one power x^-j at half
    the exponent, which is returned too, so _over(*_split_one_plus_x_pow(n, s))
    is 1/(1 + s x^n), with no gcd.  c > 0 for n >= 1.
    """
    j, odd = divmod(n, 2)
    w = two_minus_sqrt3_pow(-j)
    u, a = w._p, w._q
    if odd:
        c = u + a if s > 0 else u + 3 * a
    else:
        c = 2 * u if s > 0 else 2 * a
    return w, c, _SURDS[odd, s]


def _over(z: Qsqrt3, c: int, tau: Qsqrt3) -> Qsqrt3:
    """z/(c tau) for an int c > 0 and an integral tau != 0, with no inversion or gcd.

    1/tau = conj(tau)/norm(tau), with the sign of the norm moved to the
    numerator; the result is left unreduced.
    """
    p, q = tau._p, tau._q
    norm = p * p - 3 * q * q
    if norm < 0:
        norm, p, q = -norm, -p, -q
    return z * Qsqrt3._of(p, -q, c * norm)

