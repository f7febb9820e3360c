"""Closed-form resistance distance, Kirchhoff index, and spectrum of prisms.

The n-prism has two vertex classes of pair: same ring (p1, p_i) and cross
ring (p1, q_i); by its symmetries every pair reduces to one of those, with
i - 1 the ring distance of the pair, so 1 <= i <= n // 2 + 1.  The exact
values are computed over the integers from
(2 + sqrt3)^k = u_k + a_k sqrt3, with a_k = gfib(k) and u_k = a_{k+1} - 2 a_k,
at half the exponent, so no sequence term past k + 1 = n // 2 + 1 is needed.
The Kirchhoff index and the trigonometric sum share the ratio a_n/(u_n - 1),
u_k/(3 a_k) for n = 2k and (a_{k+1} - a_k)/(a_{k+1} + a_k) for n = 2k + 1,
coprime by the unit norm u_k^2 - 3 a_k^2 = 1.  A resistance is a ratio of
terms of Lehmer's sequence and its companion (_lehmer), whose common factor
is known in advance.  So every exact value is put in lowest terms by gcds
with 6n alone (_lowest_terms), with no gcd on big ints.  The field route
(prism_resistance_base, prism_resistance_via_reduction, prism_pair_sum)
computes the same values in Q(sqrt 3), with no inversion in the field, and
certifies them rational; it is kept as the independent check of the integer
one and is exact only.  The float
resistances that prism_resistance and resistance_table serve come from one
binary64 evaluation of the base form, _float_base.
"""

from __future__ import annotations

import math
import re
import reprlib
from collections import namedtuple
from fractions import Fraction

from .exact import SQRT3, Qsqrt3, _over, _split_one_plus_x_pow, two_minus_sqrt3_pow
from .genfib import _check_n, gfib
from .ladder import ladder_branch

KINDS = ("pp", "pq")
MODES = ("exact", "float")

_VERTEX_RE = re.compile(r"([pq])([1-9][0-9]*)")


class PrismVertex(namedtuple("PrismVertex", "ring pos")):
    """A prism vertex address: ring 'p' or 'q', 1-based position on the ring."""

    __slots__ = ()

    def __new__(cls, ring: str, pos: int) -> "PrismVertex":
        if ring not in ("p", "q"):
            raise ValueError(f"ring must be 'p' or 'q', got {ring!r}")
        if pos < 1:
            raise ValueError(f"position must be a positive integer, got {pos}")
        return super().__new__(cls, ring, pos)

    @classmethod
    def parse(cls, label: str) -> "PrismVertex":
        m = _VERTEX_RE.fullmatch(label)
        if m is None:
            raise ValueError(f"bad vertex label {reprlib.repr(label)}; expected e.g. 'p3' or 'q12'")
        try:
            pos = int(m.group(2))
        except ValueError:  # more digits than sys.get_int_max_str_digits() allows
            raise ValueError(f"bad vertex label {reprlib.repr(label)}; "
                             f"its position has too many digits") from None
        return cls(m.group(1), pos)

    @property
    def label(self) -> str:
        return f"{self.ring}{self.pos}"


def _check_args(n: int, i: int, kind: str) -> None:
    _check_n(n)
    if not 1 <= i <= n:
        raise ValueError(f"pair offset must satisfy 1 <= i <= n, got i={i} with n={n}")
    if kind not in KINDS:
        raise ValueError(f"kind must be one of {KINDS}, got {kind!r}")


def prism_resistance_base(n: int, i: int, kind: str) -> Fraction:
    """Exact r(p1, p_i) for kind "pp" or r(p1, q_i) for kind "pq", on the n-prism.

    With x = 2 - sqrt3, m = n - i + 1 and l = i - 1,

        r = m l/(2n) + (1 + x^n -/+ (x^m + x^l)) / (2 sqrt3 (1 - x^n)),

    minus for "pp", plus for "pq".  It is evaluated in Q(sqrt 3) from powers
    of x alone, so it never calls the integer kernel it checks, with
    x^n = x^m x^l since m + l = n and 1/(2 sqrt3) = sqrt3/6; 1/(1 - x^n)
    is x^-j/(c tau) from _split_one_plus_x_pow, divided by _over with no gcd.
    The sqrt(3) component is certified to cancel and the result is a
    Fraction.
    """
    _check_args(n, i, kind)
    m, l = n - i + 1, i - 1
    xm, xl = two_minus_sqrt3_pow(m), two_minus_sqrt3_pow(l)
    xn = xm * xl
    tail = xm + xl
    if kind == "pp":
        tail = -tail
    field = (1 + xn + tail) * _over(*_split_one_plus_x_pow(n, -1)) * Qsqrt3(0, Fraction(1, 6))
    return (field + Fraction(m * l, 2 * n)).as_rational()


def _float_base(n: int, i: int, kind: str) -> float:
    """prism_resistance_base's form in binary64: the served float values.

    prism_resistance and resistance_table return these for mode "float", and
    they are not correctly rounded.  The arguments are assumed valid.
    """
    m, l = n - i + 1, i - 1
    x = 2.0 - SQRT3
    xm, xl, xn = x ** m, x ** l, x ** n
    tail = xm + xl
    if kind == "pp":
        tail = -tail
    return (1 + xn + tail) / (2 * SQRT3 * (1 - xn)) + m * l / (2 * n)


def _unit(k: int) -> tuple[int, int]:
    """(u_k, a_k) with (2 + sqrt3)^k = u_k + a_k sqrt3, from two sequence terms."""
    a = gfib(k)
    return gfib(k + 1) - 2 * a, a


def _ratio(n: int, u: int, a: int) -> tuple[int, int]:
    """a_n/(u_n - 1) in lowest terms as (top, den), from (u, a) = (u_k, a_k), k = n // 2.

    n = 2k gives u_k/(3 a_k) and n = 2k + 1 gives (a_{k+1} - a_k)/(a_{k+1} + a_k),
    with a_{k+1} = u_k + 2 a_k; the unit norm u_k^2 - 3 a_k^2 = 1 makes both coprime.
    """
    if n % 2:
        return u + a, u + 3 * a
    return u, 3 * a


def _coprime_fraction(num: int, den: int) -> Fraction:
    """num/den for coprime num and den > 0, built with no gcd.

    Fraction's own slots are set directly, as Python 3.12's private
    Fraction._from_coprime_ints does.
    """
    value = object.__new__(Fraction)
    value._numerator, value._denominator = num, den
    return value


def _lowest_terms(num: int, den: int, m: int) -> Fraction:
    """num/den, den > 0, as a Fraction, given that every prime dividing both divides m > 0.

    Each pass divides out g = gcd(num, den, m), taken on the residues mod m
    in time linear in the size of num and den, until g = 1.  Then no prime
    divides both, for it would divide g, and the Fraction is built without a
    gcd of its own (_coprime_fraction).
    """
    while (g := math.gcd(num % m, den % m, m)) > 1:
        num, den = num // g, den // g
    return _coprime_fraction(num, den)


def _lehmer(j: int, u: int, a: int) -> tuple[int, int]:
    """(U_j, V_j) from (u, a) = (u_t, a_t), t = j // 2.

    With alpha, beta = (sqrt3 +- 1)/sqrt2, alpha beta = 1 and alpha^2 = 2 + sqrt3,
    U_j is Lehmer's (alpha^j - beta^j)/(alpha - beta), over alpha^2 - beta^2 for
    even j, and V_j its companion (alpha^j + beta^j)/(alpha + beta), or no divisor.
    """
    return (u + 3 * a, u + a) if j % 2 else (a, 2 * u)


def _exact_base(n: int, l: int, kind: str, unit) -> Fraction:
    """r(p1, p_(l+1)) ("pp") or r(p1, q_(l+1)) ("pq"), 0 <= l <= n // 2, in lowest terms.

    unit(t) = (u_t, a_t), t <= n // 2.  With m = n - l and x = beta^2, as
    x^n = x^m x^l and 1 -/+ x^j = beta^j (alpha^j -/+ beta^j), the base form is

        m l/(2n) + U_m U_l/(c U_n)   ("pp", c = 6 for n even and l odd, else 1)
        m l/(2n) + V_m V_l/(c U_n)   ("pq", c = 12 for n and l even, else 2).

    The factor at m comes from (2 + sqrt3)^(m//2) = (2 + sqrt3)^(n//2) (2 - sqrt3)^s,
    s = l//2 (+ 1 for n even, l odd), by two products.  For 2l > n//2 the product
    at m and l is c (V_n -/+ V_(m-l))/(12 for even n, else 2) instead, from the
    small power at n//2 - l, as (alpha^m -/+ beta^m)(alpha^l -/+ beta^l) is
    alpha^n + beta^n -/+ (alpha^(m-l) + beta^(m-l)).  Lowest terms: with
    g = gcd(n, l), F = U_g ("pp"), V_g ("pq", n/g even) or 1 divides U_n and
    the factor at l, and r = (m l den + 2n num)/(2n den), with num the product
    at m and l over F and den = c U_n/F.  A prime p that divides both terms and
    not 6n divides num and U_n/F.  In Z[alpha]: (i) gcd(U_i, U_j) = U_gcd(i,j)
    (D. H. Lehmer, Ann. Math. 1930) and gcd(U_d, U_hd/U_d) | h; (ii) U_2j = U_j V_j;
    (iii) U_j and V_j share no prime outside 6, as alpha^j -/+ beta^j sum to
    2 alpha^j.  "pp": p | U_m or U_l/U_g, and U_n, so U_g and U_n/U_g, so
    p | n/g.  "pq": p | V_j, j = m or l, so U_2j, and U_n, so U_gcd(2j,n).
    For odd n/g that is U_g | U_j, against (iii); else it is U_2g = U_g V_g,
    and p | V_g as U_g | U_j, so p | U_n/U_2g and p | n/(2g).  Either way
    p | n, so _lowest_terms with 6n reduces the value: no gcd sees a big int.
    """
    m, g, k, side = n - l, math.gcd(n, l), n // 2, kind == "pq"  # side indexes V
    uk, ak = unit(k)
    un, vn = _lehmer(n, uk, ak)
    c = (12 if n % 2 == l % 2 == 0 else 2) if side else (6 if n % 2 < l % 2 else 1)
    f = 1 if side and n // g % 2 else _lehmer(g, *unit(g // 2))[side]
    if 2 * l > k and g < l:  # at g = l the products need no big division for num
        vd = _lehmer(m - l, *unit(k - l))[1]
        num = c * (vn + vd if side else vn - vd) // (2 if n % 2 else 12) // f
    else:
        uh, ah = unit(l // 2)
        us, as_ = (2 * uh + 3 * ah, uh + 2 * ah) if n % 2 < l % 2 else (uh, ah)
        # (u, a) at m // 2 is us (uk, ak) - as_ (3 ak, uk), and _lehmer is linear in it
        am = us * _lehmer(m, uk, ak)[side] - as_ * _lehmer(m, 3 * ak, uk)[side]
        num = am * (_lehmer(l, uh, ah)[side] // f)
    den = c * (un // f)
    return _lowest_terms(m * l * den + 2 * n * num, 2 * n * den, 6 * n)


def _as_vertex(v: "PrismVertex | str") -> PrismVertex:
    return v if isinstance(v, PrismVertex) else PrismVertex.parse(v)


def prism_resistance(n: int, u: "PrismVertex | str", v: "PrismVertex | str",
                     mode: str = "exact"):
    """Effective resistance between any two vertices of the n-prism.

    Rotational and reflection symmetry reduce (u, v) to a base pair (p1, p_i)
    if they share a ring and (p1, q_i) if not, and the base form is invariant
    under i -> n + 2 - i.  So only the ring distance l of the two positions
    matters, 0 <= l <= n // 2, with i = l + 1: the order of u and v is
    irrelevant, and a vertex with itself is the i = 1 same-ring value, 0.
    Exact values come from _exact_base, in lowest terms with no gcd on big
    ints, from the powers (2 + sqrt3)^t at t = n // 2, g // 2 with
    g = gcd(n, l), and l // 2, or n // 2 - l for 2l > n // 2 and g < l; float
    ones from _float_base.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    u = _as_vertex(u)
    v = _as_vertex(v)
    _check_n(n)
    for w in (u, v):
        if w.pos > n:  # the label clipped by reprlib, without the quotes it adds
            raise ValueError(f"vertex {reprlib.repr(w.label)[1:-1]} "
                             f"does not exist on the {n}-prism")
    l = min((v.pos - u.pos) % n, (u.pos - v.pos) % n)
    kind = "pp" if u.ring == v.ring else "pq"
    if mode == "float":
        return _float_base(n, l + 1, kind)
    units = {0: (1, 0), 1: (2, 1), n // 2: _unit(n // 2)}  # any other t computed once
    return _exact_base(n, l, kind, lambda t: units.get(t) or units.setdefault(t, _unit(t)))


def prism_pair_sum(n: int, i: int) -> Fraction:
    """r(p1, p_i) + r(p1, q_i): the cross terms cancel, leaving one power of x.

    Exact closed form sqrt3/3 * (1 + x^n)/(1 - x^n) + (n-i+1)(i-1)/n with
    x = 2 - sqrt3, certified rational.  The ratio is 2/(1 - x^n) - 1, with
    1/(1 - x^n) from _split_one_plus_x_pow and _over, with no gcd.  The gate
    catches an error in 1/(1 - x^n) that is rational, but not one that is a
    rational multiple of sqrt3, which the factor sqrt3/3 turns rational; such
    a slip is caught only by checking the pair sum against the base form.
    """
    _check_args(n, i, "pp")
    core = Qsqrt3(0, Fraction(1, 3)) * (2 * _over(*_split_one_plus_x_pow(n, -1)) - 1)
    return (core + Fraction((n - i + 1) * (i - 1), n)).as_rational()


def prism_resistance_via_reduction(n: int, i: int, kind: str) -> Fraction:
    """Exact r(p1, p_i) or r(p1, q_i) by composing reduced ladder arcs, 2 <= i <= n.

    Cutting the prism at the two target rungs splits it into an arc of i - 1
    rungs and an arc of n - i + 1 rungs; each contributes one parallel branch
    between the targets.  The flat parts of the two branches are paths, which
    combine to flat/n, flat = (n - i + 1)(i - 1).  The field part of each is
    one ladder_branch, side_rung for same-ring targets and rung_diag for
    cross-ring ones: R_i = a/b of the i-rung ladder, and R_o = c/d = 2 + that
    of the o-rung ladder, o = n - i.  Each leaves the field as a certified
    Fraction, and the composition is plain rational arithmetic: with
    den = a d + b c, the parallel sum R_i R_o/(R_i + R_o) is a c/den, and

        r = (a c n + flat den) / (2 n den).

    At i = n the outer arc is a bare unit path for same-ring targets,
    R_o = 1, and an open circuit for cross-ring ones, R_o = 1/0, which leaves
    R_i.  Neither the arcs nor the sum touch the integer kernel.

        >>> prism_resistance_via_reduction(4, 3, "pq")
        Fraction(5, 6)
    """
    _check_args(n, i, kind)
    if i < 2:
        raise ValueError(f"the reduction route needs 2 <= i <= n, got i={i}")
    outer = n - i
    branch = "side_rung" if kind == "pp" else "rung_diag"
    r_in = ladder_branch(i, branch)
    if outer:
        r_out = 2 + ladder_branch(outer, branch)
        c, d = r_out.numerator, r_out.denominator
    else:  # a bare unit path, or an open circuit
        c, d = (1, 1) if kind == "pp" else (1, 0)
    a, b = r_in.numerator, r_in.denominator
    den = a * d + b * c
    return Fraction(a * c * n + (outer + 1) * (i - 1) * den, 2 * n * den)


# ---------------------------------------------------------------------------
# Kirchhoff index


def kirchhoff_closed(n: int) -> Fraction:
    """Exact Kirchhoff index of the n-prism: n(n^2-1)/6 + n^2 a_n/(u_n - 1).

    a is the sequence of genfib.gfib and u_n = a_{n+1} - 2 a_n; the paper's
    2 n^2 a_n^2/(a_2n - 2 a_n) is the same, because a_2n = 2 u_n a_n.  The
    ratio a_n/(u_n - 1) = top/den is taken in lowest terms from the terms at
    n // 2 (_ratio), so the value is one Fraction of about n bits,
    (n(n^2-1) den + 6 n^2 top)/(6 den).  A prime that divides both and not
    6n would divide den and then top, which are coprime; so _lowest_terms
    reduces it by gcds with 6n alone.  Values start 1, 11/3, 47/5, 58/3, ...
    """
    _check_n(n)
    top, den = _ratio(n, *_unit(n // 2))
    return _lowest_terms(n * (n * n - 1) * den + 6 * n * n * top, 6 * den, 6 * n)


KIRCHHOFF_ROUTES = ("closed", "coth", "spectral")


def kirchhoff_float(n: int, route: str = "closed") -> float:
    """Kirchhoff index in binary64 by one of three independent routes.

    closed:   n(n^2-1)/6 + n^2/sqrt3 * (2/(1 - x^n) - 1), x = 2 - sqrt3
    coth:     n(n^2-1)/6 - n^2/sqrt3 * coth(n/2 * ln x)
    spectral: 2n * sum of reciprocal nonzero Laplacian eigenvalues

    x^n underflows to zero for large n; closed and coth then both limit to
    n(n^2-1)/6 + n^2/sqrt3, which is the correct asymptotic.
    """
    _check_n(n)
    poly = n * (n * n - 1) / 6.0
    if route == "closed":
        xn = (2.0 - SQRT3) ** n
        return poly + n * n / SQRT3 * (2.0 / (1.0 - xn) - 1.0)
    if route == "coth":
        z = 0.5 * n * math.log(2.0 - SQRT3)
        return poly - n * n / SQRT3 / math.tanh(z)
    if route == "spectral":
        spec = prism_eigenvalues(n)
        return 2.0 * n * sum(1.0 / lam for lam in spec.nonzero)
    raise ValueError(f"route must be one of {KIRCHHOFF_ROUTES}, got {route!r}")


# ---------------------------------------------------------------------------
# spectrum


class PrismSpectrum(namedtuple("PrismSpectrum", "n values")):
    """The 2n Laplacian eigenvalues of the n-prism, ascending, as a tuple `values`.

    values[0] is the single exact zero; `nonzero` is everything after it.
    The analytic form is 2 - 2 cos(2 pi j / n) and 4 - 2 cos(2 pi j / n)
    for j = 0 .. n-1.
    """

    __slots__ = ()

    @property
    def nonzero(self) -> tuple[float, ...]:
        return self.values[1:]


def prism_eigenvalues(n: int) -> PrismSpectrum:
    """Analytic Laplacian spectrum of the n-prism (valid for n = 1 and 2 as well)."""
    _check_n(n)
    values = []
    for j in range(n):
        c = 2.0 * math.cos(2.0 * math.pi * j / n)
        values.append(2.0 - c)
        values.append(4.0 - c)
    values.sort()
    return PrismSpectrum(n=n, values=tuple(values))


# ---------------------------------------------------------------------------
# trigonometric identities


def trig_sum(n: int, route: str = "direct"):
    """sum_{k=0}^{n-1} 1 / (1 + 2 sin^2(k pi / n)), two ways.

    route "direct" sums it numerically (float); route "closed" returns the
    exact rational n a_n / (u_n - 1) = 2 n a_n^2 / (a_2n - 2 a_n), with the
    ratio top/den in lowest terms from the terms at n // 2 (_ratio), so
    n top/den reduces by gcd(n, den) alone (_lowest_terms).  Values:
    1, 4/3, 9/5, ...
    """
    _check_n(n)
    if route == "direct":
        return sum(1.0 / (1.0 + 2.0 * math.sin(k * math.pi / n) ** 2) for k in range(n))
    if route == "closed":
        top, den = _ratio(n, *_unit(n // 2))
        return _lowest_terms(n * top, den, n)
    raise ValueError(f"route must be 'direct' or 'closed', got {route!r}")


def csc2_sum_check(n: int, rel_tol: float = 1e-9) -> bool:
    """Check sum_{k=1}^{n-1} csc^2(k pi / n) == (n^2 - 1)/3 within rel_tol."""
    _check_n(n)
    total = sum(1.0 / math.sin(k * math.pi / n) ** 2 for k in range(1, n))
    expected = (n * n - 1) / 3.0
    if expected == 0.0:
        return total == 0.0
    return abs(total - expected) <= rel_tol * expected


# ---------------------------------------------------------------------------
# tables


def resistance_table(n: int, mode: str = "exact") -> list[list]:
    """Full 2n x 2n matrix of pairwise resistances, rows ordered p1..pn, q1..qn.

    Only the offsets i = 1 .. n // 2 + 1 of each kind are evaluated; the
    offsets past them mirror these, since the base form is invariant under
    i -> n + 2 - i.  Row p_a is row p1 with each half rotated right by a - 1;
    by the same fold r(q1, p_b) = r(p1, q_b), so row q_a is (pq, pp) rotated
    the same way.  In exact mode the powers (2 + sqrt3)^t that _exact_base
    reads are stepped up from t = 0 to n // 2, one multiplication by
    2 + sqrt3 each, and none is computed from scratch.
    """
    _check_n(n)
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    half = range(1, n // 2 + 2)
    if mode == "float":
        pp, pq = ([_float_base(n, i, kind) for i in half] for kind in KINDS)
    else:
        units = [(1, 0)]
        for _ in range(n // 2):
            u, a = units[-1]
            units.append((2 * u + 3 * a, u + 2 * a))
        pp, pq = ([_exact_base(n, i - 1, kind, units.__getitem__) for i in half] for kind in KINDS)
    pp += pp[n - len(pp):0:-1]
    pq += pq[n - len(pq):0:-1]
    rows = []
    for left, right in ((pp, pq), (pq, pp)):
        for a in range(n):
            k = (n - a) % n
            rows.append(left[k:] + left[:k] + right[k:] + right[:k])
    return rows
