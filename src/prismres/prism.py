"""Closed-form resistance distance, Kirchhoff index, and spectrum of prisms.

The n-prism has two vertex classes of pair: same ring (p1, p_i) and cross
ring (p1, q_i); by its symmetries every pair reduces to one of those, with
i - 1 the ring distance of the pair, so 1 <= i <= n // 2 + 1.  The exact
values are computed over the integers from
(2 + sqrt3)^k = u_k + a_k sqrt3, with a_k = gfib(k) and u_k = a_{k+1} - 2 a_k,
at half the exponent: every form shares the ratio a_n/(u_n - 1), which is
u_k/(3 a_k) for n = 2k and (a_{k+1} - a_k)/(a_{k+1} + a_k) for n = 2k + 1, in
lowest terms by the unit norm u_k^2 - 3 a_k^2 = 1.  So no sequence term past
k + 1 = n // 2 + 1 is needed, and each value is one Fraction over a common
denominator of about n bits, reduced by one gcd.  The field route
(prism_resistance_base, prism_resistance_via_reduction, prism_pair_sum)
computes the same values in Q(sqrt 3) and certifies them rational; it is kept
as the independent check of the integer one and is exact only.  The float
resistances that prism_resistance and resistance_table serve come from one
binary64 evaluation of the base form, _float_base.
"""

from __future__ import annotations

import math
import re
from collections import namedtuple
from fractions import Fraction

from .exact import Qsqrt3, SQRT3, two_minus_sqrt3_pow
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
            raise ValueError(f"bad vertex label {label!r}; expected e.g. 'p3' or 'q12'")
        return cls(m.group(1), int(m.group(2)))

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
    x^n = x^m x^l since m + l = n; the sqrt(3) component is certified to
    cancel and the result is a Fraction.
    """
    _check_args(n, i, kind)
    m, l = n - i + 1, i - 1
    xm, xl = two_minus_sqrt3_pow(m), two_minus_sqrt3_pow(l)
    xn = xm * xl
    tail = xm + xl
    if kind == "pp":
        tail = -tail
    total = (1 + xn + tail) / (2 * Qsqrt3(0, 1) * (1 - xn)) + Fraction(m * l, 2 * n)
    if not total.is_rational:
        raise ArithmeticError(f"sqrt(3) component failed to cancel for n={n}, i={i}, {kind}")
    return total.as_rational()


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
    with a_{k+1} = u_k + 2 a_k; the unit norm u_k^2 - 3 a_k^2 = 1 makes both
    coprime.  For any exponent d, top(u_d, a_d) is the c_d of _exact_base.
    """
    if n % 2:
        return u + a, u + 3 * a
    return u, 3 * a


def _exact_base(n: int, i: int, kind: str, uk: int, ak: int, ud: int, ad: int) -> Fraction:
    """r(p1, p_i) or r(p1, q_i) over the integers, from k = n // 2 and d = k - i + 1.

    The offset is folded, 1 <= i <= k + 1, so 0 <= d <= k.  With (u_k, a_k)
    and (u_d, a_d) the integer parts of (2 + sqrt3)^k and (2 + sqrt3)^d, and
    c_k/den the ratio a_n/(u_n - 1) of _ratio,

        (n - i + 1)(i - 1)/(2n) + (c_k -/+ c_d)/(2 den),

    minus for "pp", plus for "pq", where c_d = u_d for even n and
    c_d = a_{d+1} - a_d = u_d + a_d for odd n.  This is
    prism_resistance_base's form with numerator and denominator multiplied by
    (2 + sqrt3)^(n/2).  The terms are put over the common denominator 2n den,
    of about n bits, so one gcd reduces the result.
    """
    top, den = _ratio(n, uk, ak)
    side = n * _ratio(n, ud, ad)[0]
    flat = (n - i + 1) * (i - 1) * den + n * top
    return Fraction(flat - side if kind == "pp" else flat + side, 2 * n * den)


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
    Exact values come from the integer form of _exact_base, with
    (2 + sqrt3)^d = (2 + sqrt3)^k (2 - sqrt3)^l, k = n // 2, taken from the
    smaller of the powers l and d = k - l; float ones from _float_base.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    u = _as_vertex(u)
    v = _as_vertex(v)
    _check_n(n)
    for w in (u, v):
        if w.pos > n:
            raise ValueError(f"vertex {w.label} does not exist on the {n}-prism")
    l = min((v.pos - u.pos) % n, (u.pos - v.pos) % n)
    kind = "pp" if u.ring == v.ring else "pq"
    if mode == "float":
        return _float_base(n, l + 1, kind)
    k = n // 2
    uk, ak = _unit(k)
    if 2 * l <= k:
        ul, al = _unit(l)
        ud, ad = uk * ul - 3 * ak * al, ak * ul - uk * al
    else:
        ud, ad = _unit(k - l)
    return _exact_base(n, l + 1, kind, uk, ak, ud, ad)


def prism_pair_sum(n: int, i: int) -> Fraction:
    """r(p1, p_i) + r(p1, q_i): the cross terms cancel, leaving one power of x.

    Exact closed form sqrt3/3 * (1 + x^n)/(1 - x^n) + (n-i+1)(i-1)/n with
    x = 2 - sqrt3, certified rational.
    """
    _check_args(n, i, "pp")
    xn = two_minus_sqrt3_pow(n)
    core = Qsqrt3(0, Fraction(1, 3)) * (1 + xn) / (1 - xn)
    total = core + Fraction((n - i + 1) * (i - 1), n)
    if not total.is_rational:
        raise ArithmeticError(f"sqrt(3) component failed to cancel for pair sum n={n}, i={i}")
    return total.as_rational()


def prism_resistance_via_reduction(n: int, i: int, kind: str) -> Fraction:
    """Exact r(p1, p_i) or r(p1, q_i) by composing reduced ladder arcs, 2 <= i <= n.

    Cutting the prism at the two target rungs splits it into an arc of i - 1
    rungs and an arc of n - i + 1 rungs; each contributes one parallel branch
    between the targets.  The flat parts of the two branches are paths, which
    combine to (n - i + 1)(i - 1)/n.  The field part of each is one
    ladder_branch, side_rung for same-ring targets and rung_diag for
    cross-ring ones: R_i of the i-rung ladder, and R_o = 2 + that of the
    (n - i)-rung ladder.  They combine as one parallel resistance
    R_o R_i/(R_o + R_i), one inversion in Q(sqrt 3).  At i = n the outer arc
    is a bare unit path for same-ring targets, R_o = 1, and an open circuit
    for cross-ring ones, which leaves R_i.  Neither the arcs nor the sum
    touch the integer kernel, and the sqrt(3) component is certified to
    cancel before the result is returned.
    """
    _check_args(n, i, kind)
    if i < 2:
        raise ValueError(f"the reduction route needs 2 <= i <= n, got i={i}")
    outer = n - i
    branch = "side_rung" if kind == "pp" else "rung_diag"
    r_inner = ladder_branch(i, branch)
    if outer:
        r_outer = 2 + ladder_branch(outer, branch)
        par_field = r_outer * r_inner / (r_outer + r_inner)
    elif kind == "pp":
        par_field = r_inner / (1 + r_inner)
    else:
        par_field = r_inner
    total = (par_field + Fraction((outer + 1) * (i - 1), n)) * Fraction(1, 2)
    if not total.is_rational:
        raise ArithmeticError(f"sqrt(3) component failed to cancel for n={n}, i={i}, {kind}")
    return total.as_rational()


# ---------------------------------------------------------------------------
# Kirchhoff index


def kirchhoff_closed(n: int) -> Fraction:
    """Exact Kirchhoff index of the n-prism: n(n^2-1)/6 + n^2 a_n/(u_n - 1).

    a is the sequence of genfib.gfib and u_n = a_{n+1} - 2 a_n; the paper's
    2 n^2 a_n^2/(a_2n - 2 a_n) is the same, because a_2n = 2 u_n a_n.  The
    ratio a_n/(u_n - 1) is taken in lowest terms from the terms at n // 2
    (_ratio), so the value is one Fraction of about n bits.  Values start
    1, 11/3, 47/5, 58/3, ...
    """
    _check_n(n)
    top, den = _ratio(n, *_unit(n // 2))
    return Fraction(n * (n * n - 1) * den + 6 * n * n * top, 6 * den)


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
    ratio in lowest terms from the terms at n // 2 (_ratio).  Values:
    1, 4/3, 9/5, ...
    """
    _check_n(n)
    if route == "direct":
        return sum(1.0 / (1.0 + 2.0 * math.sin(k * math.pi / n) ** 2) for k in range(n))
    if route == "closed":
        top, den = _ratio(n, *_unit(n // 2))
        return Fraction(n * top, den)
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
    the same way.  In exact mode the power (2 + sqrt3)^d of _exact_base,
    d = n // 2 - i + 1, is stepped down from d = n // 2 to 0, one
    multiplication by 2 - sqrt3 each, so only (2 + sqrt3)^(n // 2) is
    computed from scratch.
    """
    _check_n(n)
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    half = range(1, n // 2 + 2)
    if mode == "float":
        pp, pq = ([_float_base(n, i, kind) for i in half] for kind in KINDS)
    else:
        uk, ak = _unit(n // 2)
        ud, ad = uk, ak  # d = k at offset i = 1
        pp, pq = [], []
        for i in half:
            pp.append(_exact_base(n, i, "pp", uk, ak, ud, ad))
            pq.append(_exact_base(n, i, "pq", uk, ak, ud, ad))
            ud, ad = 2 * ud - 3 * ad, 2 * ad - ud
    pp += pp[n - len(pp):0:-1]
    pq += pq[n - len(pq):0:-1]
    rows = []
    for left, right in ((pp, pq), (pq, pp)):
        for a in range(n):
            k = (n - a) % n
            rows.append(left[k:] + left[:k] + right[k:] + right[:k])
    return rows
