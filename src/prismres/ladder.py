"""Closed-form reduction of ladder networks onto their four corner vertices.

An n-rung ladder (two parallel paths of n vertices joined by n unit rungs,
every edge 1 ohm) seen from its four corners is electrically a complete graph
on those corners with three edge classes: the two end rungs, the two rails
(side edges), and the two diagonals.  This module computes that reduction in
closed form over Q(sqrt 3), and every public value is a Fraction, certified
rational by Qsqrt3.as_rational().
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction

from .exact import TWO_MINUS_SQRT3, Qsqrt3, _over, _split_one_plus_x_pow

_HEAD = Qsqrt3(-1, -1)
_TWO_SQRT3 = Qsqrt3(0, 2)
# the sign of x^n in the denominator of each branch
_BRANCH_SIGNS = {"rung_diag": -1, "side_rung": 1}
_HALF_ROOT = Qsqrt3("1/2", "1/2")  # (1 + sqrt3)/2


def _branch_parts(n: int, name: str) -> tuple[Qsqrt3, int, Qsqrt3, Qsqrt3]:
    """(A, c, tau, x^-j) with ladder_branch(n, name) = A/(c tau), unchecked, n >= 0.

    With 1 + s x^n = x^j c tau from _split_one_plus_x_pow and
    x^-j = u_j + a_j sqrt3, A = (-1 - sqrt3) c tau + 2 sqrt3 x^-j is an
    integral element of about 0.95 n bits, and c an int.  n = 0 is the
    limit of no rungs: side_rung gives -1, rung_diag has c = 0.
    """
    w, c, tau = _split_one_plus_x_pow(n, _BRANCH_SIGNS[name])
    return _HEAD * c * tau + _TWO_SQRT3 * w, c, tau, w


def ladder_branch(n: int, name: str) -> Fraction:
    """One pairwise parallel combination of the reduced corner edges, n >= 1.

    name "rung_diag" gives par(rung, diag) and "side_rung" par(side, rung),
    where par(x, y) = xy/(x+y), for the ladder of n rungs; the third one,
    par(side, diag), is always the integer n - 1.  These are the quantities
    with clean closed forms; the individual edges are recovered from them
    by ladder_delta_edges.  With x = 2 - sqrt3,

        rung_diag = -1 - sqrt3 + 2 sqrt3 / (1 - x^n)
        side_rung = -1 - sqrt3 + 2 sqrt3 / (1 + x^n)

    Each is A/(c tau) over one power of x at half the exponent
    (_branch_parts), divided out with no inversion or gcd, so a caller that
    needs one entry does not pay for the other.  The value is rational, and
    is returned as a Fraction.
    """
    if n < 1:
        raise ValueError(f"ladder must have at least one rung, got n={n}")
    if name not in _BRANCH_SIGNS:
        raise ValueError(f"branch must be one of {tuple(_BRANCH_SIGNS)}, got {name!r}")
    return _over(*_branch_parts(n, name)[:3]).as_rational()


def _conductance(n: int, name: str) -> Qsqrt3:
    """1/ladder_branch(n, name) for n >= 2, as ladder_delta_edges derives it."""
    s = _BRANCH_SIGNS[name]
    _, c_n, t_n = _split_one_plus_x_pow(n, s)
    _, c, t = _split_one_plus_x_pow(n - 1, -s)
    if n % 2 == 0:
        t_n = t_n * TWO_MINUS_SQRT3
    return _over(c_n * t_n * _HALF_ROOT, c, t)


def ladder_terminal_resistances(n: int) -> tuple[Fraction, Fraction, Fraction]:
    """Corner-to-corner resistances of the n-rung ladder.

    Returns (across an end rung, along a rail, across a diagonal); each is
    half the sum of the two pairwise parallel combinations (ladder_branch)
    that share the edge.

        >>> ladder_terminal_resistances(3)
        (Fraction(11, 15), Fraction(4, 3), Fraction(7, 5))
    """
    rung_diag, side_rung = ladder_branch(n, "rung_diag"), ladder_branch(n, "side_rung")
    return ((rung_diag + side_rung) / 2, (side_rung + n - 1) / 2, (rung_diag + n - 1) / 2)


class DeltaEdges(namedtuple("DeltaEdges", "n side rung diag")):
    """Conductances of the three corner-edge classes of a reduced ladder of n rungs.

    side joins the two corners on one rail, rung the two corners of one end
    rung, diag a corner to the opposite one, each a Fraction.  Conductances,
    not resistances: the diagonal of the 2-rung ladder is an open circuit
    (diag == 0), which has no finite resistance but a perfectly good
    conductance.
    """

    __slots__ = ()


def ladder_delta_edges(n: int) -> DeltaEdges:
    """Corner-edge conductances of the n-rung ladder, n >= 2.

    Inverts the three pairwise-parallel relations of ladder_branch, with
    side_diag = n - 1:
    1/rung = (1/rung_diag + 1/side_rung - 1/side_diag) / 2 and cyclically.
    The branch conductances need no inversion: since
    (1 + sqrt3) x = sqrt3 - 1, with x = 2 - sqrt3,

        1/rung_diag = (1 - x^n) (1 + sqrt3)/2 / (1 + x^(n-1))
        1/side_rung = (1 + x^n) (1 + sqrt3)/2 / (1 - x^(n-1)),

    and with 1 +- x^k = x^(k//2) c tau (_split_one_plus_x_pow) each is
    c_n tau_n x^e (1 + sqrt3)/2 / (c_(n-1) tau_(n-1)), e = n//2 - (n-1)//2,
    an integral element over an int of about 0.95 n bits each (_conductance).
    Their sum and difference are rational and leave the field as Fractions.
    n = 1 has only two distinct corners, so there is no four-corner reduction.
    """
    if n < 2:
        raise ValueError(f"four distinct corners require n >= 2, got n={n}")
    rd, sr = _conductance(n, "rung_diag"), _conductance(n, "side_rung")
    # rd + sr and sr - rd over one denominator: five big products, not ten
    p, q, r, s = rd._p * sr._d, rd._q * sr._d, sr._p * rd._d, sr._q * rd._d
    d = rd._d * sr._d
    both = Qsqrt3._of(p + r, q + s, d).as_rational()
    gap = Qsqrt3._of(r - p, s - q, d).as_rational()
    inv_sd = Fraction(1, n - 1)
    return DeltaEdges(n=n, side=(gap + inv_sd) / 2, rung=(both - inv_sd) / 2,
                      diag=(inv_sd - gap) / 2)
