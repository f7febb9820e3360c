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

from .exact import Qsqrt3, _over, _split_one_plus_x_pow

_HEAD = Qsqrt3(-1, -1)
_TWO_SQRT3 = Qsqrt3(0, 2)
# the sign of x^n in the denominator of each branch
_BRANCH_SIGNS = {"rung_diag": -1, "side_rung": 1}


def _branch_parts(n: int, name: str) -> tuple[Qsqrt3, int, Qsqrt3]:
    """(A, c, tau) with ladder_branch(n, name) = A/(c tau), unchecked, n >= 1.

    With 1 + s x^n = x^j c tau from _split_one_plus_x_pow,
    A = (-1 - sqrt3) c tau + 2 sqrt3 x^-j is an integral element of about
    0.95 n bits, and c a positive int, so _over divides A by c tau with no
    inversion or gcd.
    """
    w, c, tau = _split_one_plus_x_pow(n, _BRANCH_SIGNS[name])
    return _HEAD * c * tau + _TWO_SQRT3 * w, c, tau


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
    return _over(*_branch_parts(n, name)).as_rational()


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

    Inverts the three pairwise-parallel relations of ladder_branch in Q,
    with side_diag = n - 1: the branch conductances are rd = 1/rung_diag,
    sr = 1/side_rung and sd = 1/side_diag, and

        side = (sr + sd - rd)/2,  rung = (rd + sr - sd)/2,  diag = (rd + sd - sr)/2.

    rd + sr and sr - rd are each formed once.  n = 1 has only two distinct
    corners, so there is no four-corner reduction.

        >>> ladder_delta_edges(3)
        DeltaEdges(n=3, side=Fraction(3, 8), rung=Fraction(9, 8), diag=Fraction(1, 8))
    """
    if n < 2:
        raise ValueError(f"four distinct corners require n >= 2, got n={n}")
    rd, sr = 1 / ladder_branch(n, "rung_diag"), 1 / ladder_branch(n, "side_rung")
    both, gap = rd + sr, sr - rd
    sd = Fraction(1, n - 1)
    return DeltaEdges(n=n, side=(gap + sd) / 2, rung=(both - sd) / 2, diag=(sd - gap) / 2)
