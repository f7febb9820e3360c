"""Closed-form reduction of ladder networks onto their four corner vertices.

An n-rung ladder (two parallel paths of n vertices joined by n unit rungs,
every edge 1 ohm) seen from its four corners is electrically a complete graph
on those corners with three edge classes: the two end rungs, the two rails
(side edges), and the two diagonals.  This module computes that reduction in
closed form over Q(sqrt 3).
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction

from .exact import Qsqrt3, two_minus_sqrt3_pow

_HEAD = Qsqrt3(-1, -1)
_TWO_SQRT3 = Qsqrt3(0, 2)
# the sign of x^n in the denominator of each branch
_BRANCH_SIGNS = {"rung_diag": -1, "side_rung": 1}
_HALF = Fraction(1, 2)


class LadderParams(namedtuple("LadderParams", "n rung_diag side_rung side_diag")):
    """Pairwise parallel combinations of the reduced corner-edge resistances.

    rung_diag = par(rung, diag), side_rung = par(side, rung), and
    side_diag = par(side, diag), where par(x, y) = xy/(x+y), each a Qsqrt3
    for the ladder of n rungs.  These are the quantities with clean closed
    forms; the individual edges are recovered from them by
    ladder_delta_edges.  side_diag is always the integer n - 1.
    """

    __slots__ = ()


def ladder_branch(n: int, name: str) -> Qsqrt3:
    """One entry of ladder_params(n) alone: name "rung_diag" or "side_rung", n >= 1.

    With x = 2 - sqrt3,

        rung_diag = -1 - sqrt3 + 2 sqrt3 / (1 - x^n)
        side_rung = -1 - sqrt3 + 2 sqrt3 / (1 + x^n)

    Each costs one inversion in Q(sqrt 3), so a caller that needs one entry
    does not pay for the other.
    """
    if n < 1:
        raise ValueError(f"ladder must have at least one rung, got n={n}")
    if name not in _BRANCH_SIGNS:
        raise ValueError(f"branch must be one of {tuple(_BRANCH_SIGNS)}, got {name!r}")
    return _HEAD + _TWO_SQRT3 / (1 + _BRANCH_SIGNS[name] * two_minus_sqrt3_pow(n))


def ladder_params(n: int) -> LadderParams:
    """Closed-form reduction parameters of the n-rung ladder, n >= 1.

    rung_diag and side_rung are the two ladder_branch forms, and
    side_diag = n - 1.
    """
    return LadderParams(
        n=n,
        rung_diag=ladder_branch(n, "rung_diag"),
        side_rung=ladder_branch(n, "side_rung"),
        side_diag=Qsqrt3(n - 1),
    )


def ladder_terminal_resistances(n: int) -> tuple[Qsqrt3, Qsqrt3, Qsqrt3]:
    """Corner-to-corner resistances of the n-rung ladder.

    Returns (across an end rung, along a rail, across a diagonal); each is
    half the sum of the two LadderParams entries that share the edge.
    """
    p = ladder_params(n)
    return (
        (p.rung_diag + p.side_rung) * _HALF,
        (p.side_rung + p.side_diag) * _HALF,
        (p.rung_diag + p.side_diag) * _HALF,
    )


class DeltaEdges(namedtuple("DeltaEdges", "n side rung diag")):
    """Conductances of the three corner-edge classes of a reduced ladder of n rungs.

    side joins the two corners on one rail, rung the two corners of one end
    rung, diag a corner to the opposite one, each a Qsqrt3.  Conductances,
    not resistances: the diagonal of the 2-rung ladder is an open circuit
    (diag == 0), which has no finite resistance but a perfectly good
    conductance.
    """

    __slots__ = ()


def ladder_delta_edges(n: int) -> DeltaEdges:
    """Corner-edge conductances of the n-rung ladder, n >= 2.

    Inverts the three pairwise-parallel relations of ladder_params:
    1/rung = (1/rung_diag + 1/side_rung - 1/side_diag) / 2 and cyclically.
    n = 1 has only two distinct corners, so there is no four-corner reduction.
    """
    if n < 2:
        raise ValueError(f"four distinct corners require n >= 2, got n={n}")
    p = ladder_params(n)
    inv_rd = p.rung_diag.inverse()
    inv_sr = p.side_rung.inverse()
    inv_sd = p.side_diag.inverse()
    return DeltaEdges(
        n=n,
        side=(inv_sr + inv_sd - inv_rd) * _HALF,
        rung=(inv_rd + inv_sr - inv_sd) * _HALF,
        diag=(inv_rd + inv_sd - inv_sr) * _HALF,
    )
