"""Closed-form ladder reductions against the network oracle."""

import math
from fractions import Fraction

import pytest

from prismres.exact import SQRT3
from prismres.ladder import (
    ladder_branch,
    ladder_delta_edges,
    ladder_terminal_resistances,
)
from prismres.network import resistance_oracle


def _branches(n):
    return ladder_branch(n, "rung_diag"), ladder_branch(n, "side_rung")


def test_params_small_values():
    # side_diag is n - 1: 0, 1 and 2 here
    assert _branches(1) == (2, 0)
    assert _branches(2) == (1, Fraction(1, 2))
    assert _branches(3) == (Fraction(4, 5), Fraction(2, 3))


def test_params_are_rational_with_integer_side_diag():
    for n in range(1, 51):
        rung_diag, side_rung = _branches(n)
        assert type(rung_diag) is Fraction and type(side_rung) is Fraction


def test_params_bracket_their_common_limit():
    # rung_diag decreases and side_rung increases, both toward sqrt(3) - 1;
    # the gap shrinks like (2 - sqrt(3))**n, below binary64 ulp past n ~ 28
    limit = SQRT3 - 1.0
    for n in range(1, 26):
        hi = float(ladder_branch(n, "rung_diag"))
        lo = float(ladder_branch(n, "side_rung"))
        assert lo < limit < hi
        assert float(ladder_branch(n + 1, "rung_diag")) < hi
        assert float(ladder_branch(n + 1, "side_rung")) > lo
    for n in range(26, 61):
        assert math.isclose(float(ladder_branch(n, "rung_diag")), limit, rel_tol=1e-14)
        assert math.isclose(float(ladder_branch(n, "side_rung")), limit, rel_tol=1e-14)


def test_params_match_oracle_differences(ladders):
    # the three params are signed half-sums of corner resistances
    for n in range(1, 13):
        net = ladders(n)
        r_rung = resistance_oracle(net, f"p{n}", f"q{n}")
        r_side = resistance_oracle(net, f"p{n}", "p1")
        r_diag = resistance_oracle(net, f"p{n}", "q1")
        rung_diag, side_rung = _branches(n)
        assert rung_diag == r_rung + r_diag - r_side
        assert side_rung == r_rung + r_side - r_diag
        assert n - 1 == r_side + r_diag - r_rung


def test_branches_stay_rational_at_large_n():
    limit = SQRT3 - 1.0
    for n in (257, 1000, 4097):
        for name in ("rung_diag", "side_rung"):
            value = ladder_branch(n, name)
            assert type(value) is Fraction and math.isclose(float(value), limit), (n, name)


def test_branch_validates():
    with pytest.raises(ValueError):
        ladder_branch(5, "side_diag")
    with pytest.raises(ValueError):
        ladder_branch(0, "rung_diag")


def test_terminal_resistances_known_values():
    assert ladder_terminal_resistances(3) == (Fraction(11, 15), Fraction(4, 3), Fraction(7, 5))
    assert ladder_terminal_resistances(1) == (Fraction(1), Fraction(0), Fraction(1))


def test_terminal_resistances_match_oracle(ladders):
    for n in range(1, 13):
        net = ladders(n)
        rung, side, diag = ladder_terminal_resistances(n)
        assert rung == resistance_oracle(net, f"p{n}", f"q{n}")
        assert side == resistance_oracle(net, f"p{n}", "p1")
        assert diag == resistance_oracle(net, f"p{n}", "q1")


def test_ladder_corner_symmetry(ladders):
    # both rails and both ends look the same from the corners
    net = ladders(7)
    assert resistance_oracle(net, "p7", "p1") == resistance_oracle(net, "q7", "q1")
    assert resistance_oracle(net, "p1", "q1") == resistance_oracle(net, "p7", "q7")
    assert resistance_oracle(net, "p1", "q7") == resistance_oracle(net, "p7", "q1")


def test_delta_edges_small_values():
    d2 = ladder_delta_edges(2)
    assert (d2.side, d2.rung, d2.diag) == (1, 1, 0)
    d3 = ladder_delta_edges(3)
    assert d3.side == Fraction(3, 8)
    assert d3.rung == Fraction(9, 8)
    assert d3.diag == Fraction(1, 8)


def test_delta_edges_reassemble_params():
    # conductances recombine into the pairwise parallel values; these three
    # relations fix the three conductances uniquely
    for n in [*range(2, 301), 1999, 2000, 2001]:
        rung_diag, side_rung = _branches(n)
        d = ladder_delta_edges(n)
        assert rung_diag * (d.rung + d.diag) == 1
        assert side_rung * (d.side + d.rung) == 1
        assert (n - 1) * (d.side + d.diag) == 1


def test_delta_edges_are_physical():
    for n in range(2, 41):
        d = ladder_delta_edges(n)
        assert float(d.side) > 0
        assert float(d.rung) > 0
        assert float(d.diag) >= 0
        assert (d.diag == 0) == (n == 2)


def test_single_rung_has_no_four_corner_reduction():
    with pytest.raises(ValueError):
        ladder_delta_edges(1)
    with pytest.raises(ValueError):
        ladder_branch(0, "side_rung")


def test_params_float_agrees_with_direct_formula():
    for n in (1, 2, 5, 20, 45):
        xn = (2.0 - SQRT3) ** n
        assert math.isclose(float(ladder_branch(n, "rung_diag")),
                            -1.0 - SQRT3 + 2.0 * SQRT3 / (1.0 - xn),
                            rel_tol=1e-12, abs_tol=1e-12)
        assert math.isclose(float(ladder_branch(n, "side_rung")),
                            -1.0 - SQRT3 + 2.0 * SQRT3 / (1.0 + xn),
                            rel_tol=1e-12, abs_tol=1e-12)
