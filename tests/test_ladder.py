"""Closed-form ladder reductions against the network oracle."""

import math
from fractions import Fraction

import pytest

from prismres.exact import Qsqrt3, SQRT3
from prismres.ladder import (
    ladder_branch,
    ladder_delta_edges,
    ladder_params,
    ladder_terminal_resistances,
)
from prismres.network import resistance_oracle


def test_params_small_values():
    p1 = ladder_params(1)
    assert (p1.rung_diag, p1.side_rung, p1.side_diag) == (Qsqrt3(2), Qsqrt3(0), Qsqrt3(0))
    p2 = ladder_params(2)
    assert (p2.rung_diag, p2.side_rung, p2.side_diag) == \
        (Qsqrt3(1), Qsqrt3(Fraction(1, 2)), Qsqrt3(1))
    p3 = ladder_params(3)
    assert (p3.rung_diag, p3.side_rung, p3.side_diag) == \
        (Qsqrt3(Fraction(4, 5)), Qsqrt3(Fraction(2, 3)), Qsqrt3(2))


def test_params_are_rational_with_integer_side_diag():
    for n in range(1, 51):
        p = ladder_params(n)
        assert p.rung_diag.is_rational and p.side_rung.is_rational
        assert p.side_diag == n - 1


def test_params_bracket_their_common_limit():
    # rung_diag decreases and side_rung increases, both toward sqrt(3) - 1;
    # the gap shrinks like (2 - sqrt(3))**n, below binary64 ulp past n ~ 28
    limit = SQRT3 - 1.0
    for n in range(1, 26):
        hi = float(ladder_params(n).rung_diag)
        lo = float(ladder_params(n).side_rung)
        assert lo < limit < hi
        assert float(ladder_params(n + 1).rung_diag) < hi
        assert float(ladder_params(n + 1).side_rung) > lo
    for n in range(26, 61):
        assert math.isclose(float(ladder_params(n).rung_diag), limit, rel_tol=1e-14)
        assert math.isclose(float(ladder_params(n).side_rung), limit, rel_tol=1e-14)


def test_params_match_oracle_differences(ladders):
    # the three params are signed half-sums of corner resistances
    for n in range(1, 13):
        net = ladders(n)
        r_rung = resistance_oracle(net, f"p{n}", f"q{n}")
        r_side = resistance_oracle(net, f"p{n}", "p1")
        r_diag = resistance_oracle(net, f"p{n}", "q1")
        p = ladder_params(n)
        assert p.rung_diag == r_rung + r_diag - r_side
        assert p.side_rung == r_rung + r_side - r_diag
        assert p.side_diag == r_side + r_diag - r_rung


def test_branches_stay_rational_at_large_n():
    limit = SQRT3 - 1.0
    for n in (257, 1000, 4097):
        for name in ("rung_diag", "side_rung"):
            value = ladder_branch(n, name)
            assert value.is_rational and math.isclose(float(value), limit), (n, name)


def test_branch_validates():
    with pytest.raises(ValueError):
        ladder_branch(5, "side_diag")
    with pytest.raises(ValueError):
        ladder_branch(0, "rung_diag")


def test_terminal_resistances_known_values():
    assert tuple(q.as_rational() for q in ladder_terminal_resistances(3)) == \
        (Fraction(11, 15), Fraction(4, 3), Fraction(7, 5))
    assert tuple(q.as_rational() for q in ladder_terminal_resistances(1)) == \
        (Fraction(1), Fraction(0), Fraction(1))


def test_terminal_resistances_match_oracle(ladders):
    for n in range(1, 13):
        net = ladders(n)
        rung, side, diag = ladder_terminal_resistances(n)
        assert rung.as_rational() == resistance_oracle(net, f"p{n}", f"q{n}")
        assert side.as_rational() == resistance_oracle(net, f"p{n}", "p1")
        assert diag.as_rational() == resistance_oracle(net, f"p{n}", "q1")


def test_ladder_corner_symmetry(ladders):
    # both rails and both ends look the same from the corners
    net = ladders(7)
    assert resistance_oracle(net, "p7", "p1") == resistance_oracle(net, "q7", "q1")
    assert resistance_oracle(net, "p1", "q1") == resistance_oracle(net, "p7", "q7")
    assert resistance_oracle(net, "p1", "q7") == resistance_oracle(net, "p7", "q1")


def test_delta_edges_small_values():
    d2 = ladder_delta_edges(2)
    assert (d2.side, d2.rung, d2.diag) == (Qsqrt3(1), Qsqrt3(1), Qsqrt3(0))
    d3 = ladder_delta_edges(3)
    assert d3.side.as_rational() == Fraction(3, 8)
    assert d3.rung.as_rational() == Fraction(9, 8)
    assert d3.diag.as_rational() == Fraction(1, 8)


def test_delta_edges_reassemble_params():
    # conductances recombine into the pairwise parallel values
    for n in range(2, 41):
        p = ladder_params(n)
        d = ladder_delta_edges(n)
        assert p.rung_diag.inverse() == d.rung + d.diag
        assert p.side_rung.inverse() == d.side + d.rung
        assert p.side_diag.inverse() == d.side + d.diag


def test_delta_edges_are_physical():
    for n in range(2, 41):
        d = ladder_delta_edges(n)
        assert float(d.side) > 0
        assert float(d.rung) > 0
        assert float(d.diag) >= 0
        assert (d.diag == Qsqrt3(0)) == (n == 2)


def test_single_rung_has_no_four_corner_reduction():
    with pytest.raises(ValueError):
        ladder_delta_edges(1)
    with pytest.raises(ValueError):
        ladder_params(0)


def test_params_float_agrees_with_direct_formula():
    for n in (1, 2, 5, 20, 45):
        xn = (2.0 - SQRT3) ** n
        assert math.isclose(float(ladder_params(n).rung_diag),
                            -1.0 - SQRT3 + 2.0 * SQRT3 / (1.0 - xn),
                            rel_tol=1e-12, abs_tol=1e-12)
        assert math.isclose(float(ladder_params(n).side_rung),
                            -1.0 - SQRT3 + 2.0 * SQRT3 / (1.0 + xn),
                            rel_tol=1e-12, abs_tol=1e-12)
