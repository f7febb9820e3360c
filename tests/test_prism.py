"""Prism closed forms: resistances, Kirchhoff index, spectrum, trig identities."""

import math
import random
import sys
from fractions import Fraction

import numpy as np
import pytest

from prismres import prism as prism_module
from prismres.exact import Qsqrt3
from prismres.genfib import gfib, prism_spanning_tree_count
from prismres.ladder import ladder_branch, ladder_delta_edges, ladder_terminal_resistances
from prismres.network import resistance_oracle
from prismres.prism import (
    KINDS,
    PrismVertex,
    _float_base,
    csc2_sum_check,
    kirchhoff_closed,
    kirchhoff_float,
    prism_eigenvalues,
    prism_pair_sum,
    prism_resistance,
    prism_resistance_base,
    prism_resistance_via_reduction,
    resistance_table,
    trig_sum,
)


# -- vertex addressing ----------------------------------------------------


def test_vertex_parse_and_label():
    v = PrismVertex.parse("q12")
    assert v == PrismVertex("q", 12)
    assert v.label == "q12"
    assert PrismVertex.parse("p1") == PrismVertex("p", 1)


def test_vertex_parse_rejects():
    # a trailing newline and a non-ASCII digit (Arabic-Indic two) are not labels
    for bad in ("", "p0", "r3", "p", "3p", "p-1", "p1.5", "p01", "p1\n", "p1\u0662", " p1"):
        with pytest.raises(ValueError):
            PrismVertex.parse(bad)
    with pytest.raises(ValueError):
        PrismVertex("s", 1)
    with pytest.raises(ValueError):
        PrismVertex("p", 0)


# -- base closed forms ----------------------------------------------------


def test_base_known_values():
    assert prism_resistance_base(3, 1, "pq") == Fraction(3, 5)
    assert prism_resistance_base(2, 2, "pp") == Fraction(5, 12)
    assert prism_resistance_base(2, 2, "pq") == Fraction(3, 4)
    assert prism_resistance_base(2, 1, "pq") == Fraction(2, 3)
    assert prism_resistance_base(1, 1, "pq") == 1
    for n in (1, 2, 5, 12):
        assert prism_resistance_base(n, 1, "pp") == 0


def test_base_reflection_symmetry():
    for n in range(2, 26):
        for i in range(2, n + 1):
            for kind in ("pp", "pq"):
                assert prism_resistance_base(n, i, kind) == \
                    prism_resistance_base(n, n + 2 - i, kind)


def test_base_float_tracks_exact():
    rng = random.Random(5)
    for _ in range(40):
        n = rng.randrange(1, 200)
        i = rng.randrange(1, n + 1)
        kind = rng.choice(("pp", "pq"))
        exact = float(prism_resistance_base(n, i, kind))
        approx = prism_resistance(n, "p1", f"{kind[1]}{i}", "float")
        assert abs(approx - exact) <= 1e-12 * max(1.0, exact)


def test_base_same_ring_grows_with_distance():
    for n in (5, 8, 13):
        values = [prism_resistance_base(n, d + 1, "pp") for d in range(n // 2 + 1)]
        assert all(a < b for a, b in zip(values, values[1:]))


def test_base_validates():
    with pytest.raises(ValueError):
        prism_resistance_base(0, 1, "pp")
    with pytest.raises(ValueError):
        prism_resistance_base(5, 6, "pp")
    with pytest.raises(ValueError):
        prism_resistance_base(5, 0, "pq")
    with pytest.raises(ValueError):
        prism_resistance_base(5, 2, "xy")
    with pytest.raises(TypeError):  # exact only: there is no mode to pass
        prism_resistance_base(5, 2, "pp", mode="exact")


# -- symmetry resolution --------------------------------------------------


def test_resistance_resolves_offsets():
    assert prism_resistance(5, "p2", "p4") == prism_resistance_base(5, 3, "pp")
    assert prism_resistance(5, "q2", "q4") == prism_resistance_base(5, 3, "pp")
    assert prism_resistance(4, "p3", "q3") == prism_resistance_base(4, 1, "pq")
    assert prism_resistance(5, "p4", "p2") == prism_resistance(5, "p2", "p4")
    assert prism_resistance(5, "q3", "p1") == prism_resistance(5, "p1", "q3")
    assert prism_resistance(3, "p2", "p2") == 0
    assert prism_resistance(3, "p2", "p2", mode="float") == 0.0


def test_resistance_accepts_vertex_objects():
    assert prism_resistance(3, PrismVertex("p", 1), "q2") == \
        prism_resistance(3, "p1", "q2")


def test_resistance_wraps_around(prisms):
    net = prisms(6)
    for u, v in (("p2", "p6"), ("q5", "q1"), ("p5", "q2"), ("q6", "p3")):
        assert prism_resistance(6, u, v) == resistance_oracle(net, u, v)


def test_resistance_validates():
    with pytest.raises(ValueError):
        prism_resistance(3, "p4", "p1")
    with pytest.raises(ValueError):
        prism_resistance(3, "p1", "what")
    with pytest.raises(ValueError):
        prism_resistance(0, "p1", "q1")
    for u, v in (("p1", "p1"), ("p1", "q2")):  # a bad mode fails for any pair, same vertex too
        with pytest.raises(ValueError):
            prism_resistance(3, u, v, "bogus")
    with pytest.raises(ValueError):
        prism_resistance(5, "p1", "p2", mode="double")


def test_same_vertex_is_a_positive_zero():
    for n in range(1, 41):
        for v in (f"{ring}{pos}" for ring in "pq" for pos in range(1, n + 1)):
            exact = prism_resistance(n, v, v)
            approx = prism_resistance(n, v, v, "float")
            assert type(exact) is Fraction and exact == 0, (n, v)
            assert approx == 0.0 and math.copysign(1.0, approx) == 1.0, (n, v)


# -- the integer route against the field route ----------------------------


@pytest.mark.parametrize("n", [*range(1, 61), 137, 500])
def test_integer_route_equals_field_route(n):
    first_row = resistance_table(n)[0]  # r(p1, p_i) then r(p1, q_i), i = 1..n
    for i in range(1, n + 1):
        for kind, other, stepped in (("pp", f"p{i}", first_row[i - 1]),
                                     ("pq", f"q{i}", first_row[n + i - 1])):
            want = prism_resistance_base(n, i, kind)
            direct = prism_resistance(n, "p1", other)
            assert type(direct) is type(stepped) is Fraction, (n, i, kind)
            assert direct == want and stepped == want, (n, i, kind)


def test_field_route_does_not_call_the_integer_kernel(monkeypatch):
    def refuse(k):
        raise AssertionError(f"gfib({k}) called")

    monkeypatch.setattr("prismres.prism.gfib", refuse)
    monkeypatch.setattr("prismres.genfib.gfib", refuse)
    for n in (1, 2, 5, 13, 40):
        for name in ("rung_diag", "side_rung"):
            assert type(ladder_branch(n, name)) is Fraction, (n, name)
        if n >= 2:
            assert ladder_delta_edges(n).n == n
        for i in range(1, n + 1):
            for kind in ("pp", "pq"):
                assert type(prism_resistance_base(n, i, kind)) is Fraction, (n, i, kind)
                assert type(_float_base(n, i, kind)) is float, (n, i, kind)
                if i >= 2:
                    assert type(prism_resistance_via_reduction(n, i, kind)) is Fraction, \
                        (n, i, kind)


@pytest.mark.parametrize("func, args, divider", [
    (ladder_branch, (5, "rung_diag"), "ladder"),
    (ladder_terminal_resistances, (5,), "ladder"),
    (ladder_delta_edges, (5,), "ladder"),
    (prism_resistance_base, (7, 3, "pp"), "prism"),
    (prism_pair_sum, (7, 3), "prism"),
    # the composition divides only inside ladder_branch
    (prism_resistance_via_reduction, (7, 3, "pq"), "ladder"),
    (prism_resistance_via_reduction, (7, 7, "pq"), "ladder"),  # the open outer arc
], ids=["ladder_branch", "ladder_terminal_resistances", "ladder_delta_edges",
        "prism_resistance_base", "prism_pair_sum", "via_reduction", "via_reduction-open-arc"])
def test_field_route_values_leave_through_the_rationality_gate(monkeypatch, func, args, divider):
    # 1 + sqrt3, not sqrt3 alone: the pair sum scales _over's result by sqrt3/3,
    # which would turn a bare sqrt3 into the rational 2
    module = sys.modules[f"prismres.{divider}"]
    over = module._over
    monkeypatch.setattr(module, "_over", lambda *parts: over(*parts) + Qsqrt3(1, 1))
    with pytest.raises(ValueError, match=r"sqrt\(3\)"):
        func(*args)


def test_integer_route_does_not_use_the_field(monkeypatch):
    def integer_route():
        out = []
        for n in (1, 2, 7, 12, 41, 100):
            # every ring distance, so both sides of the 2 l <= n // 2 branch
            out += [prism_resistance(n, "p1", f"{ring}{l + 1}")
                    for l in range(n // 2 + 1) for ring in "pq"]
            out += [resistance_table(n, "exact"), kirchhoff_closed(n),
                    trig_sum(n, "closed"), prism_spanning_tree_count(n), gfib(n)]
        return out

    def refuse(*args):
        raise AssertionError("field element built")

    want = integer_route()
    monkeypatch.setattr(Qsqrt3, "__init__", refuse)
    monkeypatch.setattr(Qsqrt3, "_of", classmethod(refuse))
    with pytest.raises(AssertionError, match="field element built"):
        prism_resistance_base(5, 2, "pp")
    assert integer_route() == want


# 1999 .. 2002 take both parities of n and of every ladder arc, the four
# cases of the half-exponent inverse 1/(1 +- x^n)
@pytest.mark.parametrize("n", [1000, 1999, 2000, 2001, 2002, 4097, 20000])
def test_field_route_equals_integer_route_at_large_n(n):
    # big enough for the unreduced field elements to carry thousands of bits
    for i in (2, 3, n // 3, n // 2, n // 2 + 1, n - 1, n):
        want = {kind: prism_resistance(n, "p1", f"{kind[1]}{i}") for kind in KINDS}
        for kind in KINDS:
            assert prism_resistance_base(n, i, kind) == want[kind], (n, i, kind)
            assert prism_resistance_via_reduction(n, i, kind) == want[kind], (n, i, kind)
        assert prism_pair_sum(n, i) == want["pp"] + want["pq"], (n, i)


def test_kirchhoff_and_trig_sum_equal_the_a2n_forms():
    for n in range(1, 60):
        an = gfib(n)
        gap = gfib(2 * n) - 2 * an
        assert kirchhoff_closed(n) == \
            Fraction(n * (n * n - 1), 6) + Fraction(2 * n * n * an * an, gap), n
        assert trig_sum(n, "closed") == Fraction(2 * n * an * an, gap), n


def test_kirchhoff_and_trig_sum_are_in_lowest_terms():
    for n in [*range(1, 401), 10 ** 4, 10 ** 4 + 1, 10 ** 5]:
        u, a = prism_module._unit(n // 2)
        top, den = prism_module._ratio(n, u, a)
        for got, num, denom in ((kirchhoff_closed(n), n * (n * n - 1) * den + 6 * n * n * top,
                                 6 * den),
                                (trig_sum(n, "closed"), n * top, den)):
            assert math.gcd(got.numerator, got.denominator) == 1, n
            assert got == Fraction(num, denom), n


# -- half-size integer forms ----------------------------------------------

_LARGE = (10 ** 4, 10 ** 4 + 1)


def _sample_offsets(n: int) -> list[int]:
    """Every offset for small n; the ends, the middle and a few seeded ones for large n."""
    if n <= 101:
        return list(range(1, n + 1))
    k = n // 2
    rng = random.Random(n)
    return sorted({1, 2, k - 1, k, k + 1, k + 2, n - 1, n} | {rng.randint(1, n) for _ in range(4)})


def test_integer_route_never_powers_past_half_of_n(monkeypatch):
    seen = []

    def recording(k):
        seen.append(k)
        return gfib(k)

    monkeypatch.setattr("prismres.prism.gfib", recording)
    monkeypatch.setattr("prismres.genfib.gfib", recording)
    for n in [*range(1, 41), 101, *_LARGE]:
        calls = [lambda: kirchhoff_closed(n), lambda: trig_sum(n, "closed"),
                 lambda: prism_spanning_tree_count(n)]
        calls += [lambda other=f"{ring}{i}": prism_resistance(n, "p1", other)
                  for i in _sample_offsets(n) for ring in "pq"]
        if n <= 101:
            calls.append(lambda: resistance_table(n))
        for call in calls:
            seen.clear()
            call()
            assert max(seen, default=0) <= n // 2 + 1, (n, max(seen))


def test_exact_resistance_powers_past_a_quarter_of_n_once(monkeypatch):
    seen = []

    def recording(k):
        seen.append(k)
        return gfib(k)

    monkeypatch.setattr("prismres.prism.gfib", recording)
    for n in (101, 1000, 10 ** 4):
        k = n // 2
        for i in (1, 2, k, k + 1, n):
            for ring in "pq":
                seen.clear()
                prism_resistance(n, "p1", f"{ring}{i}")
                # only (2 + sqrt3)^k itself: a_k and a_{k+1}
                assert sum(j > n // 4 + 1 for j in seen) <= 2, (n, i, ring, seen)


def test_half_size_forms_equal_the_full_size_forms(full_size):
    for n in [*range(1, 201), *_LARGE]:
        assert kirchhoff_closed(n) == full_size.kirchhoff(n), n
        assert trig_sum(n, "closed") == full_size.trig_sum(n), n
        assert prism_spanning_tree_count(n) == full_size.tree_count(n), n
        if n <= 200:
            row = full_size.first_row(n)
            assert resistance_table(n)[0] == row, n
            want = {(i, kind): row[i - 1 if kind == "pp" else n + i - 1]
                    for i in range(1, n + 1) for kind in ("pp", "pq")}
        else:
            want = {(i, kind): full_size.resistance(n, i, kind)
                    for i in _sample_offsets(n) for kind in ("pp", "pq")}
        for (i, kind), value in want.items():
            other = f"{'p' if kind == 'pp' else 'q'}{i}"
            assert prism_resistance(n, "p1", other) == value, (n, i, kind)


# -- resistances in lowest terms with no wide gcd ---------------------------


def test_resistances_are_the_ratio_form_in_lowest_terms():
    # the form with the common denominator 2n den: (flat -/+ n c_d)/(2n den),
    # d = k - l, from powers stepped here, and reduced by Fraction's own gcd
    for n in range(1, 301):
        k = n // 2
        units = [(1, 0)]
        for _ in range(k):
            u, a = units[-1]
            units.append((2 * u + 3 * a, u + 2 * a))
        uk, ak = units[k]
        top, den = (uk + ak, uk + 3 * ak) if n % 2 else (uk, 3 * ak)
        for i in range(1, n + 1):
            ud, ad = units[k - min(i - 1, n - i + 1)]
            flat = (n - i + 1) * (i - 1) * den + n * top
            side = n * (ud + ad if n % 2 else ud)
            for kind, want in (("pp", flat - side), ("pq", flat + side)):
                got = prism_resistance(n, "p1", f"{kind[1]}{i}")
                assert math.gcd(got.numerator, got.denominator) == 1, (n, i, kind)
                assert got == Fraction(want, 2 * n * den), (n, i, kind)


@pytest.mark.parametrize("n", [10 ** 4, 10 ** 4 + 1, 20000])
def test_resistances_equal_the_field_route_at_sampled_offsets(n):
    for i in _sample_offsets(n):
        for kind in KINDS:
            got = prism_resistance(n, "p1", f"{kind[1]}{i}")
            assert got == prism_resistance_base(n, i, kind), (n, i, kind)
            assert math.gcd(got.numerator, got.denominator) == 1, (n, i, kind)


def test_exact_resistances_take_no_wide_gcd(monkeypatch):
    gcd, widths = math.gcd, []

    def recording(*args):
        widths.append(max(abs(x) for x in args).bit_length())
        return gcd(*args)

    n = 10 ** 4
    monkeypatch.setattr(math, "gcd", recording)  # Fraction's own gcd goes through it too
    for i in _sample_offsets(n):
        for ring in "pq":
            prism_resistance(n, "p1", f"{ring}{i}")
    assert widths and max(widths) <= (6 * n).bit_length(), max(widths)
    widths.clear()
    resistance_table(48)
    assert widths and max(widths) <= (6 * 48).bit_length(), max(widths)


# -- pair sums ------------------------------------------------------------


def test_pair_sum_known_values():
    assert prism_pair_sum(2, 2) == Fraction(7, 6)
    assert prism_pair_sum(1, 1) == 1
    assert prism_pair_sum(3, 1) == Fraction(3, 5)


def test_pair_sum_equals_component_sum():
    for n in range(1, 31):
        for i in range(1, n + 1):
            combined = prism_resistance_base(n, i, "pp") + prism_resistance_base(n, i, "pq")
            assert prism_pair_sum(n, i) == combined


# -- composition route ----------------------------------------------------


def test_via_reduction_known_value():
    assert prism_resistance_via_reduction(2, 2, "pq") == Fraction(3, 4)


def test_via_reduction_boundary_is_bare():
    # at i = n the outer arc is two bare rails (same ring) or an open circuit
    lhs = prism_resistance_via_reduction(10, 10, "pp")
    par_flat = 1 / (Fraction(1, 1) + Fraction(1, 9))
    b = ladder_branch(10, "side_rung")
    par_field = b / (b + 1)  # 1/(1 + 1/b)
    assert lhs == (par_field + par_flat) * Fraction(1, 2)
    open_outer = (ladder_branch(10, "rung_diag") + par_flat) * Fraction(1, 2)
    assert prism_resistance_via_reduction(10, 10, "pq") == open_outer


def test_via_reduction_inverts_nothing():
    cases = [(n, i, kind) for n in range(2, 61) for i in range(2, n + 1) for kind in KINDS]
    want = {(n, i, kind): prism_resistance(n, "p1", f"{kind[1]}{i}") for n, i, kind in cases}
    for case in cases:
        assert prism_resistance_via_reduction(*case) == want[case], case


def test_via_reduction_composes_ladder_branches(monkeypatch):
    # one branch per arc; at i = n the outer arc is a bare path or open, with no branch
    calls = []

    def record(k, name):
        calls.append((k, name))
        return ladder_branch(k, name)

    monkeypatch.setattr(prism_module, "ladder_branch", record)
    for n, i, kind in [(2, 2, "pp"), (2, 2, "pq"), (7, 3, "pp"), (8, 3, "pq"),
                       (9, 9, "pp"), (9, 9, "pq"), (40, 21, "pq"), (40, 39, "pp")]:
        branch = "side_rung" if kind == "pp" else "rung_diag"
        calls.clear()
        value = prism_resistance_via_reduction(n, i, kind)
        assert value == prism_resistance(n, "p1", f"{kind[1]}{i}"), (n, i, kind)
        assert calls == ([(i, branch), (n - i, branch)] if i < n else [(n, branch)]), \
            (n, i, kind)


def test_via_reduction_matches_base():
    for n in range(2, 16):
        for i in range(2, n + 1):
            for kind in ("pp", "pq"):
                assert prism_resistance_via_reduction(n, i, kind) == \
                    prism_resistance_base(n, i, kind)


def test_via_reduction_needs_distinct_cut():
    with pytest.raises(ValueError):
        prism_resistance_via_reduction(5, 1, "pp")


# -- Kirchhoff index ------------------------------------------------------


def test_kirchhoff_closed_values():
    expected = [Fraction(1), Fraction(11, 3), Fraction(47, 5), Fraction(58, 3),
                Fraction(655, 19), Fraction(279, 5), Fraction(5985, 71),
                Fraction(2540, 21), Fraction(44193, 265), Fraction(139655, 627)]
    assert [kirchhoff_closed(n) for n in range(1, 11)] == expected


def test_kirchhoff_closed_equals_pair_sum_aggregate():
    # Kf = n * sum_i (r_pp(i) + r_pq(i)): every pair is a rotated base pair
    for n in range(1, 26):
        aggregate = n * sum(prism_pair_sum(n, i) for i in range(1, n + 1))
        assert kirchhoff_closed(n) == aggregate


def test_kirchhoff_float_routes_agree():
    for n in (1, 2, 3, 10, 100, 500):
        target = float(kirchhoff_closed(n))
        for route in ("closed", "coth", "spectral"):
            assert abs(kirchhoff_float(n, route) - target) <= 1e-9 * target, (n, route)


def test_kirchhoff_validates():
    with pytest.raises(ValueError):
        kirchhoff_closed(0)
    with pytest.raises(ValueError):
        kirchhoff_float(3, "magic")


# -- spectrum -------------------------------------------------------------


def test_eigenvalues_structure():
    for n in (1, 2, 3, 17, 60):
        spec = prism_eigenvalues(n)
        values = spec.values
        assert len(values) == 2 * n
        assert values[0] == 0.0
        assert all(a <= b for a, b in zip(values, values[1:]))
        assert sum(1 for v in values if abs(v) <= 1e-9) == 1
        assert values[-1] <= 6.0 + 1e-12
        assert len(spec.nonzero) == 2 * n - 1


def test_eigenvalues_tiny_prisms():
    assert prism_eigenvalues(1).values == (0.0, 2.0)
    assert np.allclose(prism_eigenvalues(2).values, [0.0, 2.0, 4.0, 6.0])


def test_eigenvalues_match_numeric(prisms):
    for n in (1, 2, 3, 7, 12):
        analytic = np.array(prism_eigenvalues(n).values)
        numeric = np.linalg.eigvalsh(prisms(n).laplacian().astype(float))
        assert np.abs(analytic - numeric).max() <= 1e-8


# -- trigonometric identities ---------------------------------------------


def test_trig_sum_closed_values():
    assert trig_sum(1, "closed") == 1
    assert trig_sum(2, "closed") == Fraction(4, 3)
    assert trig_sum(3, "closed") == Fraction(9, 5)


def test_trig_sum_direct_tracks_closed():
    for n in range(1, 101):
        closed = float(trig_sum(n, "closed"))
        assert abs(trig_sum(n, "direct") - closed) <= 1e-10 * closed


def test_trig_sum_validates():
    with pytest.raises(ValueError):
        trig_sum(0)
    with pytest.raises(ValueError):
        trig_sum(3, "sideways")


def test_csc2_sum_check():
    for n in (1, 2, 3, 10, 500):
        assert csc2_sum_check(n)
    assert not csc2_sum_check(499, rel_tol=1e-18)


# -- tables ----------------------------------------------------------------


def test_resistance_table_n2():
    a, b, c = Fraction(5, 12), Fraction(2, 3), Fraction(3, 4)
    assert resistance_table(2) == [
        [0, a, b, c],
        [a, 0, c, b],
        [b, c, 0, a],
        [c, b, a, 0],
    ]


def test_resistance_table_matches_resolver():
    for n in range(1, 41):
        labels = [f"p{i}" for i in range(1, n + 1)] + [f"q{i}" for i in range(1, n + 1)]
        for mode in ("exact", "float"):
            table = resistance_table(n, mode)
            for a in range(2 * n):
                for b in range(2 * n):
                    assert table[a][b] == prism_resistance(n, labels[a], labels[b], mode), (n, mode)
                    assert table[a][b] == table[b][a]


def test_resistance_table_float_mode():
    exact = resistance_table(4)
    approx = resistance_table(4, mode="float")
    for row_e, row_f in zip(exact, approx):
        for e, f in zip(row_e, row_f):
            assert abs(f - float(e)) <= 1e-12
