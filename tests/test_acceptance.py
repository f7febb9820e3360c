"""Acceptance gate: every release criterion at its stated tolerance and budget.

Each criterion prints exactly one PASS or FAIL line (written to the real
stdout so it survives pytest's capture), and FAIL always rides with a normal
pytest failure carrying the counterexample.
"""

import sys
import time
import tracemalloc
from contextlib import contextmanager
from fractions import Fraction

import numpy as np

import prismres as pr
from prismres.cli import main as cli_main


@contextmanager
def criterion(num: int, title: str, budget_s: float | None = None):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"FAIL criterion {num:02d}: {title}", file=sys.__stdout__)
        raise
    elapsed = time.perf_counter() - start
    if budget_s is not None and elapsed > budget_s:
        print(f"FAIL criterion {num:02d}: {title} ({elapsed:.2f}s over {budget_s}s budget)",
              file=sys.__stdout__)
        raise AssertionError(f"criterion {num} blew its time budget: {elapsed:.2f}s > {budget_s}s")
    clock = f"{elapsed:.2f}s" + (f" <= {budget_s}s" if budget_s is not None else "")
    print(f"PASS criterion {num:02d}: {title} ({clock})", file=sys.__stdout__)


def test_criterion_01_kirchhoff_values():
    expected = [Fraction(1), Fraction(11, 3), Fraction(47, 5), Fraction(58, 3),
                Fraction(655, 19), Fraction(279, 5), Fraction(5985, 71),
                Fraction(2540, 21), Fraction(44193, 265), Fraction(139655, 627)]
    with criterion(1, "exact Kirchhoff indices for n = 1..10", 0.1):
        assert [pr.kirchhoff_closed(n) for n in range(1, 11)] == expected


def test_criterion_02_closed_form_vs_oracle_all_pairs(prisms, float_prisms):
    with criterion(2, "closed form equals the oracle on every pair, n <= 30", 60.0):
        for n in range(1, 31):
            net = prisms(n)
            labels = net.vertices
            for a in range(len(labels)):
                for b in range(a + 1, len(labels)):
                    closed = pr.prism_resistance(n, labels[a], labels[b])
                    oracle = pr.resistance_oracle(net, labels[a], labels[b])
                    assert closed == oracle, (n, labels[a], labels[b])
            fnet = float_prisms(n)
            for a in range(len(labels)):
                for b in range(a + 1, len(labels)):
                    closed = pr.prism_resistance(n, labels[a], labels[b], mode="float")
                    oracle = pr.resistance_oracle(fnet, labels[a], labels[b])
                    assert abs(closed - oracle) <= 1e-9, (n, labels[a], labels[b])


def test_criterion_03_sqrt3_component_cancels():
    with criterion(3, "sqrt3 component exactly cancels for n <= 60", 30.0):
        for n in range(1, 61):
            for i in range(1, n + 1):
                for kind in ("pp", "pq"):
                    value = pr.prism_resistance_base(n, i, kind)
                    assert isinstance(value, Fraction), (n, i, kind)


def test_criterion_04_route_equivalence():
    with criterion(4, "composition route equals direct closed form, n <= 40", 60.0):
        for n in range(2, 41):
            for i in range(2, n + 1):
                for kind in ("pp", "pq"):
                    direct = pr.prism_resistance_base(n, i, kind)
                    composed = pr.prism_resistance_via_reduction(n, i, kind)
                    assert direct == composed, (n, i, kind)


def test_criterion_05_trigonometric_identities():
    with criterion(5, "trig sums match closed forms for n <= 500", 10.0):
        for n in range(1, 501):
            closed = float(pr.trig_sum(n, "closed"))
            direct = pr.trig_sum(n, "direct")
            assert abs(direct - closed) <= 1e-10 * closed, n
            assert pr.csc2_sum_check(n, rel_tol=1e-9), n


def test_criterion_06_spectral_route(prisms):
    with criterion(6, "spectral Kirchhoff route and analytic spectrum", 60.0):
        for n in range(1, 501):
            target = float(pr.kirchhoff_closed(n))
            got = pr.kirchhoff_float(n, "spectral")
            assert abs(got - target) <= 1e-9 * target, n
        for n in range(3, 51):
            analytic = np.array(pr.prism_eigenvalues(n).values)
            numeric = np.linalg.eigvalsh(prisms(n).laplacian().astype(float))
            assert np.abs(analytic - numeric).max() <= 1e-8, n


def test_criterion_07_spanning_trees(prisms, ladders):
    with criterion(7, "spanning-tree formulas match the matrix-tree count, n <= 20", 60.0):
        assert [pr.prism_spanning_tree_count(n) for n in (1, 2, 3)] == [1, 12, 75]
        for n in range(1, 21):
            assert pr.prism_spanning_tree_count(n) == pr.matrix_tree_count(prisms(n)), n
            assert pr.gfib(n) == pr.matrix_tree_count(ladders(n)), n


def test_criterion_08_kron_reduction_fidelity(prisms):
    with criterion(8, "eight-terminal reduction preserves resistances and stencil", 120.0):
        for n in range(4, 21):
            net = prisms(n)
            for i in range(3, n):
                keep = ["p1", f"p{i - 1}", f"p{i}", f"p{n}",
                        "q1", f"q{i - 1}", f"q{i}", f"q{n}"]
                reduced = pr.kron_reduce(net, keep)
                stencil = pr.EightTerminalStencil.for_prism(n, i)
                red_lap = reduced.laplacian()
                stencil_lap = stencil.laplacian()
                assert stencil_lap.dtype == red_lap.dtype == object, (n, i)
                assert np.array_equal(stencil_lap, red_lap), (n, i)
                assert red_lap[0, 0] == stencil.lower_corner_degree, (n, i)
                assert red_lap[2, 2] == stencil.upper_corner_degree, (n, i)
                for a in range(8):
                    for b in range(a + 1, 8):
                        assert (pr.resistance_oracle(reduced, keep[a], keep[b])
                                == pr.resistance_oracle(net, keep[a], keep[b])), (n, i, a, b)


def test_criterion_09_foster_edge_sum(prisms):
    with criterion(9, "edge resistances of the n-prism sum to 2n - 1, n <= 30", 10.0):
        for n in range(1, 31):
            net = prisms(n)
            total = sum(pr.resistance_oracle(net, u, v) for u, v, _ in net.edges)
            assert total == 2 * n - 1, n


def _exact_penrose_holds(net) -> bool:
    """L L+ L == L and L+ 1 == 0, exploiting the sparsity of L."""
    lap = net.laplacian()
    pinv = net.pseudoinverse()
    order = net.order
    sparse = [[(j, lap[i, j]) for j in range(order) if lap[i, j] != 0] for i in range(order)]
    if any(sum(row) != 0 for row in pinv):
        return False
    left = [[sum(v * pinv[k][j] for k, v in sparse[i]) for j in range(order)]
            for i in range(order)]
    for i in range(order):
        row = left[i]
        for j in range(order):
            if sum(row[k] * v for k, v in sparse[j]) != lap[i, j]:
                return False
    return True


def test_criterion_10_pseudoinverse_contract(prisms, ladders, float_prisms, float_ladders):
    with criterion(10, "Penrose identities: exact to order 60, float residuals to 1000", 120.0):
        for n in range(1, 31):
            assert _exact_penrose_holds(prisms(n)), f"prism n={n}"
            assert _exact_penrose_holds(ladders(n)), f"ladder n={n}"
        for net in (float_prisms(500), float_ladders(500)):
            lap = net.laplacian()
            pinv = net.pseudoinverse()
            assert np.abs(lap @ pinv @ lap - lap).max() <= 1e-10
            assert np.abs(pinv.sum(axis=1)).max() <= 1e-10


def test_criterion_11_degenerate_prisms(prisms):
    with criterion(11, "the 1- and 2-prism multigraphs behave like every other size"):
        y1, y2 = prisms(1), prisms(2)
        assert pr.kirchhoff_closed(1) == 1 == pr.kirchhoff_oracle(y1)
        assert pr.kirchhoff_closed(2) == Fraction(11, 3) == pr.kirchhoff_oracle(y2)
        assert pr.prism_resistance(2, "p1", "q1") == Fraction(2, 3)
        assert pr.resistance_oracle(y2, "p1", "q1") == Fraction(2, 3)
        assert pr.prism_resistance(1, "p1", "q1") == 1 == pr.resistance_oracle(y1, "p1", "q1")
        assert pr.matrix_tree_count(y1) == 1 == pr.prism_spanning_tree_count(1)
        assert pr.matrix_tree_count(y2) == 12 == pr.prism_spanning_tree_count(2)
        for n, net in ((1, y1), (2, y2)):
            total = sum(pr.resistance_oracle(net, u, v) for u, v, _ in net.edges)
            assert total == 2 * n - 1


def test_criterion_12_performance_floor(tmp_path):
    with criterion(12, "kirchhoff_closed(2000) < 2s and the n=100 table < 5s"):
        start = time.perf_counter()
        value = pr.kirchhoff_closed(2000)
        kirchhoff_elapsed = time.perf_counter() - start
        assert value > 0
        assert kirchhoff_elapsed < 2.0, f"kirchhoff_closed(2000) took {kirchhoff_elapsed:.2f}s"

        out = tmp_path / "table100.csv"
        start = time.perf_counter()
        code = cli_main(["table", "100", "--output", str(out)])
        table_elapsed = time.perf_counter() - start
        assert code == 0
        assert out.read_text().count("\n") == 201
        assert table_elapsed < 5.0, f"table for n=100 took {table_elapsed:.2f}s"


def test_criterion_13_closed_forms_at_scale(capsys):
    with criterion(13, "n = 100000: Kirchhoff and one resistance each < 1s and < 16 MB"):
        for call in (lambda: pr.kirchhoff_closed(100000),
                     lambda: pr.prism_resistance(100000, "p1", "q50000")):
            tracemalloc.start()
            try:
                start = time.perf_counter()
                value = call()
                elapsed = time.perf_counter() - start
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert isinstance(value, Fraction) and value > 0
            assert elapsed < 1.0, f"took {elapsed:.2f}s"
            assert peak < 16 * 2 ** 20, f"peak {peak / 2 ** 20:.1f} MB"
        assert cli_main(["kirchhoff", "100000"]) == 0
        capsys.readouterr()


def test_criterion_14_closed_forms_at_a_million(full_size):
    with criterion(14, "n = 10^6: Kirchhoff, one resistance and the tree count each < 6s"):
        n = 10 ** 6
        for call in (lambda: pr.kirchhoff_closed(n),
                     lambda: pr.prism_resistance(n, "p1", "q500000"),
                     lambda: pr.prism_spanning_tree_count(n)):
            start = time.perf_counter()
            value = call()
            elapsed = time.perf_counter() - start
            assert value > 0
            assert elapsed < 6.0, f"took {elapsed:.2f}s"
        # the same three values at n = 10^5 against the forms at the full exponent
        n = 10 ** 5
        assert pr.kirchhoff_closed(n) == full_size.kirchhoff(n)
        assert pr.prism_resistance(n, "p1", "q50000") == full_size.resistance(n, 50000, "pq")
        assert pr.prism_spanning_tree_count(n) == full_size.tree_count(n)
