"""Cross-validation of every closed form against the linear-algebra oracle.

This is the one module that joins the two routes.  It holds the reduced
networks that the closed forms predict (a ladder on its four corners, a prism
on two rung cross-sections) as oracle Networks, and run_checks builds actual
networks, computes exact pseudoinverses, and compares them with the closed
forms, route by route.  Each check reports a pass/fail plus either a case
count or the first counterexample, and its wall time; a crash inside a check
is itself reported as a failure rather than propagated.  NumPy and SciPy
are imported only by run_checks, after it validates its arguments and
before any check runs, so malformed input is refused without them and a
missing one raises instead of failing every float check; importing this
module loads the standard library and the two routes alone.
"""

from __future__ import annotations

import math
import time
from collections import namedtuple
from fractions import Fraction

from .genfib import gfib, prism_spanning_tree_count
from .ladder import DeltaEdges, ladder_delta_edges, ladder_terminal_resistances
from .network import (
    Network,
    build_ladder,
    build_prism,
    kirchhoff_oracle,
    kron_reduce,
    matrix_tree_count,
    resistance_oracle,
)
from .prism import (
    csc2_sum_check,
    kirchhoff_closed,
    kirchhoff_float,
    prism_eigenvalues,
    prism_pair_sum,
    prism_resistance,
    prism_resistance_base,
    prism_resistance_via_reduction,
    trig_sum,
)


# ---------------------------------------------------------------------------
# reduced ladders as oracle networks


def _corner_edges(delta: DeltaEdges, corners) -> list[tuple[str, str, Fraction]]:
    """Edges of a reduced ladder between its corners, given as [p_n, q_n, p1, q1].

    Each edge class lands on its two vertex pairs with resistance 1/g; an
    open class (g == 0, the diagonal of the 2-rung ladder) gives no edge.
    """
    pn, qn, p1, q1 = corners
    edges = []
    for pairs, g in ((((pn, qn), (p1, q1)), delta.rung),
                     (((pn, p1), (qn, q1)), delta.side),
                     (((pn, q1), (qn, p1)), delta.diag)):
        if g != 0:
            edges += [(u, v, 1 / g) for u, v in pairs]
    return edges


def four_corner_laplacian(delta: DeltaEdges):
    """Laplacian of a reduced ladder's corner graph, ordered [p_n, q_n, p1, q1]."""
    labels = ["a", "b", "c", "d"]
    return Network(labels, _corner_edges(delta, labels)).laplacian()


class EightTerminalStencil(namedtuple("EightTerminalStencil", "lower upper")):
    """Conductance stencil of a prism reduced onto two rung cross-sections.

    Cutting the n-prism at rungs i-1 and i (kept vertices, in order:
    p1, p_{i-1}, p_i, p_n, q1, q_{i-1}, q_i, q_n) leaves two reduced ladders
    joined by the four surviving unit edges (p_n,p1), (p_{i-1},p_i) and their
    q twins.  `lower` is the reduced arc p1..p_{i-1} (i-1 rungs), `upper` the
    arc p_i..p_n (n-i+1 rungs).  Conductances, because the lower diagonal is
    an open circuit when i = 3.
    """

    __slots__ = ()

    @classmethod
    def for_prism(cls, n: int, i: int) -> "EightTerminalStencil":
        """Stencil of the n-prism cut at rung index i, 3 <= i <= n - 1."""
        if not 3 <= i <= n - 1:
            raise ValueError(f"need 3 <= i <= n-1 so both arcs are true ladders, got n={n}, i={i}")
        return cls(lower=ladder_delta_edges(i - 1), upper=ladder_delta_edges(n - i + 1))

    @property
    def lower_corner_degree(self) -> Fraction:
        """Laplacian diagonal at p1, p_{i-1}, q1, q_{i-1}: one unit edge plus the lower arc."""
        return 1 + self.lower.side + self.lower.rung + self.lower.diag

    @property
    def upper_corner_degree(self) -> Fraction:
        """Laplacian diagonal at p_i, p_n, q_i, q_n: one unit edge plus the upper arc."""
        return 1 + self.upper.side + self.upper.rung + self.upper.diag

    def network(self) -> Network:
        """The eight-vertex network itself, with generic labels t0..t7."""
        t = [f"t{k}" for k in range(8)]
        # each arc's corners as its own ladder's [p_n, q_n, p1, q1]
        edges = (_corner_edges(self.lower, (t[1], t[5], t[0], t[4]))
                 + _corner_edges(self.upper, (t[3], t[7], t[2], t[6]))
                 + [(t[0], t[3], 1), (t[1], t[2], 1), (t[4], t[7], 1), (t[5], t[6], 1)])
        return Network(t, edges)

    def laplacian(self):
        return self.network().laplacian()


# ---------------------------------------------------------------------------
# the checks


CheckResult = namedtuple("CheckResult", "name passed detail elapsed_ms", defaults=("", 0.0))


class _Counterexample(Exception):
    pass


def run_checks(n_max: int = 10, tol: float = 1e-9) -> list[CheckResult]:
    """Run the whole cross-validation ladder up to prism/ladder size n_max.

    tol bounds the float comparisons, absolute for resistances and
    eigenvalues and relative for the Kirchhoff index and the trigonometric
    sums; it must be finite and nonnegative, since every comparison with NaN
    is false and an infinite bound accepts anything.
    """
    if n_max < 1:
        raise ValueError(f"n_max must be positive, got {n_max}")
    if not (math.isfinite(tol) and tol >= 0):
        raise ValueError(f"tol must be finite and nonnegative, got {tol}")
    import numpy as np
    import scipy.sparse.linalg  # the float checks factor with SuperLU

    sizes = range(1, n_max + 1)
    prisms = {n: build_prism(n) for n in sizes}
    ladders = {n: build_ladder(n) for n in sizes}
    results: list[CheckResult] = []

    def check(name):
        def wrap(fn):
            start = time.perf_counter()
            try:
                passed, detail = True, fn() or ""
            except _Counterexample as exc:
                passed, detail = False, str(exc)
            except Exception as exc:  # a crash is a failure, not a traceback
                passed, detail = False, f"crashed: {exc!r}"
            elapsed_ms = (time.perf_counter() - start) * 1000.0
            results.append(CheckResult(name, passed, detail, elapsed_ms))
        return wrap

    @check("resistance-closed-vs-oracle")
    def _():
        pairs = 0
        for n in sizes:
            net = prisms[n]
            for i in range(1, n + 1):
                for kind, other in (("pp", f"p{i}"), ("pq", f"q{i}")):
                    expect = resistance_oracle(net, "p1", other)
                    for route, got in (("closed", prism_resistance_base(n, i, kind)),
                                       ("integer", prism_resistance(n, "p1", other))):
                        if got != expect:
                            raise _Counterexample(
                                f"n={n} i={i} {kind}: {route} {got} != oracle {expect}")
                    pairs += 1
        return f"{pairs} base pairs exact-equal"

    @check("resistance-float-vs-oracle")
    def _():
        pairs = 0
        for n in sizes:
            net = prisms[n].to_float()
            for i in range(1, n + 1):
                for kind, other in (("pp", f"p{i}"), ("pq", f"q{i}")):
                    expect = resistance_oracle(net, "p1", other)
                    got = prism_resistance(n, "p1", other, "float")
                    if abs(got - expect) > tol:
                        raise _Counterexample(f"n={n} i={i} {kind}: |{got} - {expect}| > {tol}")
                    pairs += 1
        return f"{pairs} base pairs within {tol}"

    @check("reduction-route-agreement")
    def _():
        cases = 0
        for n in sizes:
            for i in range(2, n + 1):
                for kind in ("pp", "pq"):
                    direct = prism_resistance_base(n, i, kind)
                    composed = prism_resistance_via_reduction(n, i, kind)
                    if direct != composed:
                        raise _Counterexample(f"n={n} i={i} {kind}: {direct} != {composed}")
                    cases += 1
        return f"{cases} compositions exact-equal"

    @check("pair-sum")
    def _():
        cases = 0
        for n in sizes:
            for i in range(1, n + 1):
                lhs = prism_resistance_base(n, i, "pp") + prism_resistance_base(n, i, "pq")
                if lhs != prism_pair_sum(n, i):
                    raise _Counterexample(f"n={n} i={i}: {lhs} != {prism_pair_sum(n, i)}")
                cases += 1
        return f"{cases} pair sums exact-equal"

    @check("ladder-closed-forms")
    def _():
        for n in sizes:
            net = ladders[n]
            rung, side, diag = ladder_terminal_resistances(n)
            for value, pair in ((rung, (f"p{n}", f"q{n}")), (side, (f"p{n}", "p1")),
                                (diag, (f"p{n}", "q1"))):
                expect = resistance_oracle(net, *pair)
                if value != expect:
                    raise _Counterexample(f"n={n} {pair}: {value} != oracle {expect}")
        return f"terminal resistances exact-equal for n <= {n_max}"

    @check("ladder-delta-reassembly")
    def _():
        done = 0
        for n in sizes:
            if n < 2:
                continue
            reduced = kron_reduce(ladders[n], [f"p{n}", f"q{n}", "p1", "q1"])
            corners = four_corner_laplacian(ladder_delta_edges(n))
            if not np.array_equal(corners, reduced.laplacian()):
                raise _Counterexample(f"n={n}: corner Laplacians differ")
            done += 1
        return f"{done} ladder reductions exact-equal"

    @check("kirchhoff-routes")
    def _():
        for n in sizes:
            exact = kirchhoff_closed(n)
            oracle = kirchhoff_oracle(prisms[n])
            if exact != oracle:
                raise _Counterexample(f"n={n}: closed {exact} != oracle {oracle}")
            target = float(exact)
            for route in ("closed", "coth", "spectral"):
                got = kirchhoff_float(n, route)
                if abs(got - target) > tol * target:
                    raise _Counterexample(f"n={n} {route}: |{got} - {target}| > rel {tol}")
        return f"4 routes agree for n <= {n_max}"

    @check("spectrum")
    def _():
        for n in sizes:
            analytic = np.array(prism_eigenvalues(n).values)
            numeric = np.linalg.eigvalsh(prisms[n].laplacian().astype(float))
            if np.abs(analytic - numeric).max() > tol:
                raise _Counterexample(f"n={n}: spectra differ beyond {tol}")
        return f"analytic spectrum matches eigensolver for n <= {n_max}"

    @check("spanning-trees")
    def _():
        for n in sizes:
            formula = prism_spanning_tree_count(n)
            counted = matrix_tree_count(prisms[n])
            if formula != counted:
                raise _Counterexample(f"prism n={n}: {formula} != {counted}")
            if gfib(n) != matrix_tree_count(ladders[n]):
                raise _Counterexample(f"ladder n={n}: {gfib(n)} != {matrix_tree_count(ladders[n])}")
        return f"prism and ladder counts exact-equal for n <= {n_max}"

    @check("foster-sum")
    def _():
        for n in sizes:
            for net in (prisms[n], ladders[n]):
                total = sum(resistance_oracle(net, u, v) for u, v, _ in net.edges)
                if total != net.order - 1:
                    raise _Counterexample(f"{net!r}: edge sum {total} != {net.order - 1}")
        return f"edge resistance sums equal V - 1 for n <= {n_max}"

    @check("trig-identities")
    def _():
        for n in sizes:
            closed = float(trig_sum(n, "closed"))
            direct = trig_sum(n, "direct")
            if abs(direct - closed) > tol * closed:
                raise _Counterexample(f"n={n}: trig sum {direct} vs {closed}")
            if not csc2_sum_check(n, rel_tol=tol):
                raise _Counterexample(f"n={n}: csc^2 sum off by more than rel {tol}")
        return f"both identities hold for n <= {n_max}"

    @check("eight-terminal-stencil")
    def _():
        done = 0
        for n in sizes:
            for i in range(3, n):
                keep = ["p1", f"p{i - 1}", f"p{i}", f"p{n}",
                        "q1", f"q{i - 1}", f"q{i}", f"q{n}"]
                reduced = kron_reduce(prisms[n], keep)
                stencil = EightTerminalStencil.for_prism(n, i)
                if not np.array_equal(stencil.laplacian(), reduced.laplacian()):
                    raise _Counterexample(f"n={n} i={i}: stencil Laplacian differs")
                done += 1
        return f"{done} stencils exact-equal"

    @check("pseudoinverse-contract")
    def _():
        for n in sizes:
            for net in (prisms[n], ladders[n]):
                lap = net.laplacian().tolist()
                pinv = net.pseudoinverse()
                # L L+ = I - J/N through the nonzeros of each row of the
                # sparse L: on a connected network with L+ 1 = 0 (checked
                # next), it holds exactly when L L+ L = L does, for any L+
                projector = np.eye(net.order, dtype=object) - Fraction(1, net.order)
                for row, want in zip(lap, projector.tolist()):
                    scaled = [[x * y for y in pinv[k]] for k, x in enumerate(row) if x]
                    if [sum(col) for col in zip(*scaled)] != want:
                        raise _Counterexample(f"{net!r}: L L+ != I - J/N")
                if any(sum(row) != 0 for row in pinv):
                    raise _Counterexample(f"{net!r}: pseudoinverse row sums nonzero")
        return f"Penrose identities exact for n <= {n_max}"

    return results
