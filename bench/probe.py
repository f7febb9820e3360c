"""Fixed pieces of work that measure the speed of the machine.

On the two-core machine this benchmark was built on, the same work runs up
to a fifth faster or slower from one minute to the next, with nothing else
running in the machine: its CPU is shared with others outside it.  Runs of
closed-forms read from 345 to 530 ops/s within an hour.  So the worker runs
a probe between operations, at least every PROBE_EVERY_S, and scales each
operation's wall time by the probe's reference time (PROBE_REF_S, about its
time on that machine) over the mean of the probes taken just before and
just after it: the end-to-end timings are wall times at the speed at which
the probe takes its reference time.  Each in-process workload uses the probe
closest to its own work (PROBES): Fraction arithmetic for the closed forms
and the exact oracle, a loop of small-integer arithmetic and a matrix
product for the float oracle (which parses and builds in Python and factors
in LAPACK).  Over 20-second windows of oracle-exact, wall time varied by 5%
and wall time over the Fraction probe's time by 1.5%.

Process start-up has no probe: a bare `python3 -c pass` takes either about
65 ms or about 115 ms there, in shares that change from minute to minute,
whichever CPU it is pinned to, so no short probe tracks it.  cli-oneshot
and every set-up time are raw wall times.

A probe is the benchmark's own code, so a change to prismres cannot move
it.  The raw wall times are kept in the report in bench/results/.
"""

from __future__ import annotations

import time
from fractions import Fraction

PROBE_EVERY_S = 0.5


def _int_loop(iterations: int) -> float:
    """Seconds taken by a loop of small-integer arithmetic."""
    start = time.perf_counter()
    total = 0
    for i in range(iterations):
        total += i * i % 7
    return time.perf_counter() - start


def fraction_probe() -> float:
    """Seconds taken by fixed harmonic sums over Fraction."""
    start = time.perf_counter()
    for _ in range(8):
        total = Fraction(0)
        for k in range(1, 260):
            total += Fraction(1, k)
    return time.perf_counter() - start


_MATRIX = []


def python_blas_probe() -> float:
    """Seconds taken by half the small-integer loop and fixed 160 x 160
    matrix products."""
    import numpy as np

    if not _MATRIX:
        _MATRIX.append(np.random.default_rng(0).random((160, 160)))
    a = _MATRIX[0]
    start = time.perf_counter()
    for _ in range(20):
        a @ a
    return time.perf_counter() - start + _int_loop(40_000)


PROBES = {"fraction": fraction_probe, "python+blas": python_blas_probe}
PROBE_REF_S = {"fraction": 0.008, "python+blas": 0.007}


class SpeedScale:
    """Probes taken between timed operations, and the scale they give them.

    With kind None there are no probes and every scale is 1.
    """

    def __init__(self, kind: str | None) -> None:
        self.probe = PROBES[kind] if kind else None
        self.ref = PROBE_REF_S[kind] if kind else None
        self.probes = [self.probe()] if kind else []
        self.last = time.monotonic()

    def mark(self) -> int:
        """Probe if PROBE_EVERY_S has passed; return the index of the last
        probe, which the next operation follows."""
        if self.probe and time.monotonic() - self.last >= PROBE_EVERY_S:
            self.probes.append(self.probe())
            self.last = time.monotonic()
        return len(self.probes) - 1

    def close(self) -> None:
        if self.probe:
            self.probes.append(self.probe())

    def factor(self, k: int) -> float:
        """The reference time over the mean of probe k and the probe after it."""
        if not self.probe:
            return 1.0
        return 2 * self.ref / (self.probes[k] + self.probes[k + 1])
