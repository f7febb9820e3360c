"""What the worker needs from a workload, and helpers shared by workloads."""

from __future__ import annotations

import math
import random
import resource
import statistics
import subprocess
import sys
import time

STARTUP_SAMPLES = 5


class Op:
    """One operation of a round: a call the workload makes, and its check.

    kind names the question (used in reports); fault names the known program
    fault the operation reproduces, or is None.  ref holds the reference
    answer once the first check has computed it, and passed the first output
    that passed its check: the same operation in a later round passes when
    its output equals that one, and is checked in full otherwise.
    """

    __slots__ = ("kind", "args", "fault", "ref", "passed")

    def __init__(self, kind: str, args: tuple, fault: str | None = None):
        self.kind = kind
        self.args = args
        self.fault = fault
        self.ref = None
        self.passed = None


class Workload:
    """Base class.  Subclasses build .ops in __init__ (part of set-up) and
    implement run(op) -> output and check(op, output) -> None or a reason.

    defer_checks: keep outputs and check them after the timed phase, for
    workloads whose references would otherwise raise the peak RSS that the
    timed phase is measured by.
    """

    defer_checks = False
    # the bench/probe.py probe closest to the workload's own work, or None
    probe: str | None = "fraction"
    ops: list[Op]

    def run(self, op: Op):
        raise NotImplementedError

    def check(self, op: Op, output) -> str | None:
        raise NotImplementedError

    def peak_rss_kb(self) -> int:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    def set_traced(self, on: bool) -> None:
        """Switch tracing for the following operations."""
        if on:
            self.tracer.install()
        else:
            self.tracer.uninstall()

    def start_tracing(self) -> None:
        from tracer import Tracer

        self.tracer = Tracer()

    def layer_stats(self) -> dict[str, dict]:
        return self.tracer.stats

    def cli_layers(self) -> dict[str, float]:
        """cli.interpreter_ms and cli.import_ms, from fresh processes run in
        alternation, so that both medians see the same phases of CPU speed."""
        bare, imported = [], []
        for _ in range(STARTUP_SAMPLES):
            bare.append(wall_s(["-c", "pass"]))
            imported.append(wall_s(["-c", "import prismres.cli"]))
        return {"cli.interpreter_ms": statistics.median(bare) * 1000.0,
                "cli.import_ms": (statistics.median(imported) - statistics.median(bare)) * 1000.0}


def wall_s(argv: list[str]) -> float:
    """Wall time of one `python3 <argv>` run, in seconds."""
    t = time.perf_counter()
    subprocess.run([sys.executable, *argv], check=True, timeout=60, stdout=subprocess.DEVNULL)
    return time.perf_counter() - t


def log_grid(lo: float, hi: float, count: int, rng: random.Random, jitter: float = 0.0) -> list[int]:
    """count sizes spread log-uniformly over [lo, hi]: an even grid whose
    points (all but the last, which stays at hi) move by up to `jitter`
    of a grid step.  A fixed grid, not independent draws, keeps the cost of
    a round nearly the same for every seed."""
    step = (math.log(hi) - math.log(lo)) / (count - 1)
    sizes = []
    for k in range(count):
        x = math.log(lo) + k * step
        if k < count - 1:
            x += rng.uniform(-jitter, jitter) * step
        sizes.append(max(1, round(math.exp(x))))
    return sizes
