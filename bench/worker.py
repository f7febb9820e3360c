"""The workload process: set-up, the timed rounds, the checks, one JSON report.

Started by run.py, never by hand.  It prints one JSON object as its last
line of standard output.  With --setup-only it stops at the first timed
operation and reports only its set-up time.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from probe import SpeedScale  # noqa: E402


def build(name: str, seed: int, work_dir: str):
    if name == "closed-forms":
        from closed_forms import ClosedForms

        return ClosedForms(seed)
    if name == "oracle-exact":
        from oracle import OracleExact

        return OracleExact(seed)
    if name == "oracle-float":
        from oracle import OracleFloat

        return OracleFloat(seed)
    from cli_oneshot import CliOneshot

    return CliOneshot(seed, work_dir)


def percentile(values: list[float], q: int) -> float:
    """The q-th percentile, as statistics.quantiles(n=100, inclusive) gives it."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--t0", type=float, required=True,
                    help="time.monotonic() of the parent just before it started this process")
    ap.add_argument("--work-dir", required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    wl = build(args.workload, args.seed, args.work_dir)
    setup_s = time.monotonic() - args.t0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    traced = bool(args.trace)
    if traced:
        wl.start_tracing()
    latencies: list[float] = []
    round_on: list[bool] = []
    deferred: list[tuple] = []
    failures: dict[str, int] = {}
    unexpected: list[str] = []
    attempted = 0

    def record(op, output, error) -> None:
        if error is None and op.passed is not None and output == op.passed:
            return
        why = error if error is not None else wl.check(op, output)
        if why is None:
            op.passed = output
            return
        label = op.fault or op.kind
        failures[label] = failures.get(label, 0) + 1
        if op.fault is None and len(unexpected) < 20:
            unexpected.append(why)

    begin = time.monotonic()
    scale = SpeedScale(wl.probe)
    probe_at: list[int] = []
    rounds = 0
    while True:
        # the traced run alternates traced and untraced rounds, traced first
        on = traced and rounds % 2 == 0
        if traced:
            wl.set_traced(on)
        for op in wl.ops:
            probe_at.append(scale.mark())
            error = None
            output = None
            t = time.perf_counter()
            try:
                output = wl.run(op)
            except Exception as exc:  # a failed operation is counted, not fatal
                error = f"{op.kind}{op.args}: {type(exc).__name__}: {exc}"
            latencies.append(time.perf_counter() - t)
            attempted += 1
            if wl.defer_checks:
                deferred.append((op, output, error))
            else:
                record(op, output, error)
        round_on.append(on)
        rounds += 1
        # whole rounds until the time is spent; a traced run needs an
        # untraced round to measure its overhead against
        if time.monotonic() - begin >= args.seconds and rounds >= 1 + traced:
            break
    scale.close()
    if traced:
        wl.set_traced(False)
    loop_s = time.monotonic() - begin
    peak_kb = wl.peak_rss_kb()
    for item in deferred:
        record(*item)

    # latencies per round, wall times scaled to the probe's reference speed;
    # the percentiles are over each operation's median across rounds, so
    # that a slow moment in one round does not decide which operation of
    # the fixed list sits at the percentile
    per_round = len(wl.ops)
    scaled = [d * scale.factor(k) for d, k in zip(latencies, probe_at)]
    by_round = [scaled[r * per_round:(r + 1) * per_round] for r in range(rounds)]
    raw_by_round = [latencies[r * per_round:(r + 1) * per_round] for r in range(rounds)]
    round_times = [(on, sum(times)) for on, times in zip(round_on, by_round)]
    per_op = [statistics.median(times) for times in zip(*by_round)]
    raw_per_op = [statistics.median(times) for times in zip(*raw_by_round)]
    p90 = percentile(per_op, 90)
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "rounds": rounds,
        "ops_per_round": per_round,
        "attempted": attempted,
        "failed": sum(failures.values()),
        "failures": failures,
        "unexpected_failures": unexpected,
        "correct": not unexpected,
        "setup_s": setup_s,
        "ops_per_s": per_round / statistics.median(t for _, t in round_times),
        "latency_p50_ms": statistics.median(per_op) * 1000.0,
        "latency_p90_ms": p90 * 1000.0,
        "beyond_p90": sum(1 for x in per_op if x > p90) * rounds,
        "peak_rss_mb": peak_kb / 1024.0,
        "raw_ops_per_s": per_round / statistics.median(map(sum, raw_by_round)),
        "raw_latency_p50_ms": statistics.median(raw_per_op) * 1000.0,
        "raw_latency_p90_ms": percentile(raw_per_op, 90) * 1000.0,
        "probe_ms": [p * 1000.0 for p in scale.probes],
        "per_op_ms": {f"{i}:{op.kind}": [t * 1000.0 for t in times]
                      for i, (op, times) in enumerate(zip(wl.ops, zip(*raw_by_round)))},
        "timed_s": sum(latencies),
        "loop_s": loop_s,
        "deferred_checks_s": time.monotonic() - begin - loop_s,
    }
    if traced:
        report["layers"], report["trace_stats"], report["absent"] = layer_report(wl, round_times)
    print(json.dumps(report))
    return 0


def layer_report(wl, round_times):
    """Per-layer metrics of a traced run: function stats per traced round,
    the CLI start-up split, and the tracing overhead against the untraced
    rounds of the same run (round 0, which fills caches, left out when
    another traced round exists)."""
    from tracer import LAYER_METRICS, layer_values

    traced = [t for on, t in round_times if on]
    untraced = [t for on, t in round_times if not on]
    stats = wl.layer_stats()
    values = layer_values(stats, len(traced))
    values.update(wl.cli_layers())
    ops = len(wl.ops)
    warm = traced[1:] if len(traced) > 1 else traced
    values["trace.ops_per_s"] = ops * len(warm) / sum(warm)
    if untraced:
        values["trace.overhead_pct"] = (statistics.mean(warm) / statistics.mean(untraced) - 1) * 100
    else:
        values["trace.overhead_pct"] = 0
    layers = {name: values.get(name, 0) for name, _, _ in LAYER_METRICS}
    absent = [name for name, _, _ in LAYER_METRICS
              if name.rsplit(".", 1)[1] in ("calls", "self_ms", "order_max")
              and name.rsplit(".", 1)[0] not in stats]
    return layers, stats, absent


if __name__ == "__main__":
    sys.exit(main())
