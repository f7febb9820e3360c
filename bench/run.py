"""Run one benchmark workload of prismres and print its metrics.

    python3 bench/run.py --workload closed-forms --seed 1 --seconds 20 --trace 0

Run it from the root of a prismres source tree (the directory holding
src/prismres); prismres is imported from src, not from an installed copy.
The workloads are closed-forms, oracle-exact, oracle-float and cli-oneshot;
bench/README.md says what each one does and why.

With --trace 0 the last line of standard output is
{"correct", "attempted", "failed", "metrics"} with the end-to-end metrics:
setup_s, ops_per_s, latency_p50_ms, latency_p90_ms and peak_rss_mb.  The
in-process workloads scale their timings to a reference machine speed with
bench/probe.py.  With
--trace 1 the metrics are the per-layer ones of bench/tracer.py.  The full
report of the run goes to bench/results/.  A progress summary goes to
standard error.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from tracer import LAYER_METRICS  # noqa: E402

WORKLOADS = ("closed-forms", "oracle-exact", "oracle-float", "cli-oneshot")
# set-up runs per measured run: SETUP_SAMPLES - 1 set-up-only processes plus
# the set-up of the measured process itself; setup_s is their median
SETUP_SAMPLES = 5
# one BLAS thread: the box has two cores shared with other work, and a
# single thread keeps the LAPACK timings steadier than two
BLAS_THREADS = 1
DEADLINE_S = 170.0

END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
)


def child_env(root: str) -> dict[str, str]:
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def run_worker(args, env, work_dir: str, deadline: float, setup_only: bool) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", work_dir]
    if setup_only:
        cmd.append("--setup-only")
    t0 = time.monotonic()
    proc = subprocess.Popen(cmd + ["--t0", repr(t0)], env=env, stdout=subprocess.PIPE)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise RuntimeError("workload process ran past the deadline") from None
    if proc.returncode != 0:
        raise RuntimeError(f"workload process exited with code {proc.returncode}")
    lines = out.decode().strip().splitlines()
    if not lines:
        raise RuntimeError("workload process printed no report")
    return json.loads(lines[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    start = time.monotonic()
    deadline = start + DEADLINE_S

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "prismres", "__init__.py")):
        print("error: run from the root of a prismres source tree (no src/prismres here)",
              file=sys.stderr)
        return 2
    env = child_env(root)
    results_dir = os.path.join(HERE, "results")
    work_dir = os.path.join(HERE, "work", str(os.getpid()))
    os.makedirs(results_dir, exist_ok=True)
    os.makedirs(work_dir, exist_ok=True)
    try:
        setups = []
        if not args.trace:
            for _ in range(SETUP_SAMPLES - 1):
                setups.append(run_worker(args, env, work_dir, deadline, True)["setup_s"])
        report = run_worker(args, env, work_dir, deadline, False)
    except (RuntimeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    setups.append(report["setup_s"])
    report["setup_samples_s"] = setups
    report["blas_threads"] = BLAS_THREADS
    report["nproc"] = os.cpu_count()
    report["wall_s"] = time.monotonic() - start
    if args.trace:
        metrics = {name: {"value": report["layers"][name], "unit": unit}
                   for name, unit, _ in LAYER_METRICS}
    else:
        report["setup_s"] = statistics.median(setups)
        metrics = {name: {"value": report[name], "unit": unit} for name, unit in END_TO_END}
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(results_dir, name), "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=1)

    summary = (f"{args.workload} seed={args.seed} rounds={report['rounds']} "
               f"ops={report['attempted']} failed={report['failed']} {report['failures']} "
               f"beyond_p90={report['beyond_p90']} blas_threads={BLAS_THREADS} "
               f"wall={report['wall_s']:.1f}s")
    print(summary, file=sys.stderr)
    for why in report["unexpected_failures"]:
        print(f"unexpected failure: {why}", file=sys.stderr)
    if args.trace and report["absent"]:
        print(f"absent from prismres: {', '.join(report['absent'])}", file=sys.stderr)
    print(json.dumps({"correct": report["correct"], "attempted": report["attempted"],
                      "failed": report["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
