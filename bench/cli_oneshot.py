"""cli-oneshot: each operation is a fresh `python3 -m prismres.cli` process.

A round is twelve commands: exact and float `resistance`, `kirchhoff` by the
closed, coth and spectral methods, `table --format json`, the four `net`
commands on small exact network files, `verify --n-max 4`, and
`kirchhoff 20000`, a known fault: every n >= 15001 prints more than the
4300 digits Python 3.11 allows an int to convert to a string, and the
command exits 2.  Sizes, vertices and network files come from the seed.
Interpreter start and imports dominate; this is the only workload where the
closed forms start from an empty sequence cache.

The traced run starts its traced commands through bench/clitrace.py, which
wraps prismres the same way as the in-process workloads and writes its
counts to a file.
"""

from __future__ import annotations

import json
import os
import random
import re
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction

import reference as ref
from oracle import random_edges
from tracer import merge
from workload import Op, Workload

HERE = os.path.dirname(os.path.abspath(__file__))
FAULT = ("cli-kirchhoff-20000-int-str-limit", ["kirchhoff", "20000"])
_VERIFY_RE = re.compile(r"^(\d+)/(\d+) checks passed$")


def _vertex(rng: random.Random, n: int) -> str:
    return f"{rng.choice('pq')}{rng.randint(1, n)}"


class CliOneshot(Workload):
    probe = None

    def __init__(self, seed: int, work_dir: str):
        # the checks parse exact results of thousands of digits
        if hasattr(sys, "set_int_max_str_digits"):
            sys.set_int_max_str_digits(0)
        self.work_dir = work_dir
        rng = random.Random(seed)
        self.nets = []
        for k in range(4):
            labels, edges = random_edges(rng.randint(8, 12), rng,
                                         lambda: Fraction(rng.randint(1, 5), rng.randint(1, 3)))
            path = os.path.join(work_dir, f"net{k}.json")
            doc = {"vertices": labels,
                   "edges": [{"u": labels[i], "v": labels[j], "r": str(r)} for i, j, r in edges]}
            with open(path, "w", encoding="utf-8") as handle:
                json.dump(doc, handle)
            self.nets.append((path, labels, edges))
        n = rng.randint(3, 5000)
        m = rng.randint(3, 5000)
        files = [net[0] for net in self.nets]
        labels = [net[1] for net in self.nets]
        ops = [
            Op("resistance", ["resistance", str(n), _vertex(rng, n), _vertex(rng, n)]),
            Op("resistance_float", ["resistance", str(m), _vertex(rng, m), _vertex(rng, m), "--float"]),
            Op("kirchhoff_closed", ["kirchhoff", str(rng.randint(100, 5000))]),
            Op("kirchhoff_coth", ["kirchhoff", str(rng.randint(100, 5000)), "--method", "coth"]),
            Op("kirchhoff_spectral", ["kirchhoff", str(rng.randint(100, 2000)), "--method", "spectral"]),
            Op("table_json", ["table", str(rng.randint(6, 16)), "--format", "json"]),
            Op("net_resistance", ["net", "resistance", files[0], *rng.sample(labels[0], 2)]),
            Op("net_reduce", ["net", "reduce", files[1], "--keep",
                              ",".join(rng.sample(labels[1], rng.randint(3, 5)))]),
            Op("net_spantrees", ["net", "spantrees", files[2]]),
            Op("net_kirchhoff", ["net", "kirchhoff", files[3]]),
            Op("verify", ["verify", "--n-max", "4"]),
            Op("kirchhoff_closed", FAULT[1], fault=FAULT[0]),
        ]
        rng.shuffle(ops)
        self.ops = ops
        self.traced = False
        self.command_s: list[float] = []
        self.stdout_bytes = 0
        self.untraced_ops = 0
        self.stats: dict[str, dict] = {}

    def run(self, op: Op):
        if self.traced:
            stats_path = os.path.join(self.work_dir, "trace.json")
            cmd = [sys.executable, os.path.join(HERE, "clitrace.py"), stats_path, *op.args]
        else:
            cmd = [sys.executable, "-m", "prismres.cli", *op.args]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, timeout=60)
        if self.traced:
            exited = time.monotonic()
            with open(stats_path, encoding="utf-8") as handle:
                traced = json.load(handle)
            merge(self.stats, traced["stats"])
            self.command_s.append(exited - traced["imported"])
        else:
            self.stdout_bytes += len(proc.stdout)
            self.untraced_ops += 1
        return proc.returncode, proc.stdout.decode(), proc.stderr.decode()

    def check(self, op: Op, out) -> str | None:
        rc, stdout, stderr = out
        what = " ".join(op.args)
        if rc != 0:
            return f"`{what}` exited {rc}: {stderr.strip().splitlines()[:1]}"
        a = op.args
        text = stdout.strip()
        try:
            if op.kind == "resistance":
                return ref.check_exact(Fraction(text), ref.prism_pair_resistance(int(a[1]), a[2], a[3]), what)
            if op.kind == "resistance_float":
                want = float(ref.prism_pair_resistance(int(a[1]), a[2], a[3]))
                if want == 0:
                    return None if float(text) == 0.0 else f"{what}: got {text}, want 0"
                return ref.check_float(float(text), want, what)
            if op.kind == "kirchhoff_closed":
                return ref.check_exact(Fraction(text), ref.kirchhoff(int(a[1])), what)
            if op.kind in ("kirchhoff_coth", "kirchhoff_spectral"):
                return ref.check_float(float(text), float(ref.kirchhoff(int(a[1]))), what)
            if op.kind == "table_json":
                n = int(a[1])
                doc = json.loads(text)
                rows = [[Fraction(x) for x in row] for row in doc["resistances"]]
                return ref.check_table(rows, n, ref.base_table(n), exact=True)
            if op.kind == "verify":
                lines = text.splitlines()
                m = _VERIFY_RE.match(lines[-1])
                if not m or m[1] != m[2] or any(x.startswith("FAIL") for x in lines):
                    return f"{what}: {lines[-1]!r}"
                return None
            return self._check_net(op, text, what)
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            return f"{what}: unreadable output ({exc})"

    def _check_net(self, op: Op, text: str, what: str) -> str | None:
        path = op.args[2]
        _, labels, edges = next(net for net in self.nets if net[0] == path)
        if op.ref is None:
            op.ref = ref.ExactNetwork(len(labels), edges)
        r = op.ref
        ix = {v: k for k, v in enumerate(labels)}
        if op.kind == "net_resistance":
            u, v = op.args[3], op.args[4]
            return ref.check_exact(Fraction(text), r.resistance(ix[u], ix[v]), what)
        if op.kind == "net_spantrees":
            return ref.check_exact(Fraction(text), r.tree_weight, what)
        if op.kind == "net_kirchhoff":
            return ref.check_exact(Fraction(text), r.kirchhoff(), what)
        keep = op.args[4].split(",")
        doc = json.loads(text)
        reduced = [(e["u"], e["v"], Fraction(e["r"])) for e in doc["edges"]]
        return ref.check_kron(doc["vertices"], reduced, keep,
                              lambda a, b: r.resistance(ix[keep[a]], ix[keep[b]]), exact=True)

    def peak_rss_kb(self) -> int:
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss

    def start_tracing(self) -> None:
        pass

    def set_traced(self, on: bool) -> None:
        self.traced = on

    def layer_stats(self) -> dict[str, dict]:
        return self.stats

    def cli_layers(self) -> dict[str, float]:
        """Adds cli.command_ms, the median time of a traced command from the
        end of its imports to its exit, and cli.stdout_bytes per round."""
        out = super().cli_layers()
        out["cli.command_ms"] = statistics.median(self.command_s) * 1000.0
        out["cli.stdout_bytes"] = self.stdout_bytes * len(self.ops) / self.untraced_ops
        return out
