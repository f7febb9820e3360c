"""Per-function timing of prismres from outside the program.

Tracer wraps every public module-level function of every prismres module,
and the public methods of network.Network, at every place that binds them:
prism imports gfib by name, so prism.gfib is replaced by the same wrapper as
genfib.gfib.  Each wrapper counts calls and measures total and self time;
self time is a call's time minus the time of the wrapped calls it made.
install() and uninstall() swap the wrappers in and out, so one process can
alternate traced and untraced rounds.

Per-layer metrics (LAYER_METRICS) are computed from these counts by the
worker; their names are listed in BENCHMARK.json.
"""

from __future__ import annotations

import importlib
import inspect
import time

MODULES = ("exact", "genfib", "ladder", "prism", "network", "verify", "cli")

# (name, unit, better); values per traced round unless said otherwise
LAYER_METRICS = [
    ("exact.two_minus_sqrt3_pow.calls", "count", "lower"),
    ("exact.two_minus_sqrt3_pow.self_ms", "ms", "lower"),
    ("genfib.gfib.calls", "count", "lower"),
    ("genfib.gfib.self_ms", "ms", "lower"),
    ("genfib.prism_spanning_tree_count.self_ms", "ms", "lower"),
    ("ladder.ladder_params.calls", "count", "lower"),
    ("ladder.ladder_params.self_ms", "ms", "lower"),
    ("prism.prism_resistance.self_ms", "ms", "lower"),
    ("prism.prism_resistance_base.calls", "count", "lower"),
    ("prism.prism_resistance_base.self_ms", "ms", "lower"),
    ("prism.kirchhoff_closed.self_ms", "ms", "lower"),
    ("prism.prism_resistance_via_reduction.self_ms", "ms", "lower"),
    ("prism.resistance_table.self_ms", "ms", "lower"),
    ("network.network_from_json.self_ms", "ms", "lower"),
    ("network.Network.laplacian.self_ms", "ms", "lower"),
    ("network.pinv_laplacian.calls", "count", "lower"),
    ("network.pinv_laplacian.self_ms", "ms", "lower"),
    ("network.pinv_laplacian.order_max", "count", "lower"),
    ("network.resistance_oracle.calls", "count", "lower"),
    ("network.resistance_oracle.self_ms", "ms", "lower"),
    ("network.queries_per_pinv", "ratio", "higher"),
    ("network.kirchhoff_oracle.self_ms", "ms", "lower"),
    ("network.kron_reduce.self_ms", "ms", "lower"),
    ("network.matrix_tree_count.self_ms", "ms", "lower"),
    ("verify.run_checks.self_ms", "ms", "lower"),
    ("cli.interpreter_ms", "ms", "lower"),
    ("cli.import_ms", "ms", "lower"),
    ("cli.command_ms", "ms", "lower"),
    ("cli.stdout_bytes", "bytes", "lower"),
    ("trace.ops_per_s", "1/s", "higher"),
    ("trace.overhead_pct", "%", "lower"),
]

# the argument size recorded as <key>.order_max
_ORDER_OF = {"network.pinv_laplacian": lambda args: args[0].order}


class Tracer:
    def __init__(self) -> None:
        self.stats: dict[str, dict] = {}
        self._stack: list[float] = []
        self._patches: list[tuple[object, str, object, object]] = []
        wrappers: dict[str, object] = {}
        owners = [importlib.import_module("prismres")]
        owners += [importlib.import_module(f"prismres.{m}") for m in MODULES]
        for owner in owners:
            for name, obj in list(vars(owner).items()):
                if name.startswith("_") or not inspect.isfunction(obj):
                    continue
                home = obj.__module__
                if not home.startswith("prismres."):
                    continue
                key = f"{home.rsplit('.', 1)[1]}.{obj.__qualname__}"
                if key not in wrappers:
                    wrappers[key] = self._wrap(key, obj)
                self._patches.append((owner, name, obj, wrappers[key]))
        network_cls = importlib.import_module("prismres.network").Network
        for name, obj in list(vars(network_cls).items()):
            if not name.startswith("_") and inspect.isfunction(obj):
                key = f"network.Network.{name}"
                self._patches.append((network_cls, name, obj, self._wrap(key, obj)))

    def _wrap(self, key: str, fn):
        stat = self.stats.setdefault(key, {"calls": 0, "total_s": 0.0, "self_s": 0.0,
                                           "order_max": 0})
        stack = self._stack
        perf = time.perf_counter
        order_of = _ORDER_OF.get(key)

        def wrapper(*args, **kwargs):
            if order_of is not None:
                stat["order_max"] = max(stat["order_max"], order_of(args))
            stack.append(0.0)
            start = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf() - start
                children = stack.pop()
                stat["calls"] += 1
                stat["total_s"] += elapsed
                stat["self_s"] += elapsed - children
                if stack:
                    stack[-1] += elapsed

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        wrapper.__qualname__ = fn.__qualname__
        wrapper.__doc__ = fn.__doc__
        return wrapper

    def install(self) -> None:
        for owner, name, _, wrapper in self._patches:
            setattr(owner, name, wrapper)

    def uninstall(self) -> None:
        for owner, name, original, _ in self._patches:
            setattr(owner, name, original)


def merge(total: dict[str, dict], stats: dict[str, dict]) -> None:
    """Add one tracer's stats into an accumulated stats dict."""
    for key, s in stats.items():
        t = total.setdefault(key, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "order_max": 0})
        t["calls"] += s["calls"]
        t["total_s"] += s["total_s"]
        t["self_s"] += s["self_s"]
        t["order_max"] = max(t["order_max"], s["order_max"])


def layer_values(stats: dict[str, dict], rounds: int) -> dict[str, float]:
    """The function-level LAYER_METRICS, per traced round, from accumulated stats.

    A function missing from prismres reads 0 (and is listed as absent by the
    worker) rather than failing the run.
    """
    out: dict[str, float] = {}
    for name, _, _ in LAYER_METRICS:
        key, field = name.rsplit(".", 1)
        if field not in ("calls", "self_ms", "order_max"):
            continue
        s = stats.get(key)
        if s is None:
            out[name] = 0
        elif field == "calls":
            out[name] = s["calls"] / rounds
        elif field == "self_ms":
            out[name] = s["self_s"] * 1000.0 / rounds
        else:
            out[name] = s["order_max"]
    pinv = stats.get("network.pinv_laplacian", {}).get("calls", 0)
    queries = stats.get("network.resistance_oracle", {}).get("calls", 0)
    out["network.queries_per_pinv"] = queries / pinv if pinv else 0
    return out
