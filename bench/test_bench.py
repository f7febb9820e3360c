"""Tests of the benchmark itself:  python3 -m pytest bench -q

The reference agrees with prismres where both are known to be right, every
check accepts the program's answers and rejects a perturbed one, the tracer
wraps what it says, and BENCHMARK.json lists the metrics the runs print.
"""

import copy
import json
import os
from fractions import Fraction

import pytest

import prismres
import reference as ref
from closed_forms import ClosedForms
from cli_oneshot import CliOneshot
from oracle import OracleExact, OracleFloat
from tracer import LAYER_METRICS, Tracer

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def perturb(out):
    """The same answer, changed a little."""
    if isinstance(out, bool):
        raise TypeError(out)
    if isinstance(out, int):
        return out + 1
    if isinstance(out, Fraction):
        return out + Fraction(1, 10 ** 12)
    if isinstance(out, float):
        return out * (1 + 1e-6) if out else 1e-9
    if isinstance(out, tuple):  # a Kron reduction: (vertices, edges)
        vertices, edges = out
        (u, v, r), *rest = edges
        return vertices, [(u, v, 2 * r), *rest]
    out = copy.deepcopy(out)
    if isinstance(out[0], list):  # a table
        out[0][1] = perturb(out[0][1])
    else:
        out[0] = perturb(out[0])
    return out


# ---------------------------------------------------------------------------
# the reference


@pytest.mark.parametrize("n", [*range(1, 60), 137, 500])
def test_reference_resistance_matches_prismres(n):
    table = ref.base_table(n)
    for i in range(1, n + 1):
        for kind in ("pp", "pq"):
            want = prismres.prism_resistance_base(n, i, kind)
            assert table[kind][i - 1] == want
            if n in (1, 2, 17, 137) or i in (1, 2, n):
                assert ref.base_resistance(n, i, kind) == want


@pytest.mark.parametrize("n", range(1, 60))
def test_reference_kirchhoff_and_trees_match_prismres(n):
    assert ref.kirchhoff(n) == prismres.kirchhoff_closed(n)
    assert ref.tree_count(n) == prismres.prism_spanning_tree_count(n)


def test_reference_pair_reduction_matches_prismres():
    n = 9
    labels = [f"{r}{k}" for r in "pq" for k in range(1, n + 1)]
    for u in labels:
        for v in labels:
            assert ref.prism_pair_resistance(n, u, v) == prismres.prism_resistance(n, u, v)


def test_exact_network_reference_matches_closed_forms():
    from oracle import prism_edges

    labels, edges = prism_edges(6)
    net = ref.ExactNetwork(len(labels), edges)
    assert net.kirchhoff() == ref.kirchhoff(6)
    assert net.tree_weight == ref.tree_count(6)
    assert net.resistance(0, 6 + 3) == ref.base_resistance(6, 4, "pq")


# ---------------------------------------------------------------------------
# property checks on their own


def test_foster_rejects_a_perturbed_edge():
    from oracle import prism_edges

    labels, edges = prism_edges(5)
    pinv = ref.float_pinv(len(labels), edges)
    good = [ref.pinv_resistance(pinv, i, j) for i, j, _ in edges]
    assert ref.check_foster(good, edges, len(labels)) is None
    assert ref.check_foster(perturb(good), edges, len(labels)) is not None


def test_kron_check_rejects_dropped_edge_and_wrong_order():
    net = prismres.build_prism(4)
    keep = ["p1", "q2", "p3"]
    reduced = prismres.kron_reduce(net, keep)
    want = ref.ExactNetwork(8, [(net.vertex_index(u), net.vertex_index(v), r) for u, v, r in net.edges])
    ix = [net.vertex_index(v) for v in keep]

    def check(vertices, edges):
        return ref.check_kron(vertices, edges, keep, lambda a, b: want.resistance(ix[a], ix[b]), True)

    edges = list(reduced.edges)
    assert check(list(reduced.vertices), edges) is None
    assert check(list(reduced.vertices), edges[1:]) is not None
    assert check(list(reduced.vertices)[::-1], edges) is not None
    assert check(*perturb((list(reduced.vertices), edges))) is not None


@pytest.mark.parametrize("mode", ["exact", "float"])
def test_table_check_rejects_asymmetry_and_a_symmetric_change(mode):
    n = 7
    table = prismres.resistance_table(n, mode)
    bases = ref.base_table(n)
    exact = mode == "exact"
    assert ref.check_table(table, n, bases, exact) is None
    assert ref.check_table(perturb(table), n, bases, exact) is not None
    both = copy.deepcopy(table)
    both[0][2] = both[2][0] = perturb(both[0][2])
    assert ref.check_table(both, n, bases, exact) is not None
    assert ref.check_table(table[:-1], n, bases, exact) is not None


# ---------------------------------------------------------------------------
# every operation of every in-process workload, small


class SmallExact(OracleExact):
    orders = (6, 12)


class SmallFloat(OracleFloat):
    orders = (20, 50)


@pytest.mark.parametrize("make", [lambda: ClosedForms(5), lambda: SmallExact(5), lambda: SmallFloat(5)],
                         ids=["closed-forms", "oracle-exact", "oracle-float"])
def test_every_check_accepts_the_answer_and_rejects_a_perturbed_one(make):
    wl = make()
    for op in wl.ops:
        if op.fault is not None:
            continue
        out = wl.run(op)
        assert wl.check(op, out) is None, op.kind
        assert wl.check(op, perturb(out)) is not None, op.kind


def test_scaled_networks_are_checked_against_scaled_references():
    wl = SmallExact(5)
    scaled = [op for op in wl.ops if op.args[1].scale != 1 and op.kind == "kirchhoff"]
    assert scaled
    for op in scaled:
        net = op.args[1]
        unscaled = prismres.Network(net.labels, [(net.labels[i], net.labels[j], r) for i, j, r in net.edges])
        assert wl.check(op, prismres.kirchhoff_oracle(unscaled)) is not None
        assert wl.check(op, wl.run(op)) is None


def test_float_fault_checks_accept_the_true_answers():
    wl = SmallFloat(5)
    for op in (op for op in wl.ops if op.fault is not None):
        question, net, arg = op.args
        if question == "pairs":
            right = [wl.want(op, u, v) for u, v in arg]
        else:
            right = (arg, [(arg[0], arg[1], wl.want(op, arg[0], arg[1]))])
        assert wl.check(op, right) is None, op.fault
        assert wl.check(op, perturb(right)) is not None, op.fault


# ---------------------------------------------------------------------------
# cli-oneshot checks, on real command output


@pytest.fixture(scope="module")
def cli_outputs(tmp_path_factory):
    os.environ["PYTHONPATH"] = os.path.join(ROOT, "src")
    wl = CliOneshot(7, str(tmp_path_factory.mktemp("cli")))
    return wl, [(op, wl.run(op)) for op in wl.ops if op.fault is None]


def _perturb_stdout(kind: str, text: str) -> str:
    if kind == "verify":
        return text.replace("FAIL", "PASS").replace("13/13", "12/13")
    if kind in ("table_json", "net_reduce"):
        doc = json.loads(text)
        if kind == "table_json":
            doc["resistances"][0][1] = str(Fraction(doc["resistances"][0][1]) + 1)
        else:
            doc["edges"][0]["r"] = str(Fraction(doc["edges"][0]["r"]) * 2)
        return json.dumps(doc)
    if kind in ("resistance_float", "kirchhoff_coth", "kirchhoff_spectral"):
        return repr(perturb(float(text)))
    return str(Fraction(text) + 1)


def test_cli_checks_accept_the_output_and_reject_a_perturbed_one(cli_outputs):
    wl, outputs = cli_outputs
    for op, (rc, stdout, stderr) in outputs:
        assert wl.check(op, (rc, stdout, stderr)) is None, op.kind
        assert wl.check(op, (2, stdout, stderr)) is not None, op.kind
        assert wl.check(op, (rc, _perturb_stdout(op.kind, stdout), stderr)) is not None, op.kind


# ---------------------------------------------------------------------------
# the tracer and BENCHMARK.json


def test_tracer_wraps_every_binding_and_splits_self_time():
    import prismres.genfib as genfib
    import prismres.prism as prism

    original = genfib.gfib
    tracer = Tracer()
    tracer.install()
    try:
        assert prism.gfib is genfib.gfib is not original
        prism.kirchhoff_closed(12)
        prismres.resistance_oracle(prismres.build_prism(3), "p1", "q2")
    finally:
        tracer.uninstall()
    assert prism.gfib is genfib.gfib is original
    s = tracer.stats
    assert s["prism.kirchhoff_closed"]["calls"] == 1
    assert s["genfib.gfib"]["calls"] == 2
    assert s["network.pinv_laplacian"]["order_max"] == 6
    for stat in s.values():
        assert stat["self_s"] <= stat["total_s"] + 1e-9


def test_benchmark_json_lists_the_printed_metrics():
    from run import END_TO_END, WORKLOADS

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        bench = json.load(handle)
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == list(END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == LAYER_METRICS
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)
