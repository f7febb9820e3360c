"""CLI contract: outputs, exit codes, determinism."""

import json
import os
import random
import re
import subprocess
import sys
import time
import warnings
from decimal import Decimal
from fractions import Fraction

import pytest

import prismres
from prismres.cli import CAPS, _fmt, main
from prismres.ladder import ladder_terminal_resistances
from prismres.network import build_prism, network_from_json, network_to_json, resistance_oracle
from prismres.prism import kirchhoff_closed, prism_resistance, resistance_table


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


TRIANGLE = {
    "vertices": ["a", "b", "c"],
    "edges": [
        {"u": "a", "v": "b", "r": 1},
        {"u": "b", "v": "c", "r": 1},
        {"u": "a", "v": "c", "r": 1},
    ],
}


@pytest.fixture
def triangle_file(tmp_path):
    path = tmp_path / "triangle.json"
    path.write_text(json.dumps(TRIANGLE))
    return str(path)


# -- resistance -------------------------------------------------------------


def test_resistance_exact(capsys):
    code, out, err = run_cli(capsys, "resistance", "3", "p1", "q1")
    assert code == 0
    assert out == "3/5\n"
    assert "# command=resistance elapsed_ms=" in err


def test_resistance_float(capsys):
    code, out, _ = run_cli(capsys, "resistance", "4", "p1", "p3", "--float")
    assert code == 0
    assert out == repr(prism_resistance(4, "p1", "p3", mode="float")) + "\n"


def test_resistance_same_vertex(capsys):
    code, out, _ = run_cli(capsys, "resistance", "3", "q2", "q2")
    assert (code, out) == (0, "0\n")


def test_resistance_rejects_bad_input(capsys):
    for argv in (("resistance", "3", "p9", "q1"),
                 ("resistance", "3", "x1", "q1"),
                 ("resistance", "3", "p1\n", "q2"),
                 ("resistance", "3", "p1\u0662", "q2"),
                 ("resistance", "0", "p1", "q1")):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error:")


@pytest.mark.parametrize("argv", [
    ("resistance", str(10 ** 310), "p1", "q1", "--float"),
    ("kirchhoff", str(10 ** 310), "--method", "coth"),
])
def test_float_closed_form_past_binary64_exits_one(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (1, "")
    error, record = err.splitlines()
    assert error == "error: int too large to convert to float"
    assert record.startswith(f"# command={argv[0]} elapsed_ms=")


def test_float_resistance_fits_binary64_though_its_flat_product_does_not(capsys):
    n, half = 10 ** 300, 5 * 10 ** 299  # m l = 2.5e599 has no float, r does
    code, out, _ = run_cli(capsys, "resistance", str(n), "p1", f"q{half}", "--float")
    assert (code, out) == (0, "1.25e+299\n")


# -- kirchhoff ---------------------------------------------------------------


def test_kirchhoff_closed_is_exact(capsys):
    assert run_cli(capsys, "kirchhoff", "2")[:2] == (0, "11/3\n")
    assert run_cli(capsys, "kirchhoff", "9")[:2] == (0, "44193/265\n")


def test_kirchhoff_prints_past_the_int_str_limit(capsys):
    code, out, _ = run_cli(capsys, "kirchhoff", "20000")
    assert code == 0
    num, den = out.strip().split("/")
    assert len(num) > 4300
    want = kirchhoff_closed(20000)
    assert (int(Decimal(num)), int(Decimal(den))) == (want.numerator, want.denominator)


def test_fmt_writes_what_str_writes():
    rng = random.Random(14)
    values = [0, 1, -1, 1 << 4096, (1 << 4096) - 1, -(1 << 8193) - 5, Fraction(-3, 1 << 9000)]
    for digits in (1, 2, 1233, 1234, 2467, 4300, 4301, 20000, 65537):
        x = rng.randrange(10 ** (digits - 1), 10 ** digits)
        values += [x, -x, Fraction(x, rng.randrange(1, 10 ** 60) * 2 + 1)]
    values.append(rng.randrange(10 ** 299999, 10 ** 300000))  # str() alone takes seconds here
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        for value in values:
            assert _fmt(value) == str(value)
    finally:
        sys.set_int_max_str_digits(limit)


def test_fmt_of_a_million_rung_kirchhoff_index_is_fast():
    value = kirchhoff_closed(10 ** 6)
    start = time.perf_counter()
    text = _fmt(value)
    elapsed = time.perf_counter() - start
    assert len(text) > 500_000
    assert elapsed < 1.5, elapsed


def test_kirchhoff_float_methods(capsys):
    for method in ("coth", "spectral", "oracle"):
        code, out, _ = run_cli(capsys, "kirchhoff", "4", "--method", method)
        assert code == 0
        assert abs(float(out) - 58.0 / 3.0) <= 1e-9 * 58.0


def test_kirchhoff_oracle_cap(capsys):
    cap = CAPS["kirchhoff --method oracle"]
    code, out, err = run_cli(capsys, "kirchhoff", str(cap + 1), "--method", "oracle")
    assert (code, out) == (2, "")
    assert "capped" in err
    code, out, err = run_cli(capsys, "kirchhoff", "201", "--method", "oracle", "--oracle-cap", "250")
    assert (code, out) == (2, "")
    assert "unrecognized arguments: --oracle-cap" in err
    code, out, _ = run_cli(capsys, "kirchhoff", "201", "--method", "oracle")
    assert code == 0
    assert float(out) > 0


# -- table -------------------------------------------------------------------


def test_table_csv_shape_and_values(capsys):
    code, out, _ = run_cli(capsys, "table", "2")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "vertex,p1,p2,q1,q2"
    assert len(lines) == 5
    cells = [line.split(",") for line in lines[1:]]
    values = [[float(x) for x in row[1:]] for row in cells]
    expected = resistance_table(2, mode="float")
    for got_row, want_row in zip(values, expected):
        for got, want in zip(got_row, want_row):
            assert got == want  # 17 significant digits round-trips binary64


def test_table_json_exact(capsys):
    code, out, _ = run_cli(capsys, "table", "2", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["n"] == 2
    assert doc["vertices"] == ["p1", "p2", "q1", "q2"]
    assert doc["resistances"][0] == ["0", "5/12", "2/3", "3/4"]
    assert [[Fraction(x) for x in row] for row in doc["resistances"]] == resistance_table(2)


@pytest.mark.parametrize("argv, message", [
    (("table", "2001"), "table --format csv is capped at n=2000"),
    (("table", "501", "--format", "json"), "table --format json is capped at n=500"),
    (("table", str(10 ** 310)), "table --format csv is capped at n=2000"),
    (("resistance", str(10 ** 310), "p1", "p1"), None),
    (("resistance", "10000001", "p1", "q2"), None),
    (("kirchhoff", str(10 ** 310)), None),
    (("kirchhoff", str(CAPS["kirchhoff --method spectral"] + 1), "--method", "spectral"), None),
    (("kirchhoff", str(CAPS["kirchhoff --method oracle"] + 1), "--method", "oracle"), None),
    (("verify", "--n-max", "41"), "verify --n-max is capped at n=40"),
], ids=["csv-2001", "json-501", "csv-10^310", "resistance-10^310", "resistance-10^7+1",
        "kirchhoff-10^310", "spectral-cap+1", "oracle-cap+1", "verify-cap+1"])
def test_n_past_its_cap_is_refused_at_once(capsys, argv, message):
    start = time.perf_counter()
    code, out, err = run_cli(capsys, *argv)
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (2, "")
    errors = [line for line in err.splitlines() if line.startswith("error:")]
    assert len(errors) == 1 and "capped at n=" in errors[0]
    if message:
        assert errors[0] == f"error: {message}"


def test_table_deterministic(capsys):
    first = run_cli(capsys, "table", "7")[1]
    second = run_cli(capsys, "table", "7")[1]
    assert first == second


def test_table_output_file(capsys, tmp_path):
    path = tmp_path / "out.csv"
    code, out, _ = run_cli(capsys, "table", "3", "--output", str(path))
    assert code == 0
    assert out == ""
    assert path.read_text() == run_cli(capsys, "table", "3")[1]


# -- verify ------------------------------------------------------------------


def test_verify_passes(capsys):
    code, out, _ = run_cli(capsys, "verify", "--n-max", "3")
    assert code == 0
    lines = out.strip().split("\n")
    assert all(line.startswith("PASS") for line in lines[:-1])
    assert lines[-1].endswith("checks passed")


def test_verify_reports_failure_without_crashing(capsys):
    # an absurd tolerance flips float comparisons into honest failures
    code, out, _ = run_cli(capsys, "verify", "--n-max", "3", "--tol", "1e-30")
    assert code == 1
    assert "FAIL" in out


def test_verify_handles_degenerate_sizes(capsys):
    assert run_cli(capsys, "verify", "--n-max", "1")[0] == 0


@pytest.mark.parametrize("tol, code", [
    ("1e-9", 0), ("0.5", 0), ("0", 1), ("1e-30", 1),
    ("nan", 2), ("inf", 2), ("-inf", 2), ("-1", 2),
])
def test_verify_exit_code_by_tolerance(capsys, tol, code):
    got, out, err = run_cli(capsys, "verify", "--n-max", "2", f"--tol={tol}")
    assert got == code
    if code == 2:
        assert out == ""
        assert err.startswith("error: tol must be finite and nonnegative")
    else:
        assert out.endswith("checks passed\n")


def test_verify_json_reports_each_check_and_the_totals(capsys):
    text_code, text, _ = run_cli(capsys, "verify", "--n-max", "3")
    code, out, _ = run_cli(capsys, "verify", "--n-max", "3", "--format", "json")
    assert code == text_code == 0
    doc = json.loads(out)
    assert set(doc) == {"checks", "passed", "total", "elapsed_ms"}
    lines = text.splitlines()
    assert lines[-1] == f"{doc['passed']}/{doc['total']} checks passed" == "13/13 checks passed"
    assert len(doc["checks"]) == doc["total"] == len(lines) - 1
    for check, line in zip(doc["checks"], lines):
        assert set(check) == {"name", "passed", "detail", "elapsed_ms"}
        assert line == f"PASS {check['name']}: {check['detail']}"
        assert check["passed"] is True and check["elapsed_ms"] >= 0
    assert doc["elapsed_ms"] > 0
    assert doc["elapsed_ms"] >= max(c["elapsed_ms"] for c in doc["checks"])


def test_verify_json_reports_failures_with_exit_one(capsys):
    code, out, _ = run_cli(capsys, "verify", "--n-max", "3", "--tol", "1e-30", "--format", "json")
    assert code == 1
    doc = json.loads(out)
    failed = [c["name"] for c in doc["checks"] if not c["passed"]]
    assert failed and doc["passed"] == doc["total"] - len(failed)


# -- net ---------------------------------------------------------------------


def test_net_resistance(capsys, triangle_file):
    code, out, _ = run_cli(capsys, "net", "resistance", triangle_file, "a", "b")
    assert (code, out) == (0, "2/3\n")


def test_net_resistance_float_file(capsys, tmp_path):
    doc = {"vertices": ["a", "b"], "edges": [{"u": "a", "v": "b", "r": 0.5}]}
    path = tmp_path / "f.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run_cli(capsys, "net", "resistance", str(path), "a", "b")
    assert code == 0
    assert abs(float(out) - 0.5) <= 1e-12


def test_net_kirchhoff(capsys, triangle_file):
    assert run_cli(capsys, "net", "kirchhoff", triangle_file)[:2] == (0, "2\n")


def test_net_spantrees(capsys, tmp_path):
    path = tmp_path / "prism3.json"
    path.write_text(json.dumps(network_to_json(build_prism(3))))
    assert run_cli(capsys, "net", "spantrees", str(path))[:2] == (0, "75\n")


def test_net_spantrees_rejects_float(capsys, tmp_path):
    doc = {"vertices": ["a", "b"], "edges": [{"u": "a", "v": "b", "r": 0.5}]}
    path = tmp_path / "f.json"
    path.write_text(json.dumps(doc))
    assert run_cli(capsys, "net", "spantrees", str(path))[0] == 2


def test_net_reduce_preserves_resistances(capsys, tmp_path):
    from prismres.network import build_ladder

    src = tmp_path / "ladder3.json"
    src.write_text(json.dumps(network_to_json(build_ladder(3))))
    dst = tmp_path / "reduced.json"
    code, out, _ = run_cli(capsys, "net", "reduce", str(src),
                           "--keep", "p3,q3,p1,q1", "--output", str(dst))
    assert code == 0 and out == ""
    reduced = network_from_json(json.loads(dst.read_text()))
    assert reduced.vertices == ("p3", "q3", "p1", "q1")
    rung, side, diag = ladder_terminal_resistances(3)
    assert resistance_oracle(reduced, "p3", "q3") == rung.as_rational()
    assert resistance_oracle(reduced, "p3", "p1") == side.as_rational()
    assert resistance_oracle(reduced, "p3", "q1") == diag.as_rational()


def test_net_reduce_to_stdout(capsys, triangle_file):
    code, out, _ = run_cli(capsys, "net", "reduce", triangle_file, "--keep", "a,b")
    assert code == 0
    doc = json.loads(out)
    assert doc["vertices"] == ["a", "b"]
    assert doc["edges"] == [{"u": "a", "v": "b", "r": "2/3"}]


def test_net_disconnected_exits_one(capsys, tmp_path):
    doc = {"vertices": ["a", "b", "c", "d"],
           "edges": [{"u": "a", "v": "b", "r": 1}, {"u": "c", "v": "d", "r": 1}]}
    path = tmp_path / "split.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "net", "resistance", str(path), "a", "c")
    assert code == 1
    assert "disconnected" in err


def test_net_unfactorable_float_network_exits_one(capsys, tmp_path):
    # two parallel 1e-308 ohm edges overflow the conductance sum to inf
    doc = {"vertices": ["a", "b", "c"],
           "edges": [{"u": "a", "v": "b", "r": 1e-308}, {"u": "a", "v": "b", "r": 1e-308},
                     {"u": "b", "v": "c", "r": 1.0}]}
    path = tmp_path / "overflow.json"
    path.write_text(json.dumps(doc))
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the overflow to inf is not a warning
        code, out, err = run_cli(capsys, "net", "resistance", str(path), "a", "c")
    assert (code, out) == (1, "")
    error, record = err.splitlines()
    assert error.startswith("error: ") and "Cholesky" in error
    assert record.startswith("# command=net elapsed_ms=")


@pytest.mark.parametrize("argv", [("resistance", "a", "c"), ("kirchhoff",)],
                         ids=["resistance", "kirchhoff"])
def test_net_float_answer_past_binary64_exits_one(capsys, tmp_path, argv):
    # each resistor fits, r(a, c) = 2e308 does not
    doc = {"vertices": ["a", "b", "c"],
           "edges": [{"u": "a", "v": "b", "r": 1e308}, {"u": "b", "v": "c", "r": 1e308}]}
    path = tmp_path / "big.json"
    path.write_text(json.dumps(doc))
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the overflow to inf is not a warning
        code, out, err = run_cli(capsys, "net", argv[0], str(path), *argv[1:])
    assert (code, out) == (1, "")
    error, record = err.splitlines()
    assert error == "error: the answer is past the binary64 range; use exact resistances"
    assert record.startswith("# command=net elapsed_ms=")
    assert run_cli(capsys, "net", "resistance", str(path), "a", "b")[:2] == (0, "1e+308\n")


@pytest.mark.parametrize("edges, keep", [
    # the parallel pair's conductance sum is inf; the path's reduced
    # conductance, 5e-309, has no finite resistance
    ([("a", "b", 1e-308), ("a", "b", 1e-308), ("b", "c", 1.0)], "a,b"),
    ([("a", "b", 1e308), ("b", "c", 1e308)], "a,c"),
], ids=["parallel", "path"])
def test_net_float_reduction_past_binary64_exits_one(capsys, tmp_path, edges, keep):
    doc = {"vertices": ["a", "b", "c"], "edges": [{"u": u, "v": v, "r": r} for u, v, r in edges]}
    path = tmp_path / "reduce.json"
    path.write_text(json.dumps(doc))
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # neither overflow is a warning
        code, out, err = run_cli(capsys, "net", "reduce", str(path), "--keep", keep)
    assert (code, out) == (1, "")
    error, record = err.splitlines()
    assert error == "error: the answer is past the binary64 range; use exact resistances"
    assert record.startswith("# command=net elapsed_ms=")


def test_net_malformed_exits_two(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run_cli(capsys, "net", "resistance", str(bad), "a", "b")[0] == 2

    schema = tmp_path / "schema.json"
    schema.write_text(json.dumps({"vertices": ["a"], "edges": [{"u": "a"}]}))
    assert run_cli(capsys, "net", "kirchhoff", str(schema))[0] == 2

    assert run_cli(capsys, "net", "resistance", str(tmp_path / "nope.json"), "a", "b")[0] == 2


def test_net_rejects_non_finite_resistance(capsys, tmp_path):
    path = tmp_path / "r.json"
    for r in ("Infinity", "NaN", "1e-320"):
        path.write_text('{"vertices": ["a", "b"], "edges": [{"u": "a", "v": "b", "r": %s}]}' % r)
        code, out, err = run_cli(capsys, "net", "resistance", str(path), "a", "b")
        assert (code, out) == (2, ""), r
        assert "edge ('a', 'b')" in err, r


def test_net_reduce_unknown_keep(capsys, triangle_file):
    assert run_cli(capsys, "net", "reduce", triangle_file, "--keep", "a,zzz")[0] == 2


# -- parser-level behavior ----------------------------------------------------


def test_unknown_command_exits_two(capsys):
    assert main(["bogus"]) == 2
    capsys.readouterr()


def test_timing_goes_to_stderr_only(capsys):
    _, out, err = run_cli(capsys, "kirchhoff", "5")
    assert "elapsed_ms" not in out
    assert "elapsed_ms" in err


def test_elapsed_time_of_a_program_counts_its_imports():
    # -X importtime writes the import time of every module to stderr
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(prismres.__file__)))
    cmd = [sys.executable, "-X", "importtime", "-m", "prismres.cli", "resistance", "3", "p1", "q1"]
    start = time.perf_counter()
    proc = subprocess.run(cmd, capture_output=True, text=True, env=env, timeout=120)
    wall_ms = (time.perf_counter() - start) * 1000.0
    assert (proc.returncode, proc.stdout) == (0, "3/5\n")
    elapsed_ms = float(re.search(r"^# command=resistance elapsed_ms=(\S+)$", proc.stderr, re.M)[1])
    imports_us = int(re.search(r"^import time:\s+\d+ \|\s+(\d+) \| prismres$", proc.stderr, re.M)[1])
    # the record starts at the first statement of the package, after its
    # module is found and loaded, which takes well under 5 ms
    assert imports_us / 1000.0 - 5.0 <= elapsed_ms <= wall_ms


# runs one command through main() in a fresh interpreter, then writes its exit
# code and the array libraries it loaded as the last line of stderr
_LOADED_AFTER = """
import sys
from prismres.cli import main
code = main(sys.argv[1:])
print(code, *sorted({"numpy", "scipy"} & set(sys.modules)), file=sys.stderr)
"""


def _loaded_after(*argv: str, code: int = 0) -> list[str]:
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(prismres.__file__)))
    proc = subprocess.run([sys.executable, "-c", _LOADED_AFTER, *argv],
                          capture_output=True, text=True, env=env, timeout=120)
    got, *loaded = proc.stderr.splitlines()[-1].split()
    assert got == str(code), proc.stderr
    return loaded


@pytest.mark.parametrize("argv", [
    ("resistance", "7", "p2", "q5"),
    ("resistance", "7", "p2", "q5", "--float"),
    ("kirchhoff", "6"),
    ("kirchhoff", "6", "--method", "coth"),
    ("kirchhoff", "6", "--method", "spectral"),
    ("table", "4"),
    ("table", "4", "--format", "json"),
])
def test_closed_form_commands_load_no_numpy_or_scipy(argv):
    assert _loaded_after(*argv) == []


def test_the_cli_imports_no_dataclasses_or_inspect():
    # dataclasses pulls in inspect, ast, dis and tokenize, which the closed
    # forms do not need at startup
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(prismres.__file__)))
    code = ("import sys, prismres.cli; "
            "print(*sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True, env=env, timeout=120)
    assert (proc.returncode, proc.stdout) == (0, "\n"), proc.stderr


def test_the_cli_imports_no_typing():
    # -S keeps site, whose .pth hooks may load typing themselves, out of the count
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(prismres.__file__)))
    code = "import sys, prismres.cli; print('typing' in sys.modules)"
    proc = subprocess.run([sys.executable, "-S", "-c", code],
                          capture_output=True, text=True, env=env, timeout=120)
    assert (proc.returncode, proc.stdout) == (0, "False\n"), proc.stderr


@pytest.mark.parametrize("argv", [
    ("net", "spantrees", "exact"),
    ("verify", "--n-max", "2"),
    ("kirchhoff", "5", "--method", "oracle"),
    ("net", "resistance", "exact", "p1", "q2"),
    ("net", "reduce", "exact", "--keep", "p1,q2"),
    ("net", "kirchhoff", "exact"),
    ("net", "resistance", "float", "p1", "q2"),
])
def test_oracle_commands_load_numpy_and_scipy(argv, tmp_path):
    # exact answers run on Python ints and Fractions alone, so an exact
    # network loads neither; float ones, verify and the oracle method load both
    paths = {}
    for kind, net in (("exact", build_prism(3)), ("float", build_prism(3).to_float())):
        paths[kind] = tmp_path / f"{kind}.json"
        paths[kind].write_text(json.dumps(network_to_json(net)))
    expected = [] if "exact" in argv else ["numpy", "scipy"]
    assert _loaded_after(*(str(paths.get(a, a)) for a in argv)) == expected


# runs one command through main() in a fresh interpreter in which NumPy and
# SciPy cannot be imported, as where neither is installed
_WITHOUT = """
import sys

class Blocker:
    def find_spec(self, name, path=None, target=None):
        top = name.partition(".")[0]
        if top in sys.argv[1].split(","):
            raise ModuleNotFoundError(f"No module named {top!r}", name=top)

sys.meta_path.insert(0, Blocker())
from prismres.cli import main
sys.exit(main(sys.argv[2:]))
"""


def _run_without(blocked: str, *argv: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(prismres.__file__)))
    return subprocess.run([sys.executable, "-c", _WITHOUT, blocked, *argv],
                          capture_output=True, text=True, env=env, timeout=120)


def test_exact_net_commands_run_without_numpy_or_scipy(tmp_path):
    path = tmp_path / "exact.json"
    path.write_text(json.dumps({"vertices": ["a", "b", "c"],
                                "edges": [{"u": "a", "v": "b", "r": 1}, {"u": "b", "v": "c", "r": 2}]}))
    for argv, out in ((("resistance", str(path), "a", "c"), "3\n"),
                      (("kirchhoff", str(path)), "6\n"),
                      (("spantrees", str(path)), "1/2\n")):
        proc = _run_without("numpy,scipy", "net", *argv)
        assert (proc.returncode, proc.stdout) == (0, out), proc.stderr
    proc = _run_without("numpy,scipy", "net", "reduce", str(path), "--keep", "a,c")
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["edges"] == [{"u": "a", "v": "c", "r": "3"}]


@pytest.mark.parametrize("blocked", ["numpy", "scipy"])
@pytest.mark.parametrize("argv", [
    ("net", "resistance", "float", "p1", "q2"),
    ("net", "kirchhoff", "float"),
    ("net", "reduce", "float", "--keep", "p1,q2"),
    ("verify", "--n-max", "2"),
    ("kirchhoff", "5", "--method", "oracle"),
])
def test_a_missing_numpy_or_scipy_is_one_error_line(argv, blocked, tmp_path):
    path = tmp_path / "float.json"
    path.write_text(json.dumps(network_to_json(build_prism(3).to_float())))
    proc = _run_without(blocked, *(str(path) if a == "float" else a for a in argv))
    assert (proc.returncode, proc.stdout) == (1, "")
    lines = {f"error: No module named '{name}'" for name in blocked.split(",")}
    assert proc.stderr.splitlines()[0] in lines, proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("argv", [("verify", "--n-max", "0"), ("verify", "--tol", "nan")])
def test_verify_refuses_malformed_input_before_it_imports_numpy(argv):
    # exit 2 even where NumPy and SciPy are missing, and neither is loaded
    # where they are installed
    proc = _run_without("numpy,scipy", *argv)
    assert (proc.returncode, proc.stdout) == (2, ""), proc.stderr
    errors = [line for line in proc.stderr.splitlines() if line.startswith("error:")]
    assert len(errors) == 1 and "Traceback" not in proc.stderr, proc.stderr
    assert _loaded_after(*argv, code=2) == []


def test_any_other_missing_module_still_raises(monkeypatch, capsys):
    def missing(args):
        raise ModuleNotFoundError("No module named 'numpyx'", name="numpyx")

    monkeypatch.setattr("prismres.cli._cmd_kirchhoff", missing)
    with pytest.raises(ModuleNotFoundError):
        main(["kirchhoff", "5"])
    capsys.readouterr()


def test_resistance_deterministic(capsys):
    runs = {run_cli(capsys, "resistance", "17", "p2", "q9")[1] for _ in range(3)}
    assert len(runs) == 1
