"""The module that joins the two routes, and the import boundary that keeps them apart."""

import ast
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import prismres
from prismres import prism, verify
from prismres.network import Network, build_ladder, build_prism
from prismres.verify import run_checks

SOURCE = Path(prismres.__file__).parent
MODULES = {path.stem for path in SOURCE.glob("*.py")}


def _imports(module: str) -> tuple[set[str], set[str]]:
    """(prismres modules, other top-level packages) that a module's source imports."""
    tree = ast.parse((SOURCE / f"{module}.py").read_text(encoding="utf-8"))
    own, other = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        elif isinstance(node, ast.ImportFrom):
            if node.module:
                own.add(node.module.split(".")[0])
            else:  # from . import name: a module, or a name of the package itself
                own.update(a.name if a.name in MODULES else "__init__" for a in node.names)
            continue
        else:
            continue
        for name in names:
            parts = name.split(".")
            if parts[0] == "prismres":
                own.add(parts[1] if len(parts) > 1 else "__init__")
            else:
                other.add(parts[0])
    return own, other


def test_the_oracle_and_the_closed_forms_import_apart():
    own, other = _imports("network")
    assert own == set()
    assert other <= set(sys.stdlib_module_names) | {"numpy", "scipy"}, other
    for module in ("exact", "genfib", "ladder", "prism"):
        own, _ = _imports(module)
        assert not own & {"network", "verify", "cli", "__init__"}, (module, own)
    # the integer kernel owes nothing to the field route that checks it
    assert _imports("genfib")[0] == set()


def _module_level_imports(module: str) -> set[str]:
    """Top-level packages that a module imports when it is imported, outside any function."""
    found = set()
    todo = list(ast.parse((SOURCE / f"{module}.py").read_text(encoding="utf-8")).body)
    while todo:
        node = todo.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        if isinstance(node, ast.Import):
            found.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.add(node.module.split(".")[0])
        todo.extend(ast.iter_child_nodes(node))
    return found


@pytest.mark.parametrize("module", sorted(MODULES))
def test_no_module_imports_an_array_library_at_module_level_or_typing_at_all(module):
    assert not _module_level_imports(module) & {"numpy", "scipy", "typing", "dataclasses"}
    assert not _imports(module)[1] & {"typing", "dataclasses"}


def test_importing_the_oracle_and_the_checks_loads_only_the_standard_library():
    # -S keeps site and its .pth hooks out, so every module loaded is the package's doing
    env = dict(os.environ, PYTHONPATH=str(SOURCE.parent))
    code = ("import sys, prismres.network, prismres.verify; print(*sorted("
            "{'numpy', 'scipy', 'typing', 'dataclasses', 'inspect'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-S", "-c", code],
                          capture_output=True, text=True, env=env, timeout=120)
    assert (proc.returncode, proc.stdout) == (0, "\n"), proc.stderr


def test_verify_checks_the_integer_kernel_against_the_oracle(monkeypatch):
    exact_base = prism._exact_base

    def corrupted(*args):
        return exact_base(*args) + Fraction(1, 10 ** 9)

    monkeypatch.setattr(prism, "_exact_base", corrupted)
    results = run_checks(n_max=3)
    assert len(results) == 13
    assert [r.name for r in results if not r.passed] == ["resistance-closed-vs-oracle"]
    assert "integer" in results[0].detail


def test_verify_checks_the_served_float_path_against_the_oracle(monkeypatch):
    float_base = prism._float_base

    def corrupted(*args):
        return float_base(*args) + 1e-6

    monkeypatch.setattr(prism, "_float_base", corrupted)
    results = run_checks(n_max=3)
    assert len(results) == 13
    assert [r.name for r in results if not r.passed] == ["resistance-float-vs-oracle"]


@pytest.mark.parametrize("tol", [math.nan, math.inf, -math.inf, -1e-12])
def test_run_checks_rejects_a_tolerance_that_is_not_finite_and_nonnegative(tol):
    with pytest.raises(ValueError, match="tol"):
        run_checks(n_max=2, tol=tol)


def test_the_spectrum_check_is_bounded_by_tol():
    def spectrum(tol):
        return next(r for r in run_checks(n_max=3, tol=tol) if r.name == "spectrum")

    assert spectrum(1e-9).passed
    tight = spectrum(1e-30)
    assert not tight.passed and "1e-30" in tight.detail


_EPS = Fraction(1, 10 ** 9)


def _plus(eps):
    """A perturbation that adds eps to what a function returns."""
    return lambda fn: lambda *args: fn(*args) + eps


def _plus_one_at_the_corner(fn):
    def bumped(*args):
        matrix = np.array(fn(*args))  # a copy, of L+ rows too
        matrix[0, 0] += 1
        return matrix
    return bumped


# each check, the name in verify that it compares, a perturbation of that
# name, and a fragment of the counterexample the check should then report
_BREAKS = [
    ("resistance-closed-vs-oracle", "prism_resistance_base", _plus(_EPS), "pp: closed"),
    ("resistance-float-vs-oracle", "resistance_oracle",
     lambda fn: lambda net, u, v: fn(net, u, v) + (0 if net.is_exact else 1e-6), "pp: |"),
    ("reduction-route-agreement", "prism_resistance_via_reduction", _plus(_EPS), "n=2 i=2 pp"),
    ("pair-sum", "prism_pair_sum", _plus(_EPS), "n=1 i=1"),
    ("ladder-closed-forms", "ladder_terminal_resistances",
     lambda fn: lambda n: (fn(n)[0] + _EPS, *fn(n)[1:]), "!= oracle"),
    ("ladder-delta-reassembly", "four_corner_laplacian", _plus_one_at_the_corner,
     "n=2: corner Laplacians differ"),
    ("kirchhoff-routes", "kirchhoff_closed", _plus(_EPS), "n=1: closed"),
    ("spectrum", "prism_eigenvalues",
     lambda fn: lambda n: fn(n)._replace(values=[v + 1e-6 for v in fn(n).values]),
     "spectra differ"),
    ("spanning-trees", "prism_spanning_tree_count", _plus(1), "prism n=1"),
    ("foster-sum", "resistance_oracle", _plus(_EPS), "edge sum"),
    ("trig-identities", "csc2_sum_check", lambda fn: lambda n, rel_tol: False, "csc^2"),
    ("eight-terminal-stencil", "EightTerminalStencil.laplacian", _plus_one_at_the_corner,
     "n=4 i=3: stencil Laplacian differs"),
    ("pseudoinverse-contract", "Network.pseudoinverse", _plus_one_at_the_corner,
     "L L+ != I - J/N"),
]


@pytest.mark.parametrize("name, target, perturb, fragment", _BREAKS,
                         ids=[name for name, *_ in _BREAKS])
def test_every_check_reports_a_counterexample(monkeypatch, name, target, perturb, fragment):
    owner, attr = verify, target
    if "." in target:
        cls, attr = target.split(".")
        owner = getattr(verify, cls)
    monkeypatch.setattr(owner, attr, perturb(getattr(owner, attr)))
    results = {r.name: r for r in run_checks(n_max=4)}
    assert len(results) == 13 and {n for n, *_ in _BREAKS} == set(results)
    result = results[name]
    assert not result.passed
    assert fragment in result.detail and not result.detail.startswith("crashed"), result.detail


def _penrose_holds(net, pinv) -> bool:
    """L L+ L == L and L+ 1 == 0, as dense products of Fractions."""
    lap = net.laplacian().tolist()

    def times(a, b):
        return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]

    return times(times(lap, pinv), lap) == lap and all(sum(row) == 0 for row in pinv)


def _row_plus_a_constant(pinv):
    """L+ with 1/7 added along one row: L L+ L is still L, as 1^T L = 0, but L L+ is not P."""
    rows = [list(row) for row in pinv]
    rows[1] = [x + Fraction(1, 7) for x in rows[1]]
    return rows


def _antisymmetric_three_cycle(pinv):
    """L+ plus a skew 3-cycle, whose rows and columns each sum to zero."""
    rows = [list(row) for row in pinv]
    for i, j in ((0, 1), (1, 2), (2, 0)):
        rows[i][j] += Fraction(1, 7)
        rows[j][i] -= Fraction(1, 7)
    return rows


@pytest.mark.parametrize("perturb", [None, _row_plus_a_constant, _antisymmetric_three_cycle],
                         ids=["exact", "row-plus-a-constant", "antisymmetric-three-cycle"])
def test_the_contract_check_agrees_with_dense_penrose_conditions(monkeypatch, perturb):
    exact = Network.pseudoinverse
    for build in (build_prism, build_ladder):
        for n in range(2, 6):
            target = build(n)
            pinv = exact(target) if perturb is None else perturb(exact(target))
            monkeypatch.setattr(Network, "pseudoinverse", lambda net: (
                pinv if list(net.edges) == list(target.edges) else exact(net)))
            verdict = next(r.passed for r in run_checks(n_max=n)
                           if r.name == "pseudoinverse-contract")
            monkeypatch.undo()
            assert verdict == _penrose_holds(target, pinv) == (perturb is None), (build, n)
