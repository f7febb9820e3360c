"""The module that joins the two routes, and the import boundary that keeps them apart."""

import ast
import math
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import prismres
from prismres import prism
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
