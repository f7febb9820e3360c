"""Exact effective resistances, Kirchhoff indices, and spanning-tree counts
for prism and ladder networks, with an independent linear-algebra oracle.

The closed forms are computed over the integers from (2 + sqrt3)^n, and
checked against the same forms in exact Q(sqrt 3) arithmetic; the oracle
recomputes everything from the grounded Laplacian (exactly, through its
pseudoinverse) so the two routes can be compared at full precision.

No module imports anything beyond the standard library and the package
when it is imported.  Exact answers, the oracle's included, run on Python
ints and Fractions alone; float ones run on NumPy and LAPACK, which the
oracle (network) and the checks that join the two routes (verify) import
only where they build an array or factor a matrix.  The names of these two
modules are still resolved on first use, because the closed forms need
neither module: where no bytecode is cached (PYTHONDONTWRITEBYTECODE=1) an
eager import compiles both on every start, about 12 ms, and took
`import prismres` from 77 to 89 ms on a two-core x86-64 machine.
"""

import importlib as _importlib
import time as _time

# where the elapsed time of a command run as a program starts, so that the
# record the CLI writes counts the imports
_IMPORTED_AT = _time.perf_counter()

from .exact import (
    Qsqrt3,
    SQRT3,
    TWO_MINUS_SQRT3,
    TWO_PLUS_SQRT3,
    two_minus_sqrt3_pow,
)
from .genfib import gfib, prism_spanning_tree_count
from .ladder import (
    DeltaEdges,
    LadderParams,
    ladder_branch,
    ladder_delta_edges,
    ladder_params,
    ladder_terminal_resistances,
)
from .prism import (
    PrismSpectrum,
    PrismVertex,
    csc2_sum_check,
    kirchhoff_closed,
    kirchhoff_float,
    prism_eigenvalues,
    prism_pair_sum,
    prism_resistance,
    prism_resistance_base,
    prism_resistance_via_reduction,
    resistance_table,
    trig_sum,
)

# the public names of the two modules the closed forms do not use
_LAZY = {
    "network": (
        "DisconnectedNetworkError", "Network", "SingularMatrixError",
        "build_ladder", "build_prism", "kirchhoff_oracle", "kron_reduce",
        "matrix_tree_count", "network_from_json", "network_to_json",
        "pinv_laplacian", "resistance_oracle",
    ),
    "verify": ("CheckResult", "EightTerminalStencil", "four_corner_laplacian", "run_checks"),
}
_HOME = {name: module for module, names in _LAZY.items() for name in names}


def __getattr__(name: str):
    """Import the home module of an oracle name, or the module itself, on first use.

    The name is looked up in its home module on every access and never
    stored here, so a name patched in its home module is what the package
    returns.
    """
    home = _HOME.get(name)
    if home is None:
        if name in _LAZY:
            return _importlib.import_module(f"{__name__}.{name}")
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # the import system binds a submodule here only once it has finished
    # loading; until then import_module waits for it or imports it
    module = globals().get(home) or _importlib.import_module(f"{__name__}.{home}")
    return getattr(module, name)


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_LAZY) | set(_HOME))


__version__ = "0.1.0"

__all__ = [
    "Qsqrt3", "SQRT3", "TWO_MINUS_SQRT3", "TWO_PLUS_SQRT3", "two_minus_sqrt3_pow",
    "gfib", "prism_spanning_tree_count",
    "DeltaEdges", "LadderParams", "ladder_branch", "ladder_delta_edges", "ladder_params",
    "ladder_terminal_resistances",
    "DisconnectedNetworkError", "Network", "SingularMatrixError",
    "build_ladder", "build_prism", "kirchhoff_oracle", "kron_reduce",
    "matrix_tree_count", "network_from_json", "network_to_json",
    "pinv_laplacian", "resistance_oracle",
    "PrismSpectrum", "PrismVertex", "csc2_sum_check", "kirchhoff_closed",
    "kirchhoff_float", "prism_eigenvalues", "prism_pair_sum",
    "prism_resistance", "prism_resistance_base",
    "prism_resistance_via_reduction", "resistance_table", "trig_sum",
    "CheckResult", "EightTerminalStencil", "four_corner_laplacian", "run_checks",
    "__version__",
]
