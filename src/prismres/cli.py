"""Command-line interface.

Subcommands:
    resistance N U V [--float]            closed-form prism resistance
    kirchhoff N [--method M]
    table N [--format csv|json] [--output PATH]
    verify [--n-max N] [--tol T] [--format text|json]
    net {resistance,reduce,spantrees,kirchhoff} FILE ...

Results go to stdout and are byte-deterministic for fixed inputs, apart from
the per-check times that verify --format json reports; a trailing
"# command=... elapsed_ms=..." record goes to stderr so timing never perturbs
stdout.  Run as a program, the elapsed time starts with the import of the
prismres package, so it counts imports and parsing; called in-process
through main(), it starts with the call.  Exit codes: 0 success, 1 honest
negative (failed verification, disconnected network, a float network
binary64 cannot factor, a float closed form whose n binary64 cannot hold),
2 malformed input, including an n past the command's entry in CAPS.

Only net, verify and kirchhoff --method oracle import the oracle.  Importing
it loads only the standard library.  Exact answers run on Python ints and
Fractions alone, so the four exact net commands never load NumPy or SciPy.
Float answers run on NumPy and SciPy: NumPy loads once an array is built
and SciPy once a float network is factored, which verify and kirchhoff
--method oracle always do.  Where one of the two is not installed, those
commands print one error line and exit 1.  The closed-form commands load
the standard library alone.
"""

from __future__ import annotations

import argparse
import decimal
import json
import sys
import time
from decimal import Decimal
from fractions import Fraction

from . import _IMPORTED_AT
from .prism import kirchhoff_closed, kirchhoff_float, prism_resistance, resistance_table

# Largest n each command serves (verify's --n-max), checked before it does
# any work.  Each cap costs about 1 GB of peak memory, except those of the
# exact closed forms and verify's, which need little memory.  On a two-core
# x86-64 machine the exact kirchhoff takes about 12 s at its cap and an exact
# resistance 9-51 s, the division by U_gcd(n, l) being quadratic; verify takes
# about 5.5 s at its cap, and its time grows about as n^3.  Float resistance
# and --method coth run in O(1) and are not capped.
CAPS = {
    "resistance": 10 ** 7,
    "kirchhoff --method closed": 10 ** 7,
    "kirchhoff --method spectral": 10 ** 7,
    "kirchhoff --method oracle": 5000,
    "table --format csv": 2000,
    "table --format json": 500,
    "verify --n-max": 40,
}


def _cap_key(args) -> str | None:
    """The CAPS entry that bounds a parsed command's n, or None when none does."""
    if args.command == "resistance":
        return None if args.float else "resistance"
    if args.command == "kirchhoff":
        return None if args.method == "coth" else f"kirchhoff --method {args.method}"
    if args.command == "table":
        return f"table --format {args.format}"
    if args.command == "verify":
        return "verify --n-max"
    return None


# Exact decimal arithmetic: any rounding would raise Inexact.
_EXACT = decimal.Context(prec=decimal.MAX_PREC, Emax=decimal.MAX_EMAX, traps=[decimal.Inexact])
# Integers of at most this many bits are converted by Decimal() directly.
_LEAF_BITS = 4096


def _decimal(n: int, powers: list[Decimal]) -> Decimal:
    """A nonnegative int as a Decimal, split as hi * 2**h + lo.

    Decimal(n) converts in time quadratic in the digits of n; splitting by
    bits leaves that cost to the leaves, and the exact Decimal products
    above them are subquadratic.  powers[j] is 2**(_LEAF_BITS * 2**j); the
    list is grown here as far as n needs it, so one list serves the
    conversions of one value and is dropped with it.
    """
    if n.bit_length() <= _LEAF_BITS:
        return Decimal(n)
    j = 0
    while 2 * _LEAF_BITS << j < n.bit_length():
        j += 1
    while len(powers) <= j:
        powers.append(_EXACT.multiply(powers[-1], powers[-1]) if powers
                      else Decimal(1 << _LEAF_BITS))
    h = _LEAF_BITS << j
    hi = _EXACT.multiply(_decimal(n >> h, powers), powers[j])
    return _EXACT.add(hi, _decimal(n & ((1 << h) - 1), powers))


def _fmt(value) -> str:
    """Deterministic scalar rendering: exact rationals as p/q, floats shortest.

    Integers are written through Decimal, which is exact and, unlike str(),
    not subject to the interpreter's limit on converting long integers.
    """
    if isinstance(value, (int, Fraction)):
        value = Fraction(value)
        powers = []
        sign = "-" if value.numerator < 0 else ""
        text = sign + str(_decimal(abs(value.numerator), powers))
        if value.denominator == 1:
            return text
        return f"{text}/{_decimal(value.denominator, powers)}"
    return repr(float(value))


def _write(text: str, path: str | None) -> None:
    """Write a command's output to the file at `path`, or to stdout without one."""
    if path:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _json_int(digits: str) -> int | float:
    """A JSON integer: int(digits), or float(digits), an infinity, past the
    interpreter's limit on the digits of an int string.  Such a number is
    past the binary64 range too, where a float network takes a resistance to
    be infinite, so the network's own check names its edge."""
    try:
        return int(digits)
    except ValueError:
        return float(digits)


def _load_network(path: str):
    """The network in the JSON file at `path`; a ValueError naming the file if it is not one."""
    from .network import network_from_json

    with open(path, encoding="utf-8") as handle:
        try:
            doc = json.load(handle, parse_int=_json_int)
        except (json.JSONDecodeError, RecursionError) as exc:  # or nested too deep
            raise ValueError(f"{path}: not valid JSON ({exc})") from exc
    try:
        return network_from_json(doc)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


# -- subcommand handlers ------------------------------------------------


def _cmd_resistance(args) -> int:
    mode = "float" if args.float else "exact"
    print(_fmt(prism_resistance(args.n, args.u, args.v, mode)))
    return 0


def _cmd_kirchhoff(args) -> int:
    if args.method == "closed":
        print(_fmt(kirchhoff_closed(args.n)))
    elif args.method == "oracle":
        from .network import build_prism, kirchhoff_oracle

        print(_fmt(kirchhoff_oracle(build_prism(args.n).to_float())))
    else:
        print(_fmt(kirchhoff_float(args.n, args.method)))
    return 0


def _cmd_table(args) -> int:
    labels = [f"p{i}" for i in range(1, args.n + 1)] + [f"q{i}" for i in range(1, args.n + 1)]
    if args.format == "csv":
        rows = resistance_table(args.n, "float")
        lines = ["vertex," + ",".join(labels)]
        for label, row in zip(labels, rows):
            lines.append(label + "," + ",".join(f"{x:.17g}" for x in row))
        text = "\n".join(lines) + "\n"
    else:
        rows = resistance_table(args.n, "exact")
        doc = {
            "n": args.n,
            "vertices": labels,
            "resistances": [[_fmt(x) for x in row] for row in rows],
        }
        text = json.dumps(doc, indent=2) + "\n"
    _write(text, args.output)
    return 0


def _cmd_verify(args) -> int:
    from .verify import run_checks

    results = run_checks(n_max=args.n_max, tol=args.tol)
    passed = sum(1 for r in results if r.passed)
    if args.format == "json":
        doc = {
            "checks": [{"name": r.name, "passed": r.passed, "detail": r.detail,
                        "elapsed_ms": round(r.elapsed_ms, 3)} for r in results],
            "passed": passed,
            "total": len(results),
            "elapsed_ms": round(sum(r.elapsed_ms for r in results), 3),
        }
        print(json.dumps(doc, indent=2))
    else:
        for r in results:
            line = f"{'PASS' if r.passed else 'FAIL'} {r.name}"
            if r.detail:
                line += f": {r.detail}"
            print(line)
        print(f"{passed}/{len(results)} checks passed")
    return 0 if passed == len(results) else 1


def _cmd_net(args) -> int:
    from .network import (
        kirchhoff_oracle, kron_reduce, matrix_tree_count, network_to_json, resistance_oracle)

    net = _load_network(args.file)
    if args.net_command == "resistance":
        print(_fmt(resistance_oracle(net, args.u, args.v)))
    elif args.net_command == "reduce":
        keep = [v.strip() for v in args.keep.split(",") if v.strip()]
        doc = network_to_json(kron_reduce(net, keep))
        _write(json.dumps(doc, indent=2) + "\n", args.output)
    elif args.net_command == "spantrees":
        print(_fmt(matrix_tree_count(net)))
    else:
        print(_fmt(kirchhoff_oracle(net)))
    return 0


# -- parser -------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="prismres",
        description="Exact and floating resistance analysis of prism networks.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("resistance", help="closed-form resistance between two prism vertices")
    p.add_argument("n", type=int, help="prism size (number of rungs)")
    p.add_argument("u", help="first vertex label, e.g. p1")
    p.add_argument("v", help="second vertex label, e.g. q3")
    p.add_argument("--float", action="store_true", help="binary64 instead of exact rational")
    p.set_defaults(handler=_cmd_resistance)

    p = sub.add_parser("kirchhoff", help="Kirchhoff index of the n-prism")
    p.add_argument("n", type=int)
    p.add_argument("--method", choices=("closed", "coth", "spectral", "oracle"),
                   default="closed")
    p.set_defaults(handler=_cmd_kirchhoff)

    p = sub.add_parser("table", help="all-pairs resistance table")
    p.add_argument("n", type=int, help=f"prism size, at most {CAPS['table --format csv']} for "
                                       f"csv and {CAPS['table --format json']} for json")
    p.add_argument("--format", choices=("csv", "json"), default="csv",
                   help="csv: float, 17 significant digits; json: exact rationals")
    p.add_argument("--output", help="write to a file instead of stdout")
    p.set_defaults(handler=_cmd_table)

    p = sub.add_parser("verify", help="cross-validate closed forms against the oracle")
    p.add_argument("--n-max", type=int, default=10)
    p.add_argument("--tol", type=float, default=1e-9,
                   help="bound of the float comparisons, finite and >= 0 (default 1e-9)")
    p.add_argument("--format", choices=("text", "json"), default="text",
                   help="text: one line per check; json: one object with per-check times")
    p.set_defaults(handler=_cmd_verify)

    p = sub.add_parser("net", help="operations on a network JSON file")
    netsub = p.add_subparsers(dest="net_command", required=True)

    q = netsub.add_parser("resistance", help="effective resistance between two vertices")
    q.add_argument("file")
    q.add_argument("u")
    q.add_argument("v")
    q.set_defaults(handler=_cmd_net)

    q = netsub.add_parser("reduce", help="Kron reduction onto a terminal set")
    q.add_argument("file")
    q.add_argument("--keep", required=True, help="comma-separated vertex labels")
    q.add_argument("--output", help="write the reduced network to a file")
    q.set_defaults(handler=_cmd_net)

    q = netsub.add_parser("spantrees", help="spanning-tree count (exact networks only)")
    q.add_argument("file")
    q.set_defaults(handler=_cmd_net)

    q = netsub.add_parser("kirchhoff", help="sum of all pairwise resistances")
    q.add_argument("file")
    q.set_defaults(handler=_cmd_net)

    return parser


def _oracle_errors() -> tuple[type, ...]:
    """The oracle's honest negatives, imported only once an exception is raised.

    Importing the oracle loads only the standard library, and only error
    paths reach this.
    """
    from .network import DisconnectedNetworkError, SingularMatrixError

    return DisconnectedNetworkError, SingularMatrixError


def main(argv=None) -> int:
    """Parse and run; returns the exit code instead of raising SystemExit."""
    return _main(argv, time.perf_counter())


def _main(argv, start: float) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        key = _cap_key(args)
        if key and (args.n_max if args.command == "verify" else args.n) > CAPS[key]:
            raise ValueError(f"{key} is capped at n={CAPS[key]}")
        return args.handler(args)
    except (OverflowError, *_oracle_errors()) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ModuleNotFoundError as exc:
        # a float network, verify or the oracle method without NumPy or
        # SciPy installed; any other missing module is a bug and raises
        if exc.name not in ("numpy", "scipy"):
            raise
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, TypeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        elapsed = (time.perf_counter() - start) * 1000.0
        print(f"# command={args.command} elapsed_ms={elapsed:.3f}", file=sys.stderr)


def run() -> None:
    sys.exit(_main(None, _IMPORTED_AT))


if __name__ == "__main__":
    run()
