"""Run one prismres command with every public function wrapped.

    python3 bench/clitrace.py STATS.json <prismres arguments...>

Used by the traced run of cli-oneshot in place of `python3 -m prismres.cli`.
Writes the call counts and times of bench/tracer.py to STATS.json, with
the time.monotonic() reading taken once prismres.cli is imported, and exits
with the command's exit code.
"""

import json
import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from tracer import Tracer  # noqa: E402

import prismres.cli  # noqa: E402


def main() -> int:
    imported = time.monotonic()
    tracer = Tracer()
    tracer.install()
    try:
        return prismres.cli.main(sys.argv[2:])
    finally:
        with open(sys.argv[1], "w", encoding="utf-8") as handle:
            json.dump({"imported": imported, "stats": tracer.stats}, handle)


if __name__ == "__main__":
    sys.exit(main())
