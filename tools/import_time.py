"""What importing the CLI and checking one instance cost: one JSON line.

Runs ``python -X importtime`` in 7 fresh interpreters, with the package
from the ``src`` next to this file on the path and its bytecode written
beforehand.  Each imports ``asymgeo.cli.main``, then parses and checks
``tests/data/balls/one-4-closed.txt`` as ``asymgeo check`` does
(``parse_instance`` and ``suite._check``).  It prints, for
``asymgeo.cli.main``, ``dataclasses`` and ``typing``, the least cumulative
import time in microseconds over the runs (null for a module no run
imported; one imported at start-up, as ``typing`` may be by ``site``, is
timed where it was imported); ``first_check_us``, the least time of that
first parse and check, which pays for compiling each ``ratlp`` kernel it
uses on first use; ``kernels_compiled``, the size of the kernel table
after it; and ``kernels``, that table's sorted (kind, length) keys, so a
new kind or length shows.  The times move with the host's speed and load,
so compare two trees on the same host, one run after the other.  Report
only: it gates nothing.  Standard library only, no options.

    python tools/import_time.py
"""

from __future__ import annotations

import compileall
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
MODULES = ("asymgeo.cli.main", "dataclasses", "typing")
RUNS = 7
INSTANCE = ROOT / "tests" / "data" / "balls" / "one-4-closed.txt"
# the import, then one timed parse and check; prints the microseconds, then
# the kernel table's sorted (kind, length) keys as JSON
FIRST_CHECK = f"""
import json, time, asymgeo.cli.main
from asymgeo.cli.instances import parse_instance
from asymgeo.cli.suite import _check
from asymgeo.ratlp import _KERNELS
text = open({str(INSTANCE)!r}, encoding="utf-8").read()
start = time.perf_counter()
_check("one-4-closed", *parse_instance(text))
print(round((time.perf_counter() - start) * 1e6), json.dumps(sorted(_KERNELS)))
"""


def cumulative_us(stderr: str) -> dict[str, int]:
    """The cumulative time of each module in one ``-X importtime`` report:
    lines ``import time: <self> | <cumulative> | <indented name>``."""
    times = {}
    for line in stderr.splitlines():
        parts = line.split("|")
        if line.startswith("import time:") and len(parts) == 3 and parts[1].strip().isdigit():
            times[parts[2].strip()] = int(parts[1])
    return times


def main() -> int:
    compileall.compile_dir(str(SRC), quiet=1)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    best: dict[str, int | None] = dict.fromkeys(MODULES)
    checks = []
    for _ in range(RUNS):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", FIRST_CHECK],
                              capture_output=True, text=True, env=env, check=True)
        times = cumulative_us(proc.stderr)
        for name in MODULES:
            if name in times:
                best[name] = times[name] if best[name] is None else min(best[name], times[name])
        check_us, kernels = proc.stdout.split(" ", 1)
        checks.append(int(check_us))
    kernels = json.loads(kernels)
    print(json.dumps({"runs": RUNS, "least_cumulative_us": best, "first_check_us": min(checks),
                      "kernels_compiled": len(kernels), "kernels": kernels}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
