"""What importing the CLI costs: one JSON line of import times.

Runs ``python -X importtime -c "import asymgeo.cli.main"`` in 7 fresh
interpreters, with the package from the ``src`` next to this file on the
path and its bytecode written beforehand, and prints, for
``asymgeo.cli.main``, ``dataclasses`` and ``typing``, the least cumulative
import time in microseconds over the runs (null for a module no run
imported; one imported at start-up, as ``typing`` may be by ``site``, is
timed where it was imported).  The times move with the host's speed and
load, so compare two trees on the same host, one run after the other.
Report only: it gates nothing.  Standard library only, no options.

    python tools/import_time.py
"""

from __future__ import annotations

import compileall
import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
MODULES = ("asymgeo.cli.main", "dataclasses", "typing")
RUNS = 7


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
    for _ in range(RUNS):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import asymgeo.cli.main"],
                              capture_output=True, text=True, env=env, check=True)
        times = cumulative_us(proc.stderr)
        for name in MODULES:
            if name in times:
                best[name] = times[name] if best[name] is None else min(best[name], times[name])
    print(json.dumps({"runs": RUNS, "least_cumulative_us": best}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
