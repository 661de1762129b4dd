"""Rewrite the work golden, ``tests/data/work_counts.txt``.

The golden holds the JSON lines of two report tools with every time left
out (each key ending in ``_s`` or ``_s_median``), so what stays is work
that depends only on the code in ``src``:

- ``tools/dd_scale.py --dims 6 7 8 9 --arcs 64 256 512 --balls 4 5 6
  --counts``: the double description's calls, rays and work counts on
  the random, arc-hull, and closed and open one-norm ball families;
- ``tools/lp_scale.py``: the emptiness LPs the random generator runs at
  d = 1..8, their pivots and tableau entries, and the three ``lp_solve``
  families (``shifted``, ``repeated`` and ``equation``, whose
  artificials left basic at 0 after phase one are pivoted out).

A change that moves a line does other work on the same inputs (or draws
other inputs).  The two tools run in this process, one after the other.
With ``--stdout`` the lines are printed instead of written; given the
files of earlier runs of the two tools (their standard output, in the
order above), it drops their times and runs nothing, so a report run can
be diffed against the golden without running again.  Standard library
only; it imports the tools from the directory it is in.

    python tools/write_work_counts.py
    python tools/write_work_counts.py --stdout [DD_REPORT LP_REPORT] | diff - tests/data/work_counts.txt
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import sys
from pathlib import Path

TOOLS = Path(__file__).resolve().parent
GOLDEN = TOOLS.parent / "tests" / "data" / "work_counts.txt"
DD_ARGS = ["--dims", "6", "7", "8", "9", "--arcs", "64", "256", "512", "--balls", "4", "5", "6", "--counts"]

sys.path.insert(0, str(TOOLS))

import dd_scale  # noqa: E402
import lp_scale  # noqa: E402


def reports() -> str:
    """The standard output of both tools, run in this process."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        dd_scale.main(DD_ARGS)
        lp_scale.main()
    return out.getvalue()


def work_lines(text: str) -> list[str]:
    """Each JSON line of ``text`` with its times dropped."""
    return [json.dumps({k: v for k, v in json.loads(line).items() if not k.endswith(("_s", "_s_median"))})
            for line in text.splitlines() if line.strip()]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--stdout", action="store_true", help="print the lines instead of writing the golden")
    parser.add_argument("reports", nargs="*", type=Path,
                        help="output files of earlier dd_scale and lp_scale runs, read instead of running them")
    args = parser.parse_args(argv)
    if args.reports and not args.stdout:
        parser.error("report files are read only with --stdout")
    text = "".join(p.read_text(encoding="utf-8") for p in args.reports) if args.reports else reports()
    lines = "\n".join(work_lines(text)) + "\n"
    if args.stdout:
        sys.stdout.write(lines)
    else:
        GOLDEN.write_text(lines, encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
