"""Rewrite the decision golden, ``tests/data/decisions.txt``.

One line per instance: its name, its verdict and the first 16 hex digits
of the SHA-256 of its ``asymgeo check --no-timing`` report, whose bytes
hold the center, the witness and the claims T1-T6.  Each instance goes
through the text form first (``write_instance``, then ``parse_instance``),
as ``check`` reads it from a file.  The families:

- random instances at d = 1..3 on the seeds ``1000*d + k``, k < 500 (the
  acceptance corpus), and at d = 4..9 with k < 16, as ``asymgeo gen
  random`` draws them;
- the arc hulls of 16, 64 and 256 segments;
- eight balls of the one-norm lattice gauge at each d = 2..5, closed and
  open, around the centers and of the radii that ``tools/dd_scale.py``'s
  ``one_balls`` draws from ``random.Random(1000*d)``;
- the same draws under the sup lattice gauge at d = 2..5;
- eight balls of random gauges at each d = 1..4, closed and open, each
  gauge drawn (``gen_random_norm``) from ``random.Random(1000*d)`` before
  its center and radius.

A change that moves a line changes a verdict, a center, a witness or a
claim.  The Tier-1 test ``tests/test_decisions.py`` recomputes every line
and compares.  Standard library only; it imports the package from the
``src`` next to it.  It takes no options: any argument is a usage error
(exit 2) that writes nothing.

    python tools/write_decisions.py
"""

from __future__ import annotations

import argparse
import hashlib
import random
import sys
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from asymgeo.cli.generators import gen_arc_hull, gen_lattice_norm, gen_random_instance, gen_random_norm  # noqa: E402
from asymgeo.cli.instances import parse_instance, write_instance  # noqa: E402
from asymgeo.cli.suite import _check  # noqa: E402
from asymgeo.norm import Closedness, ball  # noqa: E402

GOLDEN = ROOT / "tests" / "data" / "decisions.txt"
BALLS_PER_DIM = 8


def instances():
    """(name, gauge, region) per instance, family by family, in file order."""
    for d, count in ((1, 500), (2, 500), (3, 500), (4, 16), (5, 16), (6, 16), (7, 16), (8, 16), (9, 16)):
        for k in range(count):
            yield (f"random-{1000 * d + k}", *gen_random_instance(d, 1000 * d + k))
    for n in (16, 64, 256):
        yield (f"arc-{n}", *gen_arc_hull(n))
    yield from balls("one", range(2, 6), lambda d, rng: gen_lattice_norm(d, "one"))
    yield from balls("sup", range(2, 6), lambda d, rng: gen_lattice_norm(d, "sup"))
    yield from balls("gauge", range(1, 5), gen_random_norm)


def balls(prefix, dims, gauge):
    """(name, gauge, region) of ``BALLS_PER_DIM`` closed and open balls at each
    d of ``dims``, each on the gauge value ``gauge(d, rng)`` makes, drawn
    with its center and radius from ``random.Random(1000*d)``."""
    for d in dims:
        rng = random.Random(1000 * d)
        for i in range(BALLS_PER_DIM):
            q = gauge(d, rng)
            center = tuple(Fraction(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(d))
            radius = Fraction(rng.randint(1, 6), rng.randint(1, 3))
            for closedness in (Closedness.CLOSED, Closedness.OPEN):
                yield f"{prefix}-ball-{d}-{i}-{closedness.value.lower()}", q, ball(q, center, radius, closedness).as_set


def decision_line(name, norm, region) -> str:
    """``<name> <verdict> <digest>`` of the check report of the written instance."""
    report = _check(name, *parse_instance(write_instance(norm, region)))
    digest = hashlib.sha256(report.render(include_timing=False).encode()).hexdigest()[:16]
    return f"{name} {report.verdict} {digest}"


def decision_lines() -> list[str]:
    return [decision_line(*case) for case in instances()]


def main(argv=None) -> int:
    argparse.ArgumentParser(description=__doc__.splitlines()[0]).parse_args(argv)
    GOLDEN.write_text("\n".join(decision_lines()) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
