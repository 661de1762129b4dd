"""How the emptiness LP scales: one JSON line per dimension.

For each dimension d the random generator makes the instances of the seeds
``1000*d + k``, k < 16, as ``asymgeo gen random`` draws them.  Every draw
it tests for emptiness is one ``ratlp.feasible_nonneg`` run (through
``polyhedron.partial_is_empty``), so a line holds:

- ``runs``: the ``feasible_nonneg`` runs;
- ``pivots``: the Bland steps among their ``ratlp._pivot`` calls, those on
  the first column of the objective row (the tableau's last) with a
  positive entry, and ``pricing_pivots``: the other calls, which price the
  objective row on a basic column;
- ``entries``: the tableau entries written, each row counted at its
  width: the rows those calls rewrite, and the objective row each run
  makes before its simplex loop (``ratlp._bland``) starts, with
  ``entries_per_run`` next to it;
- ``lp_s``: the least of 3 times of those runs, replayed on the recorded
  systems with nothing wrapped, and ``gen_s``: the least of 3 times of
  the 16 instances made from scratch.

Three last lines count ``ratlp.lp_solve`` on fixed families.  In the
``shifted`` one each of those instances' regions, closed and shifted by a
seeded integer point so that some right-hand sides are negative and phase
one runs, is maximized along 15 seeded integer objectives, 1,920 LPs in
all.  The ``repeated`` one adds to each region a copy of every row with a
negative right-hand side, some rescaled, and two rows at right-hand side
0 (``lp_family``), so phase one pivots on degenerate vertices, where a
kernel that let a departed artificial enter again would make more
``pivots``.  The ``equation`` one adds to each region the negative of one
seeded row, an equation whose artificial may stay basic at 0 after a
feasible phase one, so its ``pivot_outs`` are not 0.  Each line holds
the ``runs``, their ``outcomes``, the ``pivots`` made in the simplex
loop, the ``pivot_outs`` that move an artificial left in the basis after
phase one out of it, and the ``entries`` written, counted as above with
one objective row per simplex loop (one per phase); the rows the pivots
rewrite include the cost row, which ``lp_solve`` carries through phase
one and so prices with no pass of its own.  No time.

The counts depend only on the code in ``src``, so the same tool run on an
earlier ``src`` counts that code's work, with no drift of the host's speed;
the times do move with it.  Report only: it checks no answer and gates
nothing.  Standard library only; it imports the package from the ``src``
next to it.

    python tools/lp_scale.py
"""

from __future__ import annotations

import json
import random
import sys
import time
from collections import Counter
from fractions import Fraction
from operator import mul
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from asymgeo import polyhedron, ratlp  # noqa: E402
from asymgeo.cli.generators import gen_random_instance  # noqa: E402

DIMS = range(1, 9)
SEEDS_PER_DIM = 16
OBJECTIVES = 15
REPEAT = 3


def make(d: int) -> list:
    return [gen_random_instance(d, 1000 * d + k) for k in range(SEEDS_PER_DIM)]


def written(tab, i: int, j: int, det: int) -> int:
    """The tableau entries a ``ratlp._pivot`` call on (i, j) writes: each
    row it rewrites, counted at its width."""
    p = tab[i][j]
    return ((p < 0) + sum(1 for k, row in enumerate(tab) if k != i and (row[j] or abs(p) != det))) * len(tab[i])


def count(d: int) -> tuple[dict, list]:
    """The work counts of one pass at dimension d, and the systems its
    ``feasible_nonneg`` runs were handed."""
    tally = {"runs": 0, "pivots": 0, "pricing_pivots": 0, "entries": 0}
    systems = []

    def pivot(tab, i, j, det):
        obj = tab[-1]
        bland = j == next((k for k in range(len(obj) - 1) if obj[k] > 0), None)
        tally["pivots" if bland else "pricing_pivots"] += 1
        tally["entries"] += written(tab, i, j, det)
        return real_pivot(tab, i, j, det)

    def bland(tab, *args):
        # the objective row, priced or to be priced, is one tableau row
        tally["entries"] += len(tab[0])
        return real_bland(tab, *args)

    def feasible_nonneg(matrix_rows, rhs_col):
        tally["runs"] += 1
        systems.append((matrix_rows, rhs_col))
        ratlp._pivot, ratlp._bland = pivot, bland
        try:
            return real_feasible_nonneg(matrix_rows, rhs_col)
        finally:
            ratlp._pivot, ratlp._bland = real_pivot, real_bland

    real_pivot, real_bland, real_feasible_nonneg = ratlp._pivot, ratlp._bland, polyhedron.feasible_nonneg
    polyhedron.feasible_nonneg = feasible_nonneg
    try:
        make(d)
    finally:
        polyhedron.feasible_nonneg = real_feasible_nonneg
    return tally, systems


def least_time(work) -> float:
    best = float("inf")
    for _ in range(REPEAT):
        start = time.perf_counter()
        work()
        best = min(best, time.perf_counter() - start)
    return round(best, 4)


def measure(d: int) -> dict:
    tally, systems = count(d)
    lp_s = least_time(lambda: [ratlp.feasible_nonneg(a, b) for a, b in systems])
    gen_s = least_time(lambda: make(d))
    return {"dim": d, "instances": SEEDS_PER_DIM, **tally,
            "entries_per_run": round(tally["entries"] / max(1, tally["runs"]), 1),
            "lp_s": lp_s, "gen_s": gen_s}


def lp_family(family: str) -> list:
    """The (objective, constraints) pairs of the ``lp_solve`` line ``family``.
    A ``repeated`` region also carries a copy of every row with a negative
    right-hand side, as it is or rescaled by a seeded positive rational (two
    artificials on one row), and its first two rows' normals at right-hand
    side 0, which make the vertices phase one walks degenerate: ratio tests
    tie at 0, where an artificial that left the basis could enter again, as
    ``tests/test_ratlp._rand_lp``'s draws do.  An ``equation`` region is a
    ``shifted`` one with the negative of one seeded row appended, so that
    row holds as an equation and its artificial can stay basic at 0 after
    phase one, to be pivoted out."""
    lps = []
    for d in DIMS:
        for k in range(SEEDS_PER_DIM):
            seed = 1000 * d + k
            rng = random.Random(seed)
            shift = [rng.randint(-3, 3) for _ in range(d)]
            rows = [(c, b + sum(map(mul, c, shift))) for c, b, _ in gen_random_instance(d, seed)[1].constraints]
            if family == "repeated":
                for c, b in [row for row in rows if row[1] < 0]:
                    s = rng.choice([Fraction(1), Fraction(rng.randint(1, 4), rng.randint(1, 4))])
                    rows.append((tuple(s * a for a in c), s * b))
                rows += [(c, 0) for c, _ in rows[:2]]
            elif family == "equation":
                c, b = rng.choice(rows)
                rows.append((tuple(-a for a in c), -b))
            lps += [(tuple(rng.randint(-3, 3) for _ in range(d)), rows) for _ in range(OBJECTIVES)]
    return lps


def measure_lp_solve(family: str) -> dict:
    lps = lp_family(family)
    tally = {"runs": len(lps), "pivots": 0, "pivot_outs": 0, "entries": 0}
    in_loop = []

    def pivot(tab, i, j, det):
        tally["pivots" if in_loop else "pivot_outs"] += 1
        tally["entries"] += written(tab, i, j, det)
        return real_pivot(tab, i, j, det)

    def bland(tab, *args):
        tally["entries"] += len(tab[0])
        in_loop.append(True)
        try:
            return real_bland(tab, *args)
        finally:
            in_loop.pop()

    real_pivot, real_bland = ratlp._pivot, ratlp._bland
    ratlp._pivot, ratlp._bland = pivot, bland
    try:
        outcomes = Counter(ratlp.lp_solve(obj, rows).status.value for obj, rows in lps)
    finally:
        ratlp._pivot, ratlp._bland = real_pivot, real_bland
    return {"lp": "lp_solve", "family": family, "dims": [DIMS[0], DIMS[-1]],
            "outcomes": dict(sorted(outcomes.items())), **tally,
            "entries_per_run": round(tally["entries"] / tally["runs"], 1)}


def main() -> int:
    for d in DIMS:
        print(json.dumps(measure(d)), flush=True)
    for family in ("shifted", "repeated", "equation"):
        print(json.dumps(measure_lp_solve(family)), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
