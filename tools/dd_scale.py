"""How the double description scales: one JSON line per input family.

Each family is built and decided (``Instance.build`` then
``decide_compact``) with ``polyhedron.cone_from_rows``, the one entry to the
double description, wrapped under every name that holds it, and each
COMPACT instance then runs the checks T1-T6 (``verify_theorems``).
A line holds the family, its instance count, the ``cone_from_rows`` calls
of build and decide, the rays they returned, the wall time spent inside
them (``dd_s``), the wall time of build and decide over the family
(``total_s``), its COMPACT count, the wall time of their T1-T6
(``checks_s``), so ``total_s + checks_s`` is the whole pipeline, and the
vertex-to-facet conversions (``polyhedron._int_facets`` runs) of decide
and T1-T6 together (``facet_dds``).  Report only: it checks no answer and
gates nothing.  Standard library only; it imports the package from the
``src`` next to it.

    python tools/dd_scale.py [--dims 6 7 8] [--arcs 64 256] [--balls 5 6]

The families are random instances at each dimension d (the seeds
``1000*d + k`` for k < 16, as ``asymgeo gen random`` draws them), the arc
hull at each segment count, and eight closed balls of the one-norm lattice
gauge at each ball dimension, around seeded rational centers.  A closed
ball is its own saturated hull, so its line reads ``facet_dds`` 0.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from asymgeo import compactness, norm, polyhedron  # noqa: E402
from asymgeo.cli.generators import gen_arc_hull, gen_lattice_norm, gen_random_instance  # noqa: E402
from asymgeo.compactness import Instance, Verdict, decide_compact, verify_theorems  # noqa: E402
from asymgeo.norm import Closedness, ball  # noqa: E402

SEEDS_PER_DIM = 16
BALLS_PER_DIM = 8


def closed_balls(d: int) -> list:
    """Closed balls of the one-norm lattice gauge in dimension d, around
    rational centers and of rational radii drawn from the seed ``1000*d``."""
    q = gen_lattice_norm(d, "one")
    rng = random.Random(1000 * d)
    cases = []
    for _ in range(BALLS_PER_DIM):
        center = tuple(Fraction(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(d))
        radius = Fraction(rng.randint(1, 6), rng.randint(1, 3))
        cases.append((q, ball(q, center, radius, Closedness.CLOSED).as_set))
    return cases


def measure(family: str, cases) -> dict:
    """Build and decide every (gauge, region) of ``cases``, counting the DD,
    then check each COMPACT one; the cases are made before, so the
    generator's own work is not counted, and the checks' DD runs are not,
    except in ``facet_dds``, which counts the facet conversions of both."""
    real, real_facets = polyhedron.cone_from_rows, polyhedron._int_facets
    stats = {"calls": 0, "rays_out": 0, "dd_s": 0.0, "facet_dds": 0}
    counted = [True]

    def facets(poly):
        stats["facet_dds"] += 1
        return real_facets(poly)

    def counting(rows, dim):
        start = time.perf_counter()
        result = real(rows, dim)
        if counted[0]:
            stats["dd_s"] += time.perf_counter() - start
            stats["calls"] += 1
            stats["rays_out"] += len(result[0])
        return result

    modules = [m for m in (polyhedron, norm, compactness) if getattr(m, "cone_from_rows", None) is real]
    for module in modules:
        module.cone_from_rows = counting
    polyhedron._int_facets = facets
    count = compact = 0
    total_s = checks_s = 0.0
    try:
        for q, region in cases:
            start = time.perf_counter()
            inst = Instance.build(q, region)
            cert = decide_compact(inst)
            total_s += time.perf_counter() - start
            count += 1
            if cert.verdict is Verdict.COMPACT:
                counted[0] = False
                start = time.perf_counter()
                verify_theorems(inst, cert)
                checks_s += time.perf_counter() - start
                counted[0] = True
                compact += 1
    finally:
        for module in modules:
            module.cone_from_rows = real
        polyhedron._int_facets = real_facets
    return {"family": family, "instances": count, "cone_from_rows_calls": stats["calls"],
            "rays_out": stats["rays_out"], "dd_s": round(stats["dd_s"], 4),
            "total_s": round(total_s, 4), "compact": compact, "checks_s": round(checks_s, 4),
            "facet_dds": stats["facet_dds"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--dims", type=int, nargs="*", default=[6, 7, 8],
                        help="dimensions of the random families (default 6 7 8)")
    parser.add_argument("--arcs", type=int, nargs="*", default=[64, 256],
                        help="segment counts of the arc-hull families (default 64 256)")
    parser.add_argument("--balls", type=int, nargs="*", default=[],
                        help="dimensions of the closed one-norm lattice ball families (default none)")
    args = parser.parse_args(argv)
    for d in args.dims:
        cases = [gen_random_instance(d, 1000 * d + k) for k in range(SEEDS_PER_DIM)]
        print(json.dumps(measure(f"random-d{d}", cases)), flush=True)
    for n_arc in args.arcs:
        print(json.dumps(measure(f"arc-{n_arc}", [gen_arc_hull(n_arc)])), flush=True)
    for d in args.balls:
        print(json.dumps(measure(f"ball-d{d}", closed_balls(d))), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
