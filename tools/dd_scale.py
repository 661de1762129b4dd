"""How the double description scales: one JSON line per input family.

Each family is built and decided (``Instance.build`` then
``decide_compact``) with ``polyhedron.cone_from_rows``, the one entry to the
double description, and ``polyhedron._cut``, its insertion loop, wrapped
in every module that holds them (``harness.rebound``), and each COMPACT
instance then runs the checks T1-T6 (``verify_theorems``).
A line holds the family, its instance count, the ``cone_from_rows`` calls
of build and decide, the rays they returned, the wall time spent inside
them (``dd_s``), the ``_cut`` runs of build and decide outside a
``cone_from_rows`` call (the local tangent-cone tests, which start from the
closure's edges) and their wall time (``cut_calls``, ``cut_s``), the wall
time of build and decide over the family (``total_s``), its COMPACT count,
the wall time of their T1-T6 (``checks_s``), so ``total_s + checks_s`` is
the whole pipeline, the vertex-to-facet conversions
(``polyhedron._int_facets`` runs) of decide and T1-T6 together
(``facet_dds``), and the double descriptions of a gauge's functionals,
its degeneracy cone's, over decide and T1-T6 (``gauge_dds``).  With
``--repeat N`` each family runs N times on freshly
made values (closures and degeneracy cones are memoized on them); each time
is then the least of the N (``dd_s``, ``cut_s``, ``total_s``,
``checks_s``), with the median next to it (``dd_s_median`` and so on), and
the counts are those of the first run.  Wall-clock times move with the
host's speed, so parent/change comparisons want several repeats and runs
that alternate.  Report only: it checks no answer and gates nothing.
Standard library only; it imports the package through ``harness``, from
the ``src`` next to it.

The line also holds the double description's work as the code counted
it while it ran: the change of ``polyhedron._DD_WORK``, the tally that
``_cut`` and ``_pointed_cone_rays`` keep, over each instance's build and
decide, with T1-T6 left out.  ``_cut`` counts the rows it inserted (``rows_in``), the
candidate pairs of a cut and a strictly kept ray (``pairs``), the pairs
sharing enough tight rows (``pairs_popcount``), the rays it made
(``rays_made``) and the holder scans it ran (``polyhedron._held`` calls,
``pairs_scanned``); ``_pointed_cone_rays`` counts its runs
(``pointed_runs``) and those that kept their rows first to last in the
order of their primitive forms, nearest the base first
(``nearest_first_runs``).

    python tools/dd_scale.py [--dims 6 7 8] [--arcs 64 256] [--balls 5 6] [--repeat 3]

The families are random instances at each dimension d
(``harness.random_family``: the seeds ``1000*d + k`` for k < 16, as
``asymgeo gen random`` draws them), the arc hull at each segment count,
and the eight closed balls of the one-norm lattice gauge that
``harness.balls`` draws at each ball dimension, around seeded rational
centers, each on its own gauge value, then the open balls of the same
draws (``open-ball-d<d>``).
A closed ball is its own saturated hull, and its
instance reads its cone off its closure and hands it to T6's, so its line
reads ``facet_dds`` 0 and ``gauge_dds`` 0.
"""

from __future__ import annotations

import argparse
import json
import statistics
import time
from collections import Counter

# first: importing harness puts the src next to this directory on the path
from harness import balls, random_family, rebound

from asymgeo.polyhedron import _DD_WORK, _cut, _int_facets, cone_from_rows
from asymgeo.cli.generators import gen_arc_hull, gen_lattice_norm
from asymgeo.compactness import Instance, Verdict, decide_compact, verify_theorems
from asymgeo.norm import Closedness


def one_balls(d: int, closedness: Closedness) -> list:
    """(gauge, region) of the closed or open balls of the one-norm lattice
    gauge in dimension d that ``harness.balls`` draws."""
    suffix = f"-{closedness.value.lower()}"
    return [(q, region) for name, q, region in balls("one", [d], lambda d, rng: gen_lattice_norm(d, "one"))
            if name.endswith(suffix)]


TIMES = ("dd_s", "cut_s", "total_s", "checks_s")


def measure(family: str, make_cases, repeat: int = 1) -> dict:
    """The report line of ``repeat`` runs (``run``), each on the fresh
    values ``make_cases()`` returns: the first run's counts, and per time
    the least and the median over the runs."""
    runs = [run(make_cases()) for _ in range(repeat)]
    out = {"family": family, **{k: v for k, v in runs[0].items() if k not in TIMES}}
    for key in TIMES:
        values = [r[key] for r in runs]
        out[key] = round(min(values), 4)
        out[f"{key}_median"] = round(statistics.median(values), 4)
    return out


def run(cases) -> dict:
    """Build and decide every (gauge, region) of ``cases``, counting the DD
    and the insertion loop, then check each COMPACT one; the cases are made
    before, so the generator's own work is not counted, and the checks' DD
    runs are not, except in ``facet_dds`` and ``gauge_dds``, which count the
    facet conversions and the gauges' double descriptions of both.  The
    DD's own tally (``_DD_WORK``) is read as its change over build and
    decide."""
    stats = {"calls": 0, "rays_out": 0, "dd_s": 0.0, "cut_calls": 0, "cut_s": 0.0, "facet_dds": 0, "gauge_dds": 0}
    work = Counter()
    counted, inside = [True], [0]
    gauges = [q._rows for q, _ in cases]

    def facets(poly):
        stats["facet_dds"] += 1
        return _int_facets(poly)

    def counting(rows, dim):
        stats["gauge_dds"] += any(rows is g for g in gauges)
        inside[0] += 1
        start = time.perf_counter()
        result = cone_from_rows(rows, dim)
        inside[0] -= 1
        if counted[0]:
            stats["dd_s"] += time.perf_counter() - start
            stats["calls"] += 1
            stats["rays_out"] += len(result[0])
        return result

    def cutting(*args):
        start = time.perf_counter()
        result = _cut(*args)
        if counted[0] and not inside[0]:
            stats["cut_s"] += time.perf_counter() - start
            stats["cut_calls"] += 1
        return result

    count = compact = 0
    total_s = checks_s = 0.0
    with rebound("cone_from_rows", counting), rebound("_cut", cutting), rebound("_int_facets", facets):
        for q, region in cases:
            before = _DD_WORK.copy()
            start = time.perf_counter()
            inst = Instance.build(q, region)
            cert = decide_compact(inst)
            total_s += time.perf_counter() - start
            work.update(_DD_WORK)
            work.subtract(before)
            count += 1
            if cert.verdict is Verdict.COMPACT:
                counted[0] = False
                start = time.perf_counter()
                verify_theorems(inst, cert)
                checks_s += time.perf_counter() - start
                counted[0] = True
                compact += 1
    return {"instances": count, "cone_from_rows_calls": stats["calls"], "rays_out": stats["rays_out"],
            "dd_s": stats["dd_s"], "cut_calls": stats["cut_calls"], "cut_s": stats["cut_s"],
            "total_s": total_s, "compact": compact, "checks_s": checks_s, "facet_dds": stats["facet_dds"],
            "gauge_dds": stats["gauge_dds"], **work}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--dims", type=int, nargs="*", default=[6, 7, 8],
                        help="dimensions of the random families (default 6 7 8)")
    parser.add_argument("--arcs", type=int, nargs="*", default=[64, 256],
                        help="segment counts of the arc-hull families (default 64 256)")
    parser.add_argument("--balls", type=int, nargs="*", default=[],
                        help="dimensions of the closed and open one-norm lattice ball families (default none)")
    parser.add_argument("--repeat", type=int, default=1,
                        help="runs per family; times report the least and the median (default 1)")
    args = parser.parse_args(argv)
    if args.repeat < 1:
        parser.error("--repeat must be at least 1")
    families = [(f"random-d{d}", lambda d=d: random_family(d)) for d in args.dims]
    families += [(f"arc-{n}", lambda n=n: [gen_arc_hull(n)]) for n in args.arcs]
    families += [(f"ball-d{d}", lambda d=d: one_balls(d, Closedness.CLOSED)) for d in args.balls]
    families += [(f"open-ball-d{d}", lambda d=d: one_balls(d, Closedness.OPEN)) for d in args.balls]
    for family, make_cases in families:
        print(json.dumps(measure(family, make_cases, args.repeat)), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
