"""How the double description scales: one JSON line per input family.

Each family is built and decided (``Instance.build`` then
``decide_compact``) with ``polyhedron.cone_from_rows``, the one entry to the
double description, and ``polyhedron._cut``, its insertion loop, wrapped
under every name that holds them, and each COMPACT instance then runs the
checks T1-T6 (``verify_theorems``).
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
that alternate.  Report only: it checks no answer and gates nothing, but
``--counts`` raises where its replay of ``_cut`` disagrees (below).
Standard library only; it imports the package from the ``src`` next to it.

With ``--counts`` each family runs once more, untimed, with every ``_cut``
run replayed (``replay``) one row at a time through ``_cut`` itself: the
double description is incremental, so the last of those runs returns what
one run over all the rows does, and a replay that returns other rays or
masks raises.  The work is read off the rays and masks between rows, and
the line gains it over build and decide: rows inserted (``rows_in``),
candidate pairs of a cut and a kept ray (``pairs``), pairs sharing enough
tight rows (``pairs_popcount``), rays made (``rays_made``), the holder
scans the replayed ``_cut`` ran (``polyhedron._held`` calls,
``pairs_scanned``), and the pointed runs (``_cut`` called from
``polyhedron._pointed_cone_rays``, ``pointed_runs``) whose rows came first
to last in the order of their primitive forms, nearest the base first
(``nearest_first_runs``).  The first four depend only on the rows and
their order, so the same tool run on an earlier ``src`` counts that code's
work; ``pairs_scanned`` counts the scans ``_cut`` really runs: those the
simple-ray shortcut leaves, and every one of ``pairs_popcount`` in code
without it.

    python tools/dd_scale.py [--dims 6 7 8] [--arcs 64 256] [--balls 5 6] [--repeat 3] [--counts]

The families are random instances at each dimension d (the seeds
``1000*d + k`` for k < 16, as ``asymgeo gen random`` draws them), the arc
hull at each segment count, and eight closed balls of the one-norm lattice
gauge at each ball dimension, around seeded rational centers, each on its
own gauge value, then the open balls of the same draws (``open-ball-d<d>``).
A closed ball is its own saturated hull, and its
instance reads its cone off its closure and hands it to T6's, so its line
reads ``facet_dds`` 0 and ``gauge_dds`` 0.
"""

from __future__ import annotations

import argparse
import json
import random
import statistics
import sys
import time
from fractions import Fraction
from operator import mul
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from asymgeo import compactness, norm, polyhedron  # noqa: E402
from asymgeo.polyhedron import _cut  # noqa: E402
from asymgeo.ratlp import _primitive  # noqa: E402
from asymgeo.cli.generators import gen_arc_hull, gen_lattice_norm, gen_random_instance  # noqa: E402
from asymgeo.compactness import Instance, Verdict, decide_compact, verify_theorems  # noqa: E402
from asymgeo.norm import Closedness, ball  # noqa: E402

SEEDS_PER_DIM = 16
BALLS_PER_DIM = 8


def one_balls(d: int, closedness: Closedness) -> list:
    """Balls of the one-norm lattice gauge in dimension d, closed or open,
    each on a gauge value of its own, around rational centers and of
    rational radii drawn from the seed ``1000*d``."""
    rng = random.Random(1000 * d)
    cases = []
    for _ in range(BALLS_PER_DIM):
        q = gen_lattice_norm(d, "one")
        center = tuple(Fraction(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(d))
        radius = Fraction(rng.randint(1, 6), rng.randint(1, 3))
        cases.append((q, ball(q, center, radius, closedness).as_set))
    return cases


TIMES = ("dd_s", "cut_s", "total_s", "checks_s")


def measure(family: str, make_cases, repeat: int = 1, counts: bool = False) -> dict:
    """The report line of ``repeat`` runs (``run``), each on the fresh
    values ``make_cases()`` returns: the first run's counts, and per time
    the least and the median over the runs; with ``counts``, the work
    counts of one more run (``count_work``)."""
    runs = [run(make_cases()) for _ in range(repeat)]
    out = {"family": family, **{k: v for k, v in runs[0].items() if k not in TIMES}}
    for key in TIMES:
        values = [r[key] for r in runs]
        out[key] = round(min(values), 4)
        out[f"{key}_median"] = round(statistics.median(values), 4)
    if counts:
        out.update(count_work(make_cases()))
    return out


COUNTS = ("rows_in", "pairs", "pairs_popcount", "rays_made", "pairs_scanned")


def replay(rays, masks, rows, dim, tally):
    """``polyhedron._cut`` over ``rows``, run one row at a time, adding its
    work to ``tally`` (the ``COUNTS``), read off the rays and masks before
    and after each row, and its holder scans (``polyhedron._held`` calls)
    counted as they run: the (ray, mask) pairs the one run returns."""
    def holding(common, pool, limit):
        tally["pairs_scanned"] += 1
        return held(common, pool, limit)

    held, polyhedron._held = polyhedron._held, holding
    try:
        for i, row in rows:
            if not rays:
                break
            signs = [sum(map(mul, row, r)) for r in rays]
            cut = [m for m, v in zip(masks, signs) if v > 0]
            minus = [m for m, v in zip(masks, signs) if v < 0]
            tally["rows_in"] += 1
            tally["pairs"] += len(cut) * len(minus)
            tally["pairs_popcount"] += sum((mp & mq).bit_count() >= dim - 2 for mp in cut for mq in minus)
            kept = len(rays) - len(cut)
            rays, masks = _cut(rays, masks, [(i, row)], dim)
            tally["rays_made"] += len(rays) - kept
    finally:
        polyhedron._held = held
    return sorted(zip(rays, masks))


def count_work(cases) -> dict:
    """Build and decide every (gauge, region) of ``cases`` with each ``_cut``
    run checked against its ``replay``: the ``COUNTS`` of build and decide,
    ``pointed_runs`` and ``nearest_first_runs``."""
    tally = dict.fromkeys((*COUNTS, "pointed_runs", "nearest_first_runs"), 0)

    def replaying(pointed):
        def cut(rays, masks, rows, dim):
            rows = list(rows)
            result = _cut(rays, masks, rows, dim)
            if replay(rays, masks, rows, dim, tally) != list(zip(*result)):
                raise AssertionError("_cut run one row at a time returned other rays or masks")
            if pointed:
                keys = [_primitive(row) for _, row in rows]
                tally["pointed_runs"] += 1
                tally["nearest_first_runs"] += keys == sorted(keys) != keys[::-1]
            return result
        return cut

    modules = [m for m in (polyhedron, compactness) if getattr(m, "_cut", None) is _cut]
    for module in modules:
        module._cut = replaying(module is polyhedron)
    try:
        for q, region in cases:
            decide_compact(Instance.build(q, region))
    finally:
        for module in modules:
            module._cut = _cut
    return tally


def run(cases) -> dict:
    """Build and decide every (gauge, region) of ``cases``, counting the DD
    and the insertion loop, then check each COMPACT one; the cases are made
    before, so the generator's own work is not counted, and the checks' DD
    runs are not, except in ``facet_dds`` and ``gauge_dds``, which count the
    facet conversions and the gauges' double descriptions of both."""
    real, real_cut, real_facets = polyhedron.cone_from_rows, polyhedron._cut, polyhedron._int_facets
    stats = {"calls": 0, "rays_out": 0, "dd_s": 0.0, "cut_calls": 0, "cut_s": 0.0, "facet_dds": 0, "gauge_dds": 0}
    counted, inside = [True], [0]
    gauges = [q._rows for q, _ in cases]

    def facets(poly):
        stats["facet_dds"] += 1
        return real_facets(poly)

    def counting(rows, dim):
        stats["gauge_dds"] += any(rows is g for g in gauges)
        inside[0] += 1
        start = time.perf_counter()
        result = real(rows, dim)
        inside[0] -= 1
        if counted[0]:
            stats["dd_s"] += time.perf_counter() - start
            stats["calls"] += 1
            stats["rays_out"] += len(result[0])
        return result

    def cutting(*args):
        start = time.perf_counter()
        result = real_cut(*args)
        if counted[0] and not inside[0]:
            stats["cut_s"] += time.perf_counter() - start
            stats["cut_calls"] += 1
        return result

    wraps = (("cone_from_rows", real, counting), ("_cut", real_cut, cutting))
    wrapped = [(m, name, fn, wrap) for name, fn, wrap in wraps
               for m in (polyhedron, norm, compactness) if getattr(m, name, None) is fn]
    for module, name, _, wrap in wrapped:
        setattr(module, name, wrap)
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
        for module, name, fn, _ in wrapped:
            setattr(module, name, fn)
        polyhedron._int_facets = real_facets
    return {"instances": count, "cone_from_rows_calls": stats["calls"], "rays_out": stats["rays_out"],
            "dd_s": stats["dd_s"], "cut_calls": stats["cut_calls"], "cut_s": stats["cut_s"],
            "total_s": total_s, "compact": compact, "checks_s": checks_s, "facet_dds": stats["facet_dds"],
            "gauge_dds": stats["gauge_dds"]}


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
    parser.add_argument("--counts", action="store_true",
                        help="add the double description's work counts of one more, untimed run")
    args = parser.parse_args(argv)
    if args.repeat < 1:
        parser.error("--repeat must be at least 1")
    families = [(f"random-d{d}", lambda d=d: [gen_random_instance(d, 1000 * d + k) for k in range(SEEDS_PER_DIM)])
                for d in args.dims]
    families += [(f"arc-{n}", lambda n=n: [gen_arc_hull(n)]) for n in args.arcs]
    families += [(f"ball-d{d}", lambda d=d: one_balls(d, Closedness.CLOSED)) for d in args.balls]
    families += [(f"open-ball-d{d}", lambda d=d: one_balls(d, Closedness.OPEN)) for d in args.balls]
    for family, make_cases in families:
        print(json.dumps(measure(family, make_cases, args.repeat, args.counts)), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
