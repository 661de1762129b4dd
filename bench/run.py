"""asymgeo benchmark: seeded workloads, verified outputs, end-to-end metrics.

Usage, from the root of a checkout:

    python3 bench/run.py --workload corpus --seed 1 --seconds 30 --trace 0

One client runs a closed loop in one process, with no extra threads: each
instance starts after the previous one finished.  Every instance reaches
the program as text from ``write_instance`` and goes through the pipeline
of ``asymgeo check``, run in-process and timed per instance:
``parse_instance``, ``Instance.build``, ``decide_compact``,
``verify_theorems`` when COMPACT, ``RunReport.render(include_timing=False)``.
Each timed pass is a fresh interpreter, so the program's global closure
cache starts empty, and no instance value is timed twice in one process.

``--trace 0`` prints the end-to-end metrics from two such passes (this
process and one child).  Times are reported at reference speed: a fixed
calibration kernel runs after every instance and after every segment of
set-up, and each time is scaled by how fast the machine ran then (see
speed.py).
``--trace 1`` wraps each layer's public functions (see tracer.py), runs one
pass over the same instances and prints per-layer metrics, with the tracing
overhead measured against an untraced pass in a child interpreter.  Spans
are written to ``bench/out/``.  The last line of standard output is one JSON
object.  The exit code is 1 when any instance fails, 2 on a usage error or
when the program's sources are missing.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
CHILD_TIMEOUT_S = 170

END_TO_END = {
    "setup_s": "s",
    "instances_per_s": "1/s",
    "check_ms.p50": "ms",
    "check_ms.tail": "ms",
    "verdict_ms.p50": "ms",
    "peak_rss_mib": "MiB",
}

# Traced run only; tracer.py defines each (self time excludes child spans).
# norm.ball runs only in lattice-ball's set-up, so it reports calls alone:
# its self time would read exactly 0 in every run of the other workloads.
PER_LAYER = {
    "ratlp.feasible_nonneg.calls": "count",
    "ratlp.feasible_nonneg.self_s": "s",
    "ratlp.feasible_nonneg.cols_mean": "count",
    "ratlp.lp_solve.calls": "count",
    "ratlp.lp_solve.self_s": "s",
    "ratlp.lp_solve.rows_mean": "count",
    "ratlp.elim.calls": "count",
    "ratlp.elim.self_s": "s",
    "polyhedron.cone_from_rows.calls": "count",
    "polyhedron.cone_from_rows.self_s": "s",
    "polyhedron.cone_from_rows.rays_out": "count",
    "polyhedron.redundancy.calls": "count",
    "polyhedron.redundancy.removed_ratio": "ratio",
    "polyhedron.closure.calls": "count",
    "polyhedron.closure.self_s": "s",
    "polyhedron.closure.repeat_ratio": "ratio",
    "polyhedron.partial_is_empty.calls": "count",
    "polyhedron.partial_is_empty.self_s": "s",
    "polyhedron.subset.calls": "count",
    "polyhedron.subset.self_s": "s",
    "polyhedron.minkowski_sum_with_cone.calls": "count",
    "polyhedron.minkowski_sum_with_cone.self_s": "s",
    "polyhedron.extreme_points.calls": "count",
    "polyhedron.extreme_points.self_s": "s",
    "norm.degeneracy_cone.calls": "count",
    "norm.degeneracy_cone.self_s": "s",
    "norm.gauge_eval.calls": "count",
    "norm.gauge_eval.self_s": "s",
    "norm.ball.calls": "count",
    "compactness.build.self_s": "s",
    "compactness.decide_compact.self_s": "s",
    "compactness.verify_theorems.self_s": "s",
    "compactness.saturation_extreme_points.calls_per_instance": "count",
    "cli.parse_instance.self_s": "s",
    "cli.render.self_s": "s",
    "cli.generators.self_s": "s",
    "ratlp.share": "ratio",
    "polyhedron.share": "ratio",
    "norm.share": "ratio",
    "compactness.share": "ratio",
    "cli.share": "ratio",
    "trace.overhead_ratio": "ratio",
}


def _fail(message: str) -> None:
    print(f"error: {message}", file=sys.stderr)
    raise SystemExit(2)


def _import_program(workload: str):
    """Import the checkout's sources, never another copy; returns workloads."""
    if not (SRC / "asymgeo" / "__init__.py").is_file():
        _fail(f"no program sources at {SRC}")
    sys.path.insert(0, str(SRC))
    import asymgeo

    if Path(asymgeo.__file__).resolve().parent != SRC / "asymgeo":
        _fail(f"asymgeo imported from {asymgeo.__file__}, not {SRC}")
    import workloads

    if workload not in workloads.RATE:
        _fail(f"unknown workload {workload!r}; choose from {', '.join(workloads.RATE)}")
    return workloads


def run_pipeline(text: str, name: str):
    """The ``asymgeo check`` pipeline; returns (outcome, verdict_s, check_s).

    Names are looked up at call time so that a traced run sees the wrappers.
    """
    from asymgeo.cli.instances import parse_instance
    from asymgeo.cli.suite import RunReport
    from asymgeo.compactness import Instance, Verdict, decide_compact, verify_theorems
    from gate import Outcome

    start = time.perf_counter()
    norm, region = parse_instance(text)
    inst = Instance.build(norm, region)
    cert = decide_compact(inst)
    decided = time.perf_counter()
    claims = ()
    if cert.verdict is Verdict.COMPACT:
        rep = verify_theorems(inst, cert)
        claims = tuple((c.claim_id, c.status.value) for c in rep.claims)
    center = cert.center.vertices if cert.center is not None else None
    report = RunReport(
        name=name,
        dim=norm.dim,
        functionals=len(norm.functionals),
        rows=len(region.constraints),
        verdict=cert.verdict.value,
        center=center,
        witness=repr(cert.witness) if cert.witness is not None else None,
        claims=claims,
    ).render(include_timing=False)
    done = time.perf_counter()
    return Outcome(cert.verdict.value, center, cert.witness, claims, report), decided - start, done - start


def timed_loop(workload: str, items, tracer=None, speed_samples=None):
    """Run every item once, in order; returns (outcomes, errors, verdict_s, check_s, wall_s).

    The lists run parallel to ``items``; an item that raised has None there.
    When ``speed_samples`` is a list, one ``speed.calibrate()`` time is
    appended to it after each item; ``wall_s`` then counts the items only.
    """
    outcomes, errors, verdict_s, check_s = [], {}, [], []
    calibrating = 0.0
    start = time.perf_counter()
    for item in items:
        if tracer is not None:
            tracer.begin_request(item.index)
        try:
            outcome, v, c = run_pipeline(item.text, f"{workload}-{item.index}")
        except Exception as exc:  # a raise is a failed instance, reported with the rest
            errors[item.index] = f"{type(exc).__name__}: {exc}"
            outcome, v, c = None, None, None
        outcomes.append(outcome)
        verdict_s.append(v)
        check_s.append(c)
        if speed_samples is not None:
            cal = speed.calibrate()
            speed_samples.append(cal)
            calibrating += cal
    return outcomes, errors, verdict_s, check_s, time.perf_counter() - start - calibrating


def load_reference(workload: str) -> list[str]:
    with open(BENCH_DIR / "reference.json", encoding="utf-8") as fh:
        return json.load(fh)[workload]


def check_outputs(items, outcomes, errors, reference) -> dict[int, str]:
    """Failures by instance index: raised, not re-verified, or off-reference.

    ``reference`` is None only when the reference itself is being written.
    """
    from asymgeo.cli.instances import parse_instance
    import gate

    failures = dict(errors)
    for item, out in zip(items, outcomes):
        if out is None:
            continue
        norm, region = parse_instance(item.text)
        problems = gate.verify(norm, region, out)
        if reference is not None:
            if item.index >= len(reference):
                problems.append(f"no stored reference for instance {item.index}")
            elif gate.digest(out, item.shift) != reference[item.index]:
                problems.append("output differs from the stored reference")
        if problems:
            failures[item.index] = "; ".join(problems)
    return failures


def tail_percentile(n: int) -> int:
    """Highest whole percentile that leaves at least ten samples above it."""
    return math.floor(100 * (n - 10) / n) if n > 10 else 0


def beta_cdf(x: float, a: float, b: float) -> float:
    """The regularised incomplete beta function I_x(a, b).

    Its continued fraction, evaluated by the modified Lentz method, converges
    fast for x below the mean (a + 1) / (a + b + 2); above it, the symmetry
    I_x(a, b) = 1 - I_{1-x}(b, a) applies.
    """
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    if x > (a + 1) / (a + b + 2):
        return 1.0 - beta_cdf(1.0 - x, b, a)
    tiny = 1e-300

    def nonzero(v: float) -> float:
        return v if abs(v) > tiny else tiny

    front = math.exp(math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                     + a * math.log(x) + b * math.log1p(-x)) / a
    c, d = 1.0, 1.0 / nonzero(1.0 - (a + b) * x / (a + 1))
    h = d
    for m in range(1, 1000):
        even = m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m))
        odd = -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1))
        for coef in (even, odd):
            d = 1.0 / nonzero(1.0 + coef * d)
            c = nonzero(1.0 + coef / c)
            h *= d * c
        if abs(d * c - 1.0) < 1e-14:
            break
    return front * h


def harrell_davis(sorted_values, p: float) -> float:
    """Harrell-Davis estimate of the p-quantile of an ascending list.

    A mean of all order statistics, the i-th of n weighted by the Beta(p(n+1),
    (1-p)(n+1)) probability of ((i-1)/n, i/n]; the weight sits on the few
    ranks around p*n.
    """
    n = len(sorted_values)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    cdf = [beta_cdf(i / n, a, b) for i in range(n + 1)]
    return sum((cdf[i + 1] - cdf[i]) * v for i, v in enumerate(sorted_values))


def _child(args, part: str) -> dict:
    """Run one part of this run in a fresh interpreter; returns its JSON line."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0",
           "--part", part]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, cwd=ROOT)
    if proc.returncode != 0:
        _fail(f"child run ({part}) failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _emit(metrics: dict, units: dict, attempted: int, failures: dict) -> int:
    for index in sorted(failures)[:20]:
        print(f"FAILED instance {index}: {failures[index]}")
    print(f"failed_ratio: {len(failures)}/{attempted} = {len(failures) / attempted:.4f}")
    for name, value in metrics.items():
        print(f"{name}: {value:.6g} {units[name]}")
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 1 if failures else 0


def timed_setup(args):
    """Import the program and make the instances; returns (workloads, items, setup_s).

    The set-up is timed in segments of at least ``speed.SEGMENT_S`` (the
    import, then runs of consecutive instances), each followed by a
    calibration, and ``setup_s`` is their sum at reference speed.
    """
    segments: list[float] = []
    samples: list[float] = []
    mark = time.perf_counter()

    def lap(last: bool = False) -> None:
        nonlocal mark
        elapsed = time.perf_counter() - mark
        if last or elapsed >= speed.SEGMENT_S:
            segments.append(elapsed)
            samples.append(speed.calibrate())
            mark = time.perf_counter()

    workloads = _import_program(args.workload)
    import gate  # noqa: F401  the output gate's imports are part of set-up

    lap(last=True)
    count = workloads.instance_count(args.workload, args.seconds)
    items = workloads.generate(args.workload, args.seed, count, on_item=lap)
    lap(last=True)
    return workloads, items, sum(speed.scale(segments, samples))


def run_end_to_end(args) -> int:
    """Two timed passes over the same instances, each in a fresh interpreter.

    This process runs the first pass and a child the second.  Every time is
    first brought to reference speed (speed.py) by the calibrations next to
    it: one after each instance, and one after each segment of set-up.
    Each instance's time is then the mean of its two, and every time
    metric, ``instances_per_s`` included, is taken from those mean times.
    Scaled times err both ways, so the mean steadies them more than the
    lower of the two would.
    """
    workloads, items, setup_s = timed_setup(args)
    import gate

    if args.part == "setup":
        print(json.dumps({"setup_s": setup_s}))
        return 0

    samples: list[float] = []
    outcomes, errors, verdict_raw, check_raw, wall = timed_loop(args.workload, items, speed_samples=samples)
    verdict_s, check_s = speed.scale(verdict_raw, samples), speed.scale(check_raw, samples)
    digests = [gate.digest(out, item.shift) if out is not None else None
               for item, out in zip(items, outcomes)]
    if args.part == "pass":
        print(json.dumps({"setup_s": setup_s, "loop_s": wall, "verdict_s": verdict_s,
                          "check_s": check_s, "digests": digests}))
        return 0
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    second = _child(args, "pass")
    setups = [setup_s, second["setup_s"], _child(args, "setup")["setup_s"]]
    gate_start = time.perf_counter()
    failures = check_outputs(items, outcomes, errors, load_reference(args.workload))
    gate_s = time.perf_counter() - gate_start
    for item, mine, theirs in zip(items, digests, second["digests"]):
        if mine != theirs:
            failures.setdefault(item.index, "the second pass gave another output")

    both = [i for i in range(len(items)) if check_s[i] is not None and second["check_s"][i] is not None]
    check = sorted((check_s[i] + second["check_s"][i]) / 2 for i in both)
    verdict = [(verdict_s[i] + second["verdict_s"][i]) / 2 for i in both]
    pct = tail_percentile(len(check))
    print(f"workload {args.workload}, seed {args.seed}: {len(items)} instances, "
          f"loops {wall:.3f} s and {second['loop_s']:.3f} s as measured, output gate {gate_s:.3f} s, "
          f"setups {', '.join(f'{s:.3f}' for s in setups)} s at reference speed")
    print(f"calibration in the first pass: median {statistics.median(samples) * 1e3:.3f} ms, "
          f"reference {speed.REFERENCE_S * 1e3:.3f} ms")
    print(f"check_ms.tail is p{pct} of {len(check)} samples "
          f"(Harrell-Davis estimate; each sample the mean of two passes)")
    metrics = {
        "setup_s": statistics.median(setups),
        "instances_per_s": (len(items) - len(failures)) / sum(check),
        "check_ms.p50": statistics.median(check) * 1e3,
        "check_ms.tail": harrell_davis(check, pct / 100) * 1e3,
        "verdict_ms.p50": statistics.median(verdict) * 1e3,
        "peak_rss_mib": peak_rss_mib,
    }
    return _emit(metrics, END_TO_END, len(items), failures)


def run_traced(args) -> int:
    workloads = _import_program(args.workload)
    import gate
    from tracer import Tracer

    tracer = Tracer()
    tracer.install(extra_modules=[workloads])
    start = time.perf_counter()
    count = workloads.instance_count(args.workload, args.seconds)
    items = workloads.generate(args.workload, args.seed, count)
    generate_s = time.perf_counter() - start
    samples: list[float] = []
    outcomes, errors, _, check_raw, loop_s = timed_loop(args.workload, items, tracer, samples)
    traced_wall = generate_s + loop_s
    tracer.uninstall()

    failures = check_outputs(items, outcomes, errors, load_reference(args.workload))
    untraced = _child(args, "pass")["check_s"]
    traced = speed.scale(check_raw, samples)
    both = [i for i in range(len(items)) if traced[i] is not None and untraced[i] is not None]
    summary = tracer.summary(len(items), traced_wall)
    summary["trace.overhead_ratio"] = sum(traced[i] for i in both) / sum(untraced[i] for i in both)
    out_dir = BENCH_DIR / "out"
    out_dir.mkdir(exist_ok=True)
    spans = out_dir / f"{args.workload}-seed{args.seed}.spans.tsv"
    tracer.write_spans(spans)
    print(f"workload {args.workload}, seed {args.seed}: {len(items)} instances, "
          f"{len(tracer.start)} spans in {spans.relative_to(ROOT)}, traced wall {traced_wall:.3f} s")
    metrics = {name: summary.get(name, 0) for name in PER_LAYER}
    return _emit(metrics, PER_LAYER, len(items), failures)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="asymgeo benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # one part of a run, in the fresh interpreter a run spawns for it
    parser.add_argument("--part", choices=("setup", "pass"), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be positive")
    sys.path.insert(0, str(BENCH_DIR))
    return run_traced(args) if args.trace else run_end_to_end(args)


if __name__ == "__main__":
    sys.exit(main())
