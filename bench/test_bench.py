"""Tests of the benchmark itself.

Run from the root of a checkout:

    python3 -m unittest discover -s bench -p 'test_*.py'
"""

from __future__ import annotations

import dataclasses
import json
import math
import shutil
import subprocess
import sys
import tempfile
import unittest
from fractions import Fraction
from pathlib import Path

import run

workloads = run._import_program("corpus")
import gate  # noqa: E402
import speed  # noqa: E402
from tracer import Tracer  # noqa: E402
from asymgeo.compactness import BadRecessionDirection, EscapedExtremePoint  # noqa: E402
from asymgeo.cli.instances import parse_instance  # noqa: E402


def _bench(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(run.BENCH_DIR / "run.py"), *args],
                          capture_output=True, text=True, timeout=170, cwd=run.ROOT)


def _result(proc: subprocess.CompletedProcess) -> dict:
    return json.loads(proc.stdout.strip().splitlines()[-1])


class TracedRuns(unittest.TestCase):
    def test_two_traced_runs_give_identical_counts(self):
        args = ("--workload", "corpus", "--seed", "7", "--seconds", "1", "--trace", "1")
        first, second = _bench(*args), _bench(*args)
        self.assertEqual(first.returncode, 0, first.stderr)
        self.assertEqual(second.returncode, 0, second.stderr)
        a, b = _result(first)["metrics"], _result(second)["metrics"]
        self.assertEqual(set(a), set(run.PER_LAYER))
        counts = [k for k, v in a.items() if v["unit"] == "count"]
        self.assertTrue(counts)
        for name in counts:
            self.assertEqual(a[name]["value"], b[name]["value"], name)
        self.assertGreater(a["trace.overhead_ratio"]["value"], 0)

    def test_every_layer_metric_is_nonzero_somewhere(self):
        seen = set()
        for workload in workloads.RATE:
            tracer = Tracer()
            tracer.install(extra_modules=[workloads])
            try:
                items = workloads.generate(workload, 3, 4)
                run.timed_loop(workload, items, tracer)
            finally:
                tracer.uninstall()
            summary = tracer.summary(len(items), 1.0)
            seen |= {name for name, value in summary.items() if value}
        missing = set(run.PER_LAYER) - seen - {"trace.overhead_ratio"}
        self.assertFalse(missing, f"zero on every workload: {sorted(missing)}")

    def test_uninstall_restores_the_program(self):
        from asymgeo import polyhedron
        from asymgeo.compactness import Instance

        before = (polyhedron.closure, Instance.__dict__["build"])
        tracer = Tracer()
        tracer.install()
        self.assertIsNot(polyhedron.closure, before[0])
        tracer.uninstall()
        self.assertEqual((polyhedron.closure, Instance.__dict__["build"]), before)


class OutputGate(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.items = workloads.generate("corpus", 5, 90)
        outcomes, errors, _, _, _ = run.timed_loop("corpus", cls.items)
        assert not errors
        cls.reference = run.load_reference("corpus")
        cls.outcomes = outcomes

    def _find(self, predicate):
        return next(i for i, o in enumerate(self.outcomes) if predicate(o))

    def _gate(self, index, tampered):
        """(problems from re-verification alone, failures from the whole gate)."""
        item = self.items[index]
        norm, region = parse_instance(item.text)
        problems = gate.verify(norm, region, tampered)
        failures = run.check_outputs([item], [tampered], {}, self.reference)
        return problems, failures

    def test_untampered_outputs_pass(self):
        self.assertEqual(run.check_outputs(self.items, self.outcomes, {}, self.reference), {})

    def test_flipped_verdict_is_rejected(self):
        for verdict, other in (("COMPACT", "NOT_COMPACT"), ("NOT_COMPACT", "COMPACT")):
            i = self._find(lambda o: o.verdict == verdict)
            out = self.outcomes[i]
            report = out.report.replace(f"verdict: {verdict}\n", f"verdict: {other}\n")
            tampered = dataclasses.replace(out, verdict=other, report=report)
            problems, failures = self._gate(i, tampered)
            self.assertTrue(problems, verdict)
            self.assertIn(self.items[i].index, failures)

    def test_moved_center_vertex_is_rejected(self):
        i = self._find(lambda o: o.verdict == "COMPACT" and o.center)
        out = self.outcomes[i]
        first = out.center[0]
        moved = (first[0] + Fraction(1, 2),) + first[1:]
        tampered = dataclasses.replace(out, center=(moved,) + out.center[1:])
        problems, failures = self._gate(i, tampered)
        self.assertTrue(problems)
        self.assertIn(self.items[i].index, failures)

    def test_swapped_witness_is_rejected(self):
        for kind in (BadRecessionDirection, EscapedExtremePoint):
            donors = [i for i, o in enumerate(self.outcomes) if isinstance(o.witness, kind)]
            a = donors[0]
            dim = len(self.items[a].shift)
            b = next(i for i in donors[1:] if len(self.items[i].shift) == dim
                     and self.outcomes[i].witness != self.outcomes[a].witness)
            tampered = dataclasses.replace(self.outcomes[b], witness=self.outcomes[a].witness)
            problems, failures = self._gate(b, tampered)
            self.assertIn(self.items[b].index, failures, kind.__name__)
            if kind is EscapedExtremePoint:
                self.assertTrue(problems)

    def test_unknown_verdict_is_rejected(self):
        out = self.outcomes[0]
        tampered = dataclasses.replace(out, verdict="UNKNOWN", center=None, witness=None,
                                       claims=(), report="verdict: UNKNOWN\n")
        problems, failures = self._gate(0, tampered)
        self.assertTrue(problems)
        self.assertTrue(failures)


class Workloads(unittest.TestCase):
    def test_same_seed_same_inputs_and_no_repeats(self):
        for workload in workloads.RATE:
            a = workloads.generate(workload, 11, 30)
            self.assertEqual(a, workloads.generate(workload, 11, 30))
            self.assertEqual(len({item.text for item in a}), len(a))

    def test_default_seed_replays_the_acceptance_seeds(self):
        from asymgeo.cli.generators import gen_random_instance
        from asymgeo.cli.instances import write_instance

        items = workloads.generate("corpus", workloads.DEFAULT_SEED, 6)
        expected = [write_instance(*gen_random_instance(d, 1000 * d + j)) for j in (0, 1) for d in (1, 2, 3)]
        self.assertEqual([item.text for item in items], expected)

    def test_population_is_a_prefix(self):
        short = workloads.generate("highdim", 4, 5)
        self.assertEqual(short, workloads.generate("highdim", 4, 8)[:5])

    def test_tail_percentile_leaves_ten_samples(self):
        def nearest_rank(values, pct):
            return values[max(1, math.ceil(pct / 100 * len(values))) - 1]

        for n in (11, 24, 30, 40, 1500):
            pct = run.tail_percentile(n)
            values = list(range(n))
            above = sum(1 for v in values if v > nearest_rank(values, pct))
            self.assertGreaterEqual(above, 10, n)
            self.assertLess(sum(1 for v in values if v > nearest_rank(values, pct + 1)), 10, n)

    def test_beta_cdf_matches_closed_forms(self):
        for x in (0.01, 0.2, 0.5, 0.77, 0.99):
            self.assertAlmostEqual(run.beta_cdf(x, 1, 1), x, places=12)
            self.assertAlmostEqual(run.beta_cdf(x, 2, 1), x * x, places=12)
            self.assertAlmostEqual(run.beta_cdf(x, 1, 3), 1 - (1 - x) ** 3, places=12)
            self.assertAlmostEqual(run.beta_cdf(x, 736.5, 15.5) + run.beta_cdf(1 - x, 15.5, 736.5), 1, places=12)

    def test_harrell_davis_estimates_the_quantile(self):
        values = list(range(100))
        self.assertAlmostEqual(run.harrell_davis(values, 0.5), 49.5, places=9)
        self.assertTrue(88 < run.harrell_davis(values, 0.9) < 91)
        self.assertAlmostEqual(run.harrell_davis([3.0] * 40, 0.75), 3.0, places=12)


class Speed(unittest.TestCase):
    def test_scale_divides_by_the_nearby_calibrations(self):
        ref = speed.REFERENCE_S
        times = [0.010, None, 0.030, 0.040, 0.050, 0.060, 0.070]
        self.assertEqual(speed.scale(times, [ref] * 7), times)
        halved = speed.scale(times, [2 * ref] * 7)
        self.assertAlmostEqual(halved[3], 0.020)
        self.assertIsNone(halved[1])
        # only calibrations within WINDOW places count, by their mean
        cal = [ref] * 7
        cal[6] = 4 * ref
        scaled = speed.scale(times, cal)
        self.assertAlmostEqual(scaled[3], times[3])
        self.assertAlmostEqual(scaled[6], times[6] / 2)

    def test_calibration_does_not_leave_the_collector_off(self):
        import gc

        self.assertTrue(gc.isenabled())
        self.assertGreater(speed.calibrate(), 0)
        self.assertTrue(gc.isenabled())


class Contract(unittest.TestCase):
    def test_benchmark_json_matches_the_metrics_printed(self):
        spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]}, run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]}, run.PER_LAYER)
        self.assertEqual([w["name"] for w in spec["workloads"]], list(workloads.RATE))

    def test_fails_without_program_sources(self):
        out = run.BENCH_DIR / "out"
        out.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=out) as tmp:
            shutil.copy(run.ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(run.BENCH_DIR, Path(tmp) / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
            proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "corpus", "--seed", "1",
                                   "--seconds", "1", "--trace", "0"],
                                  capture_output=True, text=True, timeout=60, cwd=tmp)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"metrics"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
