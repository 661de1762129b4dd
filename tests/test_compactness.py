"""The decision procedure, its certificates, and the structure checks."""

from __future__ import annotations

import itertools
import random
import sys
from fractions import Fraction
from operator import mul
from pathlib import Path

import pytest

from asymgeo.compactness import (
    CLAIM_LABELS,
    BadRecessionDirection,
    ClaimStatus,
    CompactnessCertificate,
    EmptyExtremeSetError,
    EmptyRegionError,
    EscapedExtremePoint,
    Instance,
    Verdict,
    ball_no_line_check,
    center_candidate,
    decide_compact,
    region_extreme_points,
    sandwich_certify,
    saturate_region,
    saturation_extreme_points,
    verify_theorems,
)
from asymgeo import compactness, polyhedron, ratlp
from asymgeo import norm as norm_module
from asymgeo.cli.generators import _units, gen_lattice_norm, gen_random_instance, gen_random_norm, gen_random_region
from asymgeo.cli.instances import parse_instance, write_instance
from asymgeo.cli.suite import _check, reference_catalog
from asymgeo.norm import AsymNorm, Closedness, ball, degeneracy_cone, gauge_eval, make_norm
from asymgeo.polyhedron import (
    Cone,
    Constraint,
    PartialPolyhedron,
    Polyhedron,
    _edges,
    _int_facets,
    _meets_face,
    _within,
    closure,
    contains_line,
    dd_convert_h_to_v,
    extreme_points,
    is_closed,
    member,
    minkowski_sum_with_cone,
    recession_cone,
    set_equal,
    to_partial,
)
from asymgeo.ratlp import vneg, zero_vec

from support import (
    REF_PUBLIC,
    affine_image,
    in_cone,
    in_conv_plus_cone,
    interval,
    interval_compact_oracle,
    product,
    rand_fraction,
    rand_point,
    ref_attributes,
    ref_edges,
    ref_escaping,
    ref_extreme_in_saturation,
    ref_gauge_eval,
    ref_gauge_rows_are_rows,
    ref_maximal,
    ref_meets_face,
    ref_member,
    ref_repr,
    ref_rows_are_gauge_rows,
    ref_saturate_region,
    ref_sandwich,
    ref_support_value,
    ref_t3,
    ref_tight_masks,
    with_redundant_rows,
)

F = Fraction
POS_PART = make_norm(1, [(1,)])
SUP2 = make_norm(2, [(1, 0), (0, 1)])
SYM2 = make_norm(2, [(1, 0), (0, 1), (-1, 0), (0, -1)])

HALF_OPEN = interval(-1, 1, lo_open=True)  # (-1, 1]
UNIT_SQUARE = PartialPolyhedron(2, (
    Constraint((F(1), F(0)), F(1), False),
    Constraint((F(0), F(1)), F(1), False),
    Constraint((F(-1), F(0)), F(0), False),
    Constraint((F(0), F(-1)), F(0), False),
))


def build(norm, region):
    return Instance.build(norm, region)


def test_region_extreme_points_examples():
    assert region_extreme_points(build(POS_PART, HALF_OPEN)) == ((1,),)
    vanish_cone = interval(None, 0)  # the gauge's degeneracy cone itself
    assert region_extreme_points(build(POS_PART, vanish_cone)) == ((0,),)
    both_open = interval(0, 1, lo_open=True, hi_open=True)
    assert region_extreme_points(build(POS_PART, both_open)) == ()


def test_saturation_extreme_points_examples():
    assert saturation_extreme_points(build(POS_PART, HALF_OPEN)) == ((1,),)
    assert saturation_extreme_points(build(SUP2, UNIT_SQUARE)) == ((1, 1),)
    sym_inst = build(SYM2, UNIT_SQUARE)
    assert set(saturation_extreme_points(sym_inst)) == {(0, 0), (1, 0), (0, 1), (1, 1)}


def test_saturation_extreme_points_agree_with_lp_extremality():
    """The pruned sum's vertices are its extreme points; LPs are the reference:
    a line is a ray whose opposite the rays generate, and a vertex is extreme
    iff the other vertices and the rays do not generate it."""
    rng = random.Random(61)
    lines = 0
    for _ in range(40):
        d = rng.randint(1, 3)
        inst = build(gen_random_norm(d, rng), gen_random_region(d, rng))
        sat = inst.saturated
        has_line = any(in_cone(vneg(r), sat.rays) for r in sat.rays)
        assert contains_line(sat) == has_line
        expected = () if has_line else tuple(
            v for v in sat.vertices if not in_conv_plus_cone(v, [w for w in sat.vertices if w != v], sat.rays))
        assert saturation_extreme_points(inst) == extreme_points(sat) == expected
        lines += has_line
    assert 0 < lines < 40


def test_decision_pipeline_runs_no_lp(monkeypatch):
    """Build, decide and the structure checks read everything off double
    description output: over the reference suite and 60 corpus seeds, no
    LP runs.  ``feasible_nonneg``, as ``polyhedron`` and ``ratlp`` bind it,
    and ``lp_solve`` are every LP entry of ``src/``."""
    catalog = reference_catalog()
    cases = [(entry.norm, entry.region) for entry in catalog]
    cases += [gen_random_instance(d, 1000 * d + k) for d in (1, 2, 3) for k in range(20)]

    def forbidden(*args, **kwargs):
        raise AssertionError("an LP ran in the decision pipeline")

    for module in (polyhedron, ratlp):
        monkeypatch.setattr(module, "feasible_nonneg", forbidden)
    monkeypatch.setattr(ratlp, "lp_solve", forbidden)
    verdicts = []
    for norm, region in cases:
        inst = Instance.build(norm, region)
        cert = decide_compact(inst)
        verify_theorems(inst, cert)
        verdicts.append(cert.verdict)
    assert verdicts.count(Verdict.COMPACT) >= len(catalog)
    assert Verdict.NOT_COMPACT in verdicts


def test_not_compact_verdict_runs_no_facet_dd(monkeypatch):
    """A NOT_COMPACT verdict reads everything off the closure's generators and
    the region's rows: over the reference suite, 60 corpus seeds and seeds
    at d = 4, 5, 6, no vertex-to-facet double description runs, and an
    escaping direction leaves closure + cone unbuilt."""

    def cases():
        out = [(entry.norm, entry.region) for entry in reference_catalog()]
        out += [gen_random_instance(d, 1000 * d + k) for d in (1, 2, 3) for k in range(20)]
        out += [gen_random_instance(d, 1000 * d + k) for d in (4, 5, 6) for k in range(8)]
        return out

    # fresh values after the first pass: the closure and rows are memoized on them
    not_compact = [i for i, (q, region) in enumerate(cases())
                   if decide_compact(Instance.build(q, region)).verdict is Verdict.NOT_COMPACT]

    def forbidden(*args, **kwargs):
        raise AssertionError("a vertex-to-facet double description ran")

    fresh = cases()  # the arc-hull entry is generated from vertices, by a facet DD
    monkeypatch.setattr(polyhedron, "_int_facets", forbidden)
    kinds = set()
    for i in not_compact:
        inst = Instance.build(*fresh[i])
        cert = decide_compact(inst)
        assert cert.verdict is Verdict.NOT_COMPACT
        if isinstance(cert.witness, BadRecessionDirection):
            assert "saturated" not in inst.__dict__
        kinds.add(type(cert.witness))
    assert kinds == {BadRecessionDirection, EscapedExtremePoint}
    assert len(not_compact) >= 60


def test_only_a_compact_verdict_builds_the_degeneracy_cone(monkeypatch):
    """The degeneracy cone C is read only by a COMPACT verdict: over 300
    corpus seeds ``1000*d + k`` and eight d=4 random instances, on fresh
    values, a NOT_COMPACT verdict and its report make no
    ``degeneracy_cone`` call and leave ``Instance.degeneracy`` unbuilt,
    while a COMPACT verdict with T1-T6 makes one ``degeneracy_cone`` call,
    which runs C's double description, though T6 builds a second instance
    on the gauge, and none at all when every nonzero region row normal is a
    positive multiple of a functional (``ref_rows_are_gauge_rows``): C is
    then read off the closure."""
    cases = [gen_random_instance(d, 1000 * d + k) for d in (1, 2, 3) for k in range(100)]
    cases += [gen_random_instance(4, 4000 + k) for k in range(8)]
    cones, dds = [], []
    real_cone, real_dd = compactness.degeneracy_cone, norm_module.cone_from_rows

    def counting_cone(q):
        cones.append(q)
        return real_cone(q)

    def counting_dd(rows, dim):
        dds.append(rows)
        return real_dd(rows, dim)

    monkeypatch.setattr(compactness, "degeneracy_cone", counting_cone)
    monkeypatch.setattr(norm_module, "cone_from_rows", counting_dd)
    verdicts = []
    for q, region in cases:
        cones.clear()
        dds.clear()
        inst = Instance.build(q, region)
        cert = decide_compact(inst)
        verify_theorems(inst, cert)
        verdicts.append(cert.verdict)
        if cert.verdict is Verdict.NOT_COMPACT:
            assert not cones and not dds and "degeneracy" not in vars(inst)
        else:
            assert cert.verdict is Verdict.COMPACT
            expected = 0 if ref_rows_are_gauge_rows(q, region) else 1
            assert len(dds) == len(cones) == expected and "degeneracy" in vars(inst)
            assert set(map(id, cones)) <= {id(q)}
    assert verdicts.count(Verdict.COMPACT) >= 50 and verdicts.count(Verdict.NOT_COMPACT) >= 200


# the gauge x v y v (x + y) and the triangle x <= 1, y <= 1, -x - y <= 5: the
# row -x - y is a negative multiple of the functional x + y, so C (the
# negative quadrant) is not the closure's recession cone {0}, and the
# center is the one vertex (1, 1) of closure + C, not the triangle
_NEGATIVE_MULTIPLE = (make_norm(2, [(1, 0), (0, 1), (1, 1)]), PartialPolyhedron(2, (
    Constraint((F(1), F(0)), F(1), False),
    Constraint((F(0), F(1)), F(1), False),
    Constraint((F(-1), F(-1)), F(5), False),
)))


def _gauge_row_cases():
    """(gauge, region) pairs whose rows are, all or in part, gauge rows: the
    reference catalog, 900 corpus seeds, closed and open one-norm and sup
    lattice balls at d = 2..5, closed balls of 100 random gauges at
    d = 1..4 (radius 0 among them), intersections of two balls of one
    gauge, regions cut by a proper subset of the functionals (rescaled),
    and ``_NEGATIVE_MULTIPLE``."""
    rng = random.Random(61)
    cases = [(entry.norm, entry.region) for entry in reference_catalog()]
    cases += [gen_random_instance(d, 1000 * d + k) for d in (1, 2, 3) for k in range(300)]
    for d in (2, 3, 4, 5):
        for flavor in ("one", "sup"):
            for closedness in (Closedness.CLOSED, Closedness.OPEN) * 2:
                q = gen_lattice_norm(d, flavor)
                radius = F(rng.randint(1, 6), rng.randint(1, 3))
                cases.append((q, ball(q, rand_point(rng, d), radius, closedness).as_set))
    for k in range(100):
        d = 1 + k % 4
        q = gen_random_norm(d, rng)
        radius = F(0) if k % 5 == 0 else F(rng.randint(1, 6), rng.randint(1, 3))
        cases.append((q, ball(q, rand_point(rng, d), radius, Closedness.CLOSED).as_set))
    for k in range(40):
        d = 1 + k % 4
        q = gen_random_norm(d, rng) if k % 2 else gen_lattice_norm(d, "one")
        rows = []
        for _ in range(2):
            closedness = Closedness.OPEN if rng.random() < 0.3 else Closedness.CLOSED
            radius = F(rng.randint(1, 6), rng.randint(1, 3))
            rows += ball(q, rand_point(rng, d, span=2), radius, closedness).as_set.constraints
        region = PartialPolyhedron(d, rows)
        if closure(region) is not None:
            cases.append((q, region))
    for k in range(60):
        d = 1 + k % 4
        q = gen_random_norm(d, rng)
        functionals = list(q.functionals)
        if len(functionals) < 2:
            continue
        if k % 2:  # a positive combination of two functionals leaves C as it is
            q = make_norm(d, [*functionals, tuple(a + b for a, b in zip(*functionals[:2]))])
        else:
            functionals = rng.sample(functionals, rng.randint(1, len(functionals) - 1))
        rows = [Constraint(tuple(F(scale) * a for a in f), rand_fraction(rng), False)
                for f, scale in zip(functionals, (rng.randint(1, 4) for _ in functionals))]
        region = PartialPolyhedron(d, rows)
        if closure(region) is not None:
            cases.append((q, region))
    cases.append(_NEGATIVE_MULTIPLE)
    return cases


def test_degeneracy_cone_read_off_the_closure_is_the_double_description(monkeypatch):
    """On a fresh gauge value, after ``decide_compact`` and
    ``verify_theorems``, ``Instance.degeneracy`` equals ``degeneracy_cone``
    and the double description of the functionals of a fresh gauge value,
    on a COMPACT verdict and, read after the decision, on a NOT_COMPACT one
    (whose decision builds no C), and C is read off the closure (no double
    description of the functionals runs) exactly when the verdict is
    COMPACT and every nonzero region row normal is a positive multiple of a
    functional (``ref_rows_are_gauge_rows``).  A row that is a negative
    multiple of a functional takes the double description
    (``_NEGATIVE_MULTIPLE``)."""
    real = norm_module.cone_from_rows
    gauge_dds = []

    def counting(rows, dim):
        gauge_dds.append(rows)
        return real(rows, dim)

    monkeypatch.setattr(norm_module, "cone_from_rows", counting)
    paths = {True: 0, False: 0, "negative multiple": False, "not compact": 0}
    for q, region in _gauge_row_cases():
        q = AsymNorm(q.dim, q.functionals)
        gauge_dds.clear()
        inst = Instance.build(q, region)
        cert = decide_compact(inst)
        verify_theorems(inst, cert)
        compact = cert.verdict is Verdict.COMPACT
        assert ("degeneracy" in vars(inst)) == compact
        read_off = compact and not gauge_dds
        assert read_off == (compact and ref_rows_are_gauge_rows(q, region)), (q, region)
        assert len(gauge_dds) == (compact and not read_off)
        gens, lin, _ = real(AsymNorm(q.dim, q.functionals)._rows, q.dim)
        assert inst.degeneracy == degeneracy_cone(q) == Cone._make(dim=q.dim, _gens=gens, _lin=lin)
        if compact:
            paths[read_off] += 1
        else:
            paths["not compact"] += 1
        if region is _NEGATIVE_MULTIPLE[1]:
            assert not read_off and cert.center.vertices == ((1, 1),)
            paths["negative multiple"] = True
    assert paths[True] >= 150 and paths[False] >= 100 and paths["negative multiple"], paths
    assert paths["not compact"] >= 500, paths


def test_a_decision_writes_nothing_on_its_gauge_value(monkeypatch):
    """C is the instance's: after a COMPACT decision with T1-T6 on the
    closed unit ball of a lattice gauge (C read off its closure), the gauge
    value holds no ``_degeneracy``, and a second region decided on that same
    value makes the same ``cone_from_rows`` calls as on a fresh one: the
    regions of ``tests/data/balls`` (one-norm and sup balls and cuts by a
    proper subset of the functionals, d = 2..4) and the unit box, whose
    rows -e_i are no functionals, so C takes its double description."""
    calls = []
    real = polyhedron.cone_from_rows

    def recording(rows, dim):
        calls.append((tuple(rows), dim))
        return real(rows, dim)

    monkeypatch.setattr(polyhedron, "cone_from_rows", recording)
    monkeypatch.setattr(norm_module, "cone_from_rows", recording)

    def decided(q, region):
        calls.clear()
        inst = Instance.build(q, region)
        cert = decide_compact(inst)
        if cert.verdict is Verdict.COMPACT:
            assert verify_theorems(inst, cert).all_pass
        return cert, list(calls)

    files = sorted((Path(__file__).parent / "data" / "balls").glob("*.txt"))
    texts = [path.read_text(encoding="utf-8") for path in files]
    for flavor in ("one", "sup"):
        for d in (2, 3, 4):
            box = [row for e in _units(d) for row in (Constraint(e, 1, False), Constraint(vneg(e), 0, False))]
            texts.append(write_instance(gen_lattice_norm(d, flavor), PartialPolyhedron(d, box)))
    verdicts = []
    for text in texts:
        q, region = parse_instance(text)
        unit = ball(q, zero_vec(q.dim), 1, Closedness.CLOSED).as_set
        assert decided(q, unit)[0].verdict is Verdict.COMPACT
        assert "_degeneracy" not in vars(q)
        again = decided(q, region)
        assert again == decided(*parse_instance(text)), text
        verdicts.append(again[0].verdict)
    assert verdicts.count(Verdict.COMPACT) >= 10 and verdicts.count(Verdict.NOT_COMPACT) >= 10


def test_a_compact_certificate_without_a_center_is_a_bad_input():
    """The certificate handed to ``verify_theorems`` is the caller's input:
    a COMPACT one without a center raises ``ValueError``, not the
    ``InternalInvariantError`` of a broken invariant."""
    q = gen_lattice_norm(2, "one")
    inst = Instance.build(q, ball(q, zero_vec(2), 1, Closedness.CLOSED).as_set)
    with pytest.raises(ValueError, match="^a COMPACT certificate carries its center$"):
        verify_theorems(inst, CompactnessCertificate(Verdict.COMPACT))


def _closed_balls_on_fresh_gauges():
    """Closed one-norm and sup lattice balls at d = 2..5 and closed balls of
    random gauges at d = 1..4, each on its own gauge value."""
    rng = random.Random(73)
    cases = []
    for d in (2, 3, 4, 5):
        for flavor in ("one", "sup"):
            for _ in range(3):
                q = gen_lattice_norm(d, flavor)
                radius = F(rng.randint(1, 6), rng.randint(1, 3))
                cases.append((q, ball(q, rand_point(rng, d), radius, Closedness.CLOSED).as_set))
    for k in range(24):
        q = gen_random_norm(1 + k % 4, rng)
        radius = F(rng.randint(0, 6), rng.randint(1, 3))
        cases.append((q, ball(q, rand_point(rng, q.dim), radius, Closedness.CLOSED).as_set))
    return cases


def test_a_compact_closed_ball_runs_one_double_description(monkeypatch):
    """Each COMPACT closed ball, on a fresh gauge value, runs exactly one
    ``cone_from_rows`` over build, decide and T1-T6, its closure's (C is
    read off the closure), and no ``_maximal`` call scans masks that an
    earlier call scanned, so T6 re-derives no extreme flag the decision
    found: lattice balls at d = 2..5 and balls of random gauges at d = 1..4."""
    real, real_maximal = polyhedron.cone_from_rows, polyhedron._maximal
    calls, scanned = [], []

    def counting(rows, dim):
        calls.append(rows)
        return real(rows, dim)

    def maximal(masks, rivals=()):
        assert not any(masks is m and rivals is r for m, r in scanned), "masks scanned twice"
        scanned.append((masks, rivals))
        return real_maximal(masks, rivals)

    for module in (polyhedron, norm_module):
        monkeypatch.setattr(module, "cone_from_rows", counting)
    monkeypatch.setattr(polyhedron, "_maximal", maximal)
    cases = _closed_balls_on_fresh_gauges()
    for q, region in cases:
        calls.clear()
        scanned.clear()
        inst = Instance.build(q, region)
        cert = decide_compact(inst)
        report = verify_theorems(inst, cert)
        assert cert.verdict is Verdict.COMPACT and report.all_pass, (q, region)
        assert len(calls) == 1 and inst.saturated is inst.hull, (q, region, len(calls))
        assert scanned, (q, region)
    assert len(cases) == 48


def _report_without_rows(q, region) -> str:
    """``asymgeo check``'s report of the instance, less its ``rows:`` line."""
    text = _check("ball", q, region).render(include_timing=False)
    return "".join(line for line in text.splitlines(True) if not line.startswith("rows:"))


def test_lattice_ball_reports_survive_row_permutation_duplication_and_rescaling(monkeypatch):
    """Closed and open one-norm and sup lattice balls at d = 3..5, with their
    rows permuted, some rows duplicated, every row rescaled by a positive
    rational, or a row 0 <= 1 added, give the ball's verdict, center and
    claims (the report less its ``rows:`` line), and each still runs one
    double description over build, decide and T1-T6, on a fresh gauge."""
    real = polyhedron.cone_from_rows
    calls = []

    def counting(rows, dim):
        calls.append(rows)
        return real(rows, dim)

    for module in (polyhedron, norm_module):
        monkeypatch.setattr(module, "cone_from_rows", counting)
    rng = random.Random(79)
    verdicts = []
    for d in (3, 4, 5):
        for flavor in ("one", "sup"):
            for closedness in (Closedness.CLOSED, Closedness.OPEN):
                radius = F(rng.randint(1, 6), rng.randint(1, 3))
                base = ball(gen_lattice_norm(d, flavor), rand_point(rng, d), radius, closedness).as_set
                variants = _row_variants(rng, base)
                expected = _report_without_rows(gen_lattice_norm(d, flavor), base)
                verdicts.append(expected.split("verdict: ")[1].split("\n")[0])
                for region in variants:
                    calls.clear()
                    assert _report_without_rows(gen_lattice_norm(d, flavor), region) == expected, (d, flavor)
                    assert len(calls) == 1, (d, flavor, closedness, len(calls))
    assert verdicts.count("COMPACT") == 6 and verdicts.count("NOT_COMPACT") == 6, verdicts


def _row_variants(rng: random.Random, region: PartialPolyhedron) -> list[PartialPolyhedron]:
    """The region with its rows permuted, with some rows duplicated, with
    every row rescaled by a positive rational, and with a row 0 <= 1 added:
    the same set on other rows."""
    rows, d = list(region.constraints), region.dim
    variants = [
        rng.sample(rows, len(rows)),
        rows + rng.sample(rows, rng.randint(1, len(rows))),
        [Constraint(tuple(s * a for a in c), s * b, strict)
         for (c, b, strict), s in zip(rows, (F(rng.randint(1, 7), rng.randint(1, 5)) for _ in rows))],
        rows + [Constraint((F(0),) * d, F(1), False)],
    ]
    return [PartialPolyhedron(d, changed) for changed in variants]


def _gauge_balls():
    """(gauge, ball) of closed and open balls on fresh gauge values, two of
    each kind per dimension, around seeded rational centers: the one-norm and
    sup lattice gauges at d = 2..5 and random gauges at d = 1..4."""
    rng = random.Random(97)
    makers = [(d, lambda d=d, f=f: gen_lattice_norm(d, f)) for f in ("one", "sup") for d in (2, 3, 4, 5)]
    makers += [(d, lambda d=d: gen_random_norm(d, rng)) for d in (1, 2, 3, 4)]
    cases = []
    for d, make in makers:
        for closedness in (Closedness.CLOSED, Closedness.OPEN):
            for _ in range(2):
                q = make()
                radius = F(rng.randint(1, 6), rng.randint(1, 3))
                cases.append((q, ball(q, rand_point(rng, d), radius, closedness)))
    return cases


def _local_work(monkeypatch) -> dict[str, int]:
    """Counts, from now on, of the ``recession_cone`` calls (test (a)'s
    scan), the ``_edges`` calls and the ``_cut`` runs outside a
    ``cone_from_rows`` call (the local tangent-cone tests)."""
    counts = dict.fromkeys(("recession_cone", "_edges", "_cut"), 0)
    inside = [0]
    real = {name: getattr(polyhedron, name) for name in ("cone_from_rows", "recession_cone", "_edges", "_cut")}

    def dd(rows, dim):
        inside[0] += 1
        try:
            return real["cone_from_rows"](rows, dim)
        finally:
            inside[0] -= 1

    def counting(name):
        def wrapped(*args):
            counts[name] += name != "_cut" or not inside[0]
            return real[name](*args)
        return wrapped

    wraps = {"cone_from_rows": dd, **{name: counting(name) for name in counts}}
    for module in (polyhedron, norm_module, compactness):
        for name, wrap in wraps.items():
            if getattr(module, name, None) is real[name]:
                monkeypatch.setattr(module, name, wrap)
    return counts


def _pipeline(q, region) -> Verdict:
    """Build and decide, then T1-T6 on a COMPACT verdict: the verdict."""
    inst = Instance.build(q, region)
    cert = decide_compact(inst)
    if cert.verdict is Verdict.COMPACT:
        assert verify_theorems(inst, cert).all_pass, (q, region)
    return cert.verdict


def test_gauge_balls_skip_the_escape_scan_and_the_tangent_cones(monkeypatch):
    """A gauge ball's closure has the gauge's directions as its row normals,
    so its recession cone is C and it is its own sum with C: over build,
    decide and T1-T6, no recession cone is made (test (a) holds unscanned),
    no edge is read and no ``_cut`` runs outside ``cone_from_rows`` (each
    local test is the closure's extreme flag).  Closed and open one-norm and
    sup lattice balls at d = 2..5 and random-gauge balls at d = 1..4
    (``_gauge_balls``), each also with its rows permuted, duplicated,
    rescaled and with a row 0 <= 1 added (``_row_variants``).  The same ball
    cut by the row x_1 >= center_1, whose normal is no gauge direction,
    still scans its recession cone when it has one (a bounded closure has
    no recession direction to scan), and an open one still runs the local
    tests at its vertices."""
    counts = _local_work(monkeypatch)
    rng = random.Random(101)
    verdicts, cut, scanned = [], {Closedness.CLOSED: 0, Closedness.OPEN: 0}, 0
    for q, b in _gauge_balls():
        for region in [b.as_set, *_row_variants(rng, b.as_set)]:
            verdicts.append(_pipeline(q, region))
            assert counts == dict.fromkeys(counts, 0), (q, region, counts)
        d = q.dim
        halved = PartialPolyhedron(d, (*b.as_set.constraints,
                                       Constraint((F(-1),) + (F(0),) * (d - 1), -b.center[0], False)))
        if ref_rows_are_gauge_rows(q, halved):  # -e_1 is a direction of this gauge
            continue
        _pipeline(q, halved)
        assert counts["recession_cone"] == bool(closure(halved)._rays), (q, halved, counts)
        scanned += counts["recession_cone"]
        if b.closedness is Closedness.OPEN:
            assert counts["_edges"] and counts["_cut"], (q, halved, counts)
        cut[b.closedness] += 1
        counts.update(dict.fromkeys(counts, 0))
    assert verdicts.count(Verdict.COMPACT) == verdicts.count(Verdict.NOT_COMPACT) == 5 * 24, verdicts
    assert min(cut.values()) >= 20 and scanned >= 36, (cut, scanned)


def test_the_gauge_row_read_off_agrees_with_the_long_way():
    """Where the closure's row directions are the gauge's, test (a) is read
    off as None, and where they are all gauge directions, every local test
    is read off the closure's extreme flags; the long way agrees.  Over the
    reference catalog, the corpus (d = 1..3, k < 500), random instances at
    d = 4..6, the balls of ``_gauge_balls`` with their row variants
    (``_row_variants``) and the regions of ``_gauge_row_cases``, some cut
    by a proper subset of the functionals (rows <= gauge, not =): the two
    answers of ``Instance._rows_in_gauge``, one scan of the rows' primitive
    forms, are those of the gcd-free reference predicates (2x2 minors and a
    dot product per pair of rows), test (a) is the earlier scan of every
    recession direction (``ref_escaping``) on every instance, and where the
    read-off fires on a line-free closure, each closure vertex's answer is
    the full double description's (``ref_extreme_in_saturation``) and the
    edge-seeded tangent-cone test's."""
    cases = [(entry.norm, entry.region) for entry in reference_catalog()]
    cases += [gen_random_instance(d, 1000 * d + k) for d in (1, 2, 3) for k in range(500)]
    cases += [gen_random_instance(d, 1000 * d + k) for d in (4, 5, 6) for k in range(8)]
    rng = random.Random(103)
    for q, b in _gauge_balls():
        cases += [(q, region) for region in [b.as_set, *_row_variants(rng, b.as_set)]]
    cases += _gauge_row_cases()
    fired = {"scan": 0, "local": 0, "within": 0, "vertices": 0}
    for q, region in cases:
        inst = Instance.build(q, region)
        within, equal = inst._rows_in_gauge
        assert within == ref_rows_are_gauge_rows(q, region), (q, region)
        assert equal == (within and ref_gauge_rows_are_rows(q, region)), (q, region)
        assert inst._escaping == ref_escaping(inst), (q, region)
        fired["scan"] += equal
        fired["within"] += within and not equal
        if within and not contains_line(inst.hull):
            fired["local"] += 1
            for k, mask in enumerate(inst.hull._vert_masks):
                got = compactness._extreme_in_saturation(inst, k)
                assert got == ref_extreme_in_saturation(inst, mask) == compactness._tangent_cone_misses(inst, k)
                fired["vertices"] += 1
    assert fired["scan"] >= 600 and fired["local"] >= 700 and fired["within"] >= 100 and fired["vertices"] >= 1400, fired


def test_local_test_agrees_with_lp_extremality():
    """A closure vertex v is extreme in closure + cone iff no other vertex,
    ray or cone generator generates it (an LP), whenever the sum is
    line-free; the escaped witness is the first extreme point of the sum
    that misses the region.  Gauges with the cone {0} (a random gauge plus
    minus the sum of its functionals) and with a nontrivial cone."""
    rng = random.Random(71)
    checked = {True: 0, False: 0}
    escaped = 0
    trivial = 0
    for _ in range(160):
        d = rng.randint(1, 4)
        q = gen_random_norm(d, rng)
        if rng.random() < 0.5:
            q = make_norm(d, q.functionals + (vneg(tuple(map(sum, zip(*q.functionals)))),))
        inst = build(q, gen_random_region(d, rng))
        hull, gens = inst.hull, inst.degeneracy.generators
        trivial += not gens
        rays = hull.rays + gens
        if contains_line(hull) or any(in_cone(vneg(r), rays) for r in rays):
            continue
        for v, mask in zip(hull.vertices, hull._vert_masks):
            lp = not in_conv_plus_cone(v, [w for w in hull.vertices if w != v], rays)
            assert compactness._extreme_in_saturation(inst, hull._vert_masks.index(mask)) == lp, (q, inst.region, v)
            checked[lp] += 1
        cert = decide_compact(inst)
        if isinstance(cert.witness, BadRecessionDirection):
            continue
        first = next((v for v in saturation_extreme_points(inst) if not member(inst.region, v)), None)
        assert cert.witness == (None if first is None else EscapedExtremePoint(first))
        escaped += first is not None
    assert min(checked.values()) >= 50 and escaped >= 40 and trivial >= 60, (checked, escaped, trivial)


def test_edge_seeded_local_test_agrees_with_the_full_dd():
    """The local test seeded with the closure's edges at v
    (``_tangent_cone_misses``, called directly, since a ball's decision reads
    its closure's extreme flags instead) decides as the full double
    description of {x : A_v x <= 0, <a_i, x> >= 0} does
    (``ref_extreme_in_saturation``), and so does the decision's local test
    (``_extreme_in_saturation``), at every vertex of every line-free
    closure: the reference catalog, 900 corpus seeds, random instances at
    d = 4..6, open and closed one-norm lattice balls at d = 3..5, the cut
    vertex of the 16- and 64-segment arc hulls, and closures given by
    redundant rows (``with_redundant_rows``: duplicate, rescaled, implied
    and ``0 <= 1`` rows, so degenerate vertices) of random polytopes and
    polyhedra, many of them lower-dimensional, under random gauges and
    gauges with C = {0}; the same rows each tripled, with ``0 <= 0`` rows,
    and cut by an equation pair (a row and its negative) through a vertex
    or the interior.  Both sides of the simple-vertex shortcut run:
    vertices tight on exactly d rows, whose edges skip the holder scan, and
    vertices tight on more, where the scan decides.  The edges that seed
    the test (``_edges``) are those of the algebraic test, by rank
    (``ref_edges``), with the same directions and masks."""
    from asymgeo.cli.generators import gen_arc_hull, gen_lattice_norm

    cases = [(entry.norm, entry.region) for entry in reference_catalog()]
    cases += [gen_random_instance(d, 1000 * d + k) for d in (1, 2, 3) for k in range(300)]
    cases += [gen_random_instance(d, 1000 * d + k) for d in (4, 5, 6) for k in range(4)]
    rng = random.Random(89)
    for d in (3, 4, 5):
        q = gen_lattice_norm(d, "one")
        for closedness in (Closedness.OPEN, Closedness.OPEN, Closedness.OPEN, Closedness.CLOSED):
            center = tuple(F(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(d))
            cases.append((q, ball(q, center, F(rng.randint(1, 6), rng.randint(1, 3)), closedness).as_set))
    arcs = [gen_arc_hull(16), gen_arc_hull(64)]
    flat = trivial = 0
    for _ in range(120):
        d = rng.randint(1, 4)
        verts = [rand_point(rng, d, span=2) for _ in range(rng.randint(1, d + 1))]
        rays = [rand_point(rng, d, span=1, max_den=1) for _ in range(rng.randint(0, 2))]
        poly = Polyhedron(d, verts, rays)
        rows = with_redundant_rows(rng, poly)
        q = gen_random_norm(d, rng)
        if rng.random() < 0.5:
            q = make_norm(d, q.functionals + (vneg(tuple(map(sum, zip(*q.functionals)))),))
        trivial += not degeneracy_cone(q).generators
        flat += len(extreme_points(poly)) + len(poly.rays) <= d
        cases.append((q, PartialPolyhedron(d, tuple(Constraint(c, b, False) for c, b in rows))))
        tripled = [row for row in poly.hrep for _ in range(3)] + [(zero_vec(d), F(0))]
        e = rand_point(rng, d, span=2, max_den=1)
        through = rng.choice([*poly.vertices, tuple(sum(x) / len(poly.vertices) for x in zip(*poly.vertices))])
        pair = [(e, sum(map(mul, e, through))), (vneg(e), -sum(map(mul, e, through)))]
        for extra in ([], pair):
            cases.append((q, PartialPolyhedron(d, tuple(Constraint(c, b, False) for c, b in tripled + extra))))
    answers = {True: 0, False: 0}
    simple = {True: 0, False: 0}
    for i, (q, region) in enumerate(cases + arcs):
        inst = Instance.build(q, region)
        if contains_line(inst.hull):
            continue
        for k, (mask, inside) in enumerate(zip(inst.hull._vert_masks, inst._inside.values())):
            if i >= len(cases) and inside:  # an arc hull: its cut vertex only
                continue
            assert _edges(inst.hull, k) == ref_edges(inst.hull, k), (q, region, k)
            got = compactness._tangent_cone_misses(inst, k)
            assert got == ref_extreme_in_saturation(inst, mask), (q, region, k)
            assert compactness._extreme_in_saturation(inst, k) == got, (q, region, k)
            answers[got] += 1
            simple[mask.bit_count() == region.dim] += 1
    assert min(answers.values()) >= 500 and flat >= 20 and trivial >= 40, (answers, flat, trivial)
    assert min(simple.values()) >= 500, simple


def test_simple_rays_and_vertices_skip_the_holder_scan(monkeypatch):
    """The adjacency scan ``polyhedron._held(common, masks, 2)`` runs only
    where the rank argument leaves adjacency open.  In ``_cut`` a pair with
    a simple ray, tight on dim - 1 rows, needs none: ``cone_from_rows`` of
    random rows in general position (entries up to 10^6, d = 4..6), whose
    rays are all simple and which make rays beyond the base's, and the
    pipelines of the 16- and 64-segment arc hulls scan no pair there, while
    the closed one-norm balls at d = 3..5, whose rays are tight on many
    rows, do.  In ``_edges`` a simple vertex, tight on dim rows, needs
    none: over 120 corpus seeds and the balls and arcs of
    ``_balls_and_arcs``, the scan runs at vertices tight on more than dim
    rows only, and both kinds of vertex are tested."""
    calls = []
    real_held, real_edges = polyhedron._held, compactness._edges

    def holding(common, masks, limit):
        if limit == 2:
            calls.append(sys._getframe(1).f_code.co_name)
        return real_held(common, masks, limit)

    at = {True: [0, 0], False: [0, 0]}  # vertex simple: [its _edges runs, their scans]

    def edging(poly, k):
        before = len(calls)
        out = real_edges(poly, k)
        tally = at[poly._vert_masks[k].bit_count() == poly.dim]
        tally[0] += 1
        tally[1] += len(calls) - before
        return out

    def pipeline(q, region):
        calls.clear()
        inst = Instance.build(q, region)
        cert = decide_compact(inst)
        if cert.verdict is Verdict.COMPACT:
            verify_theorems(inst, cert)
        return calls.count("_cut")

    monkeypatch.setattr(polyhedron, "_held", holding)
    monkeypatch.setattr(compactness, "_edges", edging)
    rng = random.Random(71)
    for d in (4, 5, 6):
        for _ in range(4):
            rows = []
            while len(rows) < 2 * d + 2:  # each row negative on (1, ..., 1): a full-dimensional cone
                row = [rng.randint(-10 ** 6, 10 ** 6) for _ in range(d)]
                if sum(row):
                    rows.append(row if sum(row) < 0 else vneg(row))
            gens, lin, _ = polyhedron.cone_from_rows(rows, d)
            assert not lin and len(gens) > d, rows  # a ray past the base's d is an adjacent pair's
    assert not calls, calls
    cases = _balls_and_arcs()
    assert [pipeline(q, region) for q, region in cases[-2:]] == [0, 0]
    scanned = dict.fromkeys((3, 4, 5), 0)
    for q, region in cases[:-2]:
        if not any(c.strict for c in region.constraints):
            scanned[q.dim] += pipeline(q, region)
    assert all(scanned.values()), scanned
    for q, region in cases + [gen_random_instance(d, 1000 * d + k) for d in (1, 2, 3) for k in range(40)]:
        pipeline(q, region)
    assert at[True][0] >= 20 and not at[True][1] and at[False][1], at


def test_not_compact_verdict_runs_one_double_description(monkeypatch):
    """A NOT_COMPACT verdict runs one double description, the closure's:
    the local tests insert the gauge's rows into the closure's edges and
    make no ``cone_from_rows`` call.  Over 300 corpus seeds and random
    instances at d = 4..6, on fresh values, build and decide of every
    NOT_COMPACT instance call ``cone_from_rows`` exactly once, on the
    homogenized rows of the region, and escaped extreme points are among
    the witnesses."""
    cases = [gen_random_instance(d, 1000 * d + k) for d in (1, 2, 3) for k in range(100)]
    cases += [gen_random_instance(d, 1000 * d + k) for d in (4, 5, 6) for k in range(8)]
    real = polyhedron.cone_from_rows
    calls = []

    def counting(rows, dim):
        calls.append((list(rows), dim))
        return real(rows, dim)

    for module in (polyhedron, norm_module, compactness):
        if getattr(module, "cone_from_rows", None) is real:
            monkeypatch.setattr(module, "cone_from_rows", counting)
    kinds = []
    for q, region in cases:
        calls.clear()
        inst = Instance.build(q, region)
        cert = decide_compact(inst)
        if cert.verdict is not Verdict.NOT_COMPACT:
            continue
        d = region.dim
        homogenized = [(*c, -b) for c, b, _ in region._rows] + [(0,) * d + (-1,)]
        assert calls == [(homogenized, d + 1)], (q, region, len(calls))
        kinds.append(type(cert.witness))
    assert kinds.count(EscapedExtremePoint) >= 50 and kinds.count(BadRecessionDirection) >= 50, len(kinds)


def _lattice_balls(count: int):
    """Closed and open balls of the d=4 one-norm lattice gauge, three closed
    to two open, around seeded rational centers."""
    from asymgeo.cli.generators import gen_lattice_norm
    q = gen_lattice_norm(4, "one")
    rng = random.Random(53)
    out = []
    for k in range(count):
        center = tuple(F(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(4))
        radius = F(rng.randint(1, 6), rng.randint(1, 3))
        closedness = Closedness.CLOSED if k % 5 in (0, 2, 4) else Closedness.OPEN
        out.append((q, ball(q, center, radius, closedness).as_set))
    return out


def test_decision_pipeline_runs_no_fraction_dot(monkeypatch):
    """Support values, membership, face tests and the gauge compare ints: over
    the reference suite, 60 corpus seeds and d=4 lattice balls, build,
    decide and the structure checks never take a ``Fraction`` dot product."""
    catalog = reference_catalog()
    cases = [(entry.norm, entry.region) for entry in catalog]
    cases += [gen_random_instance(d, 1000 * d + k) for d in (1, 2, 3) for k in range(20)]
    cases += _lattice_balls(10)

    def forbidden(*args, **kwargs):
        raise AssertionError("a Fraction dot product ran in the decision pipeline")

    for module in (polyhedron, norm_module, compactness, ratlp):
        monkeypatch.setattr(module, "dot", forbidden, raising=False)
    verdicts = []
    for q, region in cases:
        inst = Instance.build(q, region)
        cert = decide_compact(inst)
        verify_theorems(inst, cert)
        verdicts.append(cert.verdict)
    assert verdicts.count(Verdict.COMPACT) >= len(catalog) + 6
    assert Verdict.NOT_COMPACT in verdicts


def test_compact_path_runs_one_facet_dd(monkeypatch):
    """A COMPACT verdict and T1-T6 convert vertices to facets at most once,
    for closure + C, which is center + C, and not at all when C adds no
    direction to the closure, which is then its own saturated hull: over the
    reference catalog, 300 corpus seeds, seeds at d = 4 and 5 and five
    closed d=4 lattice balls, on fresh values, every COMPACT instance that C
    adds a direction to runs exactly one vertex-to-facet DD, every other
    instance none (the five closed balls among them), and the sandwich's
    second inclusion (``subset``) is checked on the region exactly when
    closure + C is not the closure, and never on region + C."""
    cases = [(entry.norm, entry.region) for entry in reference_catalog()]
    cases += [gen_random_instance(d, 1000 * d + k) for d in (1, 2, 3) for k in range(100)]
    cases += [gen_random_instance(d, 1000 * d + k) for d in (4, 5) for k in range(8)]
    closed_balls = [(q, k) for q, k in _lattice_balls(8) if not any(c.strict for c in k.constraints)]
    assert len(closed_balls) == 5
    cases += closed_balls
    calls = []
    real = polyhedron._int_facets

    def counting(poly):
        calls.append(poly)
        return real(poly)

    sandwiched = []
    real_subset = compactness.subset

    def checking(first, second):
        sandwiched.append(first)
        return real_subset(first, second)

    monkeypatch.setattr(polyhedron, "_int_facets", counting)
    monkeypatch.setattr(compactness, "subset", checking)
    compact, own = [], []
    for i, (q, region) in enumerate(cases):
        calls.clear()
        sandwiched.clear()
        inst = Instance.build(q, region)
        cert = decide_compact(inst)
        verify_theorems(inst, cert)
        is_compact = cert.verdict is Verdict.COMPACT
        adds = is_compact and not set(inst.degeneracy._gens) <= set(inst.hull._rays)
        assert len(calls) == adds, (i, cert.verdict, len(calls))
        if is_compact:
            compact.append(i)
            assert (inst.saturated is inst.hull) == (not adds), i
            if not adds:
                own.append(i)
            # the region lies in its closure, so the second inclusion is
            # checked only where closure + C is not the closure; T6's
            # region + C is never checked, its closure being its own sum
            assert sandwiched == ([] if inst.saturated is inst.hull else [inst.region]), i
    assert len(compact) >= 70 and len(own) >= 10 and len(compact) - len(own) >= 40, (len(compact), len(own))
    assert all(len(cases) - 1 - j in own for j in range(5))


def test_every_dd_enters_through_cone_from_rows(monkeypatch):
    """The double description has one entry: over build, decide and T1-T6 on
    the reference catalog, 90 corpus seeds and d=4 lattice balls, every
    pointed-cone run (the facet conversions among them) happens inside a
    ``cone_from_rows`` call, and every generator that call returns is an
    int tuple.  (The local tangent-cone tests start the insertion loop
    ``_cut`` from the closure's edges and run no pointed cone.)"""
    cases = [(entry.norm, entry.region) for entry in reference_catalog()]
    cases += [gen_random_instance(d, 1000 * d + k) for d in (1, 2, 3) for k in range(30)]
    cases += _lattice_balls(8)
    real_rays, real_entry, real_facets = (polyhedron._pointed_cone_rays, polyhedron.cone_from_rows,
                                          polyhedron._int_facets)
    inside, stray, returned = [], [], []
    facet_runs = []

    def pointed(rows, dim):
        if not inside:
            stray.append(rows)
        return real_rays(rows, dim)

    def entry(rows, dim):
        inside.append(rows)
        try:
            result = real_entry(rows, dim)
        finally:
            inside.pop()
        returned.extend(result[0] + result[1])
        return result

    def facets(poly):
        facet_runs.append(poly)
        return real_facets(poly)

    monkeypatch.setattr(polyhedron, "_pointed_cone_rays", pointed)
    monkeypatch.setattr(polyhedron, "_int_facets", facets)
    for module in (polyhedron, norm_module):
        monkeypatch.setattr(module, "cone_from_rows", entry)
    for q, region in cases:
        inst = Instance.build(q, region)
        verify_theorems(inst, decide_compact(inst))
    assert not stray, stray[:3]
    assert facet_runs and returned
    assert all(type(g) is tuple and all(type(a) is int for a in g) for g in returned)


def _balls_and_arcs():
    """Closed and open one-norm lattice balls at d = 3..5, around seeded
    rational centers, and the 16- and 64-segment arc hulls."""
    from asymgeo.cli.generators import gen_arc_hull, gen_lattice_norm

    cases = []
    rng = random.Random(83)
    for d in (3, 4, 5):
        q = gen_lattice_norm(d, "one")
        for k in range(4):
            center = tuple(F(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(d))
            closedness = Closedness.CLOSED if k % 2 == 0 else Closedness.OPEN
            cases.append((q, ball(q, center, F(rng.randint(1, 6), rng.randint(1, 3)), closedness).as_set))
    return cases + [gen_arc_hull(16), gen_arc_hull(64)]


def _mask_cases():
    """The reference catalog, 300 corpus seeds, random instances at d = 4..6,
    closed and open one-norm lattice balls at d = 3..5 and the 16- and
    64-segment arc hulls."""
    cases = [(entry.norm, entry.region) for entry in reference_catalog()]
    cases += [gen_random_instance(d, 1000 * d + k) for d in (1, 2, 3) for k in range(100)]
    cases += [gen_random_instance(d, 1000 * d + k) for d in (4, 5, 6) for k in range(4)]
    return cases + _balls_and_arcs()


def test_certified_checks_read_bits(monkeypatch):
    """A region's closure has the region's rows (c, b), in their order, as
    its own, and so has the closure ``saturate_region`` seeds; closure + C has its
    facets as its rows.  So T1-T6 for the certificate ``decide_compact``
    made read masks: on every COMPACT instance of the reference catalog,
    the corpus seeds ``1000*d + k`` (d = 1..3, k < 300), the lattice balls
    and the arc hulls of ``_balls_and_arcs``, ``verify_theorems`` scans no
    support value and tests no vertex row by row.  closure + C is the
    closure itself, or has its facets as its rows."""
    scans = []
    real_scan, real_member = polyhedron._scan_support, polyhedron.member

    def scanning(poly, c):
        scans.append("_scan_support")
        return real_scan(poly, c)

    def testing(region, x):
        scans.append("member")
        return real_member(region, x)

    monkeypatch.setattr(polyhedron, "_scan_support", scanning)
    monkeypatch.setattr(polyhedron, "member", testing)
    cases = [(entry.norm, entry.region) for entry in reference_catalog()]
    cases += [gen_random_instance(d, 1000 * d + k) for d in (1, 2, 3) for k in range(300)]
    compact = 0
    for q, region in cases + _balls_and_arcs():
        inst = Instance.build(q, region)
        cert = decide_compact(inst)
        if cert.verdict is not Verdict.COMPACT:
            continue
        compact += 1
        scans.clear()
        verify_theorems(inst, cert)
        assert not scans, (q, region, scans)
        for k in (region, saturate_region(inst)):
            assert closure(k)._rows == tuple([(c, b) for c, b, _ in k._rows]), k
        sat = inst.saturated
        assert sat is inst.hull or vars(sat)["_incidence"].facets
    assert compact >= 150, compact


def test_rows_without_their_incidence_are_a_broken_invariant():
    """A saturated hull that is neither the closure nor has its facets as
    its rows raises ``InternalInvariantError`` where the masks would be
    read, also when it equals the closure as a value.  (Rows without masks
    cannot be built: ``Polyhedron._incidence`` is seeded whole; and
    ``_meets_face`` reads the closure off its region, so it takes no other
    hull.)  A
    saturated hull with a vertex that is no closure vertex raises in T1 and
    in ``saturate_region``, where the vertex would be looked up in
    ``Instance._inside``."""
    forged = build(SUP2, UNIT_SQUARE)
    vars(forged)["saturated"] = dd_convert_h_to_v([(c.normal, c.rhs) for c in UNIT_SQUARE.constraints], 2)
    with pytest.raises(ratlp.InternalInvariantError, match="its facets"):
        saturate_region(forged)
    lower = interval(None, 1)  # (-inf, 1] + (-inf, 0] is itself
    own = build(POS_PART, lower)
    assert own.saturated is own.hull
    twin = build(POS_PART, lower)
    vars(twin)["saturated"] = dd_convert_h_to_v([(c.normal, c.rhs) for c in lower.constraints], 1)
    assert twin.saturated == twin.hull and twin.saturated is not twin.hull
    with pytest.raises(ratlp.InternalInvariantError, match="its facets"):
        saturate_region(twin)
    cert = decide_compact(build(SUP2, UNIT_SQUARE))
    stray = build(SUP2, UNIT_SQUARE)
    sat = stray.saturated
    vars(stray)["saturated"] = Polyhedron(2, (*sat.vertices, (5, 5)), sat.rays)
    for check in (lambda: verify_theorems(stray, cert), lambda: saturate_region(stray)):
        with pytest.raises(ratlp.InternalInvariantError, match="are closure vertices"):
            check()


def test_a_failed_sandwich_is_unknown():
    """When the vertex lookups and the rays check pass and the sandwich
    fails, the verdict is UNKNOWN, with no center and no witness: the
    catalog triangle under the symmetric gauge, whose cone {0} has no
    generator, with its saturated hull forged as the segment between two of
    its three closure vertices.  The structure report then calls every
    claim NOT_APPLICABLE."""
    entry = next(e for e in reference_catalog() if e.name == "triangle under a symmetric gauge")
    inst = Instance.build(entry.norm, entry.region)
    vars(inst)["saturated"] = Polyhedron(2, inst.hull.vertices[:2])
    assert decide_compact(inst) == CompactnessCertificate(Verdict.UNKNOWN)
    claims = verify_theorems(inst).claims
    assert [c.claim_id for c in claims] == sorted(CLAIM_LABELS)
    assert {c.status for c in claims} == {ClaimStatus.NOT_APPLICABLE}


def test_seeded_masks_equal_recomputed_incidence(monkeypatch):
    """The conversions hand their incidence to the values they make: over
    build, decide and T1-T6 on ``_mask_cases``, every closure, every value
    whose facets were converted and every pruned sum carries vertex and ray
    masks equal to ``ref_tight_masks`` on its ``_rows``, and extreme flags
    of its vertices and rays equal to the pairwise ``ref_maximal`` of those
    masks; each facet conversion returns the masks of its generators over
    the facets, and a closure vertex lies in the region iff no strict row is
    tight on it, as ``member`` says.  Every value's masks are already
    seeded: none is left to a rescan."""
    made, faceted = [], []
    real_h_to_v, real_facets, real_sum = polyhedron._h_to_v, polyhedron._int_facets, polyhedron.minkowski_sum_with_cone

    def h_to_v(rows, dim):
        poly = real_h_to_v(rows, dim)
        made.append(poly)
        return poly

    def facets(poly):
        out = real_facets(poly)
        faceted.append((poly, out))
        return out

    def summing(poly, cone):
        out = real_sum(poly, cone)
        made.append(out)
        return out

    monkeypatch.setattr(polyhedron, "_h_to_v", h_to_v)
    monkeypatch.setattr(polyhedron, "_int_facets", facets)
    for module in (polyhedron, compactness):
        monkeypatch.setattr(module, "minkowski_sum_with_cone", summing)
    kinds = {"made": 0, "sum": 0, "facets": 0, "inside": 0, "outside": 0}
    for q, region in _mask_cases():
        made.clear()
        faceted.clear()
        inst = Instance.build(q, region)
        verify_theorems(inst, decide_compact(inst))
        hull = inst.hull
        for v, mask, inside in zip(hull.vertices, hull._vert_masks, inst._inside.values()):
            assert (not mask & region._strict_mask) == inside == member(region, v), (region, v)
            kinds["inside" if inside else "outside"] += 1
        for poly in made + [p for p, _ in faceted if vars(p)["_incidence"].facets]:
            assert "_incidence" in vars(poly), poly
            inc = vars(poly)["_incidence"]
            assert inc.verts == ref_tight_masks(inc.rows, poly._verts), poly
            assert inc.rays == ref_tight_masks(inc.rows, [(r, 0) for r in poly._rays]), poly
            assert list(poly._extreme_flags) == ref_maximal(poly._vert_masks, poly._ray_masks), poly
            assert list(poly._extreme_ray_flags) == ref_maximal(poly._ray_masks), poly
        for poly, (rows, vert_masks, ray_masks, facets) in faceted:
            assert facets is True, poly
            assert vert_masks == ref_tight_masks(rows, poly._verts), poly
            assert ray_masks == ref_tight_masks(rows, [(r, 0) for r in poly._rays]), poly
        kinds["made"] += len(made)
        kinds["sum"] += "saturated" in vars(inst)
        kinds["facets"] += len(faceted)
    assert min(kinds.values()) >= 20, kinds


def test_the_facets_flag_never_lies(monkeypatch):
    """``Polyhedron._incidence.facets`` is true only where the record's rows
    are the facets, and each builder sets it as documented: over the corpus
    seeds ``1000*d + k`` (d = 1..3, k < 100), the balls and arc hulls of
    ``_balls_and_arcs`` and half-open strips and slabs with a line, decided
    and, when COMPACT, with T1-T6 run, every closure carries
    ``facets=False``, every pruned sum carries ``True``, every record
    flagged as the facets equals the facet conversion's (``_int_facets``:
    the rows and both mask tuples), and ``dd_convert_v_to_h`` of every value
    made is its memo ``hrep``."""
    rng = random.Random(61)
    cases = [gen_random_instance(d, 1000 * d + k) for d in (1, 2, 3) for k in range(100)]
    cases += _balls_and_arcs()
    slab = (Constraint((F(1), F(1), F(1)), F(1), True), Constraint((F(-1), F(-1), F(-1)), F(1), False))
    strip = (Constraint((F(1), F(-2)), F(3), True), Constraint((F(-1), F(2)), F(0), False))
    for region in (PartialPolyhedron(3, slab), PartialPolyhedron(2, strip)):
        cases += [(gen_random_norm(region.dim, rng), region) for _ in range(6)]
    closures, made, pruned = [], [], []
    real_h_to_v, make = polyhedron._h_to_v, polyhedron._Value._make.__func__

    def h_to_v(rows, dim):
        closures.append(real_h_to_v(rows, dim))
        return closures[-1]

    def recording(cls, **fields):
        made.append(make(cls, **fields))
        if "_extreme_flags" in fields:  # only a pruned sum is made with its extreme flags
            pruned.append(made[-1])
        return made[-1]

    monkeypatch.setattr(polyhedron, "_h_to_v", h_to_v)
    monkeypatch.setattr(polyhedron._Value, "_make", classmethod(recording))
    kinds = {"closure": 0, "pruned": 0, "flagged": 0, "compact": 0, "line": 0}
    for q, region in cases:
        closures.clear()
        made.clear()
        pruned.clear()
        inst = Instance.build(q, region)
        cert = decide_compact(inst)
        if cert.verdict is Verdict.COMPACT:
            verify_theorems(inst, cert)
            kinds["compact"] += 1
        kinds["line"] += contains_line(inst.hull)
        for p in closures:
            assert vars(p)["_incidence"].facets is False, p
            kinds["closure"] += 1
        for p in pruned:
            assert p._incidence.facets is True, p
            kinds["pruned"] += 1
        for p in [p for p in made if type(p) is Polyhedron]:
            inc = vars(p).get("_incidence")
            if inc is not None and inc.facets:
                assert inc == _int_facets(p), p
                kinds["flagged"] += 1
            assert polyhedron.dd_convert_v_to_h(p) is p.hrep, p
    assert min(kinds.values()) >= 12, kinds


def test_pipeline_scans_each_support_once(monkeypatch):
    """No support value is memoized, and none needs to be: over build,
    decide and T1-T6 on the reference catalog, 60 corpus seeds and d=4
    lattice balls, no (value, row) is scanned twice, and every scan answers
    what the ``Fraction`` reference says.  Whether each vertex of the
    closure (``Instance._inside``) and of closure + C
    (``Instance._sum_inside``) lies in the region, read off the masks, is
    what ``member`` and ``ref_member`` say on the ``Fraction`` vertex."""
    real = polyhedron._scan_support
    answered = []

    def recording(poly, c):
        top = real(poly, c)
        answered.append((poly, tuple(c), top))
        return top

    monkeypatch.setattr(polyhedron, "_scan_support", recording)
    inside = outside = 0
    for q, region in _pipeline_cases():
        inst = Instance.build(q, region)
        verify_theorems(inst, decide_compact(inst))
        for poly, answers in ((inst.hull, inst._inside.values()), (inst.saturated, inst._sum_inside)):
            assert len(answers) == len(poly._verts)
            for v, got in zip(poly.vertices, answers):
                assert got == member(inst.region, v) == ref_member(inst.region, v)
                inside += got
                outside += not got
    assert inside and outside
    assert len(answered) >= 50, len(answered)
    assert len({(id(poly), c) for poly, c, _ in answered}) == len(answered)
    for poly, c, top in answered:
        assert (None if top is None else F(*top)) == ref_support_value(poly, c)


def _flattened(q, region, normal):
    """The instance cut to the hyperplane <normal, x> = <normal, p> through a
    point p of the region: the mean of its closure's vertices plus the sum
    of its rays, a positive combination of every generator, lies in the
    closure's relative interior and so in the region."""
    hull = closure(region)
    n = len(hull.vertices)
    p = [sum(col) / n for col in zip(*hull.vertices)]
    p = [a + sum(r[i] for r in hull.rays) for i, a in enumerate(p)]
    level = sum(a * b for a, b in zip(normal, p))
    pair = (Constraint(tuple(map(F, normal)), level, False), Constraint(tuple(-F(a) for a in normal), -level, False))
    return q, PartialPolyhedron(region.dim, region.constraints + pair)


def test_saturate_region_is_the_facet_construction():
    """``saturate_region`` puts region + C on the saturated hull's own rows
    and reads most flags off masks; it is the set the earlier construction
    on the facets of closure + C gives (``ref_saturate_region``), and the
    two are closed or open together.  Over the reference catalog, 300
    corpus seeds, the balls and arc hulls of ``_balls_and_arcs``, closures
    that contain a line (slabs and strips, half-open or closed) and
    lower-dimensional closures (corpus regions cut to a hyperplane through
    one of their points).  Every closed ball is its own saturated hull."""
    rng = random.Random(97)
    cases = [(entry.norm, entry.region) for entry in reference_catalog()]
    cases += [gen_random_instance(d, 1000 * d + k) for d in (1, 2, 3) for k in range(100)]
    balls = _balls_and_arcs()
    cases += balls
    slab = (Constraint((F(1), F(1), F(1)), F(1), True), Constraint((F(-1), F(-1), F(-1)), F(1), False))
    strip = (Constraint((F(1), F(-2)), F(3), True), Constraint((F(-1), F(2)), F(0), True))
    for region in (PartialPolyhedron(3, slab), PartialPolyhedron(2, strip), PartialPolyhedron(1, ())):
        for _ in range(8):
            cases.append((gen_random_norm(region.dim, rng), region))
    cases += [_flattened(*gen_random_instance(d, 1000 * d + k), rand_point(rng, d, span=2, max_den=1))
              for d in (2, 3) for k in range(100, 120)]
    kinds = dict.fromkeys(("own", "faceted", "line", "flat", "closed", "open"), 0)
    for q, region in cases:
        inst = Instance.build(q, region)
        decide_compact(inst)
        got, ref = saturate_region(inst), ref_saturate_region(inst)
        assert set_equal(got, ref), (q, region)
        closed = is_closed(got)
        assert closed == is_closed(ref), (q, region)
        kinds["closed" if closed else "open"] += 1
        kinds["own" if inst.saturated is inst.hull else "faceted"] += 1
        kinds["line"] += contains_line(inst.hull)
        facets = _int_facets(inst.hull).rows
        kinds["flat"] += any((tuple(vneg(c)), -b) in facets for c, b in facets)
    for q, region in balls[:12]:
        if not any(c.strict for c in region.constraints):
            inst = Instance.build(q, region)
            assert inst.saturated is inst.hull
            assert decide_compact(inst).verdict is Verdict.COMPACT
    assert min(kinds.values()) >= 20, kinds


def test_saturate_region_reads_masks_only(monkeypatch):
    """Every row of ``saturate_region`` is known to reach its bound on the
    closure, or not, off the masks of closure + C, whether or not a
    sandwich was verified: the sum's vertices are closure vertices, and a
    row of the sum reaches its bound on the closure iff it is tight at one
    of them.  Over the corpus seeds ``1000*d + k`` (d = 1..3, k < 150), the
    balls and arc hulls of ``_balls_and_arcs`` and closures that contain a
    line, each undecided and again after ``decide_compact``, it scans no
    support value, and its set is the facet construction's
    (``ref_saturate_region``); sums with a line among them."""
    rng = random.Random(29)
    cases = [gen_random_instance(d, 1000 * d + k) for d in (1, 2, 3) for k in range(150)]
    cases += _balls_and_arcs()
    strip = (Constraint((F(1), F(-2)), F(3), True), Constraint((F(-1), F(2)), F(0), False))
    cases += [(gen_random_norm(2, rng), PartialPolyhedron(2, strip)) for _ in range(8)]
    scans = []
    real_scan = polyhedron._scan_support

    def scanning(poly, c):
        scans.append(poly)
        return real_scan(poly, c)

    for module in (polyhedron, compactness):  # also where a module imports the name
        monkeypatch.setattr(module, "_scan_support", scanning, raising=False)
    kinds = dict.fromkeys(("undecided", *Verdict, "line"), 0)
    for q, region in cases:
        for decided in (False, True):
            inst = Instance.build(q, region)
            kinds[decide_compact(inst).verdict if decided else "undecided"] += 1
            scans.clear()
            got = saturate_region(inst)
            assert not scans, (q, region, decided)
            assert set_equal(got, ref_saturate_region(inst)), (q, region, decided)
            kinds["line"] += contains_line(inst.saturated)
    del kinds[Verdict.UNKNOWN]
    assert min(kinds.values()) >= 20, kinds


def _pipeline_cases():
    """The reference catalog, 60 corpus seeds and eight d=4 lattice balls."""
    cases = [(entry.norm, entry.region) for entry in reference_catalog()]
    cases += [gen_random_instance(d, 1000 * d + k) for d in (1, 2, 3) for k in range(20)]
    return cases + _lattice_balls(8)


def _shape(x):
    """The types of a public attribute, nested as the attribute is."""
    return (type(x), tuple(map(_shape, x))) if isinstance(x, tuple) else type(x)


def _assert_public_value(value):
    """``value`` is the value its public constructor makes from its public
    attributes, and those are the attributes the earlier ``Fraction``
    constructor made of them (``ref_attributes``): equal, with the same hash,
    the same repr as the earlier dataclass printed (``ref_repr``), the same
    attribute values and types, and every memo seeded on it equals what
    that value computes."""
    names = REF_PUBLIC[type(value)]
    attrs = [getattr(value, name) for name in names]
    public = type(value)(*attrs)
    assert value == public and hash(value) == hash(public)
    assert repr(value) == repr(public) == ref_repr(value)
    for name, got, ref in zip(names, attrs, ref_attributes(type(value), *attrs)):
        assert _shape(got) == _shape(getattr(public, name)) == _shape(ref), name
        assert got == getattr(public, name) == ref, name
    if isinstance(value, Polyhedron):
        assert value.hrep == public.hrep == polyhedron.dd_convert_v_to_h(public)
        if "_has_line" in vars(value):
            assert vars(value)["_has_line"] == public._has_line
        inc = vars(value).get("_incidence")
        if inc is not None and inc.facets:
            assert inc == public._incidence


def test_meets_face_agrees_with_the_full_face_scan():
    """``_meets_face`` takes one path with or without a strict row (a
    region with none has the strict mask 0, which meets every face), and it
    answers what the full scan of the face (``ref_meets_face``) answers,
    over the pipeline cases: each region, its rows made non-strict and its
    half-open sum with the cone, against the closure's face for the zero
    normal and for each row normal."""
    kinds = {"strict met": 0, "strict missed": 0, "no strict row": 0}
    for q, region in _pipeline_cases():
        inst = Instance.build(q, region)
        relaxed = PartialPolyhedron(q.dim, tuple([c._replace(strict=False) for c in region.constraints]))
        for part in (region, relaxed, saturate_region(inst)):
            hull = closure(part)
            has_strict = any(c.strict for c in part.constraints)
            for normal in [(0,) * q.dim] + [c.normal for c in part.constraints]:
                top = ref_support_value(hull, normal)
                got = _meets_face(part, normal, top)
                assert got == ref_meets_face(part, hull, normal, top), (part, normal)
                if not has_strict:
                    kinds["no strict row"] += 1
                else:
                    kinds["strict met" if got else "strict missed"] += 1
    assert min(kinds.values()) >= 50, kinds


def test_internal_builders_make_the_public_values():
    """Every value an internal builder makes from int data equals the one the
    public constructor makes from its public attributes: the closure
    (``dd_convert_h_to_v``), the union with a line and the pruned sum
    (``minkowski_sum_with_cone``), ``to_partial``, ``saturate_region``, the
    recession cones (with and without lineality) and the degeneracy cone,
    the center and center + cone, over the catalog, 60 corpus seeds and d=4
    lattice balls."""
    kinds = {"line sum": 0, "pruned sum": 0, "strict rows": 0, "center": 0, "lineality": 0}
    for q, region in _pipeline_cases():
        inst = Instance.build(q, region)
        d = q.dim
        line_sum = minkowski_sum_with_cone(inst.hull, Cone(d, (), ((1,) + (0,) * (d - 1),)))
        recs = [recession_cone(p) for p in (inst.hull, inst.saturated, line_sum)]
        half_open_sum = saturate_region(inst)
        values = [inst.hull, inst.degeneracy, degeneracy_cone(q), inst.saturated, line_sum, *recs,
                  to_partial(inst.hull), to_partial(inst.saturated), half_open_sum]
        kinds["lineality"] += sum(bool(rec.lineality_basis) for rec in recs[:2])
        kinds["line sum" if contains_line(inst.saturated) else "pruned sum"] += 1
        kinds["strict rows"] += any(c.strict for c in half_open_sum.constraints)
        if saturation_extreme_points(inst):
            core = center_candidate(inst)
            values += [core, minkowski_sum_with_cone(core, inst.degeneracy)]
            kinds["center"] += 1
        for value in values:
            _assert_public_value(value)
    assert min(kinds.values()) >= 5, kinds


def _parsed_cases():
    """Instance texts with the values the public constructors make: the
    pipeline cases and eight d=4 random instances, written canonically."""
    cases = _pipeline_cases() + [gen_random_instance(4, 4000 + k) for k in range(8)]
    return [(write_instance(q, region), q, region) for q, region in cases]


def test_parsed_values_are_the_public_values():
    """The parser builds the gauge and the region from int data (``_make``),
    with no ``Fraction`` view; each equals the value the public constructors
    make from the same numbers, with the same hash, repr and stored ints,
    over the pipeline cases and d=4 random instances, and equals the
    generated pair."""
    for text, q, region in _parsed_cases():
        got_q, got_region = parse_instance(text)
        assert "functionals" not in vars(got_q) and "constraints" not in vars(got_region)
        _assert_public_value(got_q)
        _assert_public_value(got_region)
        assert (got_q, got_region) == (q, region)
        assert repr(got_q) == repr(q) and repr(got_region) == repr(region)


def test_parsed_tokens_reduce_and_clear_as_the_public_path_does():
    """Hand-written tokens: unreduced fractions, negative zero, zero over a
    denominator, leading zeros, a token an F and an H row share, and an
    all-int row (cleared by 1).  Each parsed value is the public one, and
    the stored ints are the rows each cleared by the lcm of its denominators
    (H) and the functionals by one common denominator (F)."""
    text = ("version 1\ndim 2\nF: 2/4 -0\nF: 0/7 007\nF: -12/8 1/6\n"
            "H: 2/4 -12/8 <= 007\nH: 3 -1 < 0/7\nH: 1/6 -0 <= -12/8\n")
    q, region = parse_instance(text)
    expected_q = make_norm(2, [(F(1, 2), 0), (0, 7), (F(-3, 2), F(1, 6))])
    expected_region = PartialPolyhedron(2, (
        Constraint((F(1, 2), F(-3, 2)), F(7), False),
        Constraint((F(3), F(-1)), F(0), True),
        Constraint((F(1, 6), F(0)), F(-3, 2), False),
    ))
    assert (q, region) == (expected_q, expected_region)
    assert (q._scale, q._rows) == (6, ((3, 0), (0, 42), (-9, 1)))
    assert region._rows == (((1, -3), 14, False), ((3, -1), 0, True), ((1, 0), -9, False))
    assert region._scales == (2, 1, 6)
    for value in (q, region):
        _assert_public_value(value)
    assert all(type(a) is F for f in q.functionals for a in f)


def test_pipeline_runs_without_the_public_constructors(monkeypatch):
    """Parsing, build, decide and T1-T6 make every value from trusted int
    data: with ``_prepare_rows`` and the ``__init__`` of
    ``Polyhedron``, ``PartialPolyhedron``, ``Cone`` and ``AsymNorm`` made to
    raise, the H-form texts of the catalog, 60 corpus seeds and d=4 lattice
    balls parse and give the certificates and reports they give without the
    patch."""
    texts = [write_instance(q, region) for q, region in _pipeline_cases()]

    def run(parsed):
        out = []
        for q, region in parsed:
            inst = Instance.build(q, region)
            cert = decide_compact(inst)
            out.append((cert, verify_theorems(inst, cert)))
        return out

    expected = run([parse_instance(t) for t in texts])

    def forbidden(*args, **kwargs):
        raise AssertionError("a public constructor ran on internal data")

    monkeypatch.setattr(polyhedron, "_prepare_rows", forbidden)
    for cls in (Polyhedron, PartialPolyhedron, Cone, AsymNorm):
        monkeypatch.setattr(cls, "__init__", forbidden)
    assert run([parse_instance(t) for t in texts]) == expected
    verdicts = [cert.verdict for cert, _ in expected]
    assert verdicts.count(Verdict.COMPACT) >= 20 and verdicts.count(Verdict.NOT_COMPACT) >= 20


def test_the_pipeline_builds_views_on_demand_only(monkeypatch):
    """Parsing, build, decide and T1-T6 read the stored ints only: over 60
    corpus seeds ``1000*d + k`` and d=4 lattice balls, COMPACT and
    NOT_COMPACT both, no value the pipeline made (``_make``, T6's instance
    among them) holds a ``Fraction`` view in its ``vars()``."""
    views = {"vertices", "rays", "constraints", "generators", "lineality_basis", "functionals", "hrep"}
    cases = [gen_random_instance(d, 1000 * d + k) for d in (1, 2, 3) for k in range(20)] + _lattice_balls(8)
    texts = [write_instance(q, region) for q, region in cases]
    made = []
    make = polyhedron._Value._make.__func__

    def recording(cls, **fields):
        made.append(make(cls, **fields))
        return made[-1]

    monkeypatch.setattr(polyhedron._Value, "_make", classmethod(recording))
    verdicts = []
    for text in texts:
        inst = Instance.build(*parse_instance(text))
        cert = decide_compact(inst)
        verify_theorems(inst, cert)
        verdicts.append(cert.verdict)
    assert verdicts.count(Verdict.COMPACT) >= 5 and verdicts.count(Verdict.NOT_COMPACT) >= 5
    assert {type(value) for value in made} == {Polyhedron, PartialPolyhedron, Cone, AsymNorm, Instance}
    for value in made:
        assert not views & vars(value).keys(), (type(value).__name__, views & vars(value).keys())


def test_closure_plus_cone_is_center_plus_cone_when_compact():
    """The identity ``decide_compact`` rests on: for every COMPACT instance
    among 300 corpus seeds, seeds at d = 4 and 5 and eight d=4 lattice
    balls, the center plus the degeneracy cone, built afresh, is the
    saturated hull as a value, and ``sandwich_certify`` certifies the
    center."""
    cases = [gen_random_instance(d, 1000 * d + k) for d in (1, 2, 3) for k in range(100)]
    cases += [gen_random_instance(d, 1000 * d + k) for d in (4, 5) for k in range(8)]
    cases += _lattice_balls(8)
    compact = 0
    for q, region in cases:
        inst = Instance.build(q, region)
        cert = decide_compact(inst)
        if cert.verdict is not Verdict.COMPACT:
            continue
        compact += 1
        assert minkowski_sum_with_cone(cert.center, inst.degeneracy) == inst.saturated
        assert sandwich_certify(cert.center, region, q)
    assert compact >= 60


def test_a_saturated_hull_with_forged_rays_raises():
    """The sandwich takes closure + C as center + C only when its rays are
    C's generators: a saturated hull with a ray missing or a ray too many
    raises ``InternalInvariantError``, never COMPACT, and an equal hull
    made by the public constructor gives the certificate decided without
    it."""
    expected = decide_compact(build(SUP2, UNIT_SQUARE))
    assert expected.verdict is Verdict.COMPACT
    sat = build(SUP2, UNIT_SQUARE).saturated
    assert sat.rays == ((-1, 0), (0, -1))
    for rays in (((-1, 0),), ((-1, -1), (-1, 0), (0, -1))):
        forged = build(SUP2, UNIT_SQUARE)
        vars(forged)["saturated"] = Polyhedron(2, sat.vertices, rays)
        with pytest.raises(ratlp.InternalInvariantError):
            decide_compact(forged)
    right = build(SUP2, UNIT_SQUARE)
    vars(right)["saturated"] = Polyhedron(2, sat.vertices, sat.rays)
    assert decide_compact(right) == expected


def test_t3_reuses_only_the_sandwich_decide_compact_verified(monkeypatch):
    """T3 of the center ``decide_compact`` picked is the sandwich fact it
    verified on the same instance; a center that ``decide_compact`` did not
    pick is still checked against the region, and fails T3 when its
    sandwich fails, also when it has the verified center's vertices and a
    ray besides."""
    inst = build(SUP2, UNIT_SQUARE)
    cert = decide_compact(inst)
    assert cert.verdict is Verdict.COMPACT
    regions = []
    real = compactness._within

    def counting(core, region, *rest):
        regions.append(region)
        return real(core, region, *rest)

    monkeypatch.setattr(compactness, "_within", counting)
    assert verify_theorems(inst, cert).all_pass
    assert inst.region not in regions
    forged = CompactnessCertificate(Verdict.COMPACT, center=Polyhedron(2, [(0, 0)]))
    t3 = verify_theorems(inst, forged).claims[2]
    assert t3.claim_id == "T3" and t3.status is ClaimStatus.FAIL
    assert inst.region in regions
    regions.clear()
    rayed = CompactnessCertificate(Verdict.COMPACT, center=Polyhedron(2, cert.center.vertices, ((1, 0),)))
    report = verify_theorems(inst, rayed)
    assert report.claims[2].claim_id == "T3" and report.claims[2].status is ClaimStatus.FAIL
    assert not report.all_pass
    assert inst.region in regions


def _scanned_report(q, region, cert):
    """T1-T6 as ``verify_theorems`` reports them on a fresh instance, with
    its T3 status checked against the earlier T3 (``support.ref_t3``: the
    center's own sandwich, then an inclusion each way between center + C
    and closure + C)."""
    inst = Instance.build(q, region)
    report = verify_theorems(inst, cert)
    t3 = ref_t3(inst, cert.center)
    assert report.claims[2].claim_id == "T3" and (report.claims[2].status is ClaimStatus.PASS) == t3
    return report


def test_forged_centers_get_the_report_of_the_scanned_sandwich():
    """A COMPACT certificate forged with the center candidate as its center,
    with and without one of C's generators added as a ray, on the corpus
    seeds ``1000*d + k`` (d = 1..3, k < 300) and forty d=4 seeds: T1-T6 say
    what a fresh instance reports, with T3 as the scanned reference says,
    status and detail, on the instance ``decide_compact`` ran on, COMPACT or
    NOT_COMPACT.  T3 of the candidate is the instance's sandwich fact; every
    other center is checked against the region and its sum compared."""
    cases = [gen_random_instance(d, 1000 * d + k) for d in (1, 2, 3) for k in range(300)]
    cases += [gen_random_instance(4, 4000 + k) for k in range(40)]
    seen = {(verdict, rayed): 0 for verdict in (Verdict.COMPACT, Verdict.NOT_COMPACT) for rayed in (False, True)}
    failing = 0
    for q, region in cases:
        inst = Instance.build(q, region)
        verdict = decide_compact(inst).verdict
        if contains_line(inst.saturated):
            continue
        core = center_candidate(inst)
        centers = [core]
        if inst.degeneracy._gens:
            centers.append(Polyhedron(q.dim, core.vertices, inst.degeneracy.generators[:1]))
        for center in centers:
            cert = CompactnessCertificate(Verdict.COMPACT, center=center)
            report = verify_theorems(inst, cert)
            assert report == _scanned_report(q, region, cert), (q, region, center)
            seen[verdict, bool(center.rays)] += 1
            failing += not report.all_pass
    assert min(seen.values()) >= 100 and failing >= 1000, (seen, failing)


def _forged_centers(inst, rng):
    """Vertex sets forged from a COMPACT instance: subsets of the center
    candidate's vertices, the candidate plus a closure vertex, all closure
    vertices, the candidate plus a point outside the region, and single
    candidate vertices."""
    cand, closed = list(center_candidate(inst).vertices), list(inst.hull.vertices)
    out = [rng.sample(cand, rng.randint(1, len(cand) - 1)) for _ in range(2 if len(cand) > 1 else 0)]
    extra = [v for v in closed if v not in cand]
    if extra:
        out.append(cand + [rng.choice(extra)])
    out.append(closed)
    for scale in (1, 3, 50):
        p = tuple(F(rng.randint(-6, 6) * scale, rng.randint(1, 3)) for _ in range(inst.norm.dim))
        if not member(inst.region, p):
            out.append(cand + [p])
            break
    return out + [[v] for v in cand[:3]]


def test_t3_matches_the_scanned_sandwich_on_forged_centers():
    """T3 reads the instance's sandwich fact, and compares a center other
    than the candidate with closure + C as a value after checking it lies
    in the region.  On every COMPACT instance among the corpus seeds
    ``1000*d + k`` (d = 1..3, k < 500), over more than 1,500 forged centers
    (``_forged_centers``), it says what the earlier T3 says
    (``support.ref_t3``, a second sandwich and an inclusion each way), and
    ``sandwich_certify`` says what that second sandwich says."""
    rng = random.Random(39)
    outcomes = {True: 0, False: 0}
    for d in (1, 2, 3):
        for k in range(500):
            q, region = gen_random_instance(d, 1000 * d + k)
            inst = Instance.build(q, region)
            if decide_compact(inst).verdict is not Verdict.COMPACT:
                continue
            for verts in _forged_centers(inst, rng):
                center = Polyhedron(d, verts)
                t3 = verify_theorems(inst, CompactnessCertificate(Verdict.COMPACT, center=center)).claims[2]
                expected = ref_t3(inst, center)
                assert t3.claim_id == "T3" and (t3.status is ClaimStatus.PASS) == expected, (d, k, verts)
                assert sandwich_certify(center, region, q) == (ref_sandwich(center, region, inst.degeneracy)
                                                                is not None), (d, k, verts)
                outcomes[expected] += 1
    assert sum(outcomes.values()) >= 1500 and min(outcomes.values()) >= 500, outcomes


def test_a_center_of_another_dimension_is_a_bad_input():
    """A COMPACT certificate whose center has another dimension than the
    instance raises ``ValueError`` before any claim is evaluated, as
    ``sandwich_certify`` does, whether or not the center lies in the
    region's coordinate range: on the catalog's unit square, a 1-D center
    (5) once got a report with T3 FAIL and (1) an error from inside the
    Minkowski sum."""
    entry = next(e for e in reference_catalog() if e.name.startswith("unit square"))
    inst = Instance.build(entry.norm, entry.region)
    assert decide_compact(inst).verdict is Verdict.COMPACT
    for point in ((5,), (1,), (1, 1, 1)):
        center = Polyhedron(len(point), [point])
        with pytest.raises(ValueError, match="dimension mismatch"):
            verify_theorems(inst, CompactnessCertificate(Verdict.COMPACT, center=center))
        with pytest.raises(ValueError, match="dimension mismatch"):
            sandwich_certify(center, entry.region, entry.norm)


def test_t1_reads_the_verified_sandwich_as_the_scan_does(monkeypatch):
    """T1 reads whether each vertex of closure + C lies in the region off
    the closure's masks (``Instance._sum_inside``), the list the sandwich of
    ``decide_compact`` reads.  Over every COMPACT instance among the corpus
    seeds ``1000*d + k`` (d = 1..3, k < 500) and twenty d=4 lattice balls,
    T1 says what testing each vertex of closure + C with ``member`` says,
    with the verified center and with the same center handed to a fresh
    instance of the same gauge and region, and neither tests a vertex row
    by row."""
    tested = []
    real = polyhedron.member

    def counting(region, x):
        tested.append(region)
        return real(region, x)

    cases = [gen_random_instance(d, 1000 * d + k) for d in (1, 2, 3) for k in range(500)]
    cases += _lattice_balls(20)
    compact = 0
    for q, region in cases:
        inst = Instance.build(q, region)
        cert = decide_compact(inst)
        if cert.verdict is not Verdict.COMPACT:
            continue
        compact += 1
        sat = inst.saturated
        scan = ClaimStatus.PASS if all(member(region, v) for v in sat.vertices) else ClaimStatus.FAIL
        monkeypatch.setattr(polyhedron, "member", counting)
        for target in (inst, Instance.build(q, region)):
            t1 = verify_theorems(target, cert).claims[0]
            assert t1.claim_id == "T1" and t1.status is scan, (q, region)
        monkeypatch.setattr(polyhedron, "member", real)
        assert not tested, (q, region)
    assert compact >= 300


def test_t3_and_t4_compare_closed_sets_as_set_equal_does():
    """T3 reads both inclusions of two closed sets off their generators
    (``_within`` each way), and T4 is ``is_closed`` of the half-open sum.
    Over the pipeline cases each agrees with ``set_equal`` on the same sets:
    closure and closure + C, center + C and closure + C, center and
    closure + C; the region and region + C against their closures.  The
    report's T3 and T4 are those answers, and the closure
    ``saturate_region`` seeds, on a line-free sum only, is the double
    description of its rows."""
    seen = dict.fromkeys(("equal", "unequal", "closed", "open", "seeded", "line"), 0)
    for q, region in _pipeline_cases():
        inst = Instance.build(q, region)
        cert = decide_compact(inst)
        sat = inst.saturated
        half_open_sum = saturate_region(inst)
        seeded = "_closure" in vars(half_open_sum)
        assert seeded == (not contains_line(sat))
        seen["seeded" if seeded else "line"] += 1
        rows = [(c, b) for c, b, _ in half_open_sum.constraints]
        assert closure(half_open_sum) == dd_convert_h_to_v(rows, q.dim)
        pairs = [(inst.hull, sat)]
        if cert.verdict is Verdict.COMPACT:
            pairs += [(minkowski_sum_with_cone(cert.center, inst.degeneracy), sat), (cert.center, sat)]
        for a, b in pairs:
            same = _within(a, to_partial(b)) and _within(b, to_partial(a))
            assert same == set_equal(to_partial(a), to_partial(b)), (a, b)
            seen["equal" if same else "unequal"] += 1
        for k in (region, half_open_sum):
            closed = is_closed(k)
            assert closed == set_equal(k, to_partial(closure(k))), k
            seen["closed" if closed else "open"] += 1
        if cert.verdict is Verdict.COMPACT:
            claims = {c.claim_id: c.status for c in verify_theorems(inst, cert).claims}
            assert claims["T3"] is ClaimStatus.PASS
            assert claims["T4"] is (ClaimStatus.PASS if is_closed(half_open_sum) else ClaimStatus.FAIL)
    assert min(seen.values()) >= 5, seen


def test_decide_compact_skips_the_hrep_of_a_bounded_hull():
    """A polytope's recession cone is {0}, so deciding runs no vertex-to-facet
    DD on a ray-free hull, and the certificate is the one decided with the
    H-representation at hand."""
    cases = [(entry.norm, entry.region) for entry in reference_catalog()]
    cases += [gen_random_instance(d, 1000 * d + k) for d in (1, 2, 3) for k in range(30)]
    verdicts = []
    for norm, region in cases:
        inst = Instance.build(norm, region)
        if inst.hull.rays:
            continue
        cert = decide_compact(inst)
        assert "hrep" not in inst.hull.__dict__ and not inst.hull._incidence.facets
        assert inst.hull.hrep
        assert decide_compact(inst) == cert
        verdicts.append(cert.verdict)
    assert verdicts.count(Verdict.COMPACT) >= 5
    assert verdicts.count(Verdict.NOT_COMPACT) >= 5


def test_center_candidate_examples():
    assert center_candidate(build(POS_PART, HALF_OPEN)).vertices == ((1,),)
    assert center_candidate(build(SUP2, UNIT_SQUARE)).vertices == ((1, 1),)
    sym_center = center_candidate(build(SYM2, UNIT_SQUARE))
    assert set(sym_center.vertices) == {(0, 0), (1, 0), (0, 1), (1, 1)}
    assert sym_center.rays == ()


def test_decide_examples():
    cert = decide_compact(build(POS_PART, HALF_OPEN))
    assert cert.verdict is Verdict.COMPACT
    assert cert.center.vertices == ((1,),)

    cert = decide_compact(build(POS_PART, interval(0, None)))  # [0, inf)
    assert cert.verdict is Verdict.NOT_COMPACT
    assert cert.witness == BadRecessionDirection((F(1),))
    assert gauge_eval(POS_PART, cert.witness.direction) > 0

    cert = decide_compact(build(POS_PART, interval(-1, 1, lo_open=True, hi_open=True)))
    assert cert.verdict is Verdict.NOT_COMPACT
    assert cert.witness == EscapedExtremePoint((F(1),))
    assert not member(HALF_OPEN, (F(-5),))  # sanity on helper orientation


def test_escaping_direction_is_the_first_in_sorted_order():
    """The recession directions are the rays and each lineality basis vector
    in both signs, tested as ints; the witness is the first of positive
    gauge in sorted order, as the ``Fraction`` reference finds it.  On a slab
    of Q^3 that is minus a basis vector that is no ray of the closure."""
    slab = PartialPolyhedron(3, (Constraint((F(1), F(1), F(1)), F(1), False),
                                 Constraint((F(-1), F(-1), F(-1)), F(1), False)))
    q = make_norm(3, [(1, -1, 0), (1, 0, 0), (1, 1, 1)])
    cases = [(q, slab)] + _pipeline_cases()
    escapes = 0
    for q, region in cases:
        inst = build(q, region)
        rec = recession_cone(inst.hull)
        directions = set(rec.generators) | set(rec.lineality_basis)
        directions |= {vneg(l) for l in rec.lineality_basis}
        first = next((d for d in sorted(directions) if ref_gauge_eval(q, d) > 0), None)
        witness = decide_compact(inst).witness
        if first is None:
            assert not isinstance(witness, BadRecessionDirection)
            continue
        assert witness == BadRecessionDirection(first)
        assert all(type(a) is F for a in witness.direction)
        escapes += 1
    assert decide_compact(build(*cases[0])).witness == BadRecessionDirection((F(0), F(-1), F(1)))
    assert (F(0), F(-1), F(1)) not in build(*cases[0]).hull.rays
    assert escapes >= 20


def test_center_candidate_requires_extreme_points():
    # the whole line saturates to itself and has no extreme points
    whole_line = PartialPolyhedron(1, ())
    inst = build(POS_PART, whole_line)
    with pytest.raises(EmptyExtremeSetError):
        center_candidate(inst)
    assert decide_compact(inst).verdict is Verdict.NOT_COMPACT


def test_decide_rejects_empty_region():
    empty = PartialPolyhedron(1, (
        Constraint((F(1),), F(0), True),
        Constraint((F(-1),), F(0), True),
    ))
    with pytest.raises(EmptyRegionError):
        build(POS_PART, empty)


def test_one_dimensional_truth_table():
    """All nine interval shapes agree with the independent cover oracle."""
    a, b = F(-3, 2), F(5, 3)
    shapes = [
        (a, b, True, True),     # (a,b)
        (a, b, True, False),    # (a,b]
        (a, b, False, True),    # [a,b)
        (a, b, False, False),   # [a,b]
        (None, b, False, True),  # (-inf,b)
        (None, b, False, False),  # (-inf,b]
        (a, None, False, False),  # [a,inf)
        (a, None, True, False),   # (a,inf)
        (None, None, False, False),  # the whole line
    ]
    for lo, hi, lo_open, hi_open in shapes:
        expected = interval_compact_oracle(lo, hi, lo_open, hi_open)
        region = interval(lo, hi, lo_open=lo_open, hi_open=hi_open)
        verdict = decide_compact(build(POS_PART, region)).verdict
        assert verdict is (Verdict.COMPACT if expected else Verdict.NOT_COMPACT), \
            (lo, hi, lo_open, hi_open)


def test_sandwich_examples():
    core_one = Polyhedron(1, [(1,)])
    assert sandwich_certify(core_one, HALF_OPEN, POS_PART)
    assert sandwich_certify(core_one, interval(-1, 1), POS_PART)
    core_zero = Polyhedron(1, [(0,)])
    assert not sandwich_certify(core_zero, interval(0, 1, lo_open=True), POS_PART)


def test_sandwich_requires_bounded_core():
    with pytest.raises(ValueError):
        sandwich_certify(Polyhedron(1, [(0,)], [(-1,)]), HALF_OPEN, POS_PART)


def test_instance_and_sandwich_reject_a_dimension_mismatch():
    """``Instance.build`` refuses a gauge and a region of two dimensions, and
    ``sandwich_certify`` a core or a gauge whose dimension is not the
    region's."""
    with pytest.raises(ValueError, match="^gauge and region dimensions differ$"):
        Instance.build(SUP2, HALF_OPEN)
    with pytest.raises(ValueError, match="^gauge and region dimensions differ$"):
        Instance.build(POS_PART, UNIT_SQUARE)
    for core, norm in ((Polyhedron(2, [(0, 0)]), POS_PART), (Polyhedron(1, [(1,)]), SUP2)):
        with pytest.raises(ValueError, match="^dimension mismatch$"):
            sandwich_certify(core, HALF_OPEN, norm)


def test_a_directly_made_instance_is_checked_as_build_checks_it():
    """``Instance(...)`` runs ``build``'s checks, with the same exceptions and
    messages: an empty region is an ``EmptyRegionError`` when the instance
    is made, not an ``AttributeError`` inside ``decide_compact``, and a 2-d
    gauge with a 1-d region is refused."""
    empty = PartialPolyhedron(1, (Constraint((1,), 0, True), Constraint((-1,), 0, False)))
    for make in (Instance, Instance.build):
        with pytest.raises(EmptyRegionError, match="^the region is empty$"):
            make(AsymNorm(1, [(1,)]), empty)
        with pytest.raises(ValueError, match="^gauge and region dimensions differ$"):
            make(SUP2, HALF_OPEN)
    assert Instance(POS_PART, HALF_OPEN) == Instance.build(POS_PART, HALF_OPEN)


def test_verify_theorems_pass_cases():
    for norm, region in (
        (POS_PART, HALF_OPEN),
        (SUP2, UNIT_SQUARE),
        (SYM2, UNIT_SQUARE),
    ):
        report = verify_theorems(build(norm, region))
        assert report.all_pass
        assert [c.claim_id for c in report.claims] == ["T1", "T2", "T3", "T4", "T5", "T6"]


def test_verify_theorems_not_applicable():
    report = verify_theorems(build(POS_PART, interval(0, None)))
    assert not report.all_pass
    assert all(c.status is ClaimStatus.NOT_APPLICABLE for c in report.claims)


def test_saturate_region_matches_expected_sets():
    # (-1,1] + (-inf,0] = (-inf,1], already closed
    sat = saturate_region(build(POS_PART, HALF_OPEN))
    assert set_equal(sat, interval(None, 1))
    # (0,1) + (-inf,0] = (-inf,1), still half-open
    open_iv = interval(0, 1, lo_open=True, hi_open=True)
    sat = saturate_region(build(POS_PART, open_iv))
    assert set_equal(sat, interval(None, 1, hi_open=True))


def test_verdict_invariant_under_scaling_and_translation():
    rng = random.Random(53)
    from asymgeo.cli.generators import gen_random_instance
    for seed in range(12):
        dim = rng.randint(1, 2)
        norm, region = gen_random_instance(dim, seed + 70)
        base = decide_compact(build(norm, region)).verdict
        t = F(rng.randint(1, 5), rng.randint(1, 3))
        v = rand_point(rng, dim)
        moved = affine_image(region, t, v)
        assert decide_compact(build(norm, moved)).verdict is base


def test_verdict_matches_saturated_region():
    from asymgeo.cli.generators import gen_random_instance
    for seed in range(10):
        norm, region = gen_random_instance(1 + seed % 2, seed + 800)
        inst = build(norm, region)
        verdict = decide_compact(inst).verdict
        sat_verdict = decide_compact(build(norm, saturate_region(inst))).verdict
        assert verdict is sat_verdict


def test_saturation_extremes_ignore_redundant_rows():
    inst = build(SUP2, UNIT_SQUARE)
    base = saturation_extreme_points(inst)
    padded_rows = UNIT_SQUARE.constraints + (
        Constraint((F(1), F(1)), F(5), False),   # slack everywhere
        Constraint((F(1), F(0)), F(2), False),   # dominated copy
    )
    padded = build(SUP2, PartialPolyhedron(2, padded_rows))
    assert saturation_extreme_points(padded) == base


def test_compact_verdict_survives_closure():
    # closures of compact regions stay compact
    cert = decide_compact(build(POS_PART, HALF_OPEN))
    assert cert.verdict is Verdict.COMPACT
    closed = interval(-1, 1)
    assert decide_compact(build(POS_PART, closed)).verdict is Verdict.COMPACT

    from asymgeo.cli.generators import gen_random_instance
    from asymgeo.polyhedron import to_partial
    found = 0
    seed = 0
    while found < 8 and seed < 120:
        norm, region = gen_random_instance(1 + seed % 3, seed + 4200)
        inst = build(norm, region)
        if decide_compact(inst).verdict is Verdict.COMPACT:
            found += 1
            closed_region = to_partial(inst.hull)
            assert decide_compact(build(norm, closed_region)).verdict is Verdict.COMPACT
        seed += 1
    assert found == 8


def test_claim_failures_carry_counterexamples():
    # a forged COMPACT certificate for a non-compact region drives the
    # FAIL branches: the open interval misses the saturated hull's extreme
    # point, so T1 must fail and name it
    from asymgeo.compactness import CompactnessCertificate
    inst = build(POS_PART, interval(-1, 1, lo_open=True, hi_open=True))
    forged = CompactnessCertificate(Verdict.COMPACT, center=Polyhedron(1, [(1,)]))
    report = verify_theorems(inst, forged)
    t1 = report.claims[0]
    assert t1.claim_id == "T1" and t1.status is ClaimStatus.FAIL
    assert t1.detail and "1" in t1.detail
    assert not report.all_pass
    assert "extreme points" in t1.label


def test_decide_handles_higher_dimensions():
    from asymgeo.cli.generators import gen_lattice_norm
    dim = 4
    sup4 = gen_lattice_norm(dim, "sup")
    rows = []
    for j in range(dim):
        e = tuple(F(1 if i == j else 0) for i in range(dim))
        rows.append(Constraint(e, F(1), False))
        rows.append(Constraint(tuple(-x for x in e), F(0), j == 0))
    box = PartialPolyhedron(dim, tuple(rows))
    cert = decide_compact(build(sup4, box))
    assert cert.verdict is Verdict.COMPACT
    assert cert.center.vertices == ((1, 1, 1, 1),)


def test_ball_no_line_examples():
    assert ball_no_line_check(POS_PART, 1, Closedness.OPEN)
    sup3 = make_norm(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)])
    assert ball_no_line_check(sup3, 2, Closedness.CLOSED)
    with pytest.raises(ValueError):
        ball_no_line_check(POS_PART, 0, Closedness.OPEN)


def test_escaped_witness_is_verifiable():
    inst = build(POS_PART, interval(-1, 1, lo_open=True, hi_open=True))
    cert = decide_compact(inst)
    w = cert.witness
    assert isinstance(w, EscapedExtremePoint)
    assert w.point in extreme_points(inst.saturated)
    assert not member(inst.region, w.point)


def _cut_lattice_ball(rng: random.Random, d: int):
    """A sup or one-norm lattice ball in dimension d, mostly closed, cut by
    one row whose normal has a negative entry, so it is no gauge direction
    and the ball shortcut (closure + C is the closure) does not fire; the
    center stays strictly inside."""
    q = gen_lattice_norm(d, rng.choice(["sup", "one"]))
    center = tuple(F(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(d))
    radius = F(rng.randint(1, 4), rng.randint(1, 2))
    closedness = Closedness.OPEN if rng.random() < 0.25 else Closedness.CLOSED
    normal = [rng.randint(-2, 2) for _ in range(d)]
    normal[rng.randrange(d)] = -rng.randint(1, 2)
    rhs = sum(map(mul, normal, center)) + rng.randint(1, 2)
    cut = Constraint(tuple(map(F, normal)), rhs, rng.random() < 0.5)
    return q, PartialPolyhedron(d, (*ball(q, center, radius, closedness).as_set.constraints, cut))


def test_a_product_is_compact_iff_every_factor_is_and_its_center_is_the_product_of_theirs():
    """Products of 2-4 factors (``support.product``) at total d <= 12: the
    factors are corpus instances at d = 1..3, COMPACT or not, and lattice
    balls cut by a row that is no gauge direction.  The product is COMPACT
    iff every factor is; a COMPACT product's center vertices are the
    concatenations of its factors' center vertices and T1-T6 pass; a
    NOT_COMPACT product's witness re-verifies: an escaped point lies in
    the closure and not in the region, an escaping direction is a
    recession direction of the closure with positive gauge.  The general
    COMPACT path (closure + C is not the closure) runs at d >= 4, which
    no random instance reaches."""
    rng = random.Random(19)
    corpus = [(case, decide_compact(Instance.build(*case)))
              for d in (1, 2, 3) for case in (gen_random_instance(d, 1000 * d + k) for k in range(40))]
    compact = [x for x in corpus if x[1].verdict is Verdict.COMPACT]
    others = [x for x in corpus if x[1].verdict is not Verdict.COMPACT]
    assert compact and others
    general, kinds = 0, set()
    for _ in range(300):
        factors = []
        for _ in range(rng.randint(2, 4)):
            u = rng.random()
            if u < 0.45:
                case = _cut_lattice_ball(rng, rng.randint(1, 3))
                factors.append((case, decide_compact(Instance.build(*case))))
            else:
                factors.append(rng.choice(compact if u < 0.85 else others))
        inst = Instance.build(*product([case for case, _ in factors]))
        assert inst.norm.dim <= 12
        cert = decide_compact(inst)
        assert (cert.verdict is Verdict.COMPACT) == all(c.verdict is Verdict.COMPACT for _, c in factors)
        if cert.verdict is Verdict.COMPACT:
            want = {tuple(itertools.chain(*vs)) for vs in itertools.product(*[c.center.vertices for _, c in factors])}
            assert set(cert.center.vertices) == want
            report = verify_theorems(inst, cert)
            assert report.all_pass, [(c.claim_id, c.status.value, c.detail) for c in report.claims]
            general += inst.norm.dim >= 4 and inst.saturated is not inst.hull
            continue
        kinds.add(type(cert.witness))
        if isinstance(cert.witness, EscapedExtremePoint):
            p = cert.witness.point
            assert all(sum(map(mul, c, p)) <= b for c, b, _ in inst.region.constraints)
            assert not member(inst.region, p)
        else:
            direction = cert.witness.direction
            assert all(sum(map(mul, c, direction)) <= 0 for c, _, _ in inst.region.constraints)
            assert gauge_eval(inst.norm, direction) > 0
    assert general >= 40, general
    assert kinds == {BadRecessionDirection, EscapedExtremePoint}
