"""Acceptance gate: every criterion at its stated count and tolerance.

All checks are exact (tolerance zero) or 100%-agreement properties; each
test prints one PASS line on success.  Run with ``pytest -s`` to see them.
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from asymgeo.cli.generators import (
    gen_arc_hull,
    gen_random_instance,
    gen_random_norm,
)
from asymgeo.cli.suite import run_reference_suite
from asymgeo.compactness import (
    BadRecessionDirection,
    EscapedExtremePoint,
    Instance,
    Verdict,
    decide_compact,
    region_extreme_points,
    sandwich_certify,
    verify_theorems,
)
from asymgeo.norm import Closedness, ball, gauge_eval, make_norm, sym_gauge_eval
from asymgeo.polyhedron import (
    Polyhedron,
    closure,
    contains_line,
    dd_convert_h_to_v,
    extreme_points,
    extreme_rays,
    member,
    set_equal,
    to_partial,
)
from asymgeo.ratlp import LpStatus, dot, lp_solve

from support import in_conv_plus_cone, interval, interval_compact_oracle, rand_fraction, rand_point, vadd, vscale, vsub

F = Fraction
POS_PART = make_norm(1, [(1,)])
DIMS = (1, 2, 3)
PER_DIM = 500


def _announce(name: str) -> None:
    print(f"ACCEPT {name}: PASS")


@pytest.fixture(scope="module")
def corpus():
    """The shared random corpus: (instance, certificate) per draw."""
    out = []
    for dim in DIMS:
        for k in range(PER_DIM):
            norm, region = gen_random_instance(dim, 1000 * dim + k)
            inst = Instance.build(norm, region)
            out.append((inst, decide_compact(inst)))
    return out


def test_criterion_1_reference_examples_replay():
    """Half-open interval and degeneracy-cone translates, exact equality."""
    inst = Instance.build(POS_PART, interval(-1, 1, lo_open=True))
    cert = decide_compact(inst)
    assert cert.verdict is Verdict.COMPACT
    assert cert.center.vertices == ((F(1),),)
    assert region_extreme_points(inst) == ((F(1),),)

    for x in (F(0), F(3, 2), F(-7, 3)):
        cert = decide_compact(Instance.build(POS_PART, interval(None, x)))
        assert cert.verdict is Verdict.COMPACT
        assert cert.center.vertices == ((x,),)

    sup2 = make_norm(2, [(1, 0), (0, 1)])
    from asymgeo.polyhedron import Constraint, PartialPolyhedron
    x = (F(2), F(-1, 2))
    translate = PartialPolyhedron(2, (
        Constraint((F(1), F(0)), x[0], False),
        Constraint((F(0), F(1)), x[1], False),
    ))
    cert = decide_compact(Instance.build(sup2, translate))
    assert cert.verdict is Verdict.COMPACT and cert.center.vertices == (x,)
    _announce("1 reference-example replay")


def test_criterion_2_one_dimensional_truth_table():
    """Nine interval shapes against the independent cover oracle, 100%."""
    shapes = [
        ("(a,b)", True, True), ("(a,b]", True, False),
        ("[a,b)", False, True), ("[a,b]", False, False),
    ]
    checked = 0
    for a, b in ((F(-3, 2), F(5, 3)), (F(0), F(1)), (F(-9, 4), F(-1, 4))):
        cases = [(a, b, lo, hi) for _n, lo, hi in shapes]
        cases += [(None, b, False, True), (None, b, False, False),
                  (a, None, False, False), (a, None, True, False),
                  (None, None, False, False)]
        for lo, hi, lo_open, hi_open in cases:
            expected = interval_compact_oracle(lo, hi, lo_open, hi_open)
            verdict = decide_compact(
                Instance.build(POS_PART, interval(lo, hi, lo_open=lo_open, hi_open=hi_open))
            ).verdict
            assert (verdict is Verdict.COMPACT) == expected, (lo, hi, lo_open, hi_open)
            checked += 1
    # frozen truth: compact exactly when the right endpoint exists and is attained
    assert interval_compact_oracle(F(0), F(1), True, False)
    assert interval_compact_oracle(F(0), F(1), False, False)
    assert interval_compact_oracle(None, F(1), False, False)
    assert checked == 27
    _announce("2 one-dimensional cover-oracle table")


def test_criterion_3_theorem_suite_on_random_instances(corpus):
    """Every COMPACT instance passes all six structure checks; zero failures."""
    compact = 0
    for inst, cert in corpus:
        if cert.verdict is Verdict.COMPACT:
            compact += 1
            report = verify_theorems(inst, cert)
            assert report.all_pass, [
                (c.claim_id, c.status.value, c.detail) for c in report.claims
            ]
        else:
            assert cert.verdict is Verdict.NOT_COMPACT  # never UNKNOWN
    assert len(corpus) == PER_DIM * len(DIMS)
    assert compact > 50
    _announce(f"3 structure suite on {len(corpus)} random instances ({compact} compact)")


def test_criterion_4_certificate_cross_validation(corpus):
    """COMPACT => verified sandwich; NOT_COMPACT => witness re-verifies."""
    for inst, cert in corpus:
        if cert.verdict is Verdict.COMPACT:
            assert sandwich_certify(cert.center, inst.region, inst.norm)
        else:
            w = cert.witness
            if isinstance(w, BadRecessionDirection):
                assert gauge_eval(inst.norm, w.direction) > 0
                hull = inst.hull
                assert in_conv_plus_cone(
                    vadd(hull.vertices[0], w.direction), hull.vertices, hull.rays)
            else:
                assert isinstance(w, EscapedExtremePoint)
                assert not member(inst.region, w.point)
                sat = inst.saturated
                others = tuple(v for v in sat.vertices if v != w.point)
                assert not in_conv_plus_cone(w.point, others, sat.rays)
    _announce("4 certificate cross-validation")


def test_criterion_5_no_line_in_balls():
    """200 random gauges per dimension: ball closures have no line."""
    for dim in DIMS:
        rng = random.Random(3000 + dim)
        for _ in range(200):
            norm = gen_random_norm(dim, rng)
            radius = F(rng.randint(1, 4), rng.randint(1, 2))
            for closed in Closedness:
                hull = closure(ball(norm, (0,) * dim, radius, closed).as_set)
                assert hull is not None
                assert not contains_line(hull)
    _announce("5 no line in 1200 ball closures")


def test_criterion_6_reconstruction_from_extremes():
    """300 random line-free closed polyhedra rebuild exactly."""
    rng = random.Random(808)
    built = 0
    while built < 300:
        d = rng.randint(1, 3)
        m = rng.randint(1, 2 * d + 2)
        rows = [(rand_point(rng, d, span=3), rand_fraction(rng)) for _ in range(m)]
        for j in range(d):
            if rng.random() < 0.7:
                e = tuple(F(1 if i == j else 0) for i in range(d))
                rows.append((e, F(rng.randint(1, 3))))
        poly = dd_convert_h_to_v(rows, d)
        if poly is None or contains_line(poly):
            continue
        built += 1
        rebuilt = Polyhedron(d, extreme_points(poly), extreme_rays(poly))
        assert set_equal(to_partial(rebuilt), to_partial(poly))
    _announce("6 extreme-structure reconstruction on 300 polyhedra")


def test_criterion_7_gauge_axioms_exactly():
    """1000 random triples per generated gauge: subadditivity, positive
    homogeneity, and the two-sided bound by the symmetrized gauge."""
    norms = []
    for dim in DIMS:
        rng = random.Random(4000 + dim)
        norms += [(dim, gen_random_norm(dim, rng)) for _ in range(5)]
    for dim, q in norms:
        rng = random.Random(5000 + dim)
        for _ in range(1000):
            x = rand_point(rng, dim)
            y = rand_point(rng, dim)
            t = F(rng.randint(0, 12), rng.randint(1, 4))
            assert gauge_eval(q, vadd(x, y)) <= gauge_eval(q, x) + gauge_eval(q, y)
            assert gauge_eval(q, vscale(t, x)) == t * gauge_eval(q, x)
            assert abs(gauge_eval(q, x) - gauge_eval(q, y)) <= sym_gauge_eval(q, vsub(x, y))
    _announce(f"7 gauge axioms on {len(norms)} gauges x 1000 triples")


def test_criterion_8_arc_hull_narrative():
    """Polygonal approximations: compact with strictly growing centers."""
    sizes = []
    for n_arc in (2, 4, 8, 16):
        norm, region = gen_arc_hull(n_arc)
        cert = decide_compact(Instance.build(norm, region))
        assert cert.verdict is Verdict.COMPACT
        sizes.append(len(cert.center.vertices))
    assert sizes == sorted(sizes) and len(set(sizes)) == 4
    reports, ok = run_reference_suite()
    assert ok
    notes = [r.note for r in reports if r.name.startswith("arc-hull")]
    assert notes and all(n and "no compact center" in n for n in notes)
    _announce(f"8 arc-hull narrative, centers {sizes}")


def test_criterion_9_kernel_checks():
    """LP determinism + optimality sampling; generator/inequality agreement
    on 200 random points per converted instance."""
    rng = random.Random(909)
    for _ in range(20):
        d = rng.randint(1, 3)
        m = rng.randint(1, 6)
        obj = rand_point(rng, d)
        cons = [(rand_point(rng, d), rand_fraction(rng)) for _ in range(m)]
        assert lp_solve(obj, cons) == lp_solve(obj, cons)

    for _ in range(10):
        d = rng.randint(1, 3)
        lo = [rand_fraction(rng) for _ in range(d)]
        hi = [l + F(rng.randint(1, 3)) for l in lo]
        rows = []
        for j in range(d):
            e = tuple(F(1 if i == j else 0) for i in range(d))
            rows.append((e, hi[j]))
            rows.append((tuple(-x for x in e), -lo[j]))
        obj = rand_point(rng, d)
        res = lp_solve(obj, rows)
        assert res.status is LpStatus.OPTIMAL
        for _ in range(100):
            sample = tuple(lo[j] + (hi[j] - lo[j]) * F(rng.randint(0, 10), 10)
                           for j in range(d))
            assert dot(obj, sample) <= res.value

    converted = 0
    while converted < 12:
        d = rng.randint(1, 3)
        m = rng.randint(1, 8)
        rows = [(rand_point(rng, d, span=3), rand_fraction(rng)) for _ in range(m)]
        poly = dd_convert_h_to_v(rows, d)
        converted += 1
        for _ in range(200):
            x = rand_point(rng, d)
            in_h = all(dot(c, x) <= b for c, b in rows)
            if poly is None:
                assert not in_h
            else:
                assert in_h == in_conv_plus_cone(x, poly.vertices, poly.rays)
    _announce("9 kernel determinism, optimality sampling, conversion round-trip")
