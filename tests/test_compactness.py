"""The decision procedure, its certificates, and the structure checks."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from asymgeo.compactness import (
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
from asymgeo.cli.generators import gen_random_instance, gen_random_norm, gen_random_region
from asymgeo.cli.instances import parse_instance, write_instance
from asymgeo.cli.suite import reference_catalog
from asymgeo.norm import AsymNorm, Closedness, ball, degeneracy_cone, gauge_eval, make_norm
from asymgeo.polyhedron import (
    Cone,
    Constraint,
    PartialPolyhedron,
    Polyhedron,
    _meets_face,
    _within,
    closure,
    contains_line,
    dd_convert_h_to_v,
    extreme_points,
    in_cone,
    in_conv_plus_cone,
    is_closed,
    member,
    minkowski_sum_with_cone,
    recession_cone,
    set_equal,
    to_partial,
)
from asymgeo.ratlp import vneg

from support import (
    REF_PUBLIC,
    affine_image,
    interval,
    interval_compact_oracle,
    rand_point,
    ref_attributes,
    ref_gauge_eval,
    ref_meets_face,
    ref_member,
    ref_repr,
    ref_support_value,
    ref_tight_masks,
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
    LP runs."""
    catalog = reference_catalog()
    cases = [(entry.norm, entry.region) for entry in catalog]
    cases += [gen_random_instance(d, 1000 * d + k) for d in (1, 2, 3) for k in range(20)]

    def forbidden(*args, **kwargs):
        raise AssertionError("an LP ran in the decision pipeline")

    for module in (polyhedron, ratlp):
        monkeypatch.setattr(module, "feasible_nonneg", forbidden)
        monkeypatch.setattr(module, "lp_solve", forbidden)
    monkeypatch.setattr(polyhedron, "in_cone", forbidden)
    monkeypatch.setattr(polyhedron, "in_conv_plus_cone", forbidden)
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
    while a COMPACT verdict with T1-T6 runs C's double description once
    per gauge value, though T6 builds a second instance on the gauge."""
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
            assert len(dds) == 1 and "degeneracy" in vars(inst) and set(map(id, cones)) == {id(q)}
    assert verdicts.count(Verdict.COMPACT) >= 50 and verdicts.count(Verdict.NOT_COMPACT) >= 200


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
            assert compactness._extreme_in_saturation(inst, mask) == lp, (q, inst.region, v)
            checked[lp] += 1
        cert = decide_compact(inst)
        if isinstance(cert.witness, BadRecessionDirection):
            continue
        first = next((v for v in saturation_extreme_points(inst) if not member(inst.region, v)), None)
        assert cert.witness == (None if first is None else EscapedExtremePoint(first))
        escaped += first is not None
    assert min(checked.values()) >= 50 and escaped >= 40 and trivial >= 60, (checked, escaped, trivial)


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
    """A COMPACT verdict and T1-T6 convert vertices to facets once, for
    closure + C, which is center + C: over the reference catalog, 300 corpus
    seeds, seeds at d = 4 and 5 and five closed d=4 lattice balls, on fresh
    values, every COMPACT instance runs exactly one vertex-to-facet DD and
    every other none, and the sandwich is still checked on the region and
    on region + C."""
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
    real_sandwich = compactness._sandwich

    def checking(core, region, *rest):
        sandwiched.append(region)
        return real_sandwich(core, region, *rest)

    monkeypatch.setattr(polyhedron, "_int_facets", counting)
    monkeypatch.setattr(compactness, "_sandwich", checking)
    compact = []
    for i, (q, region) in enumerate(cases):
        calls.clear()
        sandwiched.clear()
        inst = Instance.build(q, region)
        cert = decide_compact(inst)
        verify_theorems(inst, cert)
        assert len(calls) == (cert.verdict is Verdict.COMPACT), (i, cert.verdict, len(calls))
        if cert.verdict is Verdict.COMPACT:
            compact.append(i)
            # both inclusions are still checked on the region and, in T6, on region + C
            assert sandwiched == [inst.region, saturate_region(inst)]
    assert len(compact) >= 70
    assert all(len(cases) - 1 - j in compact for j in range(5))


def test_every_dd_enters_through_cone_from_rows(monkeypatch):
    """The double description has one entry: over build, decide and T1-T6 on
    the reference catalog, 90 corpus seeds and d=4 lattice balls, every
    pointed-cone run (the facet conversions among them) happens inside a
    ``cone_from_rows`` call, and every generator that call returns is an
    int tuple."""
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
    for module in (polyhedron, norm_module, compactness):
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
    """A region's closure has the region's rows, the very tuple, as its own,
    and so has the closure ``saturate_region`` seeds; closure + C has its
    facets as its rows.  So T1-T6 for the certificate ``decide_compact``
    made read masks: on every COMPACT instance of the reference catalog,
    the corpus seeds ``1000*d + k`` (d = 1..3, k < 300), the lattice balls
    and the arc hulls of ``_balls_and_arcs``, ``verify_theorems`` scans no
    support value and tests no vertex row by row."""
    scans = []
    real_scan, real_member = polyhedron._scan_support, polyhedron._int_member

    def scanning(poly, c):
        scans.append("_scan_support")
        return real_scan(poly, c)

    def testing(region, y, t):
        scans.append("_int_member")
        return real_member(region, y, t)

    monkeypatch.setattr(polyhedron, "_scan_support", scanning)
    for module in (polyhedron, compactness):
        monkeypatch.setattr(module, "_int_member", testing)
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
            assert closure(k)._rows is k._closed_rows, k
        assert inst.saturated._rows is inst.saturated._int_hrep
    assert compact >= 150, compact


def test_rows_without_their_incidence_are_a_broken_invariant():
    """Rows seeded without masks, a closure whose rows are not its
    region's and a saturated hull whose rows are not its facets raise
    ``InternalInvariantError`` where the masks would be read."""
    inst = build(SUP2, UNIT_SQUARE)
    bare = Polyhedron(2, [(0, 0), (1, 1)], [(1, 0)])
    vars(bare)["_rows"] = inst.hull._rows
    for name in ("_vert_masks", "_ray_masks"):
        with pytest.raises(ratlp.InternalInvariantError, match="seeded with their masks"):
            getattr(bare, name)
    square = closure(UNIT_SQUARE)
    half_open = PartialPolyhedron(2, (*UNIT_SQUARE.constraints[:3], UNIT_SQUARE.constraints[3]._replace(strict=True)))
    with pytest.raises(ratlp.InternalInvariantError, match="the region's closure"):
        _meets_face(half_open, square, (0, -1), 0)
    with pytest.raises(ratlp.InternalInvariantError, match="the region's"):
        Instance(SUP2, half_open, square)._inside
    forged = build(SUP2, UNIT_SQUARE)
    vars(forged)["saturated"] = dd_convert_h_to_v([(c.normal, c.rhs) for c in UNIT_SQUARE.constraints], 2)
    with pytest.raises(ratlp.InternalInvariantError, match="its facets"):
        saturate_region(forged)


def test_seeded_masks_equal_recomputed_incidence(monkeypatch):
    """The conversions hand their incidence to the values they make: over
    build, decide and T1-T6 on ``_mask_cases``, every closure, every value
    whose facets were converted and every pruned sum carries vertex and ray
    masks equal to ``ref_tight_masks`` on its ``_rows``, each facet
    conversion returns the masks of its generators over the facets, and a
    closure vertex lies in the region iff no strict row is tight on it, as
    ``member`` says.  Every value's masks are already seeded: none is left
    to a rescan."""
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
        for v, mask, inside in zip(hull.vertices, hull._vert_masks, inst._inside):
            assert (not mask & region._strict_mask) == inside == member(region, v), (region, v)
            kinds["inside" if inside else "outside"] += 1
        for poly in made + [p for p, _ in faceted if vars(p)["_rows"] is p._int_hrep]:
            assert {"_rows", "_vert_masks", "_ray_masks"} <= vars(poly).keys(), poly
            assert vars(poly)["_vert_masks"] == ref_tight_masks(poly._rows, poly._verts), poly
            assert vars(poly)["_ray_masks"] == ref_tight_masks(poly._rows, [(r, 0) for r in poly._rays]), poly
        for poly, (rows, vert_masks, ray_masks) in faceted:
            assert vert_masks == ref_tight_masks(rows, poly._verts), poly
            assert ray_masks == ref_tight_masks(rows, [(r, 0) for r in poly._rays]), poly
        kinds["made"] += len(made)
        kinds["sum"] += "saturated" in vars(inst)
        kinds["facets"] += len(faceted)
    assert min(kinds.values()) >= 20, kinds


def test_support_memo_answers_as_a_fresh_scan(monkeypatch):
    """``_support`` is memoized on each value: over build, decide and T1-T6
    on the reference catalog and d=4 lattice balls, every (value, row) it
    answers equals a fresh scan of the generators, and repeats are served
    by the memo.  A filled memo leaves equality, hash and repr as a fresh
    value has them, and the int membership test on a vertex's (y, t) agrees
    with ``member`` on the ``Fraction`` vertex."""
    cases = [(entry.norm, entry.region) for entry in reference_catalog()] + _lattice_balls(8)
    real = polyhedron._support
    answered = []

    def recording(poly, c):
        top = real(poly, c)
        answered.append((poly, c, top))
        return top

    for module in (polyhedron, compactness):
        monkeypatch.setattr(module, "_support", recording)
    inside = outside = 0
    for q, region in cases:
        inst = Instance.build(q, region)
        verify_theorems(inst, decide_compact(inst))
        for poly in (inst.hull, inst.saturated):
            for v, (y, t) in zip(poly.vertices, poly._verts):
                got = polyhedron._int_member(inst.region, y, t)
                assert got == member(inst.region, v) == ref_member(inst.region, v)
                inside += got
                outside += not got
    assert inside and outside
    values = {id(poly): poly for poly, _, _ in answered}
    assert len({(id(poly), c) for poly, c, _ in answered}) < len(answered)
    for poly, c, top in answered:
        assert poly._supports[c] == top
        assert (None if top is None else F(*top)) == ref_support_value(poly, c)
    for poly in values.values():
        twin = Polyhedron(poly.dim, poly.vertices, poly.rays)
        assert "_supports" not in vars(twin)
        assert poly == twin and hash(poly) == hash(twin) and repr(poly) == repr(twin)


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
        for name in ("_int_hrep", "_has_line"):
            if name in vars(value):
                assert vars(value)[name] == getattr(public, name), name


def test_meets_face_agrees_with_the_full_face_scan():
    """``_meets_face`` answers True without a scan when the region has no
    strict row; with or without one, it answers what the full scan of the
    face (``ref_meets_face``) answers, over the pipeline cases: each region,
    its rows made non-strict and its half-open sum with the cone, against
    the closure's face for the zero normal and for each row normal."""
    kinds = {"strict met": 0, "strict missed": 0, "no strict row": 0}
    for q, region in _pipeline_cases():
        inst = Instance.build(q, region)
        relaxed = PartialPolyhedron(q.dim, tuple([c._replace(strict=False) for c in region.constraints]))
        for part in (region, relaxed, saturate_region(inst)):
            hull = closure(part)
            has_strict = any(c.strict for c in part.constraints)
            for normal in [(0,) * q.dim] + [c.normal for c in part.constraints]:
                top = ref_support_value(hull, normal)
                got = _meets_face(part, hull, normal, top)
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
    data: with ``_canonical_rays`` and the ``__init__`` of
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

    monkeypatch.setattr(polyhedron, "_canonical_rays", forbidden)
    for cls in (Polyhedron, PartialPolyhedron, Cone, AsymNorm):
        monkeypatch.setattr(cls, "__init__", forbidden)
    assert run([parse_instance(t) for t in texts]) == expected
    verdicts = [cert.verdict for cert, _ in expected]
    assert verdicts.count(Verdict.COMPACT) >= 20 and verdicts.count(Verdict.NOT_COMPACT) >= 20


def test_the_pipeline_builds_views_on_demand_only(monkeypatch):
    """Parsing, build, decide and T1-T6 read the stored ints only: over 60
    corpus seeds ``1000*d + k`` and d=4 lattice balls, COMPACT and
    NOT_COMPACT both, no value the pipeline made (``_make``) holds a
    ``Fraction`` view in its ``vars()``."""
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
    assert {type(value) for value in made} == {Polyhedron, PartialPolyhedron, Cone, AsymNorm}
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
    """T3 takes the ``core + C`` that ``decide_compact`` verified on the same
    instance and center; a center that ``decide_compact`` did not pick still
    has its sandwich checked, and fails T3 when the sandwich fails, also
    when it has the verified center's vertices and a ray besides."""
    inst = build(SUP2, UNIT_SQUARE)
    cert = decide_compact(inst)
    assert cert.verdict is Verdict.COMPACT
    regions = []
    real = compactness._sandwich

    def counting(core, region, *rest):
        regions.append(region)
        return real(core, region, *rest)

    monkeypatch.setattr(compactness, "_sandwich", counting)
    assert verify_theorems(inst, cert).all_pass
    assert inst.region not in regions  # only T6's nested decision, on region + C
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


def test_t1_reads_the_verified_sandwich_as_the_scan_does(monkeypatch):
    """T1 for the center ``decide_compact`` verified reads PASS off its
    sandwich, which placed the saturated hull's vertices in the region; a
    center that the instance did not verify is still tested vertex by
    vertex.  Over every COMPACT instance among the corpus seeds
    ``1000*d + k`` (d = 1..3, k < 500) and twenty d=4 lattice balls, T1 says
    what testing each vertex of closure + C with ``member`` says, with the
    verified center and with the same center handed to a fresh instance of
    the same gauge and region; only the second tests the vertices, each
    once.  A forged saturated hull with a vertex outside the region fails
    T1 also for the verified center."""
    tested = []
    real = compactness._int_member

    def counting(region, y, t):
        tested.append(region)
        return real(region, y, t)

    monkeypatch.setattr(compactness, "_int_member", counting)
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
        counts = []
        for target in (inst, Instance.build(q, region)):
            tested.clear()
            t1 = verify_theorems(target, cert).claims[0]
            assert t1.claim_id == "T1" and t1.status is scan, (q, region)
            counts.append(sum(r is region for r in tested))  # T1 and T2 test the region itself
        assert counts[1] - counts[0] == len(sat._verts), (q, region)
    assert compact >= 300

    inst = build(SUP2, UNIT_SQUARE)
    cert = decide_compact(inst)
    sat = inst.saturated
    vars(inst)["saturated"] = Polyhedron(2, (*sat.vertices, (5, 5)), sat.rays)
    t1 = verify_theorems(inst, cert).claims[0]
    assert t1.claim_id == "T1" and t1.status is ClaimStatus.FAIL


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
        assert "_int_hrep" not in inst.hull.__dict__
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
