"""Representation conversion, membership, extreme structure, inclusion."""

from __future__ import annotations

import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from asymgeo import polyhedron, ratlp
from asymgeo.polyhedron import (
    Cone,
    Constraint,
    LinealityPresentError,
    PartialPolyhedron,
    Polyhedron,
    _meets_face,
    closure,
    contains_line,
    dd_convert_h_to_v,
    extreme_points,
    extreme_rays,
    in_cone,
    in_conv_plus_cone,
    is_closed,
    member,
    minkowski_sum_with_cone,
    partial_is_empty,
    recession_cone,
    set_equal,
    subset,
    support_value,
    to_partial,
)
from asymgeo.ratlp import as_vec, dot, null_space_basis, primitive, rank, rref, vneg, zero_vec

from support import (
    interval,
    rand_fraction,
    rand_point,
    ref_invert,
    ref_is_closed,
    ref_meets_face,
    ref_member,
    ref_pointed_cone_rays,
    ref_rank,
    ref_support_value,
    ref_tight_masks,
)

F = Fraction


def hrow(*coeffs):
    *normal, rhs = coeffs
    return (tuple(F(c) for c in normal), F(rhs))


def region(dim, *rows):
    return PartialPolyhedron(dim, tuple(Constraint(tuple(map(F, n)), F(b), s) for n, b, s in rows))


# --- conversion ------------------------------------------------------------


def test_h_to_v_interval():
    p = dd_convert_h_to_v([hrow(1, 1), hrow(-1, 0)], 1)
    assert p.vertices == ((0,), (1,))
    assert p.rays == ()


def test_v_to_h_quadrant():
    p = Polyhedron(2, [(0, 0)], [(-1, 0), (0, -1)])
    assert set(p.hrep) == {((F(1), F(0)), F(0)), ((F(0), F(1)), F(0))}


def test_h_to_v_strip_with_lineality():
    p = dd_convert_h_to_v([hrow(1, 0, 1), hrow(-1, 0, 1)], 2)
    assert p.vertices == ((-1, 0), (1, 0))
    assert set(p.rays) == {(0, 1), (0, -1)}
    assert contains_line(p)


def test_h_to_v_empty():
    assert dd_convert_h_to_v([hrow(1, 0), hrow(-1, -1)], 1) is None


def test_round_trip_on_random_points():
    rng = random.Random(3)
    for trial in range(25):
        d = rng.randint(1, 3)
        m = rng.randint(1, 8)
        rows = [(rand_point(rng, d, span=3), rand_fraction(rng)) for _ in range(m)]
        p = dd_convert_h_to_v(rows, d)
        for _ in range(40):
            x = rand_point(rng, d)
            in_h = all(dot(c, x) <= b for c, b in rows)
            if p is None:
                assert not in_h
            else:
                assert in_h == in_conv_plus_cone(x, p.vertices, p.rays)


# --- closure / membership / closedness --------------------------------------


def test_closure_examples():
    half_open = interval(-1, 1, lo_open=True)
    assert closure(half_open).vertices == ((-1,), (1,))
    assert closure(region(1, ((1,), 0, True), ((-1,), 0, True))) is None
    quadrant = region(2, ((-1, 0), 0, True), ((0, -1), 0, True))
    hull = closure(quadrant)
    assert hull.vertices == ((0, 0),)
    assert set(hull.rays) == {(1, 0), (0, 1)}


def test_member_examples():
    half_open = interval(-1, 1, lo_open=True)
    assert member(half_open, (1,))
    assert not member(half_open, (-1,))
    assert member(half_open, (0,))


def test_member_dimension_check():
    with pytest.raises(ValueError):
        member(interval(0, 1), (0, 0))


def test_is_closed_examples():
    assert not is_closed(interval(-1, 1, lo_open=True))
    assert is_closed(region(1, ((1,), 2, True), ((1,), 1, False)))
    assert is_closed(interval(-1, 1))
    assert is_closed(region(1, ((1,), 0, True), ((-1,), 0, True)))  # empty set


def test_minkowski_examples():
    p = minkowski_sum_with_cone(Polyhedron(1, [(1,)]), Cone(1, [(-1,)]))
    assert p.vertices == ((1,),) and p.rays == ((-1,),)

    square = Polyhedron(2, [(0, 0), (1, 0), (0, 1), (1, 1)])
    assert minkowski_sum_with_cone(square, Cone(2, [])) == square

    seg = Polyhedron(2, [(0, 0), (1, 0)])
    half_strip = minkowski_sum_with_cone(seg, Cone(2, [(0, -1)]))
    expected = region(2, ((1, 0), 1, False), ((-1, 0), 0, False), ((0, 1), 0, False))
    assert set_equal(to_partial(half_strip), expected)


def test_minkowski_prunes_redundancy():
    p = minkowski_sum_with_cone(
        Polyhedron(2, [(0, 0)], [(-1, 0)]),
        Cone(2, [(0, -1), (-1, -1)]),
    )
    assert set(p.rays) == {(-1, 0), (0, -1)}


def test_extreme_points_examples():
    square = Polyhedron(2, [(0, 0), (1, 0), (0, 1), (1, 1)])
    assert set(extreme_points(square)) == {(0, 0), (1, 0), (0, 1), (1, 1)}
    padded = Polyhedron(2, [(0, 0), (1, 0), (0, 1), (1, 1), (F(1, 2), F(1, 2))])
    assert set(extreme_points(padded)) == {(0, 0), (1, 0), (0, 1), (1, 1)}
    ray = Polyhedron(1, [(1,)], [(-1,)])
    assert extreme_points(ray) == ((1,),)


def test_extreme_points_with_lineality_is_empty():
    line = Polyhedron(2, [(0, 0)], [(0, 1), (0, -1)])
    assert extreme_points(line) == ()


def _ref_canonical_rays(rays, dim):
    """Reference: the distinct primitive nonzero directions, sorted."""
    return tuple(sorted({primitive(as_vec(r)) for r in rays} - {zero_vec(dim)}))


def test_extreme_rays_examples():
    quad = Polyhedron(2, [(0, 0)], [(-1, 0), (0, -1)])
    assert set(extreme_rays(quad)) == {(-1, 0), (0, -1)}
    rays = [(F(-1, 2), 0), (-3, 0), (0, 0), (F(2, 3), F(-4, 3)), (1, -2)]
    scaled = Polyhedron(2, [(0, 0)], rays)
    assert scaled.rays == ((-1, 0), (1, -2)) == _ref_canonical_rays(rays, 2)
    assert Cone(2, rays).generators == scaled.rays
    box = Polyhedron(2, [(0, 0), (1, 1)])
    assert extreme_rays(box) == ()
    fan = Polyhedron(2, [(0, 0)], [(-1, 0), (0, -1), (-1, -1)])
    assert set(extreme_rays(fan)) == {(-1, 0), (0, -1)}


def test_cone_rejects_a_lineality_vector_of_the_wrong_length():
    with pytest.raises(ValueError):
        Cone(2, (), ((1, 2, 3),))
    with pytest.raises(ValueError):
        Cone(2, (), ((1,),))


def test_cone_rejects_a_zero_lineality_vector():
    with pytest.raises(ValueError):
        Cone(2, (), ((0, 0),))
    with pytest.raises(ValueError):
        Cone(2, ((1, 0),), ((0, 1), (F(0), F(0))))
    assert Cone(2, (), ((0, F(-2, 3)),)).lineality_basis == ((0, -1),)


def test_extreme_rays_reject_lineality():
    strip = dd_convert_h_to_v([hrow(1, 0, 1), hrow(-1, 0, 1)], 2)
    with pytest.raises(LinealityPresentError):
        extreme_rays(strip)


def _lp_lineality_members(p):
    """LP reference: the rays whose opposite lies in the cone of all rays."""
    return [r for r in p.rays if in_cone(vneg(r), p.rays)]


def _line_from_pointed():
    """A pointed set plus a pointed cone whose sum contains the line x2 = 0."""
    return minkowski_sum_with_cone(Polyhedron(2, [(0, 0)], [(1, 0)]), Cone(2, [(-1, 0)]))


def test_recession_examples():
    box = Polyhedron(2, [(0, 0), (1, 1)])
    rc = recession_cone(box)
    assert rc.generators == () and rc.lineality_basis == ()
    ray = Polyhedron(1, [(1,)], [(-1,)])
    assert recession_cone(ray).generators == ((-1,),)
    strip = dd_convert_h_to_v([hrow(1, 0, 1), hrow(-1, 0, 1)], 2)
    rc = recession_cone(strip)
    assert rc.lineality_basis == ((0, 1),)
    line = _line_from_pointed()
    assert recession_cone(line).lineality_basis == ((1, 0),)
    half_space = Polyhedron(3, [(0, 0, 0)], [(1, 0, 0), (-1, 0, 0), (0, 1, 1), (0, -1, -1), (0, 0, 1)])
    assert recession_cone(half_space).lineality_basis == ((1, 0, 0), (0, 1, 1))
    for p in (box, ray, strip, line, half_space):
        members = _lp_lineality_members(p)
        expected = tuple(primitive(tuple(row)) for row in rref(members)[0]) if members else ()
        assert recession_cone(p).lineality_basis == expected, p


def test_contains_line_examples():
    strip = dd_convert_h_to_v([hrow(1, 0, 1), hrow(-1, 0, 1)], 2)
    assert contains_line(strip)
    assert not contains_line(Polyhedron(1, [(5,)]))
    assert contains_line(_line_from_pointed())
    assert not contains_line(Polyhedron(2, [(0, 0)], [(1, 0), (1, 1), (1, -1)]))
    assert contains_line(Polyhedron(2, [(0, 0)], [(1, 0), (-1, 1), (-1, -1)]))  # the rays span the plane
    assert contains_line(closure(PartialPolyhedron(2, ())))  # the whole plane, no hrep row
    rng = random.Random(43)
    lines = 0
    for _ in range(60):
        d = rng.randint(1, 3)
        p = Polyhedron(d, [rand_point(rng, d, span=2, max_den=1)],
                       [rand_point(rng, d, span=1, max_den=1) for _ in range(rng.randint(0, 5))])
        assert contains_line(p) == bool(_lp_lineality_members(p)), p
        lines += contains_line(p)
    assert 10 <= lines <= 50


def test_subset_examples():
    half_open = interval(-1, 1, lo_open=True)
    assert subset(half_open, interval(None, 1))
    assert not subset(interval(-1, 1), half_open)
    assert subset(interval(1, 1), half_open)


def test_subset_detects_strict_face():
    # [0,1] is not inside [0,1) but [0,1) is inside [0,1]
    assert not subset(interval(0, 1), interval(0, 1, hi_open=True))
    assert subset(interval(0, 1, hi_open=True), interval(0, 1))
    # the strict row x < 1 is attained on the closure, but [0,1) misses that face
    assert subset(interval(0, 1, hi_open=True), interval(-5, 1, hi_open=True))
    # empty sets are inside everything
    empty = region(1, ((1,), 0, True), ((-1,), 0, True))
    assert subset(empty, interval(5, 6))
    assert not subset(interval(5, 6), empty)


def test_set_equal_ignores_representation():
    a = region(1, ((2,), 2, False), ((-1,), 0, False))
    b = region(1, ((1,), 1, False), ((-3,), 0, False), ((1,), 7, False))
    assert set_equal(a, b)


# --- structural properties ---------------------------------------------------


def _random_line_free_poly(rng: random.Random):
    while True:
        d = rng.randint(1, 3)
        m = rng.randint(1, 6)
        rows = [(rand_point(rng, d, span=3), rand_fraction(rng)) for _ in range(m)]
        for j in range(d):
            if rng.random() < 0.6:
                e = tuple(F(1 if i == j else 0) for i in range(d))
                rows.append((e, F(rng.randint(1, 3))))
        p = dd_convert_h_to_v(rows, d)
        if p is not None and not contains_line(p):
            return p


def test_minkowski_weyl_reconstruction():
    """Line-free polyhedra equal the hull of extreme points plus extreme rays."""
    rng = random.Random(5)
    for _ in range(20):
        p = _random_line_free_poly(rng)
        rebuilt = Polyhedron(p.dim, extreme_points(p), extreme_rays(p))
        assert set_equal(to_partial(rebuilt), to_partial(p))


def _unit(r):
    lead = next(a for a in r if a != 0)
    return tuple(a / abs(lead) for a in r)


def test_extremality_is_intrinsic():
    rng = random.Random(7)
    for _ in range(12):
        p = _random_line_free_poly(rng)
        ext_v, ext_r = set(extreme_points(p)), set(extreme_rays(p))
        verts = list(p.vertices)
        rays = list(p.rays)
        # pad with redundant data: two midpoints and doubled/summed rays, so
        # that a redundant item is tested while another is still present
        if len(verts) >= 2:
            mid = tuple((a + b) / 2 for a, b in zip(verts[0], verts[1]))
            verts.append(mid)
            verts.append(tuple((a + b) / 2 for a, b in zip(verts[0], mid)))
        if rays:
            verts.append(tuple(a + b for a, b in zip(verts[0], rays[0])))
            rays.append(tuple(2 * x for x in rays[0]))
        if len(p.rays) >= 2:
            rays.append(tuple(a + b for a, b in zip(rays[0], rays[1])))
            rays.append(tuple(a + 2 * b for a, b in zip(rays[0], rays[1])))
        padded = Polyhedron(p.dim, tuple(verts), tuple(rays))
        assert set(extreme_points(padded)) == ext_v
        assert set(extreme_rays(padded)) == ext_r
        # LP reference: an item is extreme iff the other items do not generate it
        for vs, rs in ((p.vertices, p.rays), (padded.vertices, padded.rays)):
            assert not any(in_cone(vneg(r), rs) for r in rs)
            assert ext_v == {v for v in vs if not in_conv_plus_cone(v, [w for w in vs if w != v], rs)}
            assert ext_r == {_unit(r) for r in rs if not in_cone(r, [s for s in rs if s != r])}


def test_closure_idempotent_and_monotone():
    rng = random.Random(11)
    for _ in range(12):
        d = rng.randint(1, 2)
        m = rng.randint(1, 5)
        rows = tuple(
            Constraint(rand_point(rng, d, span=3), rand_fraction(rng), rng.random() < 0.5)
            for _ in range(m)
        )
        k = PartialPolyhedron(d, rows)
        hull = closure(k)
        if hull is None:
            continue
        again = closure(to_partial(hull))
        assert set_equal(to_partial(again), to_partial(hull))
        assert subset(k, to_partial(hull))


def test_closure_depends_only_on_the_set():
    """``closure(to_partial(p))`` is the double description of p's facets,
    whatever generators p lists, so equal regions get equal closures: 240
    seeded public-made polyhedra at d = 1..4, with redundant vertices,
    non-extreme rays and lines, each also listed as the closure lists it."""
    rng = random.Random(131)
    kinds = {"redundant": 0, "line": 0, "canonical": 0}
    for _ in range(240):
        d = rng.randint(1, 4)
        verts = [rand_point(rng, d, span=2) for _ in range(rng.randint(1, d + 2))]
        rays = [rand_point(rng, d, span=2, max_den=1) for _ in range(rng.randint(0, d + 1))]
        if rng.random() < 0.5:  # a midpoint of two vertices and a sum of two rays
            verts.append(tuple((a + b) / 2 for a, b in zip(verts[0], verts[-1])))
            rays += [tuple(map(sum, zip(*rays[:2])))] if len(rays) > 1 else []
        if rng.random() < 0.2:
            rays += [(F(1),) + (F(0),) * (d - 1), (F(-1),) + (F(0),) * (d - 1)]
        p = Polyhedron(d, verts, rays)
        hull = closure(to_partial(p))
        assert hull == dd_convert_h_to_v(p.hrep, d), p
        twin = Polyhedron(d, hull.vertices, hull.rays)
        assert to_partial(twin) == to_partial(p) and closure(to_partial(twin)) == hull, p
        kinds["line" if contains_line(hull) else "redundant" if hull != p else "canonical"] += 1
    assert min(kinds.values()) >= 30, kinds


@settings(max_examples=40, deadline=None)
@given(st.fractions(min_value=0, max_value=1, max_denominator=12))
def test_member_respects_convexity(lam):
    rng = random.Random(13)
    k = region(2, ((1, 1), 2, True), ((-1, 0), 1, False), ((0, -1), 1, False))
    pts = [p for p in (rand_point(rng, 2) for _ in range(60)) if member(k, p)]
    for x, y in zip(pts, pts[1:]):
        mix = tuple(lam * a + (1 - lam) * b for a, b in zip(x, y))
        assert member(k, mix)


def _brute_cone_rays(rows, dim):
    """Independent oracle: extreme rays of a pointed cone {<row,x> <= 0} are
    the feasible directions whose tight rows span dimension dim-1, found by
    enumerating row subsets of that rank.  Rows are scaled to primitive ints
    first (a positive factor keeps the cone), and each candidate direction is
    tried once."""
    from itertools import combinations
    from asymgeo.ratlp import null_space_basis, primitive, rank as _rank

    rows = [tuple(map(int, primitive(r))) for r in rows]

    def feasible(s):
        return all(sum(a * b for a, b in zip(r, s)) <= 0 for r in rows)

    if dim == 1:
        return {s for s in ((1,), (-1,)) if feasible(s)}
    out, tried = set(), set()
    for sub in combinations(rows, dim - 1):
        null = null_space_basis(sub, dim)
        if len(null) != 1:  # the subset has rank below dim - 1
            continue
        direction = tuple(map(int, null[0]))
        if direction in tried:
            continue
        tried.add(direction)
        for s in (direction, tuple(-c for c in direction)):
            if feasible(s):
                tight = [r for r in rows if sum(a * b for a, b in zip(r, s)) == 0]
                if _rank(tight) == dim - 1:
                    out.add(s)
    return out


def test_pointed_cone_rays_match_enumeration_oracle():
    from asymgeo.polyhedron import cone_from_rows
    from asymgeo.ratlp import null_space_basis

    rng = random.Random(17)
    checked = 0
    while checked < 40:
        d = rng.randint(2, 4)
        m = rng.randint(d, d + 4)
        rows = [rand_point(rng, d, span=2) for _ in range(m)]
        rows = [r for r in rows if any(c != 0 for c in r)]
        if not rows or null_space_basis(rows, d):
            continue  # oracle handles pointed cones only
        checked += 1
        gens, lin, *_ = cone_from_rows(rows, d)
        assert lin == ()
        assert set(gens) == _brute_cone_rays(rows, d), (d, rows)
    # degenerate cones (``_degenerate_cones``) and, at d=5, random rows with
    # duplicated and positively rescaled copies
    while True:
        rows = [rand_point(rng, 5, span=2) for _ in range(8)]
        if all(any(r) for r in rows) and not null_space_basis(rows, 5):
            break
    rows += [rows[0], rows[3], tuple(F(3, 2) * a for a in rows[1]), tuple(2 * a for a in rows[5])]
    for rows, dim, count in (*_degenerate_cones(), (rows, 5, 8)):
        gens, lin, *_ = cone_from_rows(rows, dim)
        assert lin == () and len(gens) == count
        assert set(gens) == _brute_cone_rays(rows, dim)


def _degenerate_cones():
    """Pointed cones where a ray is tight on many more than d - 1 rows, as
    (rows, dim, extreme ray count): the d=4 one-norm lattice functionals
    (each ray -e_i lies on 7 rows), the homogenized pyramid over an octagon
    (the apex lies on 8 rows), the d=5 one-norm lattice functionals (31
    rows, each ray on 15) and the homogenized rows (c, -b) and t >= 0 of a
    closed d=4 one-norm ball."""
    from asymgeo.cli.generators import gen_lattice_norm
    from asymgeo.norm import Closedness, ball

    one_norm = [tuple(F(mask >> j & 1) for j in range(4)) for mask in range(1, 16)]
    sides = [(1, 0, 2), (-1, 0, 2), (0, 1, 2), (0, -1, 2), (1, 1, 3), (1, -1, 3), (-1, 1, 3), (-1, -1, 3)]
    pyramid = [tuple(map(F, (a, b, h, -h))) for a, b, h in sides]
    pyramid += [tuple(map(F, (0, 0, -1, 0))), tuple(map(F, (0, 0, 0, -1)))]
    one_norm5 = [tuple(F(mask >> j & 1) for j in range(5)) for mask in range(1, 32)]
    q = gen_lattice_norm(4, "one")
    closed_ball = ball(q, (F(1, 2), F(-1), F(2, 3), F(0)), F(5, 2), Closedness.CLOSED).as_set
    homogenized = [(*c.normal, -c.rhs) for c in closed_ball.constraints] + [(0, 0, 0, 0, -1)]
    return [(one_norm, 4, 4), (pyramid, 4, 9), (one_norm5, 5, 5), (homogenized, 5, 8)]


def test_kernel_returns_the_lexicographic_rays_without_reduce(monkeypatch):
    """The double description picks its base without ``_reduce`` and inserts
    the other rows last to first; it returns what the lexicographic run (the
    frozen ``ref_pointed_cone_rays``) returns.  Inputs: every pointed run of
    build, decide and T1-T6 over 90 corpus seeds, random instances at
    d = 4..7 and one-norm lattice balls at d = 3..5; the degenerate cones of
    ``test_pointed_cone_rays_match_enumeration_oracle``; and rank-deficient
    rows, where both return None."""
    from asymgeo.cli.generators import gen_lattice_norm, gen_random_instance
    from asymgeo.compactness import Instance, Verdict, decide_compact, verify_theorems
    from asymgeo.norm import Closedness, ball

    captured = []
    real = polyhedron._pointed_cone_rays

    def capturing(rows, dim):
        captured.append((list(rows), dim))
        return real(rows, dim)

    cases = [gen_random_instance(d, 1000 * d + k) for d in (1, 2, 3) for k in range(30)]
    cases += [gen_random_instance(d, 1000 * d + k) for d in (4, 5, 6, 7) for k in range(4)]
    rng = random.Random(61)
    for d in (3, 4, 5):
        q = gen_lattice_norm(d, "one")
        for k in range(4):
            center = tuple(F(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(d))
            closedness = Closedness.CLOSED if k % 2 == 0 else Closedness.OPEN
            cases.append((q, ball(q, center, F(rng.randint(1, 6), rng.randint(1, 3)), closedness).as_set))
    monkeypatch.setattr(polyhedron, "_pointed_cone_rays", capturing)
    compact = 0
    for q, region in cases:
        inst = Instance.build(q, region)
        cert = decide_compact(inst)
        if cert.verdict is Verdict.COMPACT:
            verify_theorems(inst, cert)
            compact += 1
    monkeypatch.undo()
    assert compact >= 20 and {dim for _, dim in captured} >= set(range(2, 9))

    inputs = captured + [(polyhedron._prepare_rows(rows), dim) for rows, dim, _ in _degenerate_cones()]
    for _ in range(60):
        d = rng.randint(1, 6)
        span = [rand_point(rng, d, span=2, max_den=1) for _ in range(rng.randint(0, d - 1))]
        rows = []
        for _ in range(rng.randint(0, 2 * d + 2)):
            coeffs = [rng.randint(-2, 2) for _ in span]
            rows.append(tuple(int(sum(a * v[t] for a, v in zip(coeffs, span))) for t in range(d)))
        inputs.append((polyhedron._prepare_rows(rows), d))

    def forbidden(*args, **kwargs):
        raise AssertionError("the double description ran _reduce")

    for module in (ratlp, polyhedron):
        monkeypatch.setattr(module, "_reduce", forbidden)
    kinds = {"pointed": 0, "rank below dim": 0}
    for rows, dim in inputs:
        got = polyhedron._pointed_cone_rays(rows, dim)
        got = got and got[0]
        assert got == ref_pointed_cone_rays(rows, dim), (dim, rows)
        kinds["pointed" if got is not None else "rank below dim"] += 1
    assert kinds["pointed"] >= 200 and kinds["rank below dim"] >= 60, kinds


def test_cone_from_rows_takes_int_rows_as_their_rational_copies():
    """Int rows are prepared as they are (divided by a gcd above 1,
    deduplicated, sorted); the same rows as ``Fraction``s, each rescaled by
    a positive rational, some duplicated, give the same prepared rows and
    the same generators and lineality: 300 seeded row sets at d = 1..5,
    drawn from subspaces of every rank, with zero rows and common factors."""
    rng = random.Random(43)
    seen = {"pointed": 0, "lineality": 0, "common factor": 0}
    for _ in range(300):
        d = rng.randint(1, 5)
        basis = [[rng.randint(-2, 2) for _ in range(d)] for _ in range(rng.randint(1, d))]
        rows = []
        for _ in range(rng.randint(0, d + 4)):
            k = rng.choice((1, 1, 2, 3))
            rows.append(tuple(k * sum(rng.randint(-1, 2) * b[t] for b in basis) for t in range(d)))
        scales = [Fraction(rng.randint(1, 5), rng.randint(1, 4)) for _ in range(2 * len(rows))]
        rational = [tuple(s * a for a in r) for s, r in zip(scales, rows + rows[:rng.randint(0, len(rows))])]
        prepared = polyhedron._prepare_rows(rows)
        assert prepared == polyhedron._prepare_rows(rational), rows
        assert all(type(a) is int for r in prepared for a in r) and prepared == sorted(set(prepared))
        gens, lin, *_ = polyhedron.cone_from_rows(rows, d)
        assert (gens, lin) == polyhedron.cone_from_rows(rational, d)[:2], rows
        seen["lineality" if lin else "pointed"] += 1
        seen["common factor"] += any(gcd(*r) > 1 for r in rows)
    assert min(seen.values()) >= 40, seen


def test_h_to_v_takes_int_and_rational_rows_alike():
    """The same rows as ints and as ``Fraction``s give the same vertices,
    rays and integer rows (or both None)."""
    rng = random.Random(23)
    kinds = {"empty": 0, "polytope": 0, "rays": 0}
    for _ in range(120):
        d = rng.randint(1, 3)
        ints = [(tuple(rng.randint(-3, 3) for _ in range(d)), rng.randint(-2, 4))
                for _ in range(rng.randint(1, 7))]
        fracs = [(tuple(map(F, c)), F(b)) for c, b in ints]
        got, expected = dd_convert_h_to_v(ints, d), dd_convert_h_to_v(fracs, d)
        if expected is None:
            assert got is None
            kinds["empty"] += 1
            continue
        assert got.vertices == expected.vertices and got.rays == expected.rays
        assert got._rows == expected._rows
        assert all(type(a) is int for c, b in got._rows for a in (*c, b))
        kinds["rays" if got.rays else "polytope"] += 1
    assert min(kinds.values()) >= 15, kinds


def _brute_vertices(rows, dim):
    """Independent oracle: vertices are the feasible basic solutions, i.e.
    unique solutions of full-rank row subsets that satisfy every row."""
    from itertools import combinations
    from asymgeo.ratlp import rank as _rank

    out = set()
    for sub in combinations(range(len(rows)), dim):
        mat = [rows[i][0] for i in sub]
        if _rank(mat) != dim:
            continue
        inv = ref_invert(mat)
        x = tuple(sum(inv[i][j] * rows[sub[j]][1] for j in range(dim))
                  for i in range(dim))
        if all(dot(c, x) <= b for c, b in rows):
            out.add(x)
    return out


def test_extreme_points_match_basic_solution_oracle():
    rng = random.Random(19)
    checked = 0
    while checked < 40:
        d = rng.randint(1, 3)
        m = rng.randint(d, d + 4)
        rows = [(rand_point(rng, d, span=2), rand_fraction(rng)) for _ in range(m)]
        poly = dd_convert_h_to_v(rows, d)
        if poly is None or contains_line(poly):
            continue
        checked += 1
        assert set(extreme_points(poly)) == _brute_vertices(rows, d), (d, rows)


def test_vrep_and_cached_hrep_denote_the_same_set():
    rng = random.Random(29)
    for _ in range(20):
        d = rng.randint(1, 3)
        p = Polyhedron(
            d,
            [rand_point(rng, d) for _ in range(rng.randint(1, 4))],
            [rand_point(rng, d) for _ in range(rng.randint(0, 2))],
        )
        for _ in range(40):
            x = rand_point(rng, d)
            in_v = in_conv_plus_cone(x, p.vertices, p.rays)
            in_h = all(dot(c, x) <= b for c, b in p.hrep)
            assert in_v == in_h


def _subset_oracle(k1: PartialPolyhedron, k2: PartialPolyhedron) -> bool:
    """Independent inclusion route: k1 is inside k2 iff k1 meets no row's
    complement, where the complement of <c,x> <= b is the open side
    -<c,x> < -b (and closed for strict rows)."""
    from asymgeo.ratlp import vneg

    for c, b, strict in k2.constraints:
        negated = Constraint(vneg(c), -b, not strict)
        if not partial_is_empty(PartialPolyhedron(k1.dim, k1.constraints + (negated,))):
            return False
    return True


def test_subset_agrees_with_complement_oracle():
    rng = random.Random(23)
    agree_true = agree_false = 0
    for _ in range(250):
        d = rng.randint(1, 3)

        def draw():
            rows = tuple(
                Constraint(rand_point(rng, d, span=3), rand_fraction(rng), rng.random() < 0.5)
                for _ in range(rng.randint(1, d + 2))
            )
            return PartialPolyhedron(d, rows)

        k1, k2 = draw(), draw()
        got = subset(k1, k2)
        assert got == _subset_oracle(k1, k2), (k1, k2)
        agree_true += got
        agree_false += not got
    assert agree_true > 20 and agree_false > 20


def test_partial_is_empty_cases():
    assert partial_is_empty(region(1, ((1,), 0, True), ((-1,), 0, True)))
    assert not partial_is_empty(interval(0, 0))  # single point
    assert partial_is_empty(region(1, ((0,), 0, True)))  # 0 < 0 never holds
    assert not partial_is_empty(PartialPolyhedron(1, ()))  # whole line


def _random_half_open_region(rng: random.Random, d: int) -> PartialPolyhedron:
    """Small integer rows, so that tight strict rows, strips and empty sets occur.

    About one draw in six adds the row 0 < 0; about one in three adds the
    opposite of its first row, shifted to give a slab, a hyperplane or an
    empty relaxation.
    """
    rows = [Constraint(rand_point(rng, d, span=2, max_den=1), F(rng.randint(-2, 2)), rng.random() < 0.5)
            for _ in range(rng.randint(1, d + 3))]
    pick = rng.random()
    if pick < 0.15:
        rows.append(Constraint(zero_vec(d), F(0), True))
    elif pick < 0.45:
        c, b = rows[0].normal, rows[0].rhs
        rows.append(Constraint(vneg(c), -b + rng.randint(-1, 1), rng.random() < 0.5))
    rng.shuffle(rows)
    return PartialPolyhedron(d, tuple(rows))


def test_closure_emptiness_agrees_with_margin_lp():
    """``closure`` reads emptiness off the generators; the margin LP is the reference."""
    rng = random.Random(31)
    empty_relaxation = empty_region_only = nonempty = 0
    for _ in range(300):
        k = _random_half_open_region(rng, rng.randint(1, 3))
        assert (closure(k) is None) == partial_is_empty(k), k
        if dd_convert_h_to_v([(c.normal, c.rhs) for c in k.constraints], k.dim) is None:
            empty_relaxation += 1
        elif closure(k) is None:
            empty_region_only += 1
        else:
            nonempty += 1
    assert min(empty_relaxation, empty_region_only, nonempty) >= 20


def test_is_closed_agrees_with_the_support_scan():
    """``is_closed`` reads the closure's generators; the earlier support scan
    of each strict row over the closure is the reference.  720 seeded
    regions at d = 1..4: every other one has each strict row (c, b) split
    into c x <= b and a strict copy at b or b + 1, so closed regions with
    strict rows occur next to empty and half-open ones."""
    rng = random.Random(109)
    kinds = {"empty": 0, "closed with a strict row": 0, "not closed": 0}
    outcomes = {True: 0, False: 0}
    for n in range(720):
        d = rng.randint(1, 4)
        k = _random_half_open_region(rng, d)
        if n % 2:
            rows = []
            for c, b, strict in k.constraints:
                rows.append(Constraint(c, b, False))
                if strict:
                    rows.append(Constraint(c, b + rng.randint(0, 1), True))
            k = PartialPolyhedron(d, tuple(rows))
        got = is_closed(k)
        assert got == ref_is_closed(k), k
        outcomes[got] += 1
        if closure(k) is None:
            kinds["empty"] += 1
        elif not got:
            kinds["not closed"] += 1
        elif any(c.strict for c in k.constraints):
            kinds["closed with a strict row"] += 1
    assert min(outcomes.values()) >= 100, outcomes
    assert min(kinds.values()) >= 50, kinds


def test_meets_face_agrees_with_face_system():
    """A face of the closure meets the region iff the face system is nonempty."""
    rng = random.Random(37)
    met = missed = 0
    for _ in range(200):
        d = rng.randint(1, 3)
        k = _random_half_open_region(rng, d)
        hull = closure(k)
        if hull is None:
            continue
        normals = [zero_vec(d), rand_point(rng, d, span=2, max_den=1)]
        normals += [c.normal for c in k.constraints]
        for normal in normals:
            top = support_value(hull, normal)
            if top is None:
                continue
            face = k.constraints + (Constraint(normal, top, False), Constraint(vneg(normal), -top, False))
            got = _meets_face(k, hull, normal, top)
            assert got == (not partial_is_empty(PartialPolyhedron(d, face))), (k, normal)
            met += got
            missed += not got
    assert met >= 50 and missed >= 50


def _mixed_rational(rng: random.Random) -> Fraction:
    """Zero one time in four, else a signed fraction with denominator up to 7."""
    return F(0) if rng.random() < 0.25 else F(rng.randint(-9, 9), rng.randint(1, 7))


def _mixed_vec(rng: random.Random, d: int):
    return tuple(_mixed_rational(rng) for _ in range(d))


def test_predicates_match_fraction_reference():
    """``support_value``, ``member`` and ``_meets_face`` run on int generators
    and rows; they return what the frozen Fraction versions return, and the
    support value is still a ``Fraction``.  Polyhedra mix denominators, zero
    and negative entries, rays and lines; regions mix strict and non-strict
    rows with rational right-hand sides, and the points tried include the
    closure's vertices, where rows are tight."""
    rng = random.Random(43)
    unbounded = bounded = inside = outside = met = missed = 0
    for _ in range(250):
        d = rng.randint(1, 4)
        rays = [_mixed_vec(rng, d) for _ in range(rng.randint(0, 2))]
        if rays and rng.random() < 0.3:
            rays.append(vneg(rays[0]))
        poly = Polyhedron(d, [_mixed_vec(rng, d) for _ in range(rng.randint(1, 5))], rays)
        for direction in [zero_vec(d)] + [_mixed_vec(rng, d) for _ in range(4)]:
            got = support_value(poly, direction)
            assert got == ref_support_value(poly, direction)
            assert got is None or type(got) is Fraction
            unbounded += got is None
            bounded += got is not None

        rows = [Constraint(_mixed_vec(rng, d), _mixed_rational(rng), rng.random() < 0.5)
                for _ in range(rng.randint(1, d + 3))]
        k = PartialPolyhedron(d, tuple(rows))
        hull = closure(k)
        points = list(poly.vertices) + [_mixed_vec(rng, d) for _ in range(3)]
        if hull is not None:
            points += hull.vertices
        for x in points:
            got = member(k, x)
            assert got == ref_member(k, x)
            inside += got
            outside += not got
        if hull is None:
            continue
        for normal in [zero_vec(d), _mixed_vec(rng, d)] + [c.normal for c in k.constraints]:
            top = ref_support_value(hull, normal)
            if top is None:
                continue
            assert support_value(hull, normal) == top
            got = _meets_face(k, hull, normal, top)
            assert got == ref_meets_face(k, hull, normal, top), (k, normal)
            met += got
            missed += not got
    assert min(unbounded, bounded, inside, outside, met, missed) >= 50


def test_support_value_and_member_check_the_dimension():
    """The int predicates zip rows with points, so a length mismatch must be
    caught before any product is taken."""
    poly = Polyhedron(2, [(0, 0), (1, 2)], [(1, 0)])
    square = to_partial(Polyhedron(2, [(0, 0), (1, 0), (0, 1), (1, 1)]))
    for wrong in [(1,), (1, 0, 0)]:
        with pytest.raises(ValueError):
            support_value(poly, wrong)
        with pytest.raises(ValueError):
            member(square, wrong)


def test_v_to_h_rows_are_facets():
    """Every row but the affine-hull pairs is a facet of the homogenization:
    the generators tight on it have rank one below that of all generators."""
    rng = random.Random(41)
    for _ in range(80):
        d = rng.randint(1, 3)
        verts = [rand_point(rng, d, span=2, max_den=1) for _ in range(rng.randint(1, 5))]
        rays = [rand_point(rng, d, span=1, max_den=1) for _ in range(rng.randint(0, 3))]
        if len(verts) >= 2:
            verts.append(tuple((a + b) / 2 for a, b in zip(verts[0], verts[1])))
        if rays:
            verts.append(tuple(a + b for a, b in zip(verts[0], rays[0])))
            if rng.random() < 0.4:
                rays.append(vneg(rays[0]))
        p = Polyhedron(d, verts, rays)
        assert p.rays == _ref_canonical_rays(rays, d)
        gen_rows = [v + (F(1),) for v in p.vertices] + [r + (F(0),) for r in p.rays]
        cone_dim = rank(gen_rows)
        rows = set(p.hrep)
        for c, b in rows:
            if (vneg(c), -b) in rows:
                continue
            tight = [g for g in gen_rows if dot(c + (-b,), g) == 0]
            assert rank(tight) == cone_dim - 1, (p, c, b)


def test_vertexless_polyhedron_rejected():
    with pytest.raises(ValueError):
        Polyhedron(1, [])


def test_line_test_is_memoized_on_the_value(monkeypatch):
    """Lines and extremality are read off incidence bitmasks: contains_line,
    extreme_points, extreme_rays and minkowski_sum_with_cone run no
    elimination outside the double descriptions that make their rows, and
    the line test is memoized on the value.  A polytope answers it without
    reading a row, and a closure and a pruned sum carry the answer their
    construction found; a closure comes with the ray masks its double
    description found, and they are the incidence over its rows."""
    real_reduce, real_entry = ratlp._reduce, polyhedron.cone_from_rows
    inside, stray = [], []

    def entry(rows, dim):
        inside.append(rows)
        try:
            return real_entry(rows, dim)
        finally:
            inside.pop()

    def counting(rows, ncols=None):
        if not inside:
            stray.append(rows)
        return real_reduce(rows, ncols)

    monkeypatch.setattr(polyhedron, "cone_from_rows", entry)
    for module in (ratlp, polyhedron):
        monkeypatch.setattr(module, "_reduce", counting)

    poly = Polyhedron(3, [(0, 0, 0)], [(1, 0, 0), (0, 1, 0), (1, 1, 1), (0, 0, 1)])
    assert not contains_line(poly) and "_has_line" in poly.__dict__
    assert len(extreme_rays(poly)) == 3
    assert extreme_points(poly) == ((0, 0, 0),)

    box = Polyhedron(2, [(0, 0), (1, 0), (0, 1), (1, 1)])
    assert not contains_line(box) and extreme_rays(box) == ()
    assert "_rows" not in box.__dict__
    assert len(extreme_points(box)) == 4

    strip = closure(region(2, ((1, 0), 1, False), ((-1, 0), 1, False), ((2, 0), 5, True)))
    hull = closure(region(2, ((-1, 0), 0, True), ((0, -1), 0, False), ((-1, -1), 1, False)))
    assert contains_line(strip) and not contains_line(hull)
    for p in (strip, hull):
        assert "_int_hrep" not in p.__dict__
        assert p.__dict__["_ray_masks"] == ref_tight_masks(p._rows, [(r, 0) for r in p._rays])
    assert extreme_points(strip) == () and extreme_points(hull) == ((0, 0),)

    out = minkowski_sum_with_cone(Polyhedron(2, [(0, 0), (1, 1)], [(1, 0)]), Cone(2, ((0, 1),)))
    assert out == Polyhedron(2, [(0, 0)], [(1, 0), (0, 1)])
    assert out.__dict__["_has_line"] is False
    assert minkowski_sum_with_cone(hull, Cone(2, ((1, 0),))) == hull
    assert contains_line(_line_from_pointed())
    assert not stray, stray


def _with_redundant_rows(rng: random.Random, poly: Polyhedron):
    """The facets of ``poly`` (or ``0 <= 0`` when it is the whole space) with
    duplicate, positively rescaled, implied and ``0 <= 1`` rows added,
    shuffled: another inequality description of the same set."""
    d = poly.dim
    base = list(poly.hrep) or [(zero_vec(d), F(0))]
    rows = list(base)
    for _ in range(rng.randint(1, 4)):
        (c1, b1), (c2, b2) = rng.choice(base), rng.choice(base)
        s = F(rng.randint(1, 5), rng.randint(1, 3))
        rows += [
            (c1, b1),                                             # duplicate
            (tuple(s * a for a in c1), s * b1),                   # positive rescaling
            (tuple(a + b for a, b in zip(c1, c2)), b1 + b2),      # implied by two rows
            (c2, b2 + F(rng.randint(0, 3))),                      # implied, maybe slack
        ]
    rows.append((zero_vec(d), F(1)))                              # 0 <= 1
    rng.shuffle(rows)
    return rows


def test_seeded_rows_answer_as_the_facets_do():
    """The closure's incidence predicates read the region's own rows, which
    may repeat, rescale, imply or trivially hold; every answer equals the
    one read off the facets, and ``hrep`` still means the facets."""
    rng = random.Random(47)
    kinds = {"polytope": 0, "rays": 0, "line": 0}
    for _ in range(120):
        d = rng.randint(1, 3)
        verts = [rand_point(rng, d, span=2) for _ in range(rng.randint(1, 4))]
        rays = [rand_point(rng, d, span=1, max_den=1) for _ in range(rng.randint(0, 2))]
        if rays and rng.random() < 0.4:
            rays.append(vneg(rays[0]))
        rows = _with_redundant_rows(rng, Polyhedron(d, verts, rays))
        hull = closure(PartialPolyhedron(d, tuple(Constraint(c, b, False) for c, b in rows)))
        assert len(hull._rows) == len(rows)
        facets = Polyhedron(d, hull.vertices, hull.rays)
        assert hull == facets
        assert contains_line(hull) == contains_line(facets)
        assert extreme_points(hull) == extreme_points(facets)
        assert recession_cone(hull) == recession_cone(facets)
        if contains_line(hull):
            with pytest.raises(LinealityPresentError):
                extreme_rays(hull)
        else:
            assert extreme_rays(hull) == extreme_rays(facets)
        assert "_int_hrep" not in hull.__dict__
        assert hull._int_hrep == tuple((tuple(int(a) for a in c), int(b)) for c, b in hull.hrep)
        assert hull.hrep == facets.hrep
        kinds["line" if contains_line(hull) else "rays" if hull.rays else "polytope"] += 1
    assert min(kinds.values()) >= 15, kinds


def test_conversion_masks_survive_degenerate_rows():
    """The closure's masks are the DD's incidence mapped back to the region's
    own rows, and the facet conversion's are transposed to its generators:
    on regions whose rows repeat, rescale, imply or trivially hold
    (``_with_redundant_rows``), with random strict flags and the rows
    ``0 < 1``, ``0 <= 0`` and sometimes ``0 < 0`` added, at d = 1..4 with and without
    lines, the seeded masks equal ``ref_tight_masks`` on the same rows, a
    vertex lies in the region iff no strict row is tight on it (``member``),
    and the region is empty, by the masks, iff the margin LP says so.  The
    values the facets are converted for carry the masks of those facets."""
    rng = random.Random(89)
    kinds = {"line": 0, "empty": 0, "strict vertex": 0, "0 < 0": 0}
    for _ in range(150):
        d = rng.randint(1, 4)
        verts = [rand_point(rng, d, span=2) for _ in range(rng.randint(1, 4))]
        rays = [rand_point(rng, d, span=1, max_den=1) for _ in range(rng.randint(0, 2))]
        if rays and rng.random() < 0.4:
            rays.append(vneg(rays[0]))
        poly = Polyhedron(d, verts, rays)
        zero = zero_vec(d)
        rows = [Constraint(c, b, rng.random() < 0.3) for c, b in _with_redundant_rows(rng, poly)]
        rows += [Constraint(zero, F(1), True), Constraint(zero, F(0), False)]  # 0 < 1, 0 <= 0
        void = rng.random() < 0.1
        if void:
            rows.append(Constraint(zero, F(0), True))                          # 0 < 0
        k = PartialPolyhedron(d, tuple(rows))
        hull = closure(k)
        assert (hull is None) == partial_is_empty(k), k
        kinds["0 < 0"] += void
        if hull is None:
            kinds["empty"] += 1
            continue
        assert vars(poly)["_rows"] is poly._int_hrep  # its facets, converted for _with_redundant_rows
        for p in (hull, poly):
            assert vars(p)["_vert_masks"] == ref_tight_masks(p._rows, p._verts), p
            assert vars(p)["_ray_masks"] == ref_tight_masks(p._rows, [(r, 0) for r in p._rays]), p
        for v, mask in zip(hull.vertices, hull._vert_masks):
            assert (not mask & k._strict_mask) == member(k, v), (k, v)
            kinds["strict vertex"] += bool(mask & k._strict_mask)
        kinds["line"] += contains_line(hull)
    for rows, empty in (([((1,), 0, False), ((-1,), -1, False)], True),        # x <= 0, x >= 1
                        ([((1,), 0, False), ((-1,), 0, False), ((1,), 0, True)], True),  # x = 0, x < 0
                        ([((0, 0), 0, False), ((0, 0), 1, True), ((1, 0), 2, True)], False)):
        k = PartialPolyhedron(len(rows[0][0]), tuple(Constraint(*r) for r in rows))
        assert (closure(k) is None) == empty == partial_is_empty(k), k
    assert min(kinds.values()) >= 5, kinds


def test_incidence_extremality_matches_lp_reference():
    """Extreme points, extreme rays and lines read off incidence bitmasks
    equal the LP reference at d = 1..4, on closures whose rows repeat,
    rescale, imply or trivially hold, and on the same sets listed with
    redundant points and rays next to those rows: a vertex is extreme iff
    the other vertices and the rays do not generate it, a ray iff the other
    rays do not, and a line lies in the set iff the rays generate the
    opposite of one of them.  The line test a closure comes with equals
    rank(normals) < dim."""
    rng = random.Random(101)
    kinds = {"polytope": 0, "rays": 0, "line": 0}
    for _ in range(150):
        d = rng.randint(1, 4)
        verts = [rand_point(rng, d, span=2) for _ in range(rng.randint(1, 5))]
        rays = [rand_point(rng, d, span=1, max_den=1) for _ in range(rng.randint(0, 3))]
        if rays and rng.random() < 0.3:
            rays.append(vneg(rays[0]))
        rows = _with_redundant_rows(rng, Polyhedron(d, verts, rays))
        hull = closure(PartialPolyhedron(d, tuple(Constraint(c, b, False) for c, b in rows)))
        assert hull.__dict__["_has_line"] == (ref_rank([c for c, _ in rows]) < d)
        pts, rds = list(hull.vertices), list(hull.rays)
        if len(pts) >= 2:
            pts.append(tuple((a + b) / 2 for a, b in zip(pts[0], pts[1])))
        if rds:
            pts.append(tuple(a + b for a, b in zip(pts[0], rds[0])))
            rds.append(tuple(a + b for a, b in zip(rds[0], rds[-1])))
        padded = Polyhedron(d, pts, rds)
        object.__setattr__(padded, "_rows", hull._rows)  # with its masks, as every seeding site does
        object.__setattr__(padded, "_vert_masks", ref_tight_masks(hull._rows, padded._verts))
        object.__setattr__(padded, "_ray_masks", ref_tight_masks(hull._rows, [(r, 0) for r in padded._rays]))
        for p in (hull, padded):
            line = any(in_cone(vneg(r), p.rays) for r in p.rays)
            assert contains_line(p) == line, p
            assert extreme_points(p) == (() if line else tuple(
                v for v in p.vertices if not in_conv_plus_cone(v, [w for w in p.vertices if w != v], p.rays))), p
            if line:
                with pytest.raises(LinealityPresentError):
                    extreme_rays(p)
            else:
                assert extreme_rays(p) == tuple(sorted(
                    _unit(r) for r in p.rays if not in_cone(r, [s for s in p.rays if s != r]))), p
        kinds["line" if contains_line(hull) else "rays" if hull.rays else "polytope"] += 1
    assert min(kinds.values()) >= 15, kinds


def _cone_from_rows_null_space_first(rows, dim):
    """``cone_from_rows`` as it ran before the pointed double description
    came first: the null space of the rows is split off before any DD."""
    prepared = polyhedron._prepare_rows(rows)
    if not prepared:
        return (), tuple(tuple(int(j == i) for j in range(dim)) for i in range(dim))
    lin = tuple(tuple(int(a) for a in l) for l in null_space_basis(prepared, dim))
    if not lin:
        return tuple(polyhedron._pointed_cone_rays(prepared, dim)[0]), ()
    comp = [tuple(int(a) for a in w) for w in null_space_basis(lin, dim)]
    proj = polyhedron._prepare_rows([tuple(sum(a * b for a, b in zip(h, w)) for w in comp) for h in prepared])
    if not proj:
        return (), lin
    back = []
    for y in polyhedron._pointed_cone_rays(proj, len(comp))[0]:
        x = [sum(yi * w[t] for yi, w in zip(y, comp)) for t in range(dim)]
        g = gcd(*x)
        back.append(tuple(a // g for a in x))
    return tuple(sorted(back)), lin


def test_pointed_cones_take_no_null_space_elimination(monkeypatch):
    """A pointed cone goes through ``cone_from_rows`` without a null-space
    elimination (the pointed run finds the rank itself), and every row set
    returns the ``(gens, lin)`` that splitting the null space off first
    gives: 300 seeded int and rational row sets at d = 1..5, drawn from
    subspaces of every rank, with zero rows and empty row sets."""
    real = polyhedron._null_space

    def forbidden(*args):
        raise AssertionError("a pointed cone split off its null space")

    rng = random.Random(103)
    kinds = {"pointed": 0, "lineality": 0, "lineality only": 0}
    for _ in range(300):
        d = rng.randint(1, 5)
        rank_bound = d if rng.random() < 0.5 else rng.randint(0, d - 1)
        span = [rand_point(rng, d, span=2, max_den=1) for _ in range(rank_bound)]
        rows = []
        for _ in range(rng.randint(0, 2 * d + 2)):
            coeffs = [F(rng.randint(-2, 2), rng.randint(1, 3)) for _ in span]
            rows.append(tuple(sum((a * v[t] for a, v in zip(coeffs, span)), F(0)) for t in range(d)))
        if rng.random() < 0.5:
            rows = [tuple(int(a * 6) for a in r) for r in rows]
        expected = _cone_from_rows_null_space_first(rows, d)
        pointed = bool(rows) and ref_rank(rows) == d
        monkeypatch.setattr(polyhedron, "_null_space", forbidden if pointed else real)
        assert polyhedron.cone_from_rows(rows, d)[:2] == expected, (d, rows)
        kinds["pointed" if pointed else "lineality" if expected[0] else "lineality only"] += 1
    assert min(kinds.values()) >= 40, kinds


def test_cones_with_lineality_take_one_null_space_elimination(monkeypatch):
    """A cone with lineality runs one null-space elimination in
    ``cone_from_rows`` (its basis then cuts the cone as equation rows) and
    returns the ``(gens, lin)`` that splitting the null space off first
    gives: seeded int and rational row sets at d = 1..6 orthogonal to a
    random subspace of every dimension 1..d, with zero rows and, at each d,
    the empty row set."""
    real = polyhedron._null_space
    calls = []

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(polyhedron, "_null_space", counted)
    rng = random.Random(113)
    seen = set()
    kinds = {"lineality": 0, "lineality only": 0}
    for d in range(1, 7):
        cases = [[]]
        for k in range(1, d + 1):
            for _ in range(8):
                lineality = []
                while ref_rank(lineality) < k:
                    lineality = [rand_point(rng, d, span=2, max_den=1) for _ in range(k)]
                complement = null_space_basis(lineality, d)
                rows = []
                for _ in range(rng.randint(0, 2 * d + 2)):
                    coeffs = [F(rng.randint(-2, 2), rng.randint(1, 3)) for _ in complement]
                    rows.append(tuple(sum((a * w[t] for a, w in zip(coeffs, complement)), F(0))
                                      for t in range(d)))
                if rng.random() < 0.5:
                    rows = [tuple(int(a * 6) for a in r) for r in rows]
                cases.append(rows)
        for rows in cases:
            expected = _cone_from_rows_null_space_first(rows, d)
            calls.clear()
            assert polyhedron.cone_from_rows(rows, d)[:2] == expected, (d, rows)
            assert len(calls) == 1, (d, rows)
            seen.add((d, len(expected[1])))
            kinds["lineality" if expected[0] else "lineality only"] += 1
    assert seen == {(d, k) for d in range(1, 7) for k in range(1, d + 1)}, seen
    assert min(kinds.values()) >= 40, kinds


def test_generator_inclusion_agrees_with_subset():
    """poly <= region as ``_within`` reads it off the support values of poly
    agrees with the generator test (every vertex a member, no row ascending
    along a ray) and with ``subset`` on poly's H-representation: 300 seeded
    polyhedra, with and without rays, against half-open regions with
    ``0 < 0`` rows and opposite row pairs."""
    rng = random.Random(83)
    seen = {(with_rays, inside): 0 for with_rays in (False, True) for inside in (False, True)}
    for _ in range(300):
        d = rng.randint(1, 3)
        k = _random_half_open_region(rng, d)
        hull = closure(k)
        pool = [rand_point(rng, d, span=2)]
        rays = []
        if hull is not None:
            # points of the region: its members among the closure's vertices
            # and the centroid of a few vertices, pushed along the closure's rays
            pool += [v for v in hull.vertices if member(k, v)]
            picked = rng.sample(hull.vertices, min(len(hull.vertices), rng.randint(1, 3)))
            centroid = tuple(sum(col) / len(picked) for col in zip(*picked))
            pool += [tuple(a + b for a, b in zip(centroid, r)) for r in hull.rays[:1]] + [centroid] * 4
        verts = rng.sample(pool, rng.randint(1, min(3, len(pool))))
        if rng.random() < (0.7 if hull is not None and hull.rays else 0.4):
            if hull is not None and hull.rays and rng.random() < 0.8:
                rays.append(rng.choice(hull.rays))
            else:
                rays.append(rand_point(rng, d, span=1, max_den=1))
        poly = Polyhedron(d, verts, rays)
        got = polyhedron._within(poly, k)
        by_generators = (all(ref_member(k, v) for v in poly.vertices)
                         and all(dot(c, r) <= 0 for r in poly.rays for c, _, _ in k.constraints))
        assert got == by_generators == subset(to_partial(poly), k), (poly, k)
        seen[bool(poly.rays), got] += 1
    assert min(seen.values()) >= 20, seen


def test_minkowski_shortcut_returns_the_union_value(monkeypatch):
    """A pointed cone whose generators are all rays of poly adds nothing:
    the sum is the value the generator union gives (vertices, rays and
    facets).  It shares poly's rows, masks and facets only when poly's rows
    are its facets; a closure keeps the rows it was converted from, and its
    sum gets no rows.  The sum itself runs no facet conversion, and a sum
    other than poly has its facets as its rows.  Cases include polyhedra
    with a line, the cone {0}, and cones with lineality, which must not take
    the shortcut."""
    real_facets, runs = polyhedron._int_facets, []

    def facets(poly):
        runs.append(poly)
        return real_facets(poly)

    monkeypatch.setattr(polyhedron, "_int_facets", facets)
    rng = random.Random(89)
    kinds = {"shortcut": 0, "line": 0, "zero cone": 0, "lineality": 0}
    for n in range(160):
        d = rng.randint(1, 3)
        verts = [rand_point(rng, d, span=2) for _ in range(rng.randint(1, 4))]
        rays = [rand_point(rng, d, span=1, max_den=1) for _ in range(rng.randint(0, 3))]
        if rays and rng.random() < 0.3:
            rays.append(vneg(rays[0]))
        poly = Polyhedron(d, verts, rays)
        if n % 2 == 0:  # a closure, whose rows are the ones it was converted from
            poly = dd_convert_h_to_v(poly.hrep, d)
        gens = [r for r in poly.rays if rng.random() < 0.6]
        lineality = ()
        if rng.random() < 0.25:
            lineality = (rand_point(rng, d, span=1, max_den=1),)
            if all(a == 0 for a in lineality[0]):
                lineality = ()
        cone = Cone(d, gens, lineality)
        assert cone.generators == _ref_canonical_rays(gens, d)
        if n % 4 == 2:
            poly.hrep  # facets of a closure known before the sum
        total = Polyhedron(d, poly.vertices, poly.rays + cone.generators
                           + cone.lineality_basis + tuple(vneg(l) for l in cone.lineality_basis))
        expected = total if contains_line(total) else Polyhedron(d, extreme_points(total), extreme_rays(total))
        had_hrep = "_int_hrep" in poly.__dict__
        runs.clear()
        got = minkowski_sum_with_cone(poly, cone)
        shortcut = not cone.lineality_basis
        if shortcut and not contains_line(poly):
            # no facets are computed for the sum; other values than a
            # closure have computed theirs to read incidence
            assert runs == [poly] * (n % 2)
            assert ("_int_hrep" in poly.__dict__) == (had_hrep or n % 2 == 1)
            shared = vars(poly).get("_int_hrep") is poly._rows
            assert shared == (n % 2 == 1)
            assert vars(got).get("_rows") is (poly._rows if shared else None)
            assert ("_int_hrep" in got.__dict__) == ("_vert_masks" in got.__dict__) == shared
        elif shortcut:
            assert got is poly
        else:
            assert got is not poly
        assert got == expected, (poly, cone)
        assert got.vertices == expected.vertices and got.rays == expected.rays
        assert got.hrep == Polyhedron(d, expected.vertices, expected.rays).hrep
        assert got is poly or got._rows is got._int_hrep
        kinds["lineality" if cone.lineality_basis else "line" if contains_line(poly)
              else "zero cone" if not cone.generators else "shortcut"] += 1
    assert min(kinds.values()) >= 15, kinds
