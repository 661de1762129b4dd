"""Representation conversion, membership, extreme structure, inclusion."""

from __future__ import annotations

import random
from collections import Counter
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from asymgeo import polyhedron, ratlp
from asymgeo.cli import generators
from asymgeo.cli.suite import _check, reference_catalog
from asymgeo.polyhedron import (
    Cone,
    Constraint,
    LinealityPresentError,
    PartialPolyhedron,
    Polyhedron,
    _Incidence,
    _int_facets,
    _meets_face,
    _scan_support,
    _sorted_points,
    closure,
    contains_line,
    dd_convert_h_to_v,
    extreme_points,
    extreme_rays,
    is_closed,
    member,
    minkowski_sum_with_cone,
    partial_is_empty,
    recession_cone,
    set_equal,
    subset,
    to_partial,
)
from asymgeo.ratlp import _clear, as_vec, dot, rank, vneg, zero_vec

from support import (
    in_cone,
    in_conv_plus_cone,
    interval,
    primitive,
    rand_fraction,
    rand_point,
    rank_two_rows,
    ref_invert,
    ref_is_closed,
    ref_meets_face,
    ref_member,
    ref_null_space_basis,
    ref_partial_is_empty,
    ref_basis,
    ref_pointed_cone_rays,
    ref_rank,
    ref_rref,
    ref_support_value,
    ref_tight_masks,
    with_redundant_rows,
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


def test_sorted_points_is_the_lexicographic_order_of_the_fractions():
    """``_sorted_points`` orders int points (y, t) as the tuples of
    ``Fraction``s y / t sort, on seeded random sets at d = 1..12 with
    denominators up to 10**12, handed over shuffled.  Coordinates drawn
    from a short list of values make many points agree on a prefix, so the
    order is often decided past the first coordinate."""
    rng = random.Random(4601)
    for d in range(1, 13):
        for _ in range(12):
            dens = [1, rng.randint(2, 10**3), rng.randint(2, 10**12), rng.randint(2, 10**12)]
            common = [Fraction(rng.randint(-10**6, 10**6), rng.choice(dens)) for _ in range(3)]

            def draw():
                if rng.random() < 0.6:
                    return rng.choice(common)
                return Fraction(rng.randint(-10**9, 10**9), rng.choice(dens))

            points = {(tuple(y), t) for t, y in (_clear([draw() for _ in range(d)]) for _ in range(rng.randint(0, 40)))}
            shuffled = list(points)
            rng.shuffle(shuffled)
            want = tuple(sorted(points, key=lambda yt: [Fraction(a, yt[1]) for a in yt[0]]))
            assert _sorted_points(shuffled) == want, d


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


def test_a_pruned_sum_is_made_with_its_unions_record():
    """A pruned sum takes the incidence record of the union it prunes, less
    the masks of the generators it drops: the very rows and their
    ``facets`` flag, here rows that are not the facets (one of them
    redundant), and the masks of the generators it keeps.  Its extreme
    points and facets are those of its set."""
    p = Polyhedron(2, [(0, 0), (1, 0), (2, 0), (0, 2)])  # (1, 0) is not extreme
    rows = (((-1, 0), 0), ((0, -1), 0), ((1, 1), 2), ((1, 0), 3))  # x <= 3 is redundant
    vars(p)["_incidence"] = _Incidence(rows, ref_tight_masks(rows, p._verts), (), False)
    got = minkowski_sum_with_cone(p, Cone(2, []))
    assert got is not p and got.vertices == ((0, 0), (0, 2), (2, 0))
    inc = vars(got)["_incidence"]
    assert inc.rows is p._rows and inc.facets is False
    assert (inc.verts, inc.rays) == (ref_tight_masks(rows, got._verts), ())
    plain = Polyhedron(2, got.vertices)
    assert extreme_points(got) == extreme_points(plain) and got.hrep == plain.hrep


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
    with pytest.raises(ValueError, match="^lineality basis vector of length 3 in dimension 2$"):
        Cone(2, (), ((1, 2, 3),))
    with pytest.raises(ValueError, match="^lineality basis vector of length 1 in dimension 2$"):
        Cone(2, (), ((1,),))
    # the generators are checked first, then each basis vector in turn
    with pytest.raises(ValueError, match="^ray of length 1 in dimension 2$"):
        Cone(2, ((1,),), ((1, 2, 3),))
    with pytest.raises(ValueError, match="^lineality basis vector of length 1 in dimension 2$"):
        Cone(2, (), ((1,), (0, 0)))


def test_cone_rejects_a_zero_lineality_vector():
    with pytest.raises(ValueError, match="^a lineality basis vector must be nonzero$"):
        Cone(2, (), ((0, 0),))
    with pytest.raises(ValueError, match="^a lineality basis vector must be nonzero$"):
        Cone(2, ((1, 0),), ((0, 1), (F(0), F(0))))
    with pytest.raises(ValueError, match="^a lineality basis vector must be nonzero$"):
        Cone(2, (), ((0, 0), (1,)))
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


def _many_lineality_members():
    """Polyhedra whose lineality members outnumber the dimension: a plane in
    R^4 listed by 16 directions of both signs, with a pointed ray off it,
    and a 3-space in R^4 by 26."""
    u, v, w = (1, 2, 0, -1), (0, 1, 1, 3), (2, 0, -1, 1)
    combos = [(p, q) for p in range(-2, 3) for q in range(-2, 3) if gcd(p, q) == 1]
    plane = Polyhedron(4, [(0, 0, 0, 0), (1, 1, 0, 0)],
                       [tuple(p * a + q * b for a, b in zip(u, v)) for p, q in combos] + [(1, 0, 0, 0)])
    space = Polyhedron(4, [(0, 0, 0, 0)], [tuple(p * a + q * b + t * c for a, b, c in zip(u, v, w))
                                          for p in (-1, 0, 1) for q in (-1, 0, 1) for t in (-1, 0, 1)])
    return plane, space


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
    plane, space = _many_lineality_members()
    for p, members in ((plane, 16), (space, 26)):
        assert len(_lp_lineality_members(p)) == members > p.dim
    for p in (box, ray, strip, line, half_space, plane, space):
        members = _lp_lineality_members(p)
        expected = tuple(primitive(tuple(row)) for row in ref_rref(members)[0]) if members else ()
        assert recession_cone(p).lineality_basis == expected, p


def test_reduce_gets_only_independent_rows(monkeypatch):
    """Every elimination hands ``_reduce`` independent rows, those
    ``_basis`` picks, so it never carries a block wider than the rank:
    each call makes as many pivots as it gets rows.  Over the reference
    suite, a corpus sample at d <= 3, the recession cones of
    ``_many_lineality_members`` and ``rank`` and ``_null_space`` of 400
    rank-2 rows."""
    reduce_rows = ratlp._reduce
    calls = []

    def independent(rows):
        work, pivots, det = reduce_rows(rows)
        calls.append((len(rows), len(pivots)))
        return work, pivots, det

    for module in (ratlp, polyhedron):
        monkeypatch.setattr(module, "_reduce", independent)
    for entry in reference_catalog():
        _check(entry.name, entry.norm, entry.region)
    for d in (1, 2, 3):
        for k in range(200):
            _check("corpus", *generators.gen_random_instance(d, 1000 * d + k))
    for p in _many_lineality_members():
        recession_cone(p)
    rows = rank_two_rows()
    assert rank(rows) == 2 and len(ratlp._null_space(rows, 4)) == 2
    assert all(n == pivots for n, pivots in calls), calls
    assert sum(n > 1 for n, _ in calls) >= 3, calls


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
    from asymgeo.ratlp import rank as _rank

    rows = [tuple(map(int, primitive(r))) for r in rows]

    def feasible(s):
        return all(sum(a * b for a, b in zip(r, s)) <= 0 for r in rows)

    if dim == 1:
        return {s for s in ((1,), (-1,)) if feasible(s)}
    out, tried = set(), set()
    for sub in combinations(rows, dim - 1):
        null = ref_null_space_basis(sub, dim)
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

    rng = random.Random(17)
    checked = 0
    while checked < 40:
        d = rng.randint(2, 4)
        m = rng.randint(d, d + 4)
        rows = [rand_point(rng, d, span=2) for _ in range(m)]
        rows = [r for r in rows if any(c != 0 for c in r)]
        if not rows or ref_null_space_basis(rows, d):
            continue  # oracle handles pointed cones only
        checked += 1
        gens, lin, *_ = cone_from_rows(rows, d)
        assert lin == ()
        assert set(gens) == _brute_cone_rays(rows, d), (d, rows)
    # degenerate cones (``_degenerate_cones``) and, at d=5, random rows with
    # duplicated and positively rescaled copies
    while True:
        rows = [rand_point(rng, 5, span=2) for _ in range(8)]
        if all(any(r) for r in rows) and not ref_null_space_basis(rows, 5):
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
    the other rows in the order the base elimination reads off the input
    (last to first, or first to last on a degenerate one); it returns what
    the lexicographic run (the frozen ``ref_pointed_cone_rays``) returns,
    whichever order it took.  Inputs: every pointed run of
    build, decide and T1-T6 over 90 corpus seeds, random instances at
    d = 4..7 and one-norm lattice balls at d = 3..5; the degenerate cones of
    ``test_pointed_cone_rays_match_enumeration_oracle``; random rows at
    d = 2..7 with a duplicate and a rescaled copy (the local tangent-cone
    tests of the pipeline start from the closure's edges and run no base,
    so these keep the pointed count up); and rank-deficient rows, where
    both return None."""
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
    for _ in range(80):
        d = rng.randint(2, 7)
        rows = [tuple(rng.randint(-3, 3) for _ in range(d)) for _ in range(rng.randint(d, 2 * d + 3))]
        rows += [rng.choice(rows), tuple(2 * a for a in rng.choice(rows))]
        inputs.append((rows, d))

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


def _homogenized(region):
    """The int rows (c, -b) of a region's closure and ``t >= 0``, in
    dimension ``region.dim + 1``: the rows of its closure's double description."""
    return [(*c, -b) for c, b, _ in region._rows] + [(0,) * region.dim + (-1,)]


def _ref_nearest_first(rows, dim):
    """Does the double description insert ``rows`` (rank ``dim``) first to
    last?  The frozen elimination ``ref_basis`` picks the base out of the
    rows sorted by their primitive forms; the order is first to last iff it
    passes over, before its last pick, a nonzero row whose primitive form
    no earlier row has."""
    keys = sorted(primitive(r) for r in rows)
    picks = ref_basis([[int(a) for a in k] for k in keys], dim)[1]
    return any(any(keys[j]) and keys[j] not in keys[:j] for j in range(picks[-1]) if j not in picks)


def test_insertion_order_is_read_off_the_base_elimination(monkeypatch):
    """A pointed run hands ``_cut`` the non-base rows in the order of their
    primitive forms (lexicographic, ties by position) when the base
    elimination passed over a nonzero row that is no copy of the row
    before it (``_ref_nearest_first``), and in the reverse order otherwise;
    its rays are the frozen ``ref_pointed_cone_rays`` either way.
    First to last: the homogenized closed balls of the one-norm lattice
    gauge at d = 3..6.  Last to first: boxes (balls of the symmetric sup
    norm), random rows in general position, the 16- and 64-segment arc
    hulls, and the same random rows at d = 6-7 with their lexicographically
    first row duplicated (as is or rescaled) and a zero row added, copies
    the rule must not count.  Runs whose two orders coincide are not
    counted."""
    from asymgeo.cli.generators import gen_arc_hull, gen_lattice_norm
    from asymgeo.norm import Closedness, ball

    rng = random.Random(71)
    families = {"one-norm ball": [], "box": [], "general position": [], "arc hull": [], "first row copied": []}
    for d in (3, 4, 5, 6):
        q = gen_lattice_norm(d, "one")
        for _ in range(3):
            center = tuple(F(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(d))
            region = ball(q, center, F(rng.randint(1, 6), rng.randint(1, 3)), Closedness.CLOSED).as_set
            families["one-norm ball"].append((_homogenized(region), d + 1))
    for d in (1, 2, 3, 4, 5, 6):
        for _ in range(3):
            center = tuple(F(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(d))
            rows = []
            for j in range(d):
                lo, hi = sorted((center[j] - rng.randint(1, 4), center[j] + rng.randint(1, 4)))
                rows += [(tuple(F(int(i == j)) for i in range(d)), hi), (tuple(F(-int(i == j)) for i in range(d)), -lo)]
            region = PartialPolyhedron(d, tuple(Constraint(c, b, False) for c, b in rows))
            families["box"].append((_homogenized(region), d + 1))
    for _ in range(40):
        d = rng.randint(2, 7)
        rows = [tuple(rng.randint(-999, 999) for _ in range(d)) for _ in range(rng.randint(d + 1, 2 * d + 3))]
        families["general position"].append((rows, d))
        if d >= 6:
            first = min(rows, key=primitive)
            copy = first if rng.random() < 0.5 else tuple(3 * a for a in first)
            families["first row copied"].append((rows + [copy, (0,) * d], d))
    for n in (16, 64):
        families["arc hull"].append((_homogenized(gen_arc_hull(n)[1]), 4))

    handed = []
    real = polyhedron._cut

    def recording(rays, masks, rows, dim):
        rows = list(rows)
        handed.append([i for i, _ in rows])
        return real(rays, masks, rows, dim)

    monkeypatch.setattr(polyhedron, "_cut", recording)
    sides = Counter()
    for family, cases in families.items():
        for rows, dim in cases:
            handed.clear()
            got = polyhedron._pointed_cone_rays(rows, dim)
            assert got is not None and got[0] == ref_pointed_cone_rays(rows, dim), (family, rows)
            order = sorted(range(len(rows)), key=lambda i: primitive(rows[i]))
            base = set(range(len(rows))) - set(handed[0])
            forward = [i for i in order if i not in base]
            nearest = _ref_nearest_first(rows, dim)
            assert handed == [forward if nearest else forward[::-1]], (family, rows)
            if forward != forward[::-1]:
                sides[family, nearest] += 1
    assert set(sides) == {("one-norm ball", True), ("box", False), ("general position", False),
                          ("arc hull", False), ("first row copied", False)}, sides
    assert sides["one-norm ball", True] >= 12 and sides["first row copied", False] >= 8, sides
    assert sides["general position", False] + sides["box", False] >= 40 and sides["arc hull", False] == 2, sides


def test_insertion_from_a_cone_s_rays_is_the_cold_run():
    """``_cut`` started from a pointed cone's extreme rays and their masks
    (the frozen lexicographic run ``ref_pointed_cone_rays`` on the first
    rows, and ``ref_tight_masks``) and handed the other rows returns the
    extreme rays of the cold run on all rows, sorted, each with the mask of
    every row tight on it.  Random cones at d = 2..6, among them
    lower-dimensional ones (a row and its negative), with duplicate,
    rescaled and zero rows, before or after the split, and rows that cut
    the cone down to {0}; then degenerate ones: the homogenized closed
    balls of the one-norm lattice gauge at d = 3..5, the homogenized
    ``with_redundant_rows`` of random polyhedra, the same with every row
    tripled, and cones cut by equation pairs (a row and its negative, as
    the lineality path inserts them); last, the many-row and
    high-dimension shapes that a new pairing or conflict list would change:
    the homogenized closures of the 16- and 64-segment arc hulls and of
    random instances at d = 7 and 8 (seeds 1000 * d + 0 and 1), five
    seeded shuffles of each.  Both sides of the simple-ray shortcut run:
    rays tight on exactly d - 1 rows, which skip the holder scan, and rays
    tight on more, which the scan decides."""
    from asymgeo.cli.generators import gen_arc_hull, gen_lattice_norm, gen_random_instance
    from asymgeo.norm import Closedness, ball

    rng = random.Random(97)
    kinds = {"flat": 0, "zero": 0, "empty": 0, "checked": 0}
    cases = []
    while len(cases) < 170:
        d = rng.randint(2, 6)
        rows = [tuple(rng.randint(-3, 3) for _ in range(d)) for _ in range(rng.randint(d, 2 * d + 2))]
        if rng.random() < 0.3:
            rows.append(tuple(-a for a in rng.choice(rows)))
        if rng.random() < 0.4:
            rows += [rng.choice(rows), tuple(3 * a for a in rng.choice(rows))]
        if rng.random() < 0.3:
            rows.append((0,) * d)
        cases.append(("random", rows, d))
    for d in (3, 4, 5):
        q = gen_lattice_norm(d, "one")
        for _ in range(6):
            center = tuple(F(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(d))
            region = ball(q, center, F(rng.randint(1, 6), rng.randint(1, 3)), Closedness.CLOSED).as_set
            cases.append(("one-norm ball", _homogenized(region), d + 1))
    for _ in range(60):
        d = rng.randint(2, 4)
        poly = Polyhedron(d, [rand_point(rng, d, span=2) for _ in range(rng.randint(d + 1, d + 4))],
                          [rand_point(rng, d, span=1, max_den=1) for _ in range(rng.randint(0, 1))])
        rows = [ratlp._clear((*c, -b))[1] for c, b in with_redundant_rows(rng, poly)] + [(0,) * d + (-1,)]
        cases.append(("redundant", rows, d + 1))
        cases.append(("tripled", [r for r in rows for _ in range(3)], d + 1))
        if rng.random() < 0.5:
            e = tuple(rng.randint(-2, 2) for _ in range(d + 1))
            cases.append(("equation pair", rows + [e, vneg(e)], d + 1))
    for n in (16, 64):
        cases += [("arc hull", _homogenized(gen_arc_hull(n)[1]), 4)] * 5
    for d in (7, 8):
        for k in (0, 1):
            cases += [(f"random d={d}", _homogenized(gen_random_instance(d, 1000 * d + k)[1]), d + 1)] * 5
    for kind, rows, d in cases:
        rows = list(rows)
        rng.shuffle(rows)
        split = rng.randint(d, len(rows))
        while split < len(rows) and ref_rank(rows[:split]) < d:
            split += 1
        if ref_rank(rows[:split]) < d:
            continue
        rays = ref_pointed_cone_rays(rows[:split], d)
        masks = ref_tight_masks([(r, 0) for r in rows[:split]], [(g, 1) for g in rays])
        got = polyhedron._cut(rays, masks, enumerate(rows[split:], split), d)
        expected = ref_pointed_cone_rays(rows, d)
        full = ref_tight_masks([(r, 0) for r in rows], [(g, 1) for g in expected])
        assert got == (expected, list(full)), (d, rows, split)
        kinds["checked"] += 1
        kinds[kind] = kinds.get(kind, 0) + 1
        kinds["flat"] += any(vneg(r) in rows for r in rows if any(r))
        kinds["zero"] += (0,) * d in rows
        kinds["empty"] += not expected
        kinds["simple"] = kinds.get("simple", 0) + any(m.bit_count() == d - 1 for m in full)
        kinds["not simple"] = kinds.get("not simple", 0) + any(m.bit_count() > d - 1 for m in full)
    assert min(kinds.values()) >= 10 and kinds["checked"] >= 300, kinds


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


def _tight_bits(rows, g):
    """The rows tight on g as a bitmask, bit i for ``rows[i]``, by dot products."""
    return sum(1 << i for i, r in enumerate(rows) if sum((a * b for a, b in zip(r, g)), F(0)) == 0)


def test_cone_from_rows_masks_index_the_given_rows():
    """Bit i of each generator's mask is ``rows[i]`` as the caller passed
    it, and the generators and lineality are those of the sorted,
    deduplicated rows: the degenerate cones, cones with lineality and random
    rows at d = 2..6, each as drawn and with duplicates, positive multiples
    (int and rational), zero rows and the order shuffled."""
    rng = random.Random(131)
    cases = [(rows, dim) for rows, dim, _ in _degenerate_cones()]
    for d in range(2, 7):
        for _ in range(12):
            cases.append(([rand_point(rng, d, span=2, max_den=1) for _ in range(rng.randint(1, d + 4))], d))
        # orthogonal to a line or a plane: the cone has lineality
        for k in (1, 2):
            lineality = [rand_point(rng, d, span=2, max_den=1) for _ in range(k)]
            complement = ref_null_space_basis(lineality, d)
            cases.append(([tuple(sum((rng.randint(-2, 2) * w[t] for w in complement), F(0)) for t in range(d))
                           for _ in range(rng.randint(1, d + 3))], d))
    kinds = {"duplicate": 0, "zero": 0, "lineality": 0, "pointed": 0}
    for rows, d in cases:
        rows = [tuple(map(F, r)) for r in rows]
        variants = [rows]
        for _ in range(3):
            messy = rows + [rng.choice(rows) for _ in range(rng.randint(1, 3))]
            k, q = rng.randint(2, 4), F(rng.randint(1, 5), rng.randint(2, 4))
            messy += [tuple(k * a for a in rng.choice(rows)), tuple(q * a for a in rng.choice(rows))]
            messy += [(F(0),) * d] * rng.randint(0, 2)
            rng.shuffle(messy)
            variants.append(messy)
        expected = polyhedron.cone_from_rows(polyhedron._prepare_rows(rows), d)[:2]
        for given in variants:
            ints = [tuple(int(a) for a in r) for r in given] if all(a.denominator == 1 for r in given for a in r) else None
            for form in filter(None, (given, ints)):
                gens, lin, masks = polyhedron.cone_from_rows(form, d)
                assert (gens, lin) == expected, (d, form)
                assert len(masks) == len(gens)
                assert list(masks) == [_tight_bits(given, g) for g in gens], (d, form)
            kinds["duplicate"] += len(set(given)) < len(given)
            kinds["zero"] += not all(any(r) for r in given)
        kinds["lineality" if expected[1] else "pointed"] += 1
    assert min(kinds.values()) >= 10, kinds


def test_conversions_reject_rows_of_the_wrong_length():
    """A row shorter or longer than the dimension is refused, naming its
    length, by ``dd_convert_h_to_v`` and ``cone_from_rows``; neither zips it
    against the others to a wrong answer.  ``ratlp._null_space`` takes the
    rows ``cone_from_rows`` has sized."""
    box = [((1, 0, 0), 1), ((-1, 0, 0), 1), ((0, 1, 0), 1), ((0, -1, 0), 1)]
    for rows in (box, [((1,), 1), ((0, 1), 1)]):
        with pytest.raises(ValueError, match="of length [13] in dimension 2"):
            dd_convert_h_to_v(rows, 2)
    for rows in ([(1, 0, 5), (0, 1, 5)], [(1,), (0, 1)]):
        with pytest.raises(ValueError, match="of length [13] in dimension 2"):
            polyhedron.cone_from_rows(rows, 2)
    assert ratlp._null_space([(1, 2)], 2) == [(F(-2), F(1))]
    assert polyhedron.cone_from_rows(iter([(1, 0), (0, 1)]), 2) == polyhedron.cone_from_rows([(1, 0), (0, 1)], 2)
    assert ratlp._null_space([], 2) == [(F(1), F(0)), (F(0), F(1))]


def test_values_reject_coordinates_of_the_wrong_length():
    """The public constructors and ``dd_convert_h_to_v`` refuse a constraint
    row, a vertex or a ray longer or shorter than the dimension, naming its
    kind and length."""
    for normal in ((1, 0, 0), (1,)):
        with pytest.raises(ValueError, match=f"constraint row of length {len(normal)} in dimension 2"):
            PartialPolyhedron(2, (Constraint((0, 1), 1, False), Constraint(normal, 1, True)))
        with pytest.raises(ValueError, match=f"constraint row of length {len(normal)} in dimension 2"):
            dd_convert_h_to_v([((0, 1), 1), (normal, 1)], 2)
        with pytest.raises(ValueError, match=f"vertex of length {len(normal)} in dimension 2"):
            Polyhedron(2, [(0, 0), normal])
        with pytest.raises(ValueError, match=f"ray of length {len(normal)} in dimension 2"):
            Cone(2, [(0, 1), normal])


def test_binary_operations_reject_a_dimension_mismatch():
    """``subset`` and ``minkowski_sum_with_cone`` refuse operands of two
    dimensions, whichever side is the larger."""
    line, plane = interval(0, 1), PartialPolyhedron(2, ())
    for first, second in ((line, plane), (plane, line)):
        with pytest.raises(ValueError, match="^dimension mismatch$"):
            subset(first, second)
    for poly, cone in ((Polyhedron(1, [(0,)]), Cone(2, [(1, 0)])), (Polyhedron(2, [(0, 0)]), Cone(1, [(1,)]))):
        with pytest.raises(ValueError, match="^dimension mismatch$"):
            minkowski_sum_with_cone(poly, cone)


def test_in_cone_rejects_generators_of_the_wrong_length():
    """``in_cone`` refuses a generator longer or shorter than the point,
    naming its length; none is cut or padded to a wrong answer."""
    for gens in ([(1, 0, 5)], [(1,)], [(1, 0), (0, 1, 0)], [(F(1), F(0), F(5))]):
        with pytest.raises(ValueError, match="generator of length [13] in dimension 2"):
            in_cone((1, 0), gens)
    assert in_cone((1, 0), [(1, 0)]) and not in_cone((1, 0), [(0, 1)])


def test_in_conv_plus_cone_rejects_generators_of_the_wrong_length():
    """``in_conv_plus_cone`` refuses a vertex or a ray longer or shorter
    than the point, naming its kind and length; none is cut or padded to a
    wrong answer."""
    for points, rays, kind in (([(1, 0, 7)], [], "vertex"), ([(1,)], [], "vertex"),
                               ([(1, 0)], [(0, 1, 0)], "ray"), ([(0, 0)], [(1,)], "ray")):
        with pytest.raises(ValueError, match=f"{kind} of length [13] in dimension 2"):
            in_conv_plus_cone((1, 0), points, rays)
    assert in_conv_plus_cone((1, 0), [(1, 0)], []) and in_conv_plus_cone((2, 0), [(1, 0)], [(1, 0)])
    assert not in_conv_plus_cone((1, 1), [(1, 0)], [])


def test_a_negative_dimension_is_refused_and_zero_is_the_point():
    """``PartialPolyhedron`` and ``Cone`` refuse dim < 0; dim 0 is the
    one-point space, whose closure is the point unless a row fails at 0."""
    for make in (lambda: PartialPolyhedron(-1, ()), lambda: Cone(-1, ()), lambda: Cone(-2, (), ())):
        with pytest.raises(ValueError, match="dimension must be nonnegative"):
            make()
    point = Polyhedron(0, [()])
    assert closure(PartialPolyhedron(0, ())) == point == dd_convert_h_to_v([], 0)
    assert closure(PartialPolyhedron(0, [Constraint((), F(1), True)])) == point
    assert closure(PartialPolyhedron(0, [Constraint((), F(0), True)])) is None
    assert closure(PartialPolyhedron(0, [Constraint((), F(-1), False)])) is None
    assert Cone(0, ()).generators == () and contains_line(point) is False


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
    agree_true = agree_false = own_true = own_false = 0
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
        hull = closure(k1)
        if hull is None:
            continue
        # pairs whose rows are the closure's own, scanned like any other,
        # and strict rows reaching the scan with their face test
        own = to_partial(hull)
        for first, second in ((k1, k1), (k1, own), (own, k1)):
            got = subset(first, second)
            assert got == _subset_oracle(first, second), (first, second)
            own_true += got
            own_false += not got
    assert agree_true > 20 and agree_false > 20
    assert own_true > 100 and own_false > 20, (own_true, own_false)


def test_partial_is_empty_cases():
    """Hand cases, each against the margin LP and the closure as well."""
    cases = [
        (PartialPolyhedron(1, ()), False),                                   # whole line
        (PartialPolyhedron(3, ()), False),
        (region(1, ((0,), 0, True)), True),                                  # 0 < 0 never holds
        (region(1, ((0,), -1, False)), True),                                # 0 <= -1
        (region(1, ((0,), 1, False)), False),                                # 0 <= 1
        (region(1, ((1,), 0, True), ((-1,), 0, True)), True),                # x < 0, -x < 0
        (region(1, ((1,), 0, False), ((-1,), 0, True)), True),               # x <= 0, -x < 0
        (interval(0, 0), False),                                             # the point x <= 0, -x <= 0
        # x + y < 1 as is, doubled and at a third: a row's scale does not
        # change the answer
        (region(2, ((1, 1), 1, True), ((2, 2), 2, True), ((F(1, 3), F(1, 3)), F(1, 3), True),
                ((-1, 0), 0, False), ((0, -1), 0, False)), False),
        (region(2, ((1, 1), 1, True), ((2, 2), 2, True), ((F(1, 3), F(1, 3)), F(1, 3), True),
                ((-1, -1), -1, False)), True),
        # 0 <= x1 < 1 in d = 3 holds the lines along x2 and x3
        (region(3, ((1, 0, 0), 1, True), ((-1, 0, 0), 0, False)), False),
        (region(3, ((1, 0, 0), 0, True), ((-1, 0, 0), 0, False)), True),
    ]
    for k, empty in cases:
        assert partial_is_empty(k) == ref_partial_is_empty(k) == (closure(k) is None) == empty, k


def test_partial_is_empty_matches_margin_lp_on_generator_draws(monkeypatch):
    """Every region the random generator's rejection loop tests for seeds
    1000*d + j, d = 1..8, decides as the margin LP and the closure do."""
    seen = []

    def recorded(k):
        seen.append((k, partial_is_empty(k)))
        return seen[-1][1]

    monkeypatch.setattr(generators, "partial_is_empty", recorded)
    for d in range(1, 9):
        for j in range(170):
            generators.gen_random_instance(d, 1000 * d + j)
    for k, got in seen:
        assert got == ref_partial_is_empty(k) == (closure(k) is None), k
    empty = sum(got for _, got in seen)
    assert len(seen) >= 2000 and 4 * empty >= len(seen), (len(seen), empty)


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
    """``closure`` reads emptiness off the generators; ``partial_is_empty`` and the margin LP agree."""
    rng = random.Random(31)
    empty_relaxation = empty_region_only = nonempty = 0
    for _ in range(300):
        k = _random_half_open_region(rng, rng.randint(1, 3))
        assert (closure(k) is None) == partial_is_empty(k) == ref_partial_is_empty(k), k
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
            top = ref_support_value(hull, normal)
            if top is None:
                continue
            face = k.constraints + (Constraint(normal, top, False), Constraint(vneg(normal), -top, False))
            got = _meets_face(k, normal, top)
            assert got == (not partial_is_empty(PartialPolyhedron(d, face))), (k, normal)
            met += got
            missed += not got
    assert met >= 50 and missed >= 50


def _mixed_rational(rng: random.Random) -> Fraction:
    """Zero one time in four, else a signed fraction with denominator up to 7."""
    return F(0) if rng.random() < 0.25 else F(rng.randint(-9, 9), rng.randint(1, 7))


def _mixed_vec(rng: random.Random, d: int):
    return tuple(_mixed_rational(rng) for _ in range(d))


def _support(poly, direction):
    """The support value of ``poly`` in ``direction`` as a ``Fraction``, read
    off ``_scan_support`` of the direction cleared to ints."""
    s, c = _clear(direction)
    top = _scan_support(poly, c)
    return None if top is None else F(top[0], top[1] * s)


def test_predicates_match_fraction_reference():
    """``_scan_support``, ``member`` and ``_meets_face`` run on int generators
    and rows; they return what the frozen Fraction versions return.
    Polyhedra mix denominators, zero and negative entries, rays and lines;
    regions mix strict and non-strict rows with rational right-hand sides,
    and the points tried include the closure's vertices, where rows are
    tight."""
    rng = random.Random(43)
    unbounded = bounded = inside = outside = met = missed = 0
    for _ in range(250):
        d = rng.randint(1, 4)
        rays = [_mixed_vec(rng, d) for _ in range(rng.randint(0, 2))]
        if rays and rng.random() < 0.3:
            rays.append(vneg(rays[0]))
        poly = Polyhedron(d, [_mixed_vec(rng, d) for _ in range(rng.randint(1, 5))], rays)
        for direction in [zero_vec(d)] + [_mixed_vec(rng, d) for _ in range(4)]:
            got = _support(poly, direction)
            assert got == ref_support_value(poly, direction)
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
            assert _support(hull, normal) == top
            got = _meets_face(k, normal, top)
            assert got == ref_meets_face(k, hull, normal, top), (k, normal)
            met += got
            missed += not got
    assert min(unbounded, bounded, inside, outside, met, missed) >= 50


def test_support_value_and_member_check_the_dimension():
    """``member`` zips rows with points, so a length mismatch must be caught
    before any product is taken."""
    square = to_partial(Polyhedron(2, [(0, 0), (1, 0), (0, 1), (1, 1)]))
    for wrong in [(1,), (1, 0, 0), (F(1, 2),)]:
        with pytest.raises(ValueError, match=f"^point of length {len(wrong)} in dimension 2$"):
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
    reading a row, and a pruned sum answers it off the masks it was made
    with; a closure comes with the ray masks its double description found,
    and they are the incidence over its rows."""
    real_reduce, real_entry = ratlp._reduce, polyhedron.cone_from_rows
    inside, stray = [], []

    def entry(rows, dim):
        inside.append(rows)
        try:
            return real_entry(rows, dim)
        finally:
            inside.pop()

    def counting(rows):
        if not inside:
            stray.append(rows)
        return real_reduce(rows)

    monkeypatch.setattr(polyhedron, "cone_from_rows", entry)
    for module in (ratlp, polyhedron):
        monkeypatch.setattr(module, "_reduce", counting)

    poly = Polyhedron(3, [(0, 0, 0)], [(1, 0, 0), (0, 1, 0), (1, 1, 1), (0, 0, 1)])
    assert not contains_line(poly) and "_has_line" in poly.__dict__
    assert len(extreme_rays(poly)) == 3
    assert extreme_points(poly) == ((0, 0, 0),)

    box = Polyhedron(2, [(0, 0), (1, 0), (0, 1), (1, 1)])
    assert not contains_line(box) and extreme_rays(box) == ()
    assert "_incidence" not in box.__dict__
    assert len(extreme_points(box)) == 4

    strip = closure(region(2, ((1, 0), 1, False), ((-1, 0), 1, False), ((2, 0), 5, True)))
    hull = closure(region(2, ((-1, 0), 0, True), ((0, -1), 0, False), ((-1, -1), 1, False)))
    assert contains_line(strip) and not contains_line(hull)
    for p in (strip, hull):
        assert "hrep" not in p.__dict__ and not p.__dict__["_incidence"].facets
        assert p.__dict__["_incidence"].rays == ref_tight_masks(p._rows, [(r, 0) for r in p._rays])
    assert extreme_points(strip) == () and extreme_points(hull) == ((0, 0),)

    out = minkowski_sum_with_cone(Polyhedron(2, [(0, 0), (1, 1)], [(1, 0)]), Cone(2, ((0, 1),)))
    assert out == Polyhedron(2, [(0, 0)], [(1, 0), (0, 1)])
    assert not contains_line(out) and out.__dict__["_has_line"] is False
    assert minkowski_sum_with_cone(hull, Cone(2, ((1, 0),))) == hull
    assert contains_line(_line_from_pointed())
    assert not stray, stray


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
        rows = with_redundant_rows(rng, Polyhedron(d, verts, rays))
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
        assert "hrep" not in hull.__dict__ and not hull.__dict__["_incidence"].facets
        assert _int_facets(hull).rows == tuple((tuple(int(a) for a in c), int(b)) for c, b in hull.hrep)
        assert hull.hrep == facets.hrep
        kinds["line" if contains_line(hull) else "rays" if hull.rays else "polytope"] += 1
    assert min(kinds.values()) >= 15, kinds


def test_conversion_masks_survive_degenerate_rows():
    """The closure's masks are the DD's incidence mapped back to the region's
    own rows, and the facet conversion's are transposed to its generators:
    on regions whose rows repeat, rescale, imply or trivially hold
    (``with_redundant_rows``), with random strict flags and the rows
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
        rows = [Constraint(c, b, rng.random() < 0.3) for c, b in with_redundant_rows(rng, poly)]
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
        assert vars(poly)["_incidence"].facets  # its facets, converted for with_redundant_rows
        for p in (hull, poly):
            assert vars(p)["_incidence"].verts == ref_tight_masks(p._rows, p._verts), p
            assert vars(p)["_incidence"].rays == ref_tight_masks(p._rows, [(r, 0) for r in p._rays]), p
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
    opposite of one of them.  The line test of a closure, memoized on it,
    equals rank(normals) < dim."""
    rng = random.Random(101)
    kinds = {"polytope": 0, "rays": 0, "line": 0}
    for _ in range(150):
        d = rng.randint(1, 4)
        verts = [rand_point(rng, d, span=2) for _ in range(rng.randint(1, 5))]
        rays = [rand_point(rng, d, span=1, max_den=1) for _ in range(rng.randint(0, 3))]
        if rays and rng.random() < 0.3:
            rays.append(vneg(rays[0]))
        rows = with_redundant_rows(rng, Polyhedron(d, verts, rays))
        hull = closure(PartialPolyhedron(d, tuple(Constraint(c, b, False) for c, b in rows)))
        assert contains_line(hull) == hull.__dict__["_has_line"] == (ref_rank([c for c, _ in rows]) < d)
        pts, rds = list(hull.vertices), list(hull.rays)
        if len(pts) >= 2:
            pts.append(tuple((a + b) / 2 for a, b in zip(pts[0], pts[1])))
        if rds:
            pts.append(tuple(a + b for a, b in zip(pts[0], rds[0])))
            rds.append(tuple(a + b for a, b in zip(rds[0], rds[-1])))
        padded = Polyhedron(d, pts, rds)
        vars(padded)["_incidence"] = _Incidence(hull._rows, ref_tight_masks(hull._rows, padded._verts),
                                                ref_tight_masks(hull._rows, [(r, 0) for r in padded._rays]), False)
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
    lin = tuple(tuple(int(a) for a in l) for l in ref_null_space_basis(prepared, dim))
    if not lin:
        return tuple(polyhedron._pointed_cone_rays(prepared, dim)[0]), ()
    comp = [tuple(int(a) for a in w) for w in ref_null_space_basis(lin, dim)]
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
                complement = ref_null_space_basis(lineality, d)
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
    facets).  Where pruning keeps every generator it is poly itself, the
    very value: always for a closure, which lists its minimal generators,
    with no facet conversion and the rows it was converted from.  A pruned
    sum shares poly's rows, masks and facets, and the sum itself runs no
    facet conversion; a sum other than poly has its facets as its rows.
    Cases include polyhedra with a line, the cone {0}, and cones with
    lineality, which must not take the shortcut."""
    real_facets, runs = polyhedron._int_facets, []

    def facets(poly):
        runs.append(poly)
        return real_facets(poly)

    monkeypatch.setattr(polyhedron, "_int_facets", facets)
    rng = random.Random(89)
    kinds = {"shortcut": 0, "line": 0, "zero cone": 0, "lineality": 0, "closure": 0, "pruned": 0}
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
        had_hrep = "hrep" in poly.__dict__
        runs.clear()
        got = minkowski_sum_with_cone(poly, cone)
        shortcut = not cone.lineality_basis
        if shortcut and not contains_line(poly):
            # no facets are computed for the sum; other values than a
            # closure have computed theirs to read incidence
            assert runs == [poly] * (n % 2)
            assert ("hrep" in poly.__dict__) == had_hrep
            assert vars(poly)["_incidence"].facets == (n % 2 == 1)
            if expected == poly:
                assert got is poly
                kinds["closure"] += n % 2 == 0
            else:
                assert n % 2 == 1, poly  # a closure lists only extreme generators
                assert got is not poly and vars(got)["_incidence"].facets and got._rows is poly._rows
                kinds["pruned"] += 1
        elif shortcut:
            assert got is poly
        else:
            assert got is not poly
        assert got == expected, (poly, cone)
        assert got.vertices == expected.vertices and got.rays == expected.rays
        assert got.hrep == Polyhedron(d, expected.vertices, expected.rays).hrep
        assert got is poly or got._incidence.facets
        kinds["lineality" if cone.lineality_basis else "line" if contains_line(poly)
              else "zero cone" if not cone.generators else "shortcut"] += 1
    assert min(kinds.values()) >= 15, kinds
