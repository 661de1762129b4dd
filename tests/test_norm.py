"""Gauge construction, evaluation, degeneracy cones, and balls."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from asymgeo.norm import (
    AsymNorm,
    Closedness,
    DefinitenessViolation,
    ball,
    degeneracy_cone,
    gauge_eval,
    make_norm,
    sym_gauge_eval,
)
from asymgeo.polyhedron import (
    Constraint,
    PartialPolyhedron,
    closure,
    contains_line,
    in_cone,
    member,
    partial_is_empty,
    set_equal,
)
from asymgeo.ratlp import vneg

from support import rand_point, ref_ball_set, ref_gauge_eval, vadd, vscale, vsub

POS_PART = make_norm(1, [(1,)])  # gauge max(0, t) on the line
SUP2 = make_norm(2, [(1, 0), (0, 1)])
SUP3 = make_norm(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)])

rationals = st.fractions(min_value=-4, max_value=4, max_denominator=6)


def _norm_for(dim: int, seed: int) -> AsymNorm:
    from asymgeo.cli.generators import gen_random_norm
    return gen_random_norm(dim, random.Random(seed))


def test_make_norm_examples():
    assert POS_PART.dim == 1
    assert SUP3.functionals == ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    with pytest.raises(DefinitenessViolation):
        make_norm(2, [(1, 0)])


def test_constructor_enforces_definiteness():
    """Every gauge value is definite: the public constructor refuses
    rank-deficient functionals itself, so no instance is built from one.
    ``make_norm`` names a missing functional before definiteness, and a
    row of the wrong length before either."""
    from asymgeo.compactness import Instance

    for dim, rows in ((2, ((1, 0),)), (2, ((1, 1), (-2, -2), (0, 0))), (3, ((1, 0, 0), (0, 1, 0))), (1, ())):
        with pytest.raises(DefinitenessViolation):
            AsymNorm(dim, rows)
    box = PartialPolyhedron(2, tuple(Constraint(e, 1, False) for e in ((1, 0), (-1, 0), (0, 1), (0, -1))))
    with pytest.raises(DefinitenessViolation):
        Instance.build(AsymNorm(2, ((1, 0),)), box)
    with pytest.raises(ValueError, match="at least one functional"):
        make_norm(2, [])
    with pytest.raises(ValueError, match="functional of length 1"):
        make_norm(2, [(1,)])
    assert AsymNorm(2, ((1, 0), (0, 1))) == SUP2


def test_constructor_rejects_a_nonpositive_dimension():
    """``AsymNorm`` (and ``make_norm`` through it) refuses dim < 1 before it
    reads a functional; dim 1 without functionals is not definite."""
    for dim, rows in ((0, ()), (-1, ()), (0, ((),)), (-2, ((1,),))):
        with pytest.raises(ValueError, match="dimension must be positive"):
            AsymNorm(dim, rows)
    with pytest.raises(DefinitenessViolation):
        AsymNorm(1, ())


def test_zero_and_duplicate_rows_are_kept():
    # rows are stored as given; zero rows never change values
    q = make_norm(1, [(0,), (1,), (1,)])
    assert q.functionals == ((0,), (1,), (1,))
    assert gauge_eval(q, (5,)) == 5
    assert gauge_eval(q, (-5,)) == 0


def test_make_norm_input_errors():
    with pytest.raises(ValueError):
        make_norm(2, [])
    with pytest.raises(ValueError):
        make_norm(2, [(1, 0, 0)])
    with pytest.raises(ValueError):
        make_norm(0, [()])


def test_gauge_examples():
    assert gauge_eval(POS_PART, (-3,)) == 0
    assert gauge_eval(SUP3, (0, 0, 0)) == 0
    assert gauge_eval(SUP3, (-1, Fraction(1, 2), Fraction(1, 4))) == Fraction(1, 2)


def test_sym_gauge_examples():
    assert sym_gauge_eval(POS_PART, (-3,)) == 3
    assert sym_gauge_eval(SUP2, (0, 0)) == 0
    assert sym_gauge_eval(SUP2, (-2, 1)) == 2


def test_gauge_dimension_mismatch():
    with pytest.raises(ValueError, match="^point of length 3 in dimension 2$"):
        gauge_eval(SUP2, (1, 2, 3))
    with pytest.raises(ValueError, match="^point of length 1 in dimension 2$"):
        gauge_eval(SUP2, (Fraction(1, 2),))


def test_functional_lengths_are_checked_on_construction():
    """The int copy of the functionals is cut into rows of length dim, so a
    row of another length must be refused when the gauge is made."""
    with pytest.raises(ValueError, match="functional of length 1"):
        AsymNorm(2, ((1, 0), (1,)))
    with pytest.raises(ValueError, match="functional of length 3"):
        make_norm(2, [(1, 0), (0, 1, 0)])


def test_gauge_eval_matches_fraction_reference():
    """gauge_eval runs on one int copy of the functionals over their common
    denominator; it returns what the frozen Fraction version returns, as a
    ``Fraction``, on functionals and points with mixed denominators and
    zero entries."""
    rng = random.Random(47)

    def draw():
        return Fraction(0) if rng.random() < 0.25 else Fraction(rng.randint(-9, 9), rng.randint(1, 7))

    positive = zero = 0
    for _ in range(300):
        d = rng.randint(1, 4)
        rows = [tuple(draw() for _ in range(d)) for _ in range(rng.randint(d, d + 3))]
        try:
            q = make_norm(d, rows)
        except DefinitenessViolation:
            continue
        for x in [(0,) * d] + [tuple(draw() for _ in range(d)) for _ in range(4)]:
            got = gauge_eval(q, x)
            assert got == ref_gauge_eval(q, x) and type(got) is Fraction
            positive += got > 0
            zero += got == 0
    assert positive >= 200 and zero >= 200


def test_degeneracy_cone_examples():
    assert degeneracy_cone(POS_PART).generators == ((Fraction(-1),),)
    assert degeneracy_cone(SUP2).generators == ((-1, 0), (0, -1))
    symmetric = make_norm(1, [(1,), (-1,)])
    assert degeneracy_cone(symmetric).generators == ()


@settings(max_examples=60, deadline=None)
@given(st.lists(rationals, min_size=2, max_size=2),
       st.lists(rationals, min_size=2, max_size=2),
       st.fractions(min_value=0, max_value=5, max_denominator=4))
def test_gauge_axioms_hold_exactly(xs, ys, t):
    x, y = tuple(xs), tuple(ys)
    q = SUP2
    assert gauge_eval(q, vadd(x, y)) <= gauge_eval(q, x) + gauge_eval(q, y)
    assert gauge_eval(q, vscale(t, x)) == t * gauge_eval(q, x)
    assert sym_gauge_eval(q, x) == sym_gauge_eval(q, vneg(x))
    # the symmetrized gauge dominates and is Lipschitz for the gauge
    assert abs(gauge_eval(q, x) - gauge_eval(q, y)) <= sym_gauge_eval(q, vsub(x, y))


def test_axioms_on_random_norms():
    rng = random.Random(23)
    for seed in range(6):
        dim = rng.randint(1, 3)
        q = _norm_for(dim, seed)
        for _ in range(50):
            x = rand_point(rng, dim)
            y = rand_point(rng, dim)
            t = Fraction(rng.randint(0, 9), rng.randint(1, 3))
            assert gauge_eval(q, vadd(x, y)) <= gauge_eval(q, x) + gauge_eval(q, y)
            assert gauge_eval(q, vscale(t, x)) == t * gauge_eval(q, x)
            assert abs(gauge_eval(q, x) - gauge_eval(q, y)) <= sym_gauge_eval(q, vsub(x, y))


def test_sym_gauge_definite():
    rng = random.Random(29)
    for seed in range(6):
        dim = rng.randint(1, 3)
        q = _norm_for(dim, seed + 100)
        assert sym_gauge_eval(q, (0,) * dim) == 0
        for _ in range(25):
            x = rand_point(rng, dim)
            if any(c != 0 for c in x):
                assert sym_gauge_eval(q, x) > 0


def test_degeneracy_cone_consistency():
    """Generators vanish under the gauge; conic samples stay in the cone;
    points of positive gauge stay out."""
    rng = random.Random(31)
    for seed in range(8):
        dim = rng.randint(1, 3)
        q = _norm_for(dim, seed + 200)
        cone = degeneracy_cone(q)
        for g in cone.generators:
            assert gauge_eval(q, g) == 0
            assert gauge_eval(q, vneg(g)) > 0  # pointedness
        for _ in range(25):
            weights = [Fraction(rng.randint(0, 6), rng.randint(1, 3))
                       for _ in cone.generators]
            x = (Fraction(0),) * dim
            for w, g in zip(weights, cone.generators):
                x = vadd(x, vscale(w, g))
            assert gauge_eval(q, x) == 0
            assert in_cone(x, cone.generators)
        for _ in range(25):
            x = rand_point(rng, dim)
            if gauge_eval(q, x) > 0:
                assert not in_cone(x, cone.generators)


def test_degeneracy_cone_is_memoized_on_the_value():
    """One double description per gauge value: a second call returns the
    same cone, and an equal gauge built anew gets an equal cone."""
    q = make_norm(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, 0)])
    cone = degeneracy_cone(q)
    assert degeneracy_cone(q) is cone
    fresh = make_norm(3, q.functionals)
    assert degeneracy_cone(fresh) == cone and degeneracy_cone(fresh) is not cone
    assert cone.generators == ((0, 0, -1),) and not cone.lineality_basis


def test_ball_examples():
    b = ball(POS_PART, (0,), 1, Closedness.OPEN)
    assert member(b.as_set, (Fraction(999, 1000),))
    assert not member(b.as_set, (1,))
    assert member(b.as_set, (-50,))

    # radius 0: open is empty, closed is the translated degeneracy cone
    assert partial_is_empty(ball(POS_PART, (2,), 0, Closedness.OPEN).as_set)
    theta_at_2 = PartialPolyhedron(1, (Constraint((Fraction(1),), Fraction(2), False),))
    assert set_equal(ball(POS_PART, (2,), 0, Closedness.CLOSED).as_set, theta_at_2)

    b2 = ball(SUP2, (0, 0), 1, Closedness.CLOSED)
    expected = PartialPolyhedron(2, (
        Constraint((Fraction(1), Fraction(0)), Fraction(1), False),
        Constraint((Fraction(0), Fraction(1)), Fraction(1), False),
    ))
    assert set_equal(b2.as_set, expected)


def test_ball_rows_are_the_public_constructor_rows():
    """``ball`` makes its rows as ints from the stored functionals, the
    cleared center and radius; the region equals the one the public
    constructor makes of the earlier ``Fraction`` rows, with the same stored
    ints, scales and repr: seeded gauges at d = 1..4 with fractional
    functionals, integer and fractional centers and radii, radius 0, open
    and closed, and the unit-scale gauges."""
    rng = random.Random(61)
    norms = [POS_PART, SUP2, SUP3] + [_norm_for(rng.randint(1, 4), 600 + k) for k in range(40)]
    scaled = 0
    for q in norms:
        scaled += q._scale > 1
        for n in range(6):
            center = rand_point(rng, q.dim, span=3, max_den=rng.randint(1, 4))
            radius = Fraction(0) if n == 0 else Fraction(rng.randint(1, 9), rng.randint(1, 4))
            for closedness in Closedness:
                got = ball(q, center, radius, closedness).as_set
                ref = ref_ball_set(q, center, radius, closedness is Closedness.OPEN)
                assert got == ref and hash(got) == hash(ref) and repr(got) == repr(ref), (q, center, radius)
                assert (got._rows, got._scales) == (ref._rows, ref._scales)
                assert all(type(a) is int for c, b, _ in got._rows for a in (*c, b))
    assert scaled >= 20


def test_ball_negative_radius_rejected():
    with pytest.raises(ValueError):
        ball(POS_PART, (0,), -1, Closedness.CLOSED)


def test_ball_rejects_a_center_of_the_wrong_length():
    for center in ((0, 0, 0), (0,)):
        with pytest.raises(ValueError, match=f"center of length {len(center)} in dimension 2"):
            ball(SUP2, center, 1, Closedness.OPEN)


def test_ball_translation_identity():
    rng = random.Random(37)
    for seed in range(5):
        dim = rng.randint(1, 3)
        q = _norm_for(dim, seed + 300)
        center = rand_point(rng, dim)
        radius = Fraction(rng.randint(1, 5), rng.randint(1, 2))
        for closed in Closedness:
            shifted = ball(q, center, radius, closed).as_set
            at_zero = ball(q, (0,) * dim, radius, closed).as_set
            for _ in range(20):
                y = rand_point(rng, dim)
                assert member(shifted, y) == member(at_zero, vsub(y, center))


def test_ball_membership_matches_gauge():
    rng = random.Random(41)
    for seed in range(5):
        dim = rng.randint(1, 3)
        q = _norm_for(dim, seed + 400)
        radius = Fraction(rng.randint(1, 4))
        bo = ball(q, (0,) * dim, radius, Closedness.OPEN).as_set
        bc = ball(q, (0,) * dim, radius, Closedness.CLOSED).as_set
        for _ in range(30):
            x = rand_point(rng, dim)
            assert member(bo, x) == (gauge_eval(q, x) < radius)
            assert member(bc, x) == (gauge_eval(q, x) <= radius)


def test_no_line_in_ball_closures():
    rng = random.Random(43)
    for seed in range(6):
        dim = rng.randint(1, 3)
        q = _norm_for(dim, seed + 500)
        for closed in Closedness:
            hull = closure(ball(q, (0,) * dim, Fraction(2), closed).as_set)
            assert hull is not None
            assert not contains_line(hull)
