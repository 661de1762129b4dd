"""Instance generators: lattice gauges, random instances, arc-hull family.

The random generator draws small exact rationals (numerators in -3..3,
denominators in 1..3) so LP subdeterminants stay tame, and rejects inputs
that fail validation (rank-deficient gauges, empty regions).
"""

from __future__ import annotations

import random
from fractions import Fraction

from asymgeo.norm import AsymNorm, DefinitenessViolation, make_norm
from asymgeo.polyhedron import (
    Constraint,
    PartialPolyhedron,
    Polyhedron,
    dd_convert_v_to_h,
    partial_is_empty,
)

ONE_FLAVOR_DIM_LIMIT = 12  # 2^d - 1 one-norm functional rows; also the largest `gen --dim` and parsed `dim`


def gen_lattice_norm(dim: int, flavor: str) -> AsymNorm:
    """Lattice gauge ||x v 0|| for the sup norm or the 1-norm.

    ``sup`` uses the coordinate functionals e_i; ``one`` uses one functional
    per nonempty coordinate subset (the subset-sum rows), which evaluates
    the sum of positive parts exactly.
    """
    if dim < 1:
        raise ValueError("dimension must be positive")
    flavor = flavor.lower()
    if flavor == "sup":
        rows = [tuple(Fraction(1 if j == i else 0) for j in range(dim)) for i in range(dim)]
    elif flavor == "one":
        if dim > ONE_FLAVOR_DIM_LIMIT:
            raise ValueError(f"one-norm flavor limited to dimension {ONE_FLAVOR_DIM_LIMIT}")
        rows = []
        for mask in range(1, 1 << dim):
            rows.append(tuple(Fraction(1 if mask >> j & 1 else 0) for j in range(dim)))
    else:
        raise ValueError(f"unknown flavor {flavor!r}; use 'sup' or 'one'")
    return make_norm(dim, rows)


def arc_sample(t: Fraction) -> tuple[Fraction, Fraction, Fraction]:
    """Rational point of the quarter circle via the half-angle substitution."""
    den = 1 + t * t
    return ((1 - t * t) / den, Fraction(0), 2 * t / den)


def gen_arc_hull(n_arc: int) -> tuple[AsymNorm, PartialPolyhedron]:
    """Half-open polygonal approximations of a circular-arc hull in R^3.

    The region is the convex hull of n_arc rational samples of the quarter
    circle x1^2 + x3^2 = 1 with x1 in (0, 1], together with (0,0,0) and
    (0,1,1), under the sup lattice gauge.  The closure also carries the
    arc's limit point (0,0,1); a strict supporting row tight only there
    cuts that vertex, so the region is genuinely not closed, yet it is
    always judged compact with a finite center.
    """
    if n_arc < 2:
        raise ValueError("n_arc must be at least 2")
    norm = gen_lattice_norm(3, "sup")
    samples = [arc_sample(Fraction(k, n_arc)) for k in range(n_arc + 1)]
    vertices = samples + [(Fraction(0),) * 3, (Fraction(0), Fraction(1), Fraction(1))]
    hull = Polyhedron(3, tuple(vertices))
    rows = [Constraint(c, b, False) for c, b in dd_convert_v_to_h(hull)]
    # x3 - x2 <= 1 holds on the hull and is tight exactly at (0,0,1)
    cut = (Fraction(0), Fraction(-1), Fraction(1))
    rows.append(Constraint(cut, Fraction(1), True))
    return norm, PartialPolyhedron(3, tuple(rows))


def _rand_rational(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-3, 3), rng.randint(1, 3))


def gen_random_norm(dim: int, rng: random.Random) -> AsymNorm:
    """Random valid gauge; resamples until the functionals span the space,
    which ``make_norm`` checks."""
    if dim < 1:
        raise ValueError("dimension must be positive")
    while True:
        count = rng.randint(dim, dim + 2)
        rows = [tuple(_rand_rational(rng) for _ in range(dim)) for _ in range(count)]
        try:
            return make_norm(dim, rows)
        except DefinitenessViolation:
            pass


def gen_random_region(dim: int, rng: random.Random) -> PartialPolyhedron:
    """Random nonempty region; half the draws add a bounding box."""
    if dim < 1:
        raise ValueError("dimension must be positive")
    while True:
        count = rng.randint(dim + 1, dim + 4)
        rows = [
            Constraint(
                tuple(_rand_rational(rng) for _ in range(dim)),
                _rand_rational(rng),
                rng.random() < 0.4,
            )
            for _ in range(count)
        ]
        if rng.random() < 0.5:
            for j in range(dim):
                e = tuple(Fraction(1 if i == j else 0) for i in range(dim))
                bound = Fraction(rng.randint(1, 3))
                rows.append(Constraint(e, bound, rng.random() < 0.2))
                rows.append(Constraint(tuple(-x for x in e), bound, rng.random() < 0.2))
        region = PartialPolyhedron(dim, tuple(rows))
        if not partial_is_empty(region):
            return region


def gen_random_instance(dim: int, seed: int) -> tuple[AsymNorm, PartialPolyhedron]:
    """Seed-deterministic random (gauge, region) pair."""
    rng = random.Random(seed)
    return gen_random_norm(dim, rng), gen_random_region(dim, rng)
