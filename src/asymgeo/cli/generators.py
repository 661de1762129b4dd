"""Instance generators: lattice gauges, random instances, arc-hull family.

The random generator draws small exact rationals (numerators in -3..3,
denominators in 1..3) so LP subdeterminants stay tame, and rejects inputs
that fail validation (rank-deficient gauges, empty regions).  The lattice
and random generators are internal builders: each draw is two ints, a
numerator then a denominator, reduced by their gcd; every region row is
cleared by the lcm of its own denominators and the functionals jointly by
theirs (``ratlp._cleared``, as the parser clears its tokens, and
``norm._gauge``, the parser's gauge builder), and the values are made of
that stored form (``_make``).  No ``Fraction`` is made for them.  The
arc-hull family's samples are rational by nature and make its hull
through the public constructor; its region is made of the hull's int
facets (``_make``).

Every int the random generator draws is drawn as ``randint`` draws it,
from the generator's ``getrandbits`` with none of ``randint``'s Python
frames in between: for a range of ``width`` values, ``k =
width.bit_length()`` bits, drawn again while they read ``width`` or more
(``_randint``, and inlined in ``_draws``).  So the stream, and every
instance a seed makes, is the one ``randint`` gives, and it rests on the
Mersenne Twister's raw words (``getrandbits``) rather than on the
algorithm of ``randrange``, which Python does not promise to keep.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import gcd, lcm

from asymgeo.norm import AsymNorm, DefinitenessViolation, _gauge
from asymgeo.polyhedron import PartialPolyhedron, Polyhedron, partial_is_empty
from asymgeo.ratlp import _cleared

ONE_FLAVOR_DIM_LIMIT = 12  # 2^d - 1 one-norm functional rows; also the largest `gen --dim` and parsed `dim`


def gen_lattice_norm(dim: int, flavor: str) -> AsymNorm:
    """Lattice gauge ||x v 0|| for the sup norm or the 1-norm.

    ``sup`` uses the coordinate functionals e_i; ``one`` uses one functional
    per nonempty coordinate subset (the subset-sum rows), which evaluates
    the sum of positive parts exactly.  Both are int rows, made into the
    gauge as they are (``_make``).
    """
    if dim < 1:
        raise ValueError("dimension must be positive")
    flavor = flavor.lower()
    if flavor == "sup":
        rows = _units(dim)
    elif flavor == "one":
        if dim > ONE_FLAVOR_DIM_LIMIT:
            raise ValueError(f"one-norm flavor limited to dimension {ONE_FLAVOR_DIM_LIMIT}")
        rows = tuple([tuple([mask >> j & 1 for j in range(dim)]) for mask in range(1, 1 << dim)])
    else:
        raise ValueError(f"unknown flavor {flavor!r}; use 'sup' or 'one'")
    # both hold every unit row, so the functionals span the space
    return AsymNorm._make(dim=dim, _scale=1, _rows=rows)


def _units(dim: int) -> tuple[tuple[int, ...], ...]:
    """The unit vectors e_1, ..., e_dim as int rows."""
    return tuple([tuple([int(i == j) for i in range(dim)]) for j in range(dim)])


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

    The samples are ``Fraction``s and make the hull through the public
    constructor; the region is made of ints (``_make``): the hull's int
    facets ``_rows`` (the rows its ``hrep`` view shows, in that order) and
    the cut, each of scale 1.
    """
    if n_arc < 2:
        raise ValueError("n_arc must be at least 2")
    norm = gen_lattice_norm(3, "sup")
    samples = [arc_sample(Fraction(k, n_arc)) for k in range(n_arc + 1)]
    vertices = samples + [(Fraction(0),) * 3, (Fraction(0), Fraction(1), Fraction(1))]
    hull = Polyhedron(3, tuple(vertices))
    # x3 - x2 <= 1 holds on the hull and is tight exactly at (0,0,1)
    rows = (*[(c, b, False) for c, b in hull._rows], ((0, -1, 1), 1, True))
    return norm, PartialPolyhedron._make(dim=3, _rows=rows, _scales=(1,) * len(rows))


def _randint(rng: random.Random, lo: int, hi: int) -> int:
    """``rng.randint(lo, hi)``, drawn as it draws: ``width.bit_length()``
    bits from ``getrandbits``, drawn again while they read ``width`` or
    more, so the value and the generator's state after it are randint's
    (a width of 1 draws too: one bit, until it reads 0)."""
    width = hi - lo + 1
    k = width.bit_length()
    r = rng.getrandbits(k)
    while r >= width:
        r = rng.getrandbits(k)
    return lo + r


# _LOWEST[p + 3][q - 1] is (p, q) in lowest terms, for p in -3..3 and q in 1..3
_LOWEST = tuple([tuple([(p // gcd(p, q), q // gcd(p, q)) for q in (1, 2, 3)]) for p in range(-3, 4)])


def _draws(rng: random.Random, n: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """n random rationals p / q in lowest terms, as their numerators and
    denominators: each drawn as p in -3..3, then q in 1..3, as
    ``_randint(rng, -3, 3)`` and ``_randint(rng, 1, 3)`` draw them (3 bits,
    drawn again on 7, then 2 bits, drawn again on 3), and reduced by
    ``_LOWEST``."""
    bits = rng.getrandbits
    ps, qs = [], []
    for _ in range(n):
        a = bits(3)
        while a == 7:
            a = bits(3)
        b = bits(2)
        while b == 3:
            b = bits(2)
        p, q = _LOWEST[a][b]
        ps.append(p)
        qs.append(q)
    return tuple(ps), tuple(qs)


def gen_random_norm(dim: int, rng: random.Random) -> AsymNorm:
    """Random valid gauge of dim to dim + 2 drawn functionals, made by
    ``norm._gauge``, which clears them jointly by the lcm of their
    denominators; redrawn until they span the space, which its
    ``_check_definite`` decides on the ints the gauge is made of."""
    if dim < 1:
        raise ValueError("dimension must be positive")
    while True:
        try:
            return _gauge(dim, [_draws(rng, dim) for _ in range(_randint(rng, dim, dim + 2))])
        except DefinitenessViolation:
            continue


def gen_random_region(dim: int, rng: random.Random) -> PartialPolyhedron:
    """Random nonempty region of dim + 1 to dim + 4 drawn rows, each (c, b)
    cleared by the lcm of its denominators, and strict with probability 0.4;
    half the draws add a bounding box |x_j| <= 1..3 of int rows.  Redrawn
    until ``partial_is_empty`` finds the region nonempty."""
    if dim < 1:
        raise ValueError("dimension must be positive")
    box = [(e, tuple([-x for x in e])) for e in _units(dim)]
    while True:
        rows, scales = [], []
        for _ in range(_randint(rng, dim + 1, dim + 4)):
            ps, qs = _draws(rng, dim + 1)
            s = lcm(*qs)
            ints = _cleared(ps, qs, s)
            rows.append((ints[:-1], ints[-1], rng.random() < 0.4))
            scales.append(s)
        if rng.random() < 0.5:
            for e, minus_e in box:
                bound = _randint(rng, 1, 3)
                rows.append((e, bound, rng.random() < 0.2))
                rows.append((minus_e, bound, rng.random() < 0.2))
            scales += [1] * (2 * dim)
        region = PartialPolyhedron._make(dim=dim, _rows=tuple(rows), _scales=tuple(scales))
        if not partial_is_empty(region):
            return region


def gen_random_instance(dim: int, seed: int) -> tuple[AsymNorm, PartialPolyhedron]:
    """Seed-deterministic random (gauge, region) pair."""
    rng = random.Random(seed)
    return gen_random_norm(dim, rng), gen_random_region(dim, rng)
