"""Exact generalized polyhedra, closed and half-open.

Closed polyhedra carry a generator (V) representation ``conv(vertices) +
cone(rays)``; half-open sets are inequality (H) representations with a
per-row strict flag.  Conversion between the two runs the double
description method over Python ints, entered only through
``cone_from_rows`` (int or rational rows in, int generators out; the
closure, the facets, the degeneracy cone and the local tangent-cone test
all pass through it, with int rows, which are prepared as they are; a
pointed cone costs one base elimination (``ratlp._basis``, which forms the
columns it reads only) and one insertion of the other rows, last to first,
and a cone with lineality one null-space elimination more and a second
pointed run, in the same coordinates, with the null space's basis as
equation rows), and every
predicate (membership, inclusion, extremality, closedness) reduces to
exact support-function scans and to incidence against an
H-representation; emptiness and closedness are read off the closure's
generators.  The incidence predicates (extreme points and rays, lines,
the recession cone's lineality) read ``Polyhedron._rows``, any integer
inequality description of the set, as one bitmask of tight rows per
generator (``_vert_masks``, ``_ray_masks``), and run no elimination: a
generator is extreme iff no other one is tight on all its rows, and a line
lies in the set iff some ray is tight on every row.  A closure keeps the
rows it was converted from, so they run without a vertex-to-facet
conversion, and the facets are computed only where they are needed, as int
rows (``_int_hrep``, by ``_int_facets``).

The masks come from the double description, which tracks the rows tight
on each ray anyway: ``cone_from_rows`` returns them over its prepared rows,
the closure maps them back to its own rows per set bit, and the facet
conversion transposes them onto the generators where the facets become the
rows.  The pruned Minkowski sum keeps its union's rows and masks only where
those rows are the union's facets, and otherwise leaves its own to its
first incidence read, which converts its facets.  So rows never come
without masks (that would be a broken invariant), and a region's closure
has the region's rows, the very tuple ``_closed_rows``, as its ``_rows``
(``_own_rows``).  A predicate on a region and its closure reads bits: a
closure vertex lies in the region iff no strict row is tight on it, the
region is empty iff a strict row is tight on every generator, closed iff
no strict row is tight on a vertex, and it meets a face of its closure iff
no strict row is tight on every generator of the face (``_meets_face``).
``_within`` takes one OR over the vertex masks where the region's rows are
the polyhedron's own, and scans support values (``_supports``, one per
row) against any other rows.  The masks, the line test and the support
values are memoized on the value.

Each value stores one canonical int form as its dataclass fields, which
equality, hash and the predicates read: a ``Polyhedron`` each vertex v as
(y, t), t > 0 and v = y / t, and its rays primitive; a ``Cone`` its
generators and lineality basis primitive; a ``PartialPolyhedron`` each row
(c, b) cleared by the lcm of its denominators, with that scale; an
``AsymNorm`` (``asymgeo.norm``) its functionals over their common
denominator, with it.  So <c, v> <= b is <c, y> <= b * t.  The public
constructors (``Polyhedron(...)``, ``PartialPolyhedron(...)``,
``Cone(...)`` and ``AsymNorm(...)``) take any numbers, check them and
canonicalize them into this form.  The internal builders (the conversions,
the Minkowski sum, ``to_partial``, ``recession_cone``, and in other modules
the instance parser, the gauge ball, the degeneracy cone, the center and
the half-open sum) already hold it and hand it to ``_make``, which takes
it as given.
The ``Fraction`` attributes (``vertices``, ``rays``, ``constraints``,
``generators``, ``lineality_basis``, ``functionals`` and the facets
``hrep``) are views, built on first read and memoized; the repr prints
them, as the constructor call that makes the value.  Only views and public
results are ``Fraction``s.

The LP membership tests (``in_cone``, ``in_conv_plus_cone``) stay only as
an independent reference, and ``partial_is_empty`` serves callers that
hold rows but no closure.

Sets are desk scale: dimension <= 12 (the largest the parser and ``gen``
take) and at most a few hundred rows, so the algorithms favour determinism
and verifiability over asymptotics.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, reduce
from itertools import chain, compress
from math import gcd, lcm
from operator import and_, mul, or_
from typing import Collection, NamedTuple, Optional, Sequence

from asymgeo.ratlp import (
    InternalInvariantError,
    LpStatus,
    Rational,
    Vec,
    _all_int,
    _basis,
    _clear,
    _null_space,
    _reduce,
    as_vec,
    feasible_nonneg,
    is_zero_vec,
    lp_solve,
    vneg,
    vscale,
)

HRow = tuple[Vec, Rational]  # <normal, x> <= rhs


class LinealityPresentError(ValueError):
    """Raised when extreme rays are requested for a set containing a line."""


class Constraint(NamedTuple):
    normal: Vec
    rhs: Rational
    strict: bool


class _Value:
    """What the four value types share: the maker of a value from its
    stored form, and a repr of the public views named in ``_public``."""

    _public: tuple[str, ...] = ()

    @classmethod
    def _make(cls, **fields):
        """The value of canonical stored fields, taken as given: checks nothing."""
        value = object.__new__(cls)
        vars(value).update(fields)
        return value

    def __repr__(self) -> str:
        return f"{type(self).__qualname__}({', '.join(f'{n}={getattr(self, n)!r}' for n in self._public)})"


@dataclass(frozen=True, init=False, repr=False)
class Cone(_Value):
    """Finitely generated cone, possibly with lineality.

    ``lineality_basis`` spans the largest subspace contained in the cone.
    Stored as primitive int tuples: the generators deduplicated and sorted
    (a zero generator is dropped, as a zero ray is), the basis as given; a
    basis vector must have length ``dim`` and be nonzero.  ``generators``
    and ``lineality_basis`` are their ``Fraction`` views.
    """

    dim: int
    _gens: tuple[tuple[int, ...], ...]
    _lin: tuple[tuple[int, ...], ...]
    _public = ("dim", "generators", "lineality_basis")

    def __init__(self, dim: int, generators: Sequence[Vec], lineality_basis: Sequence[Vec] = ()):
        gens = _canonical_rays(generators, dim)
        lin = []
        for b in lineality_basis:
            if len(b) != dim:
                raise ValueError(f"lineality basis vector of length {len(b)} in dimension {dim}")
            b = _prepare_rows([b])
            if not b:
                raise ValueError("a lineality basis vector must be nonzero")
            lin.append(b[0])
        vars(self).update(dim=dim, _gens=gens, _lin=tuple(lin))

    @cached_property
    def generators(self) -> tuple[Vec, ...]:
        return tuple(map(_fractions, self._gens))

    @cached_property
    def lineality_basis(self) -> tuple[Vec, ...]:
        return tuple(map(_fractions, self._lin))


@dataclass(frozen=True, init=False, repr=False)
class PartialPolyhedron(_Value):
    """Intersection of closed and open half-spaces.

    Denotes {x : <c_j, x> < b_j for strict rows, <= b_j otherwise}.  Rows
    are stored as given, each (c, b, strict) with (c, b) as ints, cleared
    by the lcm ``_scales[j]`` of its denominators; redundancy never changes
    the denoted set.  ``constraints`` is their ``Fraction`` view, and the
    closure is memoized on the value.
    """

    dim: int
    _rows: tuple[tuple[tuple[int, ...], int, bool], ...]
    _scales: tuple[int, ...]
    _public = ("dim", "constraints")

    def __init__(self, dim: int, constraints: Sequence[Constraint]):
        rows, scales = [], []
        for normal, rhs, strict in constraints:
            normal = tuple(normal)
            if len(normal) != dim:
                raise ValueError(f"constraint row of length {len(normal)} in dimension {dim}")
            s, row = _clear((*normal, rhs))
            rows.append((tuple(row[:-1]), row[-1], bool(strict)))
            scales.append(s)
        vars(self).update(dim=dim, _rows=tuple(rows), _scales=tuple(scales))

    @cached_property
    def constraints(self) -> tuple[Constraint, ...]:
        return tuple([Constraint(_fractions(c, s), Fraction(b, s), strict)
                      for (c, b, strict), s in zip(self._rows, self._scales)])

    @cached_property
    def _closed_rows(self) -> tuple[tuple[tuple[int, ...], int], ...]:
        """The rows (c, b) without their strict flags: the closure's ``_rows``,
        the very tuple (``_own_rows``), and seeded where a region is made from
        a polyhedron's facets."""
        return tuple([(c, b) for c, b, _ in self._rows])

    @cached_property
    def _strict_mask(self) -> int:
        """The strict rows as one bitmask over ``_rows``."""
        return sum([1 << j for j, (_, _, strict) in enumerate(self._rows) if strict])

    @cached_property
    def _closure(self) -> Optional[Polyhedron]:
        """The conversion of ``_closed_rows``; the region is empty iff that is,
        or a strict row is tight on every generator of it."""
        poly = _h_to_v(self._closed_rows, self.dim)
        if poly is None or reduce(and_, poly._ray_masks, reduce(and_, poly._vert_masks)) & self._strict_mask:
            return None
        return poly


@dataclass(frozen=True, init=False, repr=False)
class Polyhedron(_Value):
    """Closed polyhedron conv(vertices) + cone(rays); never empty.

    Stored as ints: each vertex v as (y, t), t > 0 the lcm of its
    denominators and v = y / t, deduplicated and in the lexicographic order
    of the vertices; the rays primitive, deduplicated and sorted.
    Lineality is represented by opposite ray pairs.  The listed vertices
    need not all be extreme; ``extreme_points`` computes the true extreme
    set.  ``vertices`` and ``rays`` are the ``Fraction`` views.
    """

    dim: int
    _verts: tuple[tuple[tuple[int, ...], int], ...]
    _rays: tuple[tuple[int, ...], ...]
    _public = ("dim", "vertices", "rays")

    def __init__(self, dim: int, vertices: Sequence[Vec], rays: Sequence[Vec] = ()):
        verts = _sorted_points({(tuple(y), t) for t, y in map(_clear, vertices)})
        if not verts:
            raise ValueError("a Polyhedron must have at least one vertex; the empty set is represented by None")
        for y, _ in verts:
            if len(y) != dim:
                raise ValueError(f"vertex of length {len(y)} in dimension {dim}")
        vars(self).update(dim=dim, _verts=verts, _rays=_canonical_rays(rays, dim))

    @cached_property
    def vertices(self) -> tuple[Vec, ...]:
        return tuple([_fractions(y, t) for y, t in self._verts])

    @cached_property
    def rays(self) -> tuple[Vec, ...]:
        return tuple(map(_fractions, self._rays))

    @cached_property
    def hrep(self) -> tuple[HRow, ...]:
        """The facets (``dd_convert_v_to_h``): the ``Fraction`` view of ``_int_hrep``."""
        return _fraction_rows(self._int_hrep)

    @cached_property
    def _int_hrep(self) -> tuple[tuple[tuple[int, ...], int], ...]:
        """The facets as primitive int rows (c, b), sorted: the one
        vertex-to-facet conversion of the value (``_int_facets``).  When no
        rows were seeded the facets become ``_rows``, with the incidence the
        conversion found as the masks."""
        facets, vert_masks, ray_masks = _int_facets(self)
        if "_rows" not in vars(self):
            vars(self).update(_rows=facets, _vert_masks=vert_masks, _ray_masks=ray_masks)
        return facets

    @cached_property
    def _rows(self) -> tuple[tuple[Sequence[int], int], ...]:
        """An integer inequality description (c, b) of the set, read by the
        incidence predicates: ``_int_hrep`` unless a conversion seeded it
        with the rows it converted (``dd_convert_h_to_v``, the region's
        ``_closed_rows`` for a closure) or a pruned sum with its union's
        facets (``minkowski_sum_with_cone``).  Converted rows may be
        duplicate, rescaled, redundant or zero; incidence decides the same
        on any inequality description of the set.  Whatever seeds the rows
        seeds their masks."""
        return self._int_hrep

    @cached_property
    def _vert_masks(self) -> tuple[int, ...]:
        """Per vertex, the ``_rows`` tight on it, as seeded with the rows
        (reading ``_rows`` may run the facet conversion, which seeds both)."""
        return _seeded_masks(self, "_vert_masks")

    @cached_property
    def _ray_masks(self) -> tuple[int, ...]:
        """Per ray, the ``_rows`` its direction is tight on, as ``_vert_masks``;
        a polytope reads no row."""
        return _seeded_masks(self, "_ray_masks") if self._rays else ()

    @cached_property
    def _supports(self) -> dict[tuple[int, ...], Optional[tuple[int, int]]]:
        """Memo of ``_support``: int row -> its value on the set (``_within``,
        so ``subset``, and ``saturate_region`` read it; ``support_value``
        scans).  Not part of the value: equality, hash and repr read the
        fields only."""
        return {}

    @cached_property
    def _has_line(self) -> bool:
        """Is some ray orthogonal to every ``_rows`` normal?

        Their intersection is the lineality space of the recession cone, a
        face of cone(rays), so a ray lies in it unless it is {0}.  A polytope
        reads no row, and ``dd_convert_h_to_v`` and ``minkowski_sum_with_cone``
        seed the answer they already know."""
        return bool(self._rays) and (1 << len(self._rows)) - 1 in self._ray_masks


def _seeded_masks(poly: Polyhedron, name: str) -> tuple[int, ...]:
    """The masks ``name`` seeded with ``poly._rows``, made first if need be."""
    poly._rows  # the facet conversion, if it runs, seeds the masks with the rows
    masks = vars(poly).get(name)
    if masks is None:
        raise InternalInvariantError("rows are seeded with their masks")
    return masks


def _canonical_rays(rays: Sequence[Vec], dim: int) -> tuple[tuple[int, ...], ...]:
    for r in rays:
        if len(r) != dim:
            raise ValueError(f"ray of length {len(r)} in dimension {dim}")
    return tuple(_prepare_rows(rays))


def _sorted_points(points: Collection[tuple[tuple[int, ...], int]]) -> tuple[tuple[tuple[int, ...], int], ...]:
    """Points (y, t), t > 0, in the lexicographic order of y / t, which is
    that of y * (L / t), L the lcm of the t's."""
    big = lcm(*[t for _, t in points])
    return tuple(sorted(points, key=lambda yt: [a * (big // yt[1]) for a in yt[0]]))


def _fractions(row: Sequence[int], den: int = 1) -> Vec:
    """An int row over ``den`` > 0 as the ``Fraction`` tuple of a view."""
    return tuple(map(Fraction, row)) if den == 1 else tuple([Fraction(a, den) for a in row])


def _fraction_rows(rows: Sequence[tuple[Sequence[int], int]]) -> tuple[HRow, ...]:
    """Int rows (c, b) as ``Fraction`` rows."""
    return tuple([(tuple(map(Fraction, c)), Fraction(b)) for c, b in rows])


# ---------------------------------------------------------------------------
# Double description
# ---------------------------------------------------------------------------


def _prepare_rows(rows: Sequence[Sequence]) -> list[tuple[int, ...]]:
    """Primitive, deduplicated, lexicographically sorted nonzero rows, as int
    tuples; int rows are taken as they are (divided only by a gcd above 1),
    rational ones cleared first."""
    if not _all_int(chain.from_iterable(rows)):
        rows = [_clear(r)[1] for r in rows]
    seen = set()
    for r in rows:
        g = gcd(*r)
        if g == 1:
            seen.add(tuple(r))
        elif g:
            seen.add(tuple([a // g for a in r]))
    return sorted(seen)


def _pointed_cone_rays(rows: list[tuple[int, ...]],
                       dim: int) -> Optional[tuple[list[tuple[int, ...]], list[int]]]:
    """Extreme rays of the pointed cone {x : <row, x> <= 0 for all rows}.

    Classic double description over Python ints: start from a simplicial
    subcone given by a maximal independent row subset, then insert the
    remaining rows one at a time, last to first, combining adjacent rays
    across the new hyperplane.  The rays do not depend on the insertion
    order, but the work does (Fukuda & Prodon 1996): on random inputs at
    d = 4..8 the reverse lexicographic order makes fewer rays and candidate
    pairs than the lexicographic one, though more on the homogenized rows
    of a one-norm lattice ball.  Each ray carries its incidence (the
    processed rows it is tight on) as one bitmask, and a combined ray is
    tight exactly where both parents are, plus on the new row.  Two rays are
    adjacent iff they share at least dim - 2 tight rows and no third ray is
    tight on all of those (the combinatorial test, valid because the ray set
    stays minimal).
    Requires the rows of ``_prepare_rows``; returns the rays as primitive int
    tuples, sorted, and aligned with them their final masks, the rows tight
    on each (bit i for ``rows[i]``); or None when the rows have rank below
    dim (the cone has lineality), which the elimination that picks the base
    (``_basis``) finds out first.
    """
    # The base is the lexicographically first independent rows B; the
    # identity block of its elimination is det * B^-1 transposed,
    # det = |det B| > 0: row j is a positive multiple of column j of B^-1,
    # so minus it is the ray tight on every chosen row but the j-th.
    picked = _basis(rows, dim)
    if picked is None:
        return None
    block, base_idx, _ = picked
    rays = []
    for w in block:
        g = gcd(*w)
        rays.append(tuple([-a // g for a in w]))
    base = sum(1 << i for i in base_idx)
    inc = [base & ~(1 << i) for i in base_idx]
    need = dim - 2

    for i in reversed(range(len(rows))):
        if base >> i & 1:
            continue
        row = rows[i]
        bit = 1 << i
        # one pass splits the rays: cut (v > 0) go, tight ones gain the bit,
        # strictly kept ones (v < 0) stay as they are and pair with the cut;
        # a row that cuts no ray only updates the masks
        cut, minus, next_rays, next_inc = [], [], [], []
        for r, m in zip(rays, inc):
            v = sum(map(mul, row, r))
            if v > 0:
                cut.append((v, r, m))
                continue
            if v:
                minus.append((v, r, m))
            else:
                m |= bit
            next_rays.append(r)
            next_inc.append(m)
        for vp, rp, mp in cut:
            for vq, rq, mq in minus:
                common = mp & mq
                if common.bit_count() < need:
                    continue
                # adjacent iff p and q are the only rays tight on all of common
                holders = 0
                for m in inc:
                    if m & common == common:
                        holders += 1
                        if holders > 2:
                            break
                else:
                    w = [vp * b - vq * a for a, b in zip(rp, rq)]
                    g = gcd(*w)
                    next_rays.append(tuple(w) if g == 1 else tuple([a // g for a in w]))
                    next_inc.append(common | bit)
        rays, inc = next_rays, next_inc
    order = sorted(range(len(rays)), key=rays.__getitem__)
    return [rays[k] for k in order], [inc[k] for k in order]


def cone_from_rows(rows: Sequence[Sequence], dim: int) -> tuple[
        tuple[tuple[int, ...], ...], tuple[tuple[int, ...], ...], tuple[int, ...], list[tuple[int, ...]]]:
    """Generators and lineality basis of {x : <row, x> <= 0 for all rows},
    then the generators' incidence and the rows it indexes.

    The one entry to the double description: int or rational rows in,
    primitive int tuples out, the generators sorted.  A pointed cone takes
    one elimination, the lazy ``ratlp._basis`` that ``_pointed_cone_rays``
    picks its base with.
    Only when that finds the rank below dim is the lineality (the null space
    of the rows) split off, and the cone is cut by its equations: each basis
    vector l enters as the rows l and -l, so the same pointed run, in the
    same coordinates, yields the extreme rays of the cone's intersection with
    the orthogonal complement of the lineality (Fukuda & Prodon 1996).
    The third item holds, per generator, the DD's mask of the rows tight on
    it, over the fourth, the prepared rows of the run that made it (with the
    equation rows when the cone has lineality, and those hold on every
    generator).  The conversions map the masks back to their own rows; no
    other caller reads them.
    """
    prepared = _prepare_rows(rows)
    run = _pointed_cone_rays(prepared, dim)
    lin = ()
    if run is None:
        lin = tuple(_null_space(prepared, dim))
        prepared = _prepare_rows([*prepared, *lin, *map(vneg, lin)])
        run = _pointed_cone_rays(prepared, dim)
        if run is None:
            raise InternalInvariantError("the rows and their null space span the space")
    return tuple(run[0]), lin, tuple(run[1]), prepared


def _spread(mask: int, images: Sequence[int]) -> int:
    """The union of ``images[i]`` over the set bits i of ``mask``."""
    out = 0
    while mask:
        low = mask & -mask
        out |= images[low.bit_length() - 1]
        mask ^= low
    return out


def dd_convert_h_to_v(hrep: Sequence[HRow], dim: int) -> Optional[Polyhedron]:
    """Generator representation of {x : <c_j, x> <= b_j}; None if empty.

    Works on the homogenization cone {(x, t) : <c_j, x> - b_j t <= 0, t >= 0}:
    generators with positive last coordinate scale to vertices, the rest are
    recession directions, and lineality comes back as opposite ray pairs.
    Rows may be int or rational; the result's ``_rows`` are the given rows
    as ints, so its incidence predicates run without a vertex-to-facet
    conversion (``_h_to_v``).
    """
    cleared = [_clear((*c, b))[1] for c, b in hrep]
    return _h_to_v(tuple([(tuple(r[:-1]), r[-1]) for r in cleared]), dim)


def _h_to_v(rows: tuple[tuple[tuple[int, ...], int], ...], dim: int) -> Optional[Polyhedron]:
    """``dd_convert_h_to_v`` of int rows (c, b), which become the result's
    ``_rows`` as given, the same tuple.

    The value is built from the DD's int output as it is (``_make``): a
    primitive generator (y, t) is already the vertex's stored form, and the
    vertices are sorted on ints.  It contains a line iff the homogenization
    cone has lineality, and its masks are the DD's incidence over the
    prepared rows, mapped back per set bit: a prepared row stands for every
    given row that is a positive multiple of it (duplicates, rescalings,
    and ``0 <= b`` for b > 0 with ``t >= 0``), a zero row (``0 <= 0``) is
    tight everywhere, and so is every row on a lineality direction.
    """
    homog = [(*c, -b) for c, b in rows]
    gens, lin, masks, prepared = cone_from_rows([*homog, (0,) * dim + (-1,)], dim + 1)
    index = {r: i for i, r in enumerate(prepared)}
    images = [0] * len(prepared)
    everywhere = 0
    for j, r in enumerate(homog):
        g = gcd(*r)
        if g:
            images[index[r if g == 1 else tuple([a // g for a in r])]] |= 1 << j
        else:
            everywhere |= 1 << j
    verts, rays = {}, {}
    for g, m in zip(gens, masks):
        if g[-1] > 0:
            verts[g[:-1], g[-1]] = _spread(m, images) | everywhere
        else:
            rays[g[:-1]] = _spread(m, images) | everywhere
    for l in lin:
        if l[-1] != 0:
            raise InternalInvariantError("homogenization lineality must be horizontal")
        rays[l[:-1]] = rays[vneg(l[:-1])] = (1 << len(rows)) - 1
    if not verts:
        return None
    points, raydirs = _sorted_points(verts), tuple(sorted(rays))
    poly = Polyhedron._make(dim=dim, _verts=points, _rays=raydirs)
    vars(poly).update(_rows=rows, _has_line=bool(lin), _vert_masks=tuple(map(verts.__getitem__, points)),
                      _ray_masks=tuple(map(rays.__getitem__, raydirs)))
    return poly


def dd_convert_v_to_h(poly: Polyhedron) -> tuple[HRow, ...]:
    """Inequality representation of a closed polyhedron: the rows of
    ``_int_facets`` as ``Fraction``s, primitive integer data in sorted order.
    Each call converts afresh; ``Polyhedron.hrep`` is the memoized view."""
    return _fraction_rows(_int_facets(poly)[0])


def _int_facets(poly: Polyhedron) -> tuple[tuple[tuple[tuple[int, ...], int], ...], tuple[int, ...], tuple[int, ...]]:
    """The facets of a closed polyhedron as int rows (c, b), <c, x> <= b,
    then per vertex and per ray the mask of the facets tight on it.

    Every vertex-to-facet conversion runs here.  Dualizes the homogenization
    cone: its polar is described by the generators as rows (the int vertices
    (y, t) as (y, t), the rays as (r, 0)), so one more double description run
    yields the candidate rows.  The lineality of the polar comes back as
    opposite row pairs pinning the affine hull; the rest are the polar's
    extreme rays, so facets, and only ``t >= 0`` (zero normal) is dropped.
    Both come out primitive, so the rows are primitive, in sorted order.
    A polar ray's mask names the generators tight on its facet, and the
    affine-hull rows are tight on all; transposed per set bit, they give each
    generator's mask over the sorted facets.  The generators are primitive
    and distinct as stored, so each is a prepared row of its own.
    """
    gen_rows = [(*y, t) for y, t in poly._verts] + [(*r, 0) for r in poly._rays]
    gens, lin, masks, prepared = cone_from_rows(gen_rows, poly.dim + 1)
    facets = {}
    for (*c, g), m in zip(gens, masks):
        if any(c):
            facets[(tuple(c), -g)] = m
        elif g > 0:
            raise InternalInvariantError("a nonempty polyhedron admits no contradictory row")
    every = (1 << len(prepared)) - 1
    for *c, g in lin:
        if not any(c):
            raise InternalInvariantError("affine-hull rows have nonzero normals")
        facets[(tuple(c), -g)] = facets[(tuple([-a for a in c]), g)] = every
    rows = sorted(facets)
    tight = [0] * len(prepared)
    for f, row in enumerate(rows):
        bit, m = 1 << f, facets[row]
        while m:
            low = m & -m
            tight[low.bit_length() - 1] |= bit
            m ^= low
    index = {r: i for i, r in enumerate(prepared)}
    per_gen = [tight[index[r]] for r in gen_rows]
    cut = len(poly._verts)
    return tuple(rows), tuple(per_gen[:cut]), tuple(per_gen[cut:])


def to_partial(poly: Polyhedron) -> PartialPolyhedron:
    """The same closed set as an all-non-strict partial polyhedron.

    Built from the int facets as they are (``_make``): its rows are
    ``poly._int_hrep``, primitive, so of scale 1, and that tuple is its
    ``_closed_rows``.  Its closure is not seeded: like every closure, it is
    the double description of its rows, so equal sets get equal closures
    whatever generators ``poly`` lists.
    """
    rows = poly._int_hrep
    return PartialPolyhedron._make(dim=poly.dim, _rows=tuple([(c, b, False) for c, b in rows]),
                                   _scales=(1,) * len(rows), _closed_rows=rows)


def support_value(poly: Polyhedron, direction: Vec) -> Optional[Rational]:
    """sup of <direction, x> over the polyhedron; None when unbounded.

    Exact and LP-free: the supremum of a linear functional over
    conv(V) + cone(R) is attained at a vertex unless some ray ascends.
    """
    s, c = _clear(direction)
    if len(c) != poly.dim:
        raise ValueError(f"direction of length {len(c)} in dimension {poly.dim}")
    top = _scan_support(poly, c)
    return None if top is None else Fraction(top[0], top[1] * s)


def _support(poly: Polyhedron, c: tuple[int, ...]) -> Optional[tuple[int, int]]:
    """``_scan_support`` once per value and int row: the predicates' entry,
    memoized on the value (``_supports``)."""
    memo = poly._supports
    if c not in memo:
        memo[c] = _scan_support(poly, c)
    return memo[c]


def _scan_support(poly: Polyhedron, c: Sequence[int]) -> Optional[tuple[int, int]]:
    """``support_value`` for an int row c, as (n, t) with value n / t and t > 0.

    The maximum over the vertices (y, t) is taken by cross-multiplying."""
    if any(sum(map(mul, c, r)) > 0 for r in poly._rays):
        return None
    best_n, best_t = None, 1
    for y, t in poly._verts:
        n = sum(map(mul, c, y))
        if best_n is None or n * best_t > best_n * t:
            best_n, best_t = n, t
    return best_n, best_t


# ---------------------------------------------------------------------------
# Predicates on partial polyhedra
# ---------------------------------------------------------------------------


def partial_is_empty(region: PartialPolyhedron) -> bool:
    """Exact emptiness test honouring strict rows.

    Maximizes a margin variable added to every strict row (capped at 1);
    the set is nonempty iff the closed system is feasible with a strictly
    positive margin.  It serves callers with rows but no closure (the random
    generator's rejection loop), where one LP is cheaper than a DD run.  The
    LP gets the stored int rows, each with its strict margin scaled as the
    row is.
    """
    unit = (0,) * region.dim + (1,)
    rows = [((*c, s if strict else 0), b) for (c, b, strict), s in zip(region._rows, region._scales)]
    res = lp_solve(unit, [*rows, (unit, 1)])
    if res.status == LpStatus.INFEASIBLE:
        return True
    if res.status != LpStatus.OPTIMAL:
        raise InternalInvariantError("margin objective is capped")
    return res.value <= 0


def member(region: PartialPolyhedron, x: Vec) -> bool:
    """Exact membership by direct evaluation of every row, on ints: x = y / t
    lies on the right side of (c, b) iff <c, y> against b * t does."""
    t, y = _clear(as_vec(x))
    if len(y) != region.dim:
        raise ValueError(f"point of length {len(y)} in dimension {region.dim}")
    return _int_member(region, y, t)


def _int_member(region: PartialPolyhedron, y: Sequence[int], t: int) -> bool:
    """``member`` for the point y / t, t > 0, given as ints (a stored vertex)."""
    for c, b, strict in region._rows:
        val, bound = sum(map(mul, c, y)), b * t
        if val > bound or strict and val == bound:
            return False
    return True


def _own_rows(poly: Polyhedron, region: PartialPolyhedron) -> bool:
    """Are the region's rows, strict flags aside, the very rows ``poly._rows``?

    Then ``poly``'s masks index the region's rows, as a closure's always do:
    a vertex lies in the region iff no strict row is tight on it.  The test
    is one of identity, so it reads no row, and it is false where ``poly``
    has not made its rows yet."""
    rows = vars(poly).get("_rows")
    return rows is not None and rows is vars(region).get("_closed_rows")


def closure(region: PartialPolyhedron) -> Optional[Polyhedron]:
    """Topological closure; None when the region is empty.

    For a nonempty intersection of open and closed half-spaces the closure
    is exactly the all-non-strict relaxation, so it suffices to drop the
    strict flags and convert; the region is empty iff that is, or the region
    misses all of it.  The result is memoized on the region.
    """
    return region._closure


def _meets_face(region: PartialPolyhedron, hull: Polyhedron, normal: Sequence, top: int | Rational) -> bool:
    """Does the region meet the face of its closure ``hull`` where <normal, x> = top (its maximum)?

    The face is generated by the vertices attaining ``top`` and the rays
    orthogonal to ``normal``, one dot product each.  A strict row removes
    the subface where it is tight, and finitely many faces cover a nonempty
    convex set only if one is the whole set: the region meets the face iff
    no strict row is tight on all of it, that is on every generator of it.
    The closure's masks index the region's rows (``_own_rows``), so one AND
    of the face's masks decides, and a region without strict rows meets
    every face unscanned.  Int input passes as is; every test runs on ints.
    """
    strict = region._strict_mask
    if not strict:
        return True
    if not _own_rows(hull, region):
        raise InternalInvariantError("the hull is the region's closure")
    *normal, top = _clear((*normal, top))[1]
    face = [m for (y, t), m in zip(hull._verts, hull._vert_masks) if sum(map(mul, normal, y)) == top * t]
    face += [m for r, m in zip(hull._rays, hull._ray_masks) if not sum(map(mul, normal, r))]
    return not reduce(and_, face, strict)


def is_closed(region: PartialPolyhedron) -> bool:
    """True iff the region equals its closure, that is iff no strict row is
    tight on the closure.  A tight row attains its maximum over the closure
    there, at a listed vertex, so the closure's vertex masks, which index
    the region's rows, answer with one OR.
    """
    hull = closure(region)
    return hull is None or not region._strict_mask & reduce(or_, hull._vert_masks)


def subset(first: PartialPolyhedron, second: PartialPolyhedron) -> bool:
    """Exact decision of ``first`` being contained in ``second``: the closure
    of ``first`` read by ``_within``, each strict row's optimal face against
    ``first`` itself."""
    if first.dim != second.dim:
        raise ValueError("dimension mismatch")
    hull = closure(first)
    return hull is None or _within(hull, second, first)


def _within(poly: Polyhedron, region: PartialPolyhedron,
            part: Optional[PartialPolyhedron] = None) -> bool:
    """``poly`` <= ``region``, or, for ``part`` whose closure is ``poly``,
    ``part`` <= ``region``, read off the generators of ``poly``.

    Each row of the region is maximized over ``poly`` (``_support``, once per
    value and row); the maximum must exist and stay within the row's bound.
    A strict row must not reach its bound on the closed ``poly``, and on
    ``part`` it reaches it only where its optimal face over ``poly`` meets
    ``part``.  When the region's rows are ``poly``'s own (``_own_rows``)
    every row holds on ``poly``, and a strict one reaches its bound iff it
    is tight at a listed vertex: the masks answer, and no support is scanned.
    """
    if _own_rows(poly, region):
        reached = region._strict_mask & reduce(or_, poly._vert_masks)
        return not any(reached >> j & 1 and (part is None or _meets_face(part, poly, c, b))
                       for j, (c, b, _) in enumerate(region._rows))
    for c, b, strict in region._rows:
        top = _support(poly, c)
        if top is None or top[0] > b * top[1]:
            return False
        if strict and top[0] == b * top[1] and (part is None or _meets_face(part, poly, c, b)):
            return False
    return True


def set_equal(first: PartialPolyhedron, second: PartialPolyhedron) -> bool:
    return subset(first, second) and subset(second, first)


# ---------------------------------------------------------------------------
# Generator-side predicates
# ---------------------------------------------------------------------------


def in_cone(x: Vec, generators: Sequence[Vec]) -> bool:
    """LP membership of x in the cone spanned by the generators.

    No predicate of this module calls it: it is the independent LP
    reference that tests check the incidence predicates against.
    """
    x = as_vec(x)
    gens = [as_vec(g) for g in generators]
    if not gens:
        return is_zero_vec(x)
    dim = len(x)
    rows = [[g[t] for g in gens] for t in range(dim)]
    return feasible_nonneg(rows, list(x))


def in_conv_plus_cone(x: Vec, points: Sequence[Vec], rays: Sequence[Vec]) -> bool:
    """LP membership of x in conv(points) + cone(rays); the LP reference, as ``in_cone``."""
    x = as_vec(x)
    pts = [as_vec(p) for p in points]
    rds = [as_vec(r) for r in rays]
    if not pts:
        return False
    dim = len(x)
    cols = pts + rds
    rows = [[c[t] for c in cols] for t in range(dim)]
    rows.append([Fraction(1)] * len(pts) + [Fraction(0)] * len(rds))
    return feasible_nonneg(rows, list(x) + [Fraction(1)])


def _maximal(masks: Sequence[int], rivals: Sequence[int] = ()) -> list[bool]:
    """Per mask, whether no other mask and no rival holds all of its bits."""
    pool = (*masks, *rivals)
    return [not any(m & a == a for j, m in enumerate(pool) if j != k) for k, a in enumerate(masks)]


def recession_cone(poly: Polyhedron) -> Cone:
    """cone(rays) of the polyhedron, with an explicit lineality basis.

    The rays tight on every ``_rows`` row span the lineality, and its basis
    is their reduced row echelon form, each row made primitive; a polytope's
    cone is {0}, and no rows are needed.  Built from the int rays as they are.
    """
    if not poly._rays:
        return Cone._make(dim=poly.dim, _gens=(), _lin=())
    full = (1 << len(poly._rows)) - 1
    lin_members = [r for r, m in zip(poly._rays, poly._ray_masks) if m == full]
    basis = []
    if lin_members:
        work, pivots, _ = _reduce(lin_members)
        for row in work[:len(pivots)]:
            g = gcd(*row)
            basis.append(tuple(a // g for a in row))
    return Cone._make(dim=poly.dim, _gens=poly._rays, _lin=tuple(basis))


def contains_line(poly: Polyhedron) -> bool:
    """A line lies in the set iff some ray is orthogonal to every ``_rows``
    normal; no elimination runs.  Memoized on the value, as ``_rows`` is."""
    return poly._has_line


def extreme_points(poly: Polyhedron) -> tuple[Vec, ...]:
    """The extreme points of the polyhedron, read off incidence.

    The listed vertices (v, 1) and rays (r, 0) generate the homogenization
    cone {(x, t) : <c, x> <= b t for the ``_rows`` (c, b), t >= 0}, so a
    vertex is extreme iff no other vertex and no ray is tight on every row
    it is tight on (rays are tight on t >= 0, vertices never, so that row
    is left out).  This holds on any inequality description of the set,
    redundant rows included.  A set containing a line has none: a ray in the
    lineality is tight on every row.
    """
    return tuple(compress(poly.vertices, _extreme_flags(poly)))


def _extreme_flags(poly: Polyhedron) -> list[bool]:
    """Per listed vertex, whether it is extreme (see ``extreme_points``)."""
    return _maximal(poly._vert_masks, poly._ray_masks)


def extreme_rays(poly: Polyhedron) -> tuple[Vec, ...]:
    """Extreme ray directions of the recession cone, line-free sets only: a
    listed ray is extreme iff no other ray is tight on every ``_rows`` row it
    is tight on (as in ``extreme_points``).

    Directions are normalized so the first nonzero coordinate is +-1.
    """
    if contains_line(poly):
        raise LinealityPresentError("extreme rays are undefined for sets containing a line")
    rays = compress(poly.rays, _maximal(poly._ray_masks))
    return tuple(sorted(vscale(1 / abs(next(a for a in r if a != 0)), r) for r in rays))


def minkowski_sum_with_cone(poly: Polyhedron, cone: Cone) -> Polyhedron:
    """poly + cone in generator form.

    The union and the sum are built from int data (``_make``): the
    union's rays are the int rays of ``poly``, the cone's generators and both
    signs of its lineality basis, all primitive already.  Without a line the
    sum keeps only its extreme points and extreme rays, both read off the
    incidence bitmasks of the union, and it is known to be line-free.  Where
    the union's rows are its facets it shares them (``_rows`` and
    ``_int_hrep``) and keeps the masks of the generators it keeps; otherwise
    (the union is a closure, which keeps its region's rows) it gets no rows,
    and its first incidence read converts its facets.  A pointed cone whose
    generators are all rays of ``poly`` adds nothing: the union is ``poly``
    itself, and no new value (and no vertex-to-facet conversion) is made for
    it.  With a line there are no extreme points, and the union is returned
    as is.
    """
    if poly.dim != cone.dim:
        raise ValueError("dimension mismatch")
    if not cone._lin and set(cone._gens) <= set(poly._rays):
        total = poly
    else:
        rays = {*poly._rays, *cone._gens, *cone._lin, *map(vneg, cone._lin)}
        total = Polyhedron._make(dim=poly.dim, _verts=poly._verts, _rays=tuple(sorted(rays)))
    if contains_line(total):
        return total
    keep, ray_keep = _extreme_flags(total), _maximal(total._ray_masks)
    out = Polyhedron._make(dim=poly.dim, _verts=tuple(compress(total._verts, keep)),
                           _rays=tuple(compress(total._rays, ray_keep)), _has_line=False)
    if vars(total).get("_int_hrep") is total._rows:
        vars(out).update(_rows=total._rows, _int_hrep=total._rows, _vert_masks=tuple(compress(total._vert_masks, keep)),
                         _ray_masks=tuple(compress(total._ray_masks, ray_keep)))
    return out
