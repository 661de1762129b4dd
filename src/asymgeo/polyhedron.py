"""Exact generalized polyhedra, closed and half-open.

Closed polyhedra carry a generator (V) representation ``conv(vertices) +
cone(rays)``; half-open sets are inequality (H) representations with a
per-row strict flag.  Conversion between the two runs the double
description method over Python ints, entered only through
``cone_from_rows`` (int or rational rows in, int generators out; the
closure, the facets and the degeneracy cone all pass through it, with int
rows, taken as they are and run in the order of their primitive forms; a
pointed cone costs one base elimination (``ratlp._basis``, which forms the
columns it reads only) and one insertion of the other rows by the insertion
loop ``_cut``, last to first, or first to last where the base passed over a
row that marks the input degenerate; a cone with lineality one null-space
elimination more and a second pointed run, in the same coordinates, with
the null space's basis as equation rows).  The local tangent-cone test of
``asymgeo.compactness`` runs ``_cut`` alone, started from the edges of a
closure at a vertex, which ``_edges`` reads off the closure's masks.
Every predicate (membership, inclusion, extremality, closedness) reduces
to exact support-function scans and to incidence against an
H-representation; emptiness and closedness are read off the closure's
generators.  The incidence predicates (extreme points and rays, lines, the
recession cone's lineality) read one record per value,
``Polyhedron._incidence`` (an ``_Incidence``): the rows of some integer
inequality description of the set, one bitmask of tight rows per generator,
and whether the rows are the facets; ``_rows``, ``_vert_masks`` and
``_ray_masks`` are views of it.  They run no elimination: a generator is
extreme iff no other one is tight on all its rows, and a line lies in the
set iff some ray is tight on every row.  One holder scan, ``_held`` (the
combinatorial test of Fukuda & Prodon 1996), decides extremality
(``_maximal``), the double description's adjacency (``_cut``) and a
vertex's edges (``_edges``).  A closure keeps the rows it was converted
from, so they run without a vertex-to-facet conversion, and the facets are
computed only where they are needed (``_int_facets``).

The masks come from the double description, which tracks the rows tight on
each ray anyway: ``cone_from_rows`` returns them over the rows it was
handed, bit i for the i-th, so the closure keeps them as they are (less the
bit of ``t >= 0``), and the facet conversion transposes them onto the
generators where the facets become the rows.  Each builder seeds the whole
record in one assignment, so rows never come without their masks.  The
conversion ``_h_to_v`` seeds the rows it converted, flagged as not the
facets: a region's closure has the region's rows (c, b), in their order
and without their strict flags (``PartialPolyhedron._closure``), so a
predicate that reads the closure off the region (``closure``) holds masks
that index the region's rows.  The facet conversion (``_int_facets``, the
record's default) makes the facets' record.  A pruned Minkowski sum takes
its union's record, less the masks of the generators it drops: the rows
describe the union's set, which is the sum's, and their ``facets`` flag
carries over; the sum is the union value itself, record and all, when
pruning keeps every generator (a line-free closure that the cone adds no
direction to is its own sum).  ``to_partial`` takes a value's ``_rows`` as
they are, so it converts nothing where rows are at hand.  A predicate on a region and its closure reads bits: a
closure vertex lies in the region iff no strict row is tight on it, the
region is empty iff a strict row is tight on every generator, closed iff no
strict row is tight on a vertex, and it meets a face of its closure iff no
strict row is tight on every generator of the face (``_meets_face``, which
finds the face's generators by one dot product each with its normal).
``_within`` scans support values (``_scan_support``, one per row) and
reads no memo of either value; these scans, membership and the face test
take their int dot products from the ``dot`` kernel of length dim
(``ratlp._unrolled``), as the double description does.  An inclusion that
holds by construction, a region in its own closure, is not asked of it
(``compactness.Instance._sandwiched``).  The incidence record, the line
test, the extreme flags and the recession cone are memoized on the value;
a builder seeds a memo only where it saves work (the record, a pruned
sum's extreme flags), never the line test, which is one ``in`` over the
ray masks.

Each value stores one canonical int form as the fields its class names in
``_fields`` (the value base ``ratlp._Value``), which equality, hash and
the predicates read: a ``Polyhedron`` each vertex v as (y, t), t > 0 and
v = y / t, and its rays primitive; a ``Cone`` its generators and
lineality basis primitive; a ``PartialPolyhedron`` each row (c, b)
cleared by the lcm of its denominators, with that scale; an ``AsymNorm``
(``asymgeo.norm``) its functionals over their common denominator, with
it.  So <c, v> <= b is <c, y> <= b * t.  The public
constructors (``Polyhedron(...)``, ``PartialPolyhedron(...)``,
``Cone(...)`` and ``AsymNorm(...)``) take any numbers, check them and
canonicalize them into this form.  The internal builders (the conversions,
the Minkowski sum, ``to_partial``, ``recession_cone``, and in other modules
the instance parser, the lattice and random generators, the unit box of
``gen sup|one``, the gauge ball, the degeneracy cone, the center and the
half-open sum) already hold it and hand it to ``_make``, which takes it as
given.
The ``Fraction`` attributes (``vertices``, ``rays``, ``constraints``,
``generators``, ``lineality_basis``, ``functionals`` and the facets
``hrep``) are views, built on first read and memoized (``ratlp._memo``,
as every memo of a value is); the repr prints them, as the constructor
call that makes the value.  Only views and public results are
``Fraction``s, and every view's vectors come from the stored ints
through ``ratlp._fractions``; ``vertices`` and ``constraints`` pass it one
memo per denominator for the call, so they hold one ``Fraction`` object
per distinct (entry, denominator) pair.  No internal path reads a view to
get ints back (``extreme_rays`` normalizes the int rays, and the arc-hull
generator takes a hull's int facets).

The incidence predicates run no LP, and the LP membership references the
tests check them against live in ``tests/support.py``.  One LP is left:
``partial_is_empty`` serves callers that hold rows but no closure and need
none (the random generator's rejection loop, up to d = 12), with one phase
one on d + 2 rows, Motzkin's alternative, where the double description's
cost grows fast with the dimension.

Sets are desk scale: dimension <= 12 (the largest the parser and ``gen``
take) and at most a few hundred rows, so the algorithms favour determinism
and verifiability over asymptotics.
"""

from __future__ import annotations

from collections import defaultdict
from fractions import Fraction
from functools import cmp_to_key, reduce
from itertools import chain, compress
from math import gcd
from operator import and_, or_
from typing import Collection, Iterable, NamedTuple, Optional, Sequence

from asymgeo.ratlp import (
    InternalInvariantError,
    Rational,
    Vec,
    _Value,
    _basis,
    _clear,
    _fractions,
    _int_rows,
    _memo,
    _null_space,
    _primitive,
    _reduce,
    _sized,
    _unrolled,
    as_vec,
    feasible_nonneg,
    vneg,
)

HRow = tuple[Vec, Rational]  # <normal, x> <= rhs


class LinealityPresentError(ValueError):
    """Raised when extreme rays are requested for a set containing a line."""


class Constraint(NamedTuple):
    normal: Vec
    rhs: Rational
    strict: bool


class Cone(_Value):
    """Finitely generated cone, possibly with lineality.

    ``lineality_basis`` spans the largest subspace contained in the cone.
    Stored as primitive int tuples: the generators deduplicated and sorted
    (a zero generator is dropped, as a zero ray is), the basis as given; a
    basis vector must have length ``dim`` and be nonzero.  ``generators``
    and ``lineality_basis`` are their ``Fraction`` views.
    """

    _fields = ("dim", "_gens", "_lin")
    _public = ("dim", "generators", "lineality_basis")

    def __init__(self, dim: int, generators: Sequence[Vec], lineality_basis: Sequence[Vec] = ()):
        if dim < 0:
            raise ValueError(f"dimension must be nonnegative, got {dim}")
        gens = tuple(_prepare_rows(_sized("ray", generators, dim)))
        lin = []
        for b in lineality_basis:
            _sized("lineality basis vector", [b], dim)
            b = _prepare_rows([b])
            if not b:
                raise ValueError("a lineality basis vector must be nonzero")
            lin.append(b[0])
        vars(self).update(dim=dim, _gens=gens, _lin=tuple(lin))

    @_memo
    def generators(self) -> tuple[Vec, ...]:
        return tuple(map(_fractions, self._gens))

    @_memo
    def lineality_basis(self) -> tuple[Vec, ...]:
        return tuple(map(_fractions, self._lin))


class PartialPolyhedron(_Value):
    """Intersection of closed and open half-spaces.

    Denotes {x : <c_j, x> < b_j for strict rows, <= b_j otherwise}.  Rows
    are stored as given, each (c, b, strict) with (c, b) as ints, cleared
    by the lcm ``_scales[j]`` of its denominators; redundancy never changes
    the denoted set.  ``constraints`` is their ``Fraction`` view, each row
    (c, b) made through its scale's memo, so the right-hand sides share
    the normals' objects; the closure is memoized on the value.
    """

    _fields = ("dim", "_rows", "_scales")
    _public = ("dim", "constraints")

    def __init__(self, dim: int, constraints: Sequence[Constraint]):
        if dim < 0:
            raise ValueError(f"dimension must be nonnegative, got {dim}")
        rows, scales = [], []
        for normal, rhs, strict in constraints:
            normal = tuple(normal)
            _sized("constraint row", [normal], dim)
            s, row = _clear((*normal, rhs))
            rows.append((tuple(row[:-1]), row[-1], bool(strict)))
            scales.append(s)
        vars(self).update(dim=dim, _rows=tuple(rows), _scales=tuple(scales))

    @_memo
    def constraints(self) -> tuple[Constraint, ...]:
        memos, view = defaultdict(dict), []
        for (c, b, strict), s in zip(self._rows, self._scales):
            f = _fractions((*c, b), s, memos[s])
            # the NamedTuple's own constructor body, without its Python frame
            view.append(tuple.__new__(Constraint, (f[:-1], f[-1], strict)))
        return tuple(view)

    @_memo
    def _strict_mask(self) -> int:
        """The strict rows as one bitmask over ``_rows``."""
        return sum([1 << j for j, (_, _, strict) in enumerate(self._rows) if strict])

    @_memo
    def _closure(self) -> Optional[Polyhedron]:
        """The conversion of the rows (c, b) without their strict flags, which
        become the closure's ``_rows``; the region is empty iff that is
        empty, or a strict row is tight on every generator of it."""
        poly = _h_to_v(tuple([(c, b) for c, b, _ in self._rows]), self.dim)
        if poly is None or reduce(and_, poly._ray_masks, reduce(and_, poly._vert_masks)) & self._strict_mask:
            return None
        return poly


class Polyhedron(_Value):
    """Closed polyhedron conv(vertices) + cone(rays); never empty.

    Stored as ints: each vertex v as (y, t), t > 0 the lcm of its
    denominators and v = y / t, deduplicated and in the lexicographic order
    of the vertices; the rays primitive, deduplicated and sorted.
    Lineality is represented by opposite ray pairs.  The listed vertices
    need not all be extreme; ``extreme_points`` computes the true extreme
    set.  ``vertices`` and ``rays`` are the ``Fraction`` views; ``vertices``
    is made through one memo per denominator, so equal coordinates over one
    denominator are one object.
    """

    _fields = ("dim", "_verts", "_rays")
    _public = ("dim", "vertices", "rays")

    def __init__(self, dim: int, vertices: Sequence[Vec], rays: Sequence[Vec] = ()):
        verts = _sorted_points({(tuple(y), t) for t, y in map(_clear, vertices)})
        if not verts:
            raise ValueError("a Polyhedron must have at least one vertex; the empty set is represented by None")
        _sized("vertex", [y for y, _ in verts], dim)
        vars(self).update(dim=dim, _verts=verts, _rays=tuple(_prepare_rows(_sized("ray", rays, dim))))

    @_memo
    def vertices(self) -> tuple[Vec, ...]:
        memos = defaultdict(dict)
        return tuple([_fractions(y, t, memos[t]) for y, t in self._verts])

    @_memo
    def rays(self) -> tuple[Vec, ...]:
        return tuple(map(_fractions, self._rays))

    @_memo
    def hrep(self) -> tuple[HRow, ...]:
        """The facets as ``Fraction`` rows (``dd_convert_v_to_h``): the rows of
        ``_incidence`` when they are the facets, else the value's one
        vertex-to-facet conversion (``_int_facets``)."""
        inc = self._incidence
        rows = (inc if inc.facets else _int_facets(self)).rows
        return tuple([(_fractions(c), Fraction(b)) for c, b in rows])

    @_memo
    def _incidence(self) -> _Incidence:
        """The integer inequality description of the set that the incidence
        predicates read, with its masks: the facets (``_int_facets``) unless
        a builder seeded the record, ``_h_to_v`` with the rows it converted
        (the region's rows (c, b) for a closure) and a pruned sum with
        its union's record (``minkowski_sum_with_cone``)."""
        return _int_facets(self)

    @property
    def _rows(self) -> tuple[tuple[Sequence[int], int], ...]:
        """The rows (c, b) of ``_incidence``; ``to_partial`` takes them as
        they are.  Converted rows may be duplicate, rescaled, redundant or
        zero; incidence decides the same on any inequality description of
        the set."""
        return self._incidence.rows

    @property
    def _vert_masks(self) -> tuple[int, ...]:
        """Per vertex, the ``_rows`` tight on it."""
        return self._incidence.verts

    @property
    def _ray_masks(self) -> tuple[int, ...]:
        """Per ray, the ``_rows`` its direction is tight on; a polytope reads no row."""
        return self._incidence.rays if self._rays else ()

    @_memo
    def _has_line(self) -> bool:
        """Is some ray orthogonal to every ``_rows`` normal?

        Their intersection is the lineality space of the recession cone, a
        face of cone(rays), so a ray lies in it unless it is {0}.  It is one
        ``in`` test over the ray masks, which every builder leaves to this
        memo; a polytope reads no row."""
        return bool(self._rays) and (1 << len(self._rows)) - 1 in self._ray_masks

    @_memo
    def _recession(self) -> Cone:
        """``recession_cone``, made once per value: the rays as its
        generators and a basis of the span of the rays tight on every row,
        the lineality space.  A polytope reads no row (``_ray_masks``)."""
        lin_members = [r for r, m in zip(self._rays, self._ray_masks) if m == (1 << len(self._rows)) - 1]
        work = _reduce([lin_members[j] for j in _basis(lin_members, self.dim)[1]])[0] if lin_members else ()
        return Cone._make(dim=self.dim, _gens=self._rays, _lin=tuple(map(_primitive, work)))

    @_memo
    def _extreme_flags(self) -> Sequence[bool]:
        """Per listed vertex, whether it is extreme (see ``extreme_points``);
        a pruned sum seeds all true."""
        return _maximal(self._vert_masks, self._ray_masks)

    @_memo
    def _extreme_ray_flags(self) -> Sequence[bool]:
        """Per listed ray, whether it is extreme (see ``extreme_rays``), as
        ``_extreme_flags``."""
        return _maximal(self._ray_masks)


class _Incidence(NamedTuple):
    """An integer inequality description of a polyhedron, seeded whole: the
    rows (c, b), <c, x> <= b; per vertex and per ray the mask of the rows
    tight on it, bit j for ``rows[j]``; and whether the rows are the facets."""

    rows: tuple[tuple[Sequence[int], int], ...]
    verts: tuple[int, ...]
    rays: tuple[int, ...]
    facets: bool


def _sorted_points(points: Collection[tuple[tuple[int, ...], int]]) -> tuple[tuple[tuple[int, ...], int], ...]:
    """Points (y, t), t > 0, in the lexicographic order of y / t
    (``_point_order``)."""
    return tuple(sorted(points, key=cmp_to_key(_point_order)))


def _point_order(p: tuple[tuple[int, ...], int], q: tuple[tuple[int, ...], int]) -> int:
    """-1, 0 or 1 as y / t is lexicographically below, at or above z / s,
    for p = (y, t) and q = (z, s), t, s > 0: at the first i where they
    differ, y_i / t against z_i / s is y_i * s against z_i * t.  No joint
    denominator is formed, since the lcm of all the t's grows with the
    point count (51,641 bits over the 15,225 vertices of the random d = 11
    closure of seed 11003)."""
    (y, t), (z, s) = p, q
    for a, b in zip(y, z):
        a, b = a * s, b * t
        if a != b:
            return -1 if a < b else 1
    return 0


# ---------------------------------------------------------------------------
# Double description
# ---------------------------------------------------------------------------


def _prepare_rows(rows: Sequence[Sequence]) -> list[tuple[int, ...]]:
    """Primitive, deduplicated, lexicographically sorted nonzero rows, as int
    tuples (the constructors' canonical form of rays and lineality basis
    vectors); int rows are taken as they are, rational ones cleared first."""
    return sorted({r for r in map(_primitive, _int_rows(rows)) if any(r)})


def _pointed_cone_rays(rows: Sequence[Sequence[int]],
                       dim: int) -> Optional[tuple[list[tuple[int, ...]], list[int]]]:
    """Extreme rays of the pointed cone {x : <row, x> <= 0 for all rows}.

    Classic double description over Python ints: start from a simplicial
    subcone given by a maximal independent row subset, then insert the
    remaining rows one at a time (``_cut``).  The rows are taken as given
    and run in the lexicographic order of their primitive forms
    (``ratlp._primitive``): a duplicate or a positive multiple runs next to
    its first copy, and it, like a zero row, cuts no ray and only gains its
    bit where it is tight.  The rays and their final masks do not depend on
    the insertion order, but the work does (Fukuda & Prodon 1996), and the
    order is read off the base elimination, which costs nothing more.  The
    base is the lexicographically first independent rows, so the
    elimination passes over each row in the span of the rows picked before
    it.  If one of those is nonzero and no copy of the row before it, the
    input is degenerate (in general position no row is passed over), and
    the other rows go in first to last, nearest the base first, as cdd's
    default LexMin order does; on the homogenized rows of a one-norm
    lattice ball that order makes about a quarter fewer rays.  Otherwise
    they go in last to first, which makes fewer rays and candidate pairs on
    random inputs at d = 4..8.  Copies and zero rows do not count: on the
    closures of random instances at d = 6-7 with their lexicographically
    first row duplicated and a zero row added, first to last makes 1.5-2x
    the rays and 2-3.5x the candidate pairs.
    Requires int rows of length dim; returns the rays as primitive int
    tuples, sorted, and aligned with them their final masks, the rows tight
    on each (bit i for ``rows[i]`` as given); or None when the rows have
    rank below dim (the cone has lineality), which the elimination that
    picks the base (``_basis``) finds out first.
    """
    # The base is the lexicographically first independent rows B; the
    # identity block of its elimination is det * B^-1 transposed,
    # det = |det B| > 0: row j is a positive multiple of column j of B^-1,
    # so minus it is the ray tight on every chosen row but the j-th.
    keys = list(map(_primitive, rows))
    order = sorted(range(len(keys)), key=keys.__getitem__)
    ranked = [keys[i] for i in order]
    block, base_idx, _ = _basis(ranked, dim)
    if len(base_idx) < dim:
        return None
    rays = [_primitive([-a for a in w]) for w in block]
    base_bits = [1 << order[k] for k in base_idx]
    base = sum(base_bits)
    # the base passed over the rows before its last pick that it did not
    # pick, none in general position (it picked the first dim rows); a
    # nonzero one that is no copy of the row before it is degenerate
    last = base_idx[-1] if base_idx else 0
    if last < dim or not any(any(ranked[j]) and ranked[j] != ranked[j - 1]
                             for j in set(range(last)).difference(base_idx)):
        order.reverse()
    return _cut(rays, [base & ~bit for bit in base_bits],
                [(i, keys[i]) for i in order if not base >> i & 1], dim)


def _held(common: int, masks: Iterable[int], limit: int) -> bool:
    """Are at most ``limit`` of ``masks`` tight on every bit of ``common``?

    The combinatorial incidence test of Fukuda & Prodon 1996, the one
    holder scan of the module: a listed generator is extreme iff only its
    own mask holds its rows (``_maximal``, limit 1), and two of them are
    adjacent iff only their two masks hold their common rows (``_cut`` and
    ``_edges``, limit 2).  It stops at the first holder past the limit.
    """
    holders = 0
    for m in masks:
        if m & common == common:
            holders += 1
            if holders > limit:
                return False
    return True


def _cut(rays: Sequence[tuple[int, ...]], masks: Sequence[int],
         rows: Iterable[tuple[int, Sequence[int]]], dim: int) -> tuple[list[tuple[int, ...]], list[int]]:
    """The double description's insertion loop: the extreme rays of a
    pointed cone cut by more rows {x : <row, x> <= 0}.

    ``rays`` are the extreme rays of a pointed cone in dimension ``dim``,
    primitive, and ``masks`` aligned with them the rows of some inequality
    description of that cone tight on each; ``rows`` are (i, row) pairs, in
    the order they are inserted, and the row's bit in the masks is 1 << i.
    Each insertion splits the rays: cut ones (<row, r> > 0) go, tight ones
    gain the bit, and each pair of a cut ray and a strictly kept one that is
    adjacent is combined into a ray on the new hyperplane, tight exactly
    where both parents are, plus on the new row.  Two rays are adjacent iff
    they share at least dim - 2 tight rows and no third ray is tight on all
    of those (``_held``, valid on any inequality description because the
    ray set stays minimal).  The third ray is looked for only when neither
    of the two is simple, tight on exactly dim - 1 rows: the
    rows tight on an extreme ray of a pointed cone have rank dim - 1, and
    the masks name every tight row of the current description, so a simple
    ray's rows are independent.  Any dim - 2 of them, shared by the other
    ray, cut out a plane, and the face on it is a pointed 2-dimensional
    cone holding both rays, whose two extreme rays they are: adjacent, as
    the scan would find.  A copy or a zero row adds a bit and no rank, so
    it never makes a ray look simple.  Returns the rays, primitive and
    sorted, and aligned with them their masks.  The split's dot products,
    the pairs' combinations vp * rq - vq * rp and their division by the
    gcd run through the kernels of length dim (``ratlp._unrolled``).  The
    loop is incremental: rows run one at a time, each run from the last
    one's output, return the same (``tools/dd_scale.py --counts`` reads the
    work that way).
    """
    need = dim - 2
    inc = list(masks)
    dot, comb, div = _unrolled("dot", dim), _unrolled("comb", dim), _unrolled("div", dim)
    for i, row in rows:
        if not rays:
            break
        bit = 1 << i
        # one pass splits the rays: cut (v > 0) go, tight ones gain the bit,
        # strictly kept ones (v < 0) stay as they are and pair with the cut;
        # a row that cuts no ray only updates the masks
        cut, minus, next_rays, next_inc = [], [], [], []
        for r, m in zip(rays, inc):
            v = dot(row, r)
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
            simple = mp.bit_count() == dim - 1
            for vq, rq, mq in minus:
                common = mp & mq
                if common.bit_count() < need:
                    continue
                # adjacent iff p and q are the only rays tight on all of common
                if not (simple or mq.bit_count() == dim - 1 or _held(common, inc, 2)):
                    continue
                w = comb(vp, vq, rp, rq)
                g = gcd(*w)
                next_rays.append(w if g == 1 else div(w, g))
                next_inc.append(common | bit)
        rays, inc = next_rays, next_inc
    ranked = sorted(range(len(rays)), key=rays.__getitem__)
    return [rays[k] for k in ranked], [inc[k] for k in ranked]


def _edges(poly: Polyhedron, k: int) -> tuple[list[tuple[int, ...]], list[int]]:
    """The edges of a pointed ``poly`` at its k-th listed vertex v: their
    directions, primitive, and aligned with them the ``_rows`` tight on
    each, the double description of v's tangent cone that ``_cut`` starts
    from.

    The value lists its extreme vertices and rays only, with their masks,
    so the edges are read off incidence (Fukuda & Prodon 1996): a generator
    g is adjacent to v iff at least dim - 1 rows are tight on both and no
    third generator is tight on all of them (``_held``).  The third one is
    looked for only when v is not simple, tight on more than dim rows: the
    rows tight at a vertex of a pointed polyhedron have rank dim, and the
    mask names every one of them, so a simple vertex's rows are
    independent, any dim - 1 of them shared by g cut out a line, and the
    polyhedron meets it in an edge at v, which g spans (a vertex of it
    other than v is its far end, a ray its direction).  The direction is
    w - v for a vertex w (t_v y_w - t_w y_v on the stored ints) and the
    ray itself for a ray, tight on the rows tight on both.
    """
    (yv, tv), mv = poly._verts[k], poly._vert_masks[k]
    pool = (*poly._vert_masks, *poly._ray_masks)
    dirs = chain(poly._verts, [(r, 0) for r in poly._rays])
    simple = mv.bit_count() == poly.dim
    comb = _unrolled("comb", poly.dim)
    edges, masks = [], []
    for j, ((y, t), m) in enumerate(zip(dirs, pool)):
        common = m & mv
        if j == k or common.bit_count() < poly.dim - 1 or not (simple or _held(common, pool, 2)):
            continue
        edges.append(_primitive(comb(tv, t, yv, y)))
        masks.append(common)
    return edges, masks


def cone_from_rows(rows: Sequence[Sequence], dim: int) -> tuple[
        tuple[tuple[int, ...], ...], tuple[tuple[int, ...], ...], tuple[int, ...]]:
    """Generators and lineality basis of {x : <row, x> <= 0 for all rows},
    then the generators' incidence over the rows.

    The one entry to the double description: int or rational rows in,
    primitive int tuples out, the generators sorted.  A pointed cone takes
    one elimination, the lazy ``ratlp._basis`` that ``_pointed_cone_rays``
    picks its base with.
    Only when that finds the rank below dim is the lineality (the null space
    of the rows) split off, and the cone is cut by its equations: each basis
    vector l enters as the rows l and -l, so the same pointed run, in the
    same coordinates, yields the extreme rays of the cone's intersection with
    the orthogonal complement of the lineality (Fukuda & Prodon 1996).
    The third item holds, per generator, the mask of the rows tight on it,
    bit i for ``rows[i]`` as given (the equation rows' bits are dropped);
    duplicate, rescaled and zero rows get their bits like any other row.
    """
    rows = _int_rows(_sized("row", rows, dim))
    run = _pointed_cone_rays(rows, dim)
    lin = ()
    if run is None:
        lin = tuple(_null_space(rows, dim))
        run = _pointed_cone_rays([*rows, *lin, *map(vneg, lin)], dim)
        if run is None:
            raise InternalInvariantError("the rows and their null space span the space")
        full = (1 << len(rows)) - 1
        run = run[0], [m & full for m in run[1]]
    return tuple(run[0]), lin, tuple(run[1])


def dd_convert_h_to_v(hrep: Sequence[HRow], dim: int) -> Optional[Polyhedron]:
    """Generator representation of {x : <c_j, x> <= b_j}; None if empty.

    Works on the homogenization cone {(x, t) : <c_j, x> - b_j t <= 0, t >= 0}:
    generators with positive last coordinate scale to vertices, the rest are
    recession directions, and lineality comes back as opposite ray pairs.
    Rows may be int or rational, each normal of length ``dim``: the closure
    of the region of these rows, none strict, whose constructor checks and
    clears them, so the result's ``_rows`` are the given rows as ints and
    its incidence predicates run without a vertex-to-facet conversion
    (``_h_to_v``).
    """
    return closure(PartialPolyhedron(dim, [(c, b, False) for c, b in hrep]))


def _h_to_v(rows: tuple[tuple[tuple[int, ...], int], ...], dim: int) -> Optional[Polyhedron]:
    """``dd_convert_h_to_v`` of int rows (c, b), which become the result's
    ``_rows`` as given, the same tuple.

    The value is built from the DD's int output as it is (``_make``): a
    primitive generator (y, t) is already the vertex's stored form, and the
    vertices are sorted on ints.  It contains a line iff the homogenization
    cone has lineality.  The DD's masks index the homogenized rows, so they
    are the masks over ``rows`` once the bit of ``t >= 0``, the last row,
    is dropped; every row is tight on a lineality direction, so the line
    test (``_has_line``) finds that mask among the rays'.
    """
    gens, lin, masks = cone_from_rows([*[(*c, -b) for c, b in rows], (0,) * dim + (-1,)], dim + 1)
    full = (1 << len(rows)) - 1
    verts, rays = {}, {}
    for g, m in zip(gens, masks):
        if g[-1] > 0:
            verts[g[:-1], g[-1]] = m & full
        else:
            rays[g[:-1]] = m & full
    for l in lin:
        if l[-1] != 0:
            raise InternalInvariantError("homogenization lineality must be horizontal")
        rays[l[:-1]] = rays[vneg(l[:-1])] = full
    if not verts:
        return None
    points, raydirs = _sorted_points(verts), tuple(sorted(rays))
    incidence = _Incidence(rows, tuple(map(verts.__getitem__, points)), tuple(map(rays.__getitem__, raydirs)), False)
    return Polyhedron._make(dim=dim, _verts=points, _rays=raydirs, _incidence=incidence)


def dd_convert_v_to_h(poly: Polyhedron) -> tuple[HRow, ...]:
    """Inequality representation of a closed polyhedron: its facets as
    ``Fraction`` rows, primitive integer data in sorted order, the memo
    ``poly.hrep`` itself."""
    return poly.hrep


def _int_facets(poly: Polyhedron) -> _Incidence:
    """The facets of a closed polyhedron as int rows (c, b), <c, x> <= b,
    with per vertex and per ray the mask of the facets tight on it: the
    default ``Polyhedron._incidence``.

    Every vertex-to-facet conversion runs here.  Dualizes the homogenization
    cone: its polar is described by the generators as rows (the int vertices
    (y, t) as (y, t), the rays as (r, 0)), so one more double description run
    yields the candidate rows.  The lineality of the polar comes back as
    opposite row pairs pinning the affine hull; the rest are the polar's
    extreme rays, so facets, and only ``t >= 0`` (zero normal) is dropped.
    Both come out primitive, so the rows are primitive, in sorted order.
    A polar ray's mask names the generators tight on its facet (bit i for
    the i-th generator row), and the affine-hull rows are tight on all;
    transposed per set bit, they give each generator's mask over the sorted
    facets.
    """
    gen_rows = [(*y, t) for y, t in poly._verts] + [(*r, 0) for r in poly._rays]
    gens, lin, masks = cone_from_rows(gen_rows, poly.dim + 1)
    facets = {}
    for (*c, g), m in zip(gens, masks):
        if any(c):
            facets[(tuple(c), -g)] = m
        elif g > 0:
            raise InternalInvariantError("a nonempty polyhedron admits no contradictory row")
    every = (1 << len(gen_rows)) - 1
    for *c, g in lin:
        if not any(c):
            raise InternalInvariantError("affine-hull rows have nonzero normals")
        facets[(tuple(c), -g)] = facets[(tuple([-a for a in c]), g)] = every
    rows = sorted(facets)
    tight = [0] * len(gen_rows)
    for f, row in enumerate(rows):
        bit, m = 1 << f, facets[row]
        while m:
            low = m & -m
            tight[low.bit_length() - 1] |= bit
            m ^= low
    cut = len(poly._verts)
    return _Incidence(tuple(rows), tuple(tight[:cut]), tuple(tight[cut:]), True)


def to_partial(poly: Polyhedron) -> PartialPolyhedron:
    """The same closed set as an all-non-strict partial polyhedron.

    Built from the int rows ``poly._rows`` as they are (``_make``), each of
    scale 1: the facets, unless a conversion seeded other rows (a closure's
    are its region's), so no facet conversion runs for a value that has
    rows.  Nothing else is seeded: like every closure, its closure is the
    double description of its rows.
    """
    rows = poly._rows
    return PartialPolyhedron._make(dim=poly.dim, _rows=tuple([(c, b, False) for c, b in rows]),
                                   _scales=(1,) * len(rows))


def _scan_support(poly: Polyhedron, c: Sequence[int]) -> Optional[tuple[int, int]]:
    """sup of <c, x> over the polyhedron for an int row c, as (n, t) with
    value n / t and t > 0; None when unbounded.

    Exact and LP-free: the supremum of a linear functional over
    conv(V) + cone(R) is attained at a vertex unless some ray ascends, and
    the maximum over the vertices (y, t) is taken by cross-multiplying.
    Each value <c, r> and <c, y> is one call of the ``dot`` kernel of
    length dim (``ratlp._unrolled``)."""
    dot = _unrolled("dot", poly.dim)
    if any(dot(c, r) > 0 for r in poly._rays):
        return None
    best_n, best_t = None, 1
    for y, t in poly._verts:
        n = dot(c, y)
        if best_n is None or n * best_t > best_n * t:
            best_n, best_t = n, t
    return best_n, best_t


# ---------------------------------------------------------------------------
# Predicates on partial polyhedra
# ---------------------------------------------------------------------------


def partial_is_empty(region: PartialPolyhedron) -> bool:
    """Exact emptiness test honouring strict rows, by Motzkin's alternative.

    {Cx <= b, strict on the rows S} is empty iff y, z >= 0 satisfy C^T y = 0,
    b^T y + z = 0 and 1_S^T y + z = 1 (Motzkin 1936; Schrijver 1986, sec. 7.8):
    one ``feasible_nonneg`` run on d + 2 rows, a column (c_j, b_j, [j in S])
    per stored int row (its scale changes no answer) and (0, 1, 1) for z.
    It serves the random generator's rejection loop, up to d = 12.  On its
    draws the closure's double description is 1.05-1.6x slower at d = 1..4,
    1.1-1.7x at 5, 2.6-3.2x at 6, 6x at 7, 10-13x at 8, 38-45x at 9 and
    150-185x at d = 10 (Python 3.11, 2 vCPUs), so the LP decides at every
    dimension.
    """
    dim = region.dim
    cols = [(*c, b, int(strict)) for c, b, strict in region._rows]
    cols.append((0,) * dim + (1, 1))
    return feasible_nonneg(list(zip(*cols)), (0,) * (dim + 1) + (1,))


def member(region: PartialPolyhedron, x: Vec) -> bool:
    """Exact membership by direct evaluation of every row, on ints: x = y / t
    lies on the right side of (c, b) iff <c, y>, by the ``dot`` kernel,
    against b * t does.  A closure vertex is tested off its mask instead,
    one AND with the strict rows (``compactness.Instance._inside``)."""
    t, y = _clear(as_vec(x))
    _sized("point", [y], region.dim)
    dot = _unrolled("dot", region.dim)
    for c, b, strict in region._rows:
        val, bound = dot(c, y), b * t
        if val > bound or strict and val == bound:
            return False
    return True


def closure(region: PartialPolyhedron) -> Optional[Polyhedron]:
    """Topological closure; None when the region is empty.

    For a nonempty intersection of open and closed half-spaces the closure
    is exactly the all-non-strict relaxation, so it suffices to drop the
    strict flags and convert; the region is empty iff that is, or the region
    misses all of it.  The result is memoized on the region.
    """
    return region._closure


def _meets_face(region: PartialPolyhedron, normal: Sequence, top: int | Rational) -> bool:
    """Does the region meet the face of its closure where <normal, x> = top (its maximum there)?

    The face is generated by the closure's vertices attaining ``top`` and
    its rays orthogonal to ``normal``, one call of the ``dot`` kernel each.
    A strict row removes the subface where it is tight, and finitely many
    faces cover a nonempty convex set only if one is the whole set: the
    region meets the face iff no strict row is tight on all of it, that is
    on every generator of it.  The closure is read off the region
    (``closure``), so its masks index the region's rows, one AND of the
    face's masks decides, so a region without strict rows, whose mask is 0,
    meets every face.  Int input passes as is; every test runs on ints.  A
    row of the closure's own takes the same path as any other: no decision
    calls this test, and after a COMPACT one T1-T6 call it on no row, since
    every vertex of closure + C lies in the region, so each row they test is
    met there.
    """
    strict, hull, dot = region._strict_mask, closure(region), _unrolled("dot", region.dim)
    *normal, top = _clear((*normal, top))[1]
    face = [m for (y, t), m in zip(hull._verts, hull._vert_masks) if dot(normal, y) == top * t]
    face += [m for r, m in zip(hull._rays, hull._ray_masks) if not dot(normal, r)]
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

    Each row of the region is maximized over ``poly`` (``_scan_support``);
    the maximum must exist and stay within the row's bound.
    A strict row must not reach its bound on the closed ``poly``, and on
    ``part`` it reaches it only where its optimal face over ``poly`` meets
    ``part`` (``_meets_face``).
    """
    for c, b, strict in region._rows:
        top = _scan_support(poly, c)
        if top is None or top[0] > b * top[1]:
            return False
        if strict and top[0] == b * top[1] and (part is None or _meets_face(part, c, b)):
            return False
    return True


def set_equal(first: PartialPolyhedron, second: PartialPolyhedron) -> bool:
    return subset(first, second) and subset(second, first)


# ---------------------------------------------------------------------------
# Generator-side predicates
# ---------------------------------------------------------------------------


def _maximal(masks: Sequence[int], rivals: Sequence[int] = ()) -> list[bool]:
    """Per mask, whether no other mask and no rival holds all of its bits
    (``_held``: the mask itself is its one holder)."""
    pool = (*masks, *rivals)
    return [_held(a, pool, 1) for a in masks]


def recession_cone(poly: Polyhedron) -> Cone:
    """cone(rays) of the polyhedron, with an explicit lineality basis.

    The rays tight on every ``_rows`` row span the lineality, and its basis
    is their reduced row echelon form, each row made primitive: that of the
    independent ones among them that ``ratlp._basis`` picks, since the
    reduced form of a row space is unique.  A polytope's cone is {0}, and
    no rows are needed.  Built from the int rays as they are, and memoized
    on the value, so a second decision on the same closure (T6 on a set
    that is its own saturated hull) reads it again.
    """
    return poly._recession


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
    return tuple(compress(poly.vertices, poly._extreme_flags))


def extreme_rays(poly: Polyhedron) -> tuple[Vec, ...]:
    """Extreme ray directions of the recession cone, line-free sets only: a
    listed ray is extreme iff no other ray is tight on every ``_rows`` row it
    is tight on (as in ``extreme_points``).

    Directions are normalized so the first nonzero coordinate is +-1.
    """
    if contains_line(poly):
        raise LinealityPresentError("extreme rays are undefined for sets containing a line")
    rays = compress(poly._rays, poly._extreme_ray_flags)
    return tuple(sorted([_fractions(r, abs(next(filter(None, r)))) for r in rays]))


def minkowski_sum_with_cone(poly: Polyhedron, cone: Cone) -> Polyhedron:
    """poly + cone in generator form.

    The union and the sum are built from int data (``_make``): the
    union's rays are the int rays of ``poly``, the cone's generators and both
    signs of its lineality basis, all primitive already.  A pointed cone
    whose generators are all rays of ``poly`` adds nothing: the union is
    ``poly`` itself, with its rows and masks, and no new value is made for
    it.  With a line there are no extreme points, and the union is returned
    as is.  Without one the sum keeps only its extreme points and extreme
    rays, both read off the incidence bitmasks of the union.  When that
    keeps every generator the sum is the union value itself: a line-free
    closure that the cone adds no direction to is its own sum, rows and
    masks and all, so no vertex-to-facet conversion runs for it.  A pruned
    sum is a new value, known to be line-free with every listed generator
    extreme, made with the union's incidence record less the masks of the
    generators it drops: the union's rows describe the union's set, which
    is the sum's, and their ``facets`` flag carries over.
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
    keep, ray_keep = total._extreme_flags, total._extreme_ray_flags
    if all(keep) and all(ray_keep):
        return total
    verts, rays = tuple(compress(total._verts, keep)), tuple(compress(total._rays, ray_keep))
    inc = total._incidence
    return Polyhedron._make(dim=poly.dim, _verts=verts, _rays=rays,
                            _extreme_flags=(True,) * len(verts), _extreme_ray_flags=(True,) * len(rays),
                            _incidence=inc._replace(verts=tuple(compress(inc.verts, keep)),
                                                    rays=tuple(compress(inc.rays, ray_keep))))
