"""Compactness in the gauge topology, decided with checkable certificates.

For a nonempty half-open polyhedral region K under a polyhedral gauge, the
decision procedure is:

    compact  <=>  (a) every recession direction of the closure has gauge 0
             and  (b) every extreme point of closure(K) + C lies in K,

where C is the degeneracy cone of the gauge.  Sufficiency: the convex hull
S of those extreme points is a bounded polytope contained in K, and the
(pointed, closed) sum closure(K) + C decomposes as S + C, so S squeezes K
as S <= K <= S + C; any cover of S by gauge-open sets absorbs C and hence
covers all of K.  Necessity: a closure recession direction survives inside
K itself (strict rows only relax along it), so a direction of positive
gauge embeds an escaping ray; and an extreme point of the sum that misses
K stays extreme in the smaller sum K + C, which is closed and must keep
its extreme points inside K — a contradiction either way.

A COMPACT verdict therefore ships the center polytope S with the verified
sandwich, and a NOT_COMPACT verdict ships a witness that re-verifies by
direct evaluation.  If the internal sandwich check ever failed the verdict
would be reported UNKNOWN rather than guessed.

Only a COMPACT verdict needs closure(K) + C: for the center, the
sandwich and the checks T1, T3 and T4.  C and test (a) are facts of the
instance (``Instance.degeneracy``, ``Instance._escaping``), each derived on
first read from the instance's own fields, so no decision depends on what
an earlier one on the same gauge value computed.  A NOT_COMPACT verdict
builds neither C nor closure(K) + C, and it runs one double description,
the closure's.  It reads everything off the closure's generators and
masks, the region's own rows and the gauge's functionals: (a) through the
closure's recession cone, and (b), once (a) holds, through a local test at
each closure vertex that misses K: its tangent cone must meet -C only in
0, and the closure's edges at the vertex, which ``polyhedron._edges`` reads
off its masks, are that cone's generators, so the test inserts the gauge's
rows into them and runs no base elimination (``_tangent_cone_misses``).

One more fact of the instance compares the closure's nonzero row normals
with the gauge's functionals, as primitive forms (``Instance._rows_in_gauge``),
and a gauge ball passes it.  When every row normal is a positive multiple
of a functional, C lies in the closure's recession cone row by row, so
closure(K) + C is the closure: (b)'s local test is the closure's own
extreme flag, with no edge read and no row inserted
(``_extreme_in_saturation``), and once (a) holds, which gives the other
inclusion, the closure's rays are C's generators and C's own double
description never runs; a COMPACT closed ball runs one, its closure's.
When moreover every nonzero functional is a positive multiple of a row
normal, the recession cone is C itself, so (a) holds with no cone made
and no direction scanned, as it does on a bounded closure.

A COMPACT verdict with the checks T1-T6 converts vertices to facets at
most once, for closure(K) + C, and not at all when the closure holds C.
A closed gauge ball does: rec(B) = C and B + C = B, so closure(K) + C is
the closure itself, the very value with the region's rows and masks, and
the sandwich, T3, T4 and T6 scan no row: the closure is read off the region
(``closure``), so its masks index the region's rows, and K <= closure(K) + C
is K <= closure(K), which holds without a check, in the decision and in
T6's, whose region K + C has closure(K) + C as its closure and its own sum.
Once every recession direction has gauge 0, the pruned closure(K) + C is
S + C field for field: its vertices are S's, and its rays are C's
generators, which ``decide_compact`` checks on the stored ints.
The minimal generators of a line-free polyhedron are unique (Fukuda &
Prodon 1996), so equal fields mean equal sets, and the sandwich checks
K <= S + C against the rows of closure(K) + C where that is not the
closure.  The sandwich is one fact on the instance
(``Instance._sandwiched``), which the verdict and T3 read.  S <= K holds
iff the vertices of S lie in K; they are closure vertices, and whether each closure
vertex lies in K is one AND of its mask with the strict rows, taken once
per instance (``Instance._inside``, a map from each closure vertex to the
answer, which the escape test reads).  The vertices of closure(K) + C are
closure vertices too, so their answers are one lookup each
(``Instance._sum_inside``), and the sandwich, T1 (every vertex of
closure(K) + C lies in K) and the half-open sum read that one list: no
vertex is tested row by row.  T3 and T4 compare closed sets by their generators:
S + C = closure(K) + C is that equality of values for the center S of a
sandwiched instance, so T3 of that center is the instance's sandwich fact.
Any other center S' passes iff the fact holds, S' lies in K (``_within``)
and S' + C equals closure(K) + C as a value: S' <= K <= S' + C =
closure(K) + C as sets implies the fact, and both sums are line-free and
pruned, so they are equal as sets iff they are equal as values, and no
second sandwich runs.  K + C equals its closure iff it is closed
(``is_closed``).
The half-open K + C comes with its closure, closure(K) + C
(``saturate_region``), so T4 and T6 run no DD for it.  T6 decides K + C:
its closure already holds C's directions, so adding C builds no new set,
its center is S again, and its saturated hull is its closure, the value
closure(K) + C, whose recession cone and extreme flags are memoized on
it.  T6's instance is handed C and, when (a) held, (a) itself:
rec(closure(K) + C) = rec(closure(K)) + C has gauge 0 by subadditivity.
So it derives C no second time and evaluates no gauge on its rays, and
for a ball, whose closure(K) + C is the closure, it re-derives nothing.
closure(K) + C is the closure or has its facets as its
rows, with their masks, and these are the rows of K + C, whose strict
flags are read off those masks; so T4's ``is_closed``, T6's vertex tests
and T6's sandwich read masks and scan nothing.
"""

from __future__ import annotations

import enum
from functools import reduce
from itertools import compress
from operator import or_
from typing import Iterator, Optional, Sequence, Union

from asymgeo.ratlp import (InternalInvariantError, Vec, _Value, _fractions, _memo, _primitive, _unrolled, rat, vneg,
                           zero_vec)
from asymgeo.norm import AsymNorm, Closedness, ball, degeneracy_cone
from asymgeo.polyhedron import (
    Cone,
    PartialPolyhedron,
    Polyhedron,
    _cut,
    _edges,
    _meets_face,
    _within,
    closure,
    contains_line,
    is_closed,
    minkowski_sum_with_cone,
    recession_cone,
    subset,
    to_partial,
)


class EmptyRegionError(ValueError):
    """The decision procedure requires a nonempty region."""


class EmptyExtremeSetError(ValueError):
    """No extreme points exist (the saturated hull contains a line)."""


class Verdict(enum.Enum):
    COMPACT = "COMPACT"
    NOT_COMPACT = "NOT_COMPACT"
    UNKNOWN = "UNKNOWN"


class BadRecessionDirection(_Value):
    """Closure recession direction of positive gauge: an escaping ray."""

    _fields = ("direction",)

    def __init__(self, direction: Vec):
        self._set(direction)


class EscapedExtremePoint(_Value):
    """Extreme point of the saturated hull that the region fails to contain."""

    _fields = ("point",)

    def __init__(self, point: Vec):
        self._set(point)


Witness = Union[BadRecessionDirection, EscapedExtremePoint]


class CompactnessCertificate(_Value):
    _fields = ("verdict", "center", "witness")

    def __init__(self, verdict: Verdict, center: Optional[Polyhedron] = None, witness: Optional[Witness] = None):
        self._set(verdict, center, witness)


class Instance(_Value):
    """A gauge and a nonempty region of its dimension, its two fields, checked
    whenever an instance is made, directly or by ``build``
    (``__init__``); everything else is derived from them on first read
    and memoized on the instance.  ``hull`` is the region's closure, the
    very value ``closure`` memoizes on the region, so its masks index the
    region's rows.  Test (a) of the decision is one fact (``_escaping``).
    Whether the closure's row directions are among the gauge's, and whether
    they are all of them, is another (``_rows_in_gauge``): on a gauge ball
    it answers test (a) with no scan, yields the cone off the closure and
    makes each local test of the decision the closure's extreme flag.
    The degeneracy cone and the saturated hull closure + cone are needed
    only by a COMPACT verdict and the structure checks (the center, the
    sandwich, T1, T3 and T4), so a NOT_COMPACT verdict builds neither.  The
    cone is read off the closure where it can be (``degeneracy``).  T6's
    instance, on the region + cone, is made with this one's cone and, when
    it holds, test (a) (``_make``), so it derives neither again.  Whether
    each closure vertex lies in the region (``_inside``) and each vertex of
    the saturated hull (``_sum_inside``, read by the sandwich, T1 and the
    half-open sum) are one list each, and whether the saturated hull is the
    center candidate plus the cone with the region squeezed between the two
    (``_sandwiched``) is one fact, which ``decide_compact`` and T3 read."""

    _fields = ("norm", "region")

    def __init__(self, norm: AsymNorm, region: PartialPolyhedron):
        """Raise unless the dimensions agree and the region is nonempty: its
        closure, memoized on the region for ``hull``, is not None."""
        if norm.dim != region.dim:
            raise ValueError("gauge and region dimensions differ")
        if closure(region) is None:
            raise EmptyRegionError("the region is empty")
        self._set(norm, region)

    @classmethod
    def build(cls, norm: AsymNorm, region: PartialPolyhedron) -> "Instance":
        """The checked instance of a gauge and a region (``__init__``)."""
        return cls(norm, region)

    @_memo
    def hull(self) -> Polyhedron:
        """The region's closure (``closure``)."""
        return closure(self.region)

    @_memo
    def _rows_in_gauge(self) -> tuple[bool, bool]:
        """(rows <= gauge, rows = gauge) for the closure P: whether every
        nonzero row normal of P (``hull._rows``) is a positive multiple of a
        functional (their primitive forms are equal), and whether moreover
        every nonzero functional is a positive multiple of one of them, as a
        gauge ball's rows are.  The rows' primitive forms are scanned once
        against the set of the functionals', and the first row normal that
        is no functional's ends the scan.  rows <= gauge gives C <= rec(P)
        row by row, so P + C = P; rows = gauge gives
        rec(P) = {x : <a_i, x> <= 0} = C (a zero functional bounds
        nothing)."""
        gauge, seen = set(map(_primitive, self.norm._rows)), set()
        gauge.discard((0,) * self.norm.dim)
        for c, _ in self.hull._rows:
            if any(c):
                direction = _primitive(c)
                if direction not in gauge:
                    return False, False
                seen.add(direction)
        return True, seen == gauge

    @_memo
    def _escaping(self) -> Optional[tuple[int, ...]]:
        """Test (a): the first recession direction of the closure, in sorted
        order, with positive gauge, as stored ints, or None when every one
        has gauge 0.  A bounded closure, with no rays, has no recession
        direction, and when the closure's row directions are the gauge's
        (``_rows_in_gauge``) its recession cone is C: in both cases none
        escapes, and neither the cone nor a dot product is made.  Otherwise
        the directions are the recession cone's generators and both signs
        of its lineality basis; q(d) > 0 iff some <a_i, d> > 0."""
        if not self.hull._rays or self._rows_in_gauge[1]:
            return None
        rec, rows, dot = recession_cone(self.hull), self.norm._rows, _unrolled("dot", self.norm.dim)
        directions = {*rec._gens, *rec._lin, *map(vneg, rec._lin)}
        return next((d for d in sorted(directions) if any(dot(a, d) > 0 for a in rows)), None)

    @_memo
    def degeneracy(self) -> Cone:
        """The degeneracy cone C of the gauge, read off the closure P when no
        recession direction escapes (``_escaping``) and every nonzero row
        normal of P is a positive multiple of a functional
        (``_rows_in_gauge``), as a closed ball's are: then C <= rec(P) row by
        row and rec(P) <= C, so C = rec(P), and P's rays, sorted, primitive
        and extreme, are C's generators, the double description's of the
        functional rows (Fukuda & Prodon 1996).  Otherwise it is
        ``degeneracy_cone``, the gauge's own double description.  The rule
        needs only (a), which it tests itself, so any caller may read it, on
        any verdict."""
        if self._escaping is None and self._rows_in_gauge[0]:
            return Cone._make(dim=self.norm.dim, _gens=self.hull._rays, _lin=())
        return degeneracy_cone(self.norm)

    @_memo
    def saturated(self) -> Polyhedron:
        """closure + degeneracy cone, pruned to its extreme points and rays:
        the closure itself, the very value, when the cone adds no direction
        to a line-free closure (a closed gauge ball is its own sum)."""
        return minkowski_sum_with_cone(self.hull, self.degeneracy)

    @_memo
    def _inside(self) -> dict[tuple[tuple[int, ...], int], bool]:
        """Per listed vertex (y, t) of the closure, in their order, whether it
        lies in the region: no strict row is tight on it, one AND per vertex,
        since the closure's masks index the region's rows: the closure is read
        off the region (``closure``), and ``hull`` is that very value."""
        strict = self.region._strict_mask
        return {v: not m & strict for v, m in zip(self.hull._verts, self.hull._vert_masks)}

    @_memo
    def _sum_inside(self) -> tuple[bool, ...]:
        """Per listed vertex of ``saturated``, in order, whether it lies in
        the region: the sum's vertices are closure vertices, so each is one
        lookup in ``_inside`` (a broken invariant otherwise)."""
        try:
            return tuple(map(self._inside.__getitem__, self.saturated._verts))
        except KeyError:
            raise InternalInvariantError("the saturated hull's vertices are closure vertices") from None

    @_memo
    def _sandwiched(self) -> bool:
        """S <= region <= S + C for the center candidate S, the saturated
        hull's vertices: the saturated hull is S + C when its rays are C's
        generators, S lies in the region iff its vertices do
        (``_sum_inside``), and the region lies in the saturated hull when
        that is the closure, else iff it holds against its rows (``subset``)."""
        sat = self.saturated
        return (sat._rays == self.degeneracy._gens and all(self._sum_inside)
                and (sat is self.hull or subset(self.region, to_partial(sat))))

    @_memo
    def _minus_functionals(self) -> tuple[tuple[int, ...], ...]:
        """-a for each stored functional a of the gauge: the rows of -C that
        ``_tangent_cone_misses`` inserts at every vertex it tests, in the
        reverse lexicographic order of their primitive forms, the order the
        double description inserts the rows of an input in general position
        in (``_pointed_cone_rays``)."""
        return tuple(sorted(map(vneg, self.norm._rows), key=_primitive, reverse=True))


def region_extreme_points(inst: Instance) -> tuple[Vec, ...]:
    """Extreme points of the (possibly half-open) region itself.

    A non-vertex point of the region sits inside a segment that the strict
    flags keep or cut wholly, so the extreme points are exactly the closure
    vertices that survive membership.
    """
    return tuple([_fractions(y, t) for y, t in _region_extreme(inst)])


def _region_extreme(inst: Instance) -> Iterator[tuple[Sequence[int], int]]:
    """The stored closure vertices (y, t) that ``region_extreme_points`` returns, lazily."""
    return (v for (v, inside), keep in zip(inst._inside.items(), inst.hull._extreme_flags) if keep and inside)


def saturation_extreme_points(inst: Instance) -> tuple[Vec, ...]:
    """Extreme points of closure(region) + degeneracy cone: the vertices
    ``minkowski_sum_with_cone`` kept, or none when the sum contains a line."""
    return () if contains_line(inst.saturated) else inst.saturated.vertices


def center_candidate(inst: Instance) -> Polyhedron:
    """The bounded polytope spanned by the saturated hull's extreme points,
    built from the saturated hull's stored vertices as they are."""
    if contains_line(inst.saturated):
        raise EmptyExtremeSetError("the saturated hull has no extreme points")
    return Polyhedron._make(dim=inst.region.dim, _verts=inst.saturated._verts, _rays=())


def _extreme_in_saturation(inst: Instance, k: int) -> bool:
    """Is the k-th listed closure vertex v extreme in closure + degeneracy cone?

    With P the closure and C = {x : <a_i, x> <= 0} the cone: when every
    nonzero row normal of P is a positive multiple of a functional
    (``Instance._rows_in_gauge``), as a gauge ball's are, C <= rec(P) row by
    row, so P + C = P and v is extreme in it iff it is in P, which P's
    extreme flags say (``hull._extreme_flags``); no edge is read and no row
    is inserted.  Otherwise the tangent cone decides
    (``_tangent_cone_misses``).
    """
    if inst._rows_in_gauge[0]:
        return inst.hull._extreme_flags[k]
    return _tangent_cone_misses(inst, k)


def _tangent_cone_misses(inst: Instance, k: int) -> bool:
    """Does the tangent cone of the closure at its k-th listed vertex v meet
    -C only in 0, that is, is v extreme in closure + degeneracy cone?

    With P the closure and C = {x : <a_i, x> <= 0} the cone, v is extreme in
    P + C iff its tangent cone T_P(v) meets -C only in 0.  If a nonzero c in
    C has -c in T_P(v), v is the midpoint of v - εc in P and v + εc in
    P + C; otherwise T_P(v) + C is a pointed cone, v + T_P(v) + C holds
    P + C, and v is its apex.  ``decide_compact`` asks only once every
    recession direction of P has gauge 0, so P is pointed, and T_P(v) is the
    pointed cone {x : A_v x <= 0} (A_v the rows of ``hull._rows`` tight at
    v, the set bits of its mask) spanned by the edges of P at v, which
    ``polyhedron._edges`` reads off the closure's masks with the rows of A_v
    tight on each.  Those edges and masks are T_P(v)'s double description,
    so inserting the rows -a_i (``_cut``) yields the extreme rays of T_P(v)
    cut by -C, and v is extreme iff none is left; no base elimination runs,
    no tight row is inserted again, and no adjacency is tested here.
    """
    edges, masks = _edges(inst.hull, k)
    minus = enumerate(inst._minus_functionals, len(inst.hull._rows))
    return not _cut(edges, masks, minus, inst.norm.dim)[0]


def decide_compact(inst: Instance) -> CompactnessCertificate:
    """Verdict plus certificate; see the module docstring for the criterion.

    Witnesses are deterministic: directions and points are examined in
    sorted order and the first violation is reported; the escaping
    direction of test (a) is the instance's fact (``Instance._escaping``).
    Once every recession direction of the closure P has gauge 0, rec(P)
    lies in the pointed cone C, so P is pointed and P + C is line-free with
    its vertices among P's: the escaped extreme point is the first vertex
    of P that misses the region and passes the local test of
    ``_extreme_in_saturation``, and closure + C is built only when no
    vertex escapes, with C read off P where it can be
    (``Instance.degeneracy``).  closure + C is then the center plus C: the
    center is its vertices, and its rays must be C's generators (a broken
    invariant otherwise), so the verdict is the instance's one sandwich
    fact (``Instance._sandwiched``), which builds no second sum: the region
    lies in closure + C without a check when that is the closure, and is
    checked against its rows otherwise.  Everything is tested on the stored
    ints of the cone, the gauge and the vertices; only the witness becomes
    ``Fraction``s.
    """
    if inst._escaping is not None:
        return CompactnessCertificate(Verdict.NOT_COMPACT, witness=BadRecessionDirection(_fractions(inst._escaping)))
    for k, ((y, t), inside) in enumerate(inst._inside.items()):
        if not inside and _extreme_in_saturation(inst, k):
            return CompactnessCertificate(Verdict.NOT_COMPACT, witness=EscapedExtremePoint(_fractions(y, t)))
    core = center_candidate(inst)
    if inst.saturated._rays != inst.degeneracy._gens:
        raise InternalInvariantError("closure + cone has the cone's generators as its rays")
    if not inst._sandwiched:
        return CompactnessCertificate(Verdict.UNKNOWN)
    return CompactnessCertificate(Verdict.COMPACT, center=core)


def sandwich_certify(core: Polyhedron, region: PartialPolyhedron, norm: AsymNorm) -> bool:
    """True iff core <= region <= core + degeneracy cone.

    A true result certifies compactness of the region: the core is a
    bounded polytope, and gauge-open sets absorb the degeneracy cone, so
    any cover of the core extends over the padded set and hence the region.
    The first inclusion is read off the core's generators (``_within``),
    the second off the rows of core + cone (``subset``).
    """
    if core._rays:
        raise ValueError("the core must be a bounded polytope")
    if core.dim != region.dim or norm.dim != region.dim:
        raise ValueError("dimension mismatch")
    return _within(core, region) and subset(region, to_partial(minkowski_sum_with_cone(core, degeneracy_cone(norm))))


def saturate_region(inst: Instance) -> PartialPolyhedron:
    """The half-open sum region + degeneracy cone as a partial polyhedron.

    Its rows are the closed sum's ``_rows``, the very tuple, each of scale 1:
    the closure's own rows (its region's) when the sum is the closure, and
    otherwise its facets, as its incidence record says (a broken invariant
    else).  A row is strict exactly
    when it reaches its bound on the closure and its optimal face over the
    closure never meets the region, since a point of the sum on the row
    decomposes as (face point of the closure) + (cone point).  Any row of
    the sum may carry that flag, and every facet of the sum is the face of
    one of its rows, so the flags cut out region + cone on any rows.  The
    sum's vertices are closure vertices, and the closure lies in the sum,
    so the masks decide on every call: a row reaches its bound on the
    closure iff it is tight at a listed vertex of the sum (a pointed sum
    has a vertex on every nonempty face, and a sum with a line is the
    unpruned union, which lists every closure vertex), and it is not
    strict when such a vertex lies in the region
    (``Instance._sum_inside``).  The other rows test their face
    (``_meets_face``, off the masks of the region's closure).

    The sum holds the region, so it is nonempty, and its closure is the set
    of ``inst.saturated``, whatever the flags.  When that set is line-free
    (always under a COMPACT verdict) ``minkowski_sum_with_cone`` pruned it to
    its extreme points and extreme rays, the unique minimal generators that
    the double description of its rows also yields (Fukuda & Prodon 1996),
    so the result is made with its closure known (``_make``), whose rows,
    with their masks, are the result's own.  A sum with a line is the
    unpruned union, not that canonical form, and its closure is left to the
    conversion.
    """
    sat, hull, region = inst.saturated, inst.hull, inst.region
    rows = sat._rows
    if sat is not hull and not sat._incidence.facets:
        raise InternalInvariantError("the saturated hull is the closure or has its facets as its rows")
    reached = reduce(or_, sat._vert_masks)
    met = reduce(or_, compress(sat._vert_masks, inst._sum_inside), 0)
    flags = [bool(reached >> j & 1) and not met >> j & 1 and not _meets_face(region, c, b)
             for j, (c, b) in enumerate(rows)]
    seed = {} if contains_line(sat) else {"_closure": sat}
    return PartialPolyhedron._make(dim=region.dim, _scales=(1,) * len(flags),
                                   _rows=tuple([(c, b, s) for (c, b), s in zip(rows, flags)]), **seed)


# ---------------------------------------------------------------------------
# Structure report
# ---------------------------------------------------------------------------


class ClaimStatus(enum.Enum):
    PASS = "PASS"
    FAIL = "FAIL"
    NOT_APPLICABLE = "NOT_APPLICABLE"


CLAIM_LABELS = {
    "T1": "extreme points of the saturated hull lie in the region",
    "T2": "the region has at least one extreme point",
    "T3": "center <= region <= center + cone, and both sums agree",
    "T4": "region + cone is closed (equals the saturated hull)",
    "T5": "the region contains no line",
    "T6": "region + cone is itself judged compact",
}


class ClaimResult(_Value):
    _fields = ("claim_id", "status", "detail")

    def __init__(self, claim_id: str, status: ClaimStatus, detail: Optional[str] = None):
        self._set(claim_id, status, detail)

    @property
    def label(self) -> str:
        return CLAIM_LABELS[self.claim_id]


class TheoremReport(_Value):
    _fields = ("claims",)

    def __init__(self, claims: tuple[ClaimResult, ...]):
        self._set(claims)

    @property
    def all_pass(self) -> bool:
        return all(c.status is ClaimStatus.PASS for c in self.claims)


def verify_theorems(inst: Instance,
                    certificate: Optional[CompactnessCertificate] = None) -> TheoremReport:
    """Evaluate the six structural claims that hold for compact regions.

    Requires a COMPACT verdict; otherwise every claim is reported
    NOT_APPLICABLE, and a COMPACT certificate without a center, or with
    one of another dimension than the instance's, a bad input, raises
    ``ValueError`` before any claim is evaluated.  FAIL entries carry a
    concrete counterexample.  T1
    reads whether each vertex of the saturated hull lies in the region off
    the closure's masks (``Instance._sum_inside``, the list the sandwich
    read), for any center.  T3 needs the instance's sandwich fact
    (``Instance._sandwiched``, the fact ``decide_compact`` read), which is
    T3 of the center candidate (no rays, the vertices of closure + C); any
    other center is checked against the region (``_within``) and its
    center + C compared with closure + C as a value;
    T4 is ``is_closed`` of the half-open sum, whose closure is closure + C:
    of the two inclusions between them, the sum lies in its closure by
    construction, and the other is closedness.
    """
    cert = certificate if certificate is not None else decide_compact(inst)
    if cert.verdict is not Verdict.COMPACT:
        claims = tuple(
            ClaimResult(cid, ClaimStatus.NOT_APPLICABLE, "region not judged compact")
            for cid in sorted(CLAIM_LABELS)
        )
        return TheoremReport(claims)

    claims = []
    core = cert.center
    if core is None:
        raise ValueError("a COMPACT certificate carries its center")
    if core.dim != inst.region.dim:
        raise ValueError("dimension mismatch")

    sat = inst.saturated
    escaped = None if contains_line(sat) else next(
        (_fractions(y, t) for (y, t), inside in zip(sat._verts, inst._sum_inside) if not inside), None)
    claims.append(_claim("T1", escaped is None,
                         None if escaped is None else f"escaped extreme point {escaped}"))

    own_ext = next(_region_extreme(inst), None) is not None
    claims.append(_claim("T2", own_ext, "no extreme point found"))

    # the center candidate's T3 is the instance's sandwich fact; any other
    # center must lie in the region and have closure + C as its sum
    candidate = not core._rays and core._verts == sat._verts
    t3 = inst._sandwiched and (candidate or _within(core, inst.region)
                               and minkowski_sum_with_cone(core, inst.degeneracy) == sat)
    claims.append(_claim("T3", t3, "sandwich inclusion or sum identity failed"))

    half_open_sum = saturate_region(inst)
    t4 = is_closed(half_open_sum)
    claims.append(_claim("T4", t4, "the half-open sum differs from its closure"))

    t5 = not contains_line(inst.hull)
    claims.append(_claim("T5", t5, "closure contains a line"))

    # K + C holds K, so it is nonempty, and rec(closure(K) + C) = rec(closure(K)) + C
    # has gauge 0 when rec(closure(K)) has (subadditivity)
    known = {"_escaping": None} if inst._escaping is None else {}
    sum_inst = Instance._make(norm=inst.norm, region=half_open_sum, degeneracy=inst.degeneracy, **known)
    t6 = decide_compact(sum_inst).verdict is Verdict.COMPACT
    claims.append(_claim("T6", t6, "the saturated region is not judged compact"))

    return TheoremReport(tuple(claims))


def _claim(cid: str, ok: bool, fail_detail: Optional[str]) -> ClaimResult:
    if ok:
        return ClaimResult(cid, ClaimStatus.PASS)
    return ClaimResult(cid, ClaimStatus.FAIL, fail_detail)


def ball_no_line_check(norm: AsymNorm, radius, closedness: Closedness) -> bool:
    """True iff the closure of the given ball around 0 contains no line.

    Holds for every valid gauge: a line in a ball would force the gauge and
    its reverse to vanish along the line's direction.
    """
    radius = rat(radius)
    if radius <= 0:
        raise ValueError("radius must be positive")
    b = ball(norm, zero_vec(norm.dim), radius, closedness)
    hull = closure(b.as_set)
    if hull is None:
        raise InternalInvariantError("a positive-radius ball is nonempty")
    return not contains_line(hull)
