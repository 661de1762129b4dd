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

Only a COMPACT verdict needs C and closure(K) + C themselves, the sum with
its facets: for the center, the sandwich and the checks T1, T3 and T4.  Both
are computed on first use.  A NOT_COMPACT verdict builds neither, so it runs
no double description of C.  It reads everything off the closure's
generators, the region's own rows and the gauge's functionals: (a) through
the closure's recession cone, and (b), once (a) holds, through a local test
at each closure vertex that misses K (its tangent cone must meet -C only in
0; see ``_extreme_in_saturation``).

A COMPACT verdict with the checks T1-T6 converts vertices to facets once,
for closure(K) + C.  Once every recession direction has gauge 0, the pruned
closure(K) + C is S + C field for field: its vertices are S's, and its rays
are C's generators, which ``decide_compact`` checks on the stored ints.
The minimal generators of a line-free polyhedron are unique (Fukuda &
Prodon 1996), so equal fields mean equal sets, and the sandwich checks
K <= S + C against the facets of closure(K) + C.  S <= K holds iff the
vertices of S lie in K; they are closure vertices, and whether each closure
vertex lies in K is one AND of its mask with the strict rows, taken once
per instance (``Instance._inside``, which the escape test reads too).  For
the verified center T1 (every vertex of closure(K) + C lies in K) is that
check.  T3 and T4 compare closed sets by their generators:
S + C = closure(K) + C is that equality of values for the verified center
(two ``_within`` inclusions against facets at hand for any other), and
K + C equals its closure iff it is closed (``is_closed``).
The half-open K + C comes with its closure, closure(K) + C
(``saturate_region``), so T4 and T6 run no DD for it.  T6 decides K + C:
its closure already holds C's directions, so adding C builds no new set,
its center is S again, and its saturated hull shares the parent's facets.
closure(K) + C always has its facets as its rows, with their masks, and
these are the rows of K + C, so T4's ``is_closed``, T6's vertex tests and
T6's sandwich read masks and scan nothing.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from operator import mul
from typing import Iterator, Optional, Sequence, Union

from asymgeo.ratlp import InternalInvariantError, Vec, rat, vneg, zero_vec
from asymgeo.norm import AsymNorm, Closedness, ball, degeneracy_cone
from asymgeo.polyhedron import (
    Cone,
    PartialPolyhedron,
    Polyhedron,
    _extreme_flags,
    _int_member,
    _meets_face,
    _own_rows,
    _support,
    _within,
    closure,
    cone_from_rows,
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


@dataclass(frozen=True)
class BadRecessionDirection:
    """Closure recession direction of positive gauge: an escaping ray."""

    direction: Vec


@dataclass(frozen=True)
class EscapedExtremePoint:
    """Extreme point of the saturated hull that the region fails to contain."""

    point: Vec


Witness = Union[BadRecessionDirection, EscapedExtremePoint]


@dataclass(frozen=True)
class CompactnessCertificate:
    verdict: Verdict
    center: Optional[Polyhedron] = None
    witness: Optional[Witness] = None


@dataclass(frozen=True)
class Instance:
    """A gauge together with a nonempty region and its closure, which every
    operation needs.  The degeneracy cone and the saturated hull closure +
    cone are computed on first use; only a COMPACT verdict and the
    structure checks need them (the center, the sandwich, T1, T3 and T4),
    so a NOT_COMPACT verdict builds neither.  The cone is memoized on the
    gauge as well, so T6's instance on the same gauge reuses it.  One memo
    is not part of the value: ``_verified_sums`` maps each core whose
    sandwich ``decide_compact`` verified on this instance to core + cone,
    the saturated hull.  It is keyed by the core value itself; a center
    handed to ``verify_theorems`` may carry rays, and then equals no
    ray-free core."""

    norm: AsymNorm
    region: PartialPolyhedron
    hull: Polyhedron
    _verified_sums: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @classmethod
    def build(cls, norm: AsymNorm, region: PartialPolyhedron) -> "Instance":
        if norm.dim != region.dim:
            raise ValueError("gauge and region dimensions differ")
        hull = closure(region)
        if hull is None:
            raise EmptyRegionError("the region is empty")
        return cls(norm, region, hull)

    @cached_property
    def degeneracy(self) -> Cone:
        """The degeneracy cone of the gauge (``degeneracy_cone``)."""
        return degeneracy_cone(self.norm)

    @cached_property
    def saturated(self) -> Polyhedron:
        """closure + degeneracy cone, pruned to its extreme points and rays."""
        return minkowski_sum_with_cone(self.hull, self.degeneracy)

    @cached_property
    def _inside(self) -> list[bool]:
        """Per listed vertex of the closure, whether it lies in the region:
        no strict row is tight on it, one AND per vertex, since the closure's
        masks index the region's rows (``_own_rows``)."""
        if not _own_rows(self.hull, self.region):
            raise InternalInvariantError("the closure's rows are the region's")
        strict = self.region._strict_mask
        return [not m & strict for m in self.hull._vert_masks]

    @cached_property
    def _minus_functionals(self) -> tuple[tuple[int, ...], ...]:
        """-a for each stored functional a of the gauge: the rows of -C that
        ``_extreme_in_saturation`` adds at every vertex it tests."""
        return tuple(map(vneg, self.norm._rows))


def region_extreme_points(inst: Instance) -> tuple[Vec, ...]:
    """Extreme points of the (possibly half-open) region itself.

    A non-vertex point of the region sits inside a segment that the strict
    flags keep or cut wholly, so the extreme points are exactly the closure
    vertices that survive membership.
    """
    return tuple([_point(y, t) for y, t in _region_extreme(inst)])


def _region_extreme(inst: Instance) -> Iterator[tuple[Sequence[int], int]]:
    """The stored closure vertices (y, t) that ``region_extreme_points`` returns, lazily."""
    hull = inst.hull
    return ((y, t) for (y, t), keep, inside in zip(hull._verts, _extreme_flags(hull), inst._inside)
            if keep and inside)


def _point(y: Sequence[int], t: int) -> Vec:
    """The stored point (y, t) as the ``Fraction`` point y / t of a result."""
    return tuple([Fraction(a, t) for a in y])


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


def _sandwich(core: Polyhedron, region: PartialPolyhedron, cone: Cone,
              padded: Optional[Polyhedron] = None, members: Optional[dict] = None) -> Optional[Polyhedron]:
    """core + cone when core <= region <= core + cone holds, else None.

    The first inclusion is read off the core's generators (``_within``);
    ``padded`` is core + cone when the caller already has it.  ``members``,
    when given, maps stored points, the core's vertices among them, to their
    membership in the region: the core is a polytope, so it lies in the
    convex region iff its vertices do.
    """
    if not (_within(core, region) if members is None else all(map(members.__getitem__, core._verts))):
        return None
    if padded is None:
        padded = minkowski_sum_with_cone(core, cone)
    return padded if subset(region, to_partial(padded)) else None


def _extreme_in_saturation(inst: Instance, mask: int) -> bool:
    """Is the closure vertex v with mask ``mask`` (``hull._vert_masks``)
    extreme in closure + degeneracy cone?

    With P the closure and C = {x : <a_i, x> <= 0} the cone, v is extreme in
    P + C iff its tangent cone T_P(v) = {x : A_v x <= 0} meets -C only in 0;
    A_v are the rows of ``hull._rows`` tight at v, the set bits of its mask.  If a nonzero c in C has
    -c in T_P(v), v is the midpoint of v - εc in P and v + εc in P + C;
    otherwise T_P(v) + C is a pointed cone, v + T_P(v) + C holds P + C, and
    v is its apex.  One double description of {x : A_v x <= 0, <a_i, x> >= 0}
    decides it: the cone is {0} iff it has neither generators nor lineality.
    """
    rows = inst.hull._rows
    tight = [rows[j][0] for j in range(len(rows)) if mask >> j & 1]
    return cone_from_rows([*tight, *inst._minus_functionals], inst.norm.dim)[:2] == ((), ())


def decide_compact(inst: Instance) -> CompactnessCertificate:
    """Verdict plus certificate; see the module docstring for the criterion.

    Witnesses are deterministic: directions and points are examined in
    sorted order and the first violation is reported.  Once every recession
    direction of the closure P has gauge 0, rec(P) lies in the pointed cone
    C, so P is pointed and P + C is line-free with its vertices among P's:
    the escaped extreme point is the first vertex of P that misses the
    region and passes the local test of ``_extreme_in_saturation``, and
    closure + C is built only when no vertex escapes.  It is then the center
    plus C: the center is its vertices, and its rays must be C's generators
    (a broken invariant otherwise), so the sandwich checks the region
    against its facets and builds no second sum.  Everything is tested on
    the stored ints of the cone, the gauge and the vertices; only the
    witness becomes ``Fraction``s.
    """
    rec = recession_cone(inst.hull)
    directions = {*rec._gens, *rec._lin, *map(vneg, rec._lin)}
    for d in sorted(directions):
        if any(sum(map(mul, a, d)) > 0 for a in inst.norm._rows):  # q(d) > 0
            return CompactnessCertificate(Verdict.NOT_COMPACT,
                                          witness=BadRecessionDirection(_point(d, 1)))
    hull = inst.hull
    for (y, t), mask, inside in zip(hull._verts, hull._vert_masks, inst._inside):
        if not inside and _extreme_in_saturation(inst, mask):
            return CompactnessCertificate(Verdict.NOT_COMPACT, witness=EscapedExtremePoint(_point(y, t)))
    core = center_candidate(inst)
    sat = inst.saturated
    if sat._rays != inst.degeneracy._gens:
        raise InternalInvariantError("closure + cone has the cone's generators as its rays")
    # sat is core + cone, and the core's vertices are closure vertices
    padded = _sandwich(core, inst.region, inst.degeneracy, sat, dict(zip(hull._verts, inst._inside)))
    if padded is None:
        return CompactnessCertificate(Verdict.UNKNOWN)
    inst._verified_sums[core] = padded
    return CompactnessCertificate(Verdict.COMPACT, center=core)


def sandwich_certify(core: Polyhedron, region: PartialPolyhedron, norm: AsymNorm) -> bool:
    """True iff core <= region <= core + degeneracy cone.

    A true result certifies compactness of the region: the core is a
    bounded polytope, and gauge-open sets absorb the degeneracy cone, so
    any cover of the core extends over the padded set and hence the region.
    """
    if core._rays:
        raise ValueError("the core must be a bounded polytope")
    if core.dim != region.dim or norm.dim != region.dim:
        raise ValueError("dimension mismatch")
    return _sandwich(core, region, degeneracy_cone(norm)) is not None


def saturate_region(inst: Instance) -> PartialPolyhedron:
    """The half-open sum region + degeneracy cone as a partial polyhedron.

    Rows come from the closed sum's facets; a row is strict exactly when its
    optimal face over the closure never meets the region, since a boundary
    point of the sum decomposes as (face point of the closure) + (cone
    point).  The strict flags are decided on the int facets ``_int_hrep``,
    which are also the result's rows (``_make``), primitive, so of scale 1.

    The sum holds the region, so it is nonempty, and its closure is the set
    of ``inst.saturated``, whatever the flags.  When that set is line-free
    (always under a COMPACT verdict) ``minkowski_sum_with_cone`` pruned it to
    its extreme points and extreme rays, the unique minimal generators that
    the double description of these rows also yields (Fukuda & Prodon 1996),
    so the result comes with its closure known, whose rows, with their
    masks, are the result's own (the sum has its facets as its rows).  A
    sum with a line is the unpruned union, not that canonical form, and its
    closure is left to the conversion.
    """
    sat = inst.saturated
    flags = []
    for c, b in sat._int_hrep:
        top = _support(inst.hull, c)
        if top is None or top[0] > b * top[1]:
            raise InternalInvariantError("sum rows bound the closure")
        flags.append(top[0] == b * top[1] and not _meets_face(inst.region, inst.hull, c, b))
    part = PartialPolyhedron._make(dim=inst.region.dim, _scales=(1,) * len(flags), _closed_rows=sat._int_hrep,
                                   _rows=tuple([(c, b, s) for (c, b), s in zip(sat._int_hrep, flags)]))
    if not contains_line(sat):
        if not _own_rows(sat, part):
            raise InternalInvariantError("the saturated hull's rows are its facets")
        vars(part)["_closure"] = sat
    return part


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


@dataclass(frozen=True)
class ClaimResult:
    claim_id: str
    status: ClaimStatus
    detail: Optional[str] = None

    @property
    def label(self) -> str:
        return CLAIM_LABELS[self.claim_id]


@dataclass(frozen=True)
class TheoremReport:
    claims: tuple[ClaimResult, ...]

    @property
    def all_pass(self) -> bool:
        return all(c.status is ClaimStatus.PASS for c in self.claims)


def verify_theorems(inst: Instance,
                    certificate: Optional[CompactnessCertificate] = None) -> TheoremReport:
    """Evaluate the six structural claims that hold for compact regions.

    Requires a COMPACT verdict; otherwise every claim is reported
    NOT_APPLICABLE.  FAIL entries carry a concrete counterexample.  T1
    tests the saturated hull's vertices against the region, except for the
    center ``decide_compact`` verified: those vertices are its own, and its
    sandwich has placed them in the region (``Instance._inside``).  T3 checks the
    sandwich and reads center + C = closure + C off their stored
    generators: for the center ``decide_compact`` verified the two values
    are equal, and otherwise it checks an inclusion each way, each set's
    generators against the other's facets (``_within``);
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
        raise InternalInvariantError("a COMPACT certificate carries its center")

    sat = inst.saturated
    verified = inst._verified_sums.get(core)
    # the verified center is sat's vertices, and its sandwich placed them in the region
    escaped = None if verified is sat or contains_line(sat) else next(
        (_point(y, t) for y, t in sat._verts if not _int_member(inst.region, y, t)), None)
    claims.append(_claim("T1", escaped is None,
                         None if escaped is None else f"escaped extreme point {escaped}"))

    own_ext = next(_region_extreme(inst), None) is not None
    claims.append(_claim("T2", own_ext, "no extreme point found"))

    # a center decide_compact did not verify on this instance is checked here
    padded = verified or _sandwich(core, inst.region, inst.degeneracy)
    t3 = padded is not None and (padded == sat or _within(padded, to_partial(sat))
                                 and _within(sat, to_partial(padded)))
    claims.append(_claim("T3", t3, "sandwich inclusion or sum identity failed"))

    half_open_sum = saturate_region(inst)
    t4 = is_closed(half_open_sum)
    claims.append(_claim("T4", t4, "the half-open sum differs from its closure"))

    t5 = not contains_line(inst.hull)
    claims.append(_claim("T5", t5, "closure contains a line"))

    sum_inst = Instance.build(inst.norm, half_open_sum)
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
