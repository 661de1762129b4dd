"""Output gate: re-verify each answer and compare it with the stored reference.

Re-verification never calls ``decide_compact``.  A recession-direction
witness is checked against the region's rows (the recession cone of the
closure of a nonempty region is {d : <c, d> <= 0 for every row}) and must
have positive gauge.  An escaped point must miss the region and be an
extreme point of closure + degeneracy cone, which holds exactly when it is
a vertex of the closure and no nonzero vanishing direction d has p - d in
the closure.  A center must pass ``sandwich_certify`` with all of T1-T6
PASS.  The digest is taken after undoing the seed's translation, so one
reference per workload covers every seed.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from asymgeo.compactness import (
    CLAIM_LABELS,
    BadRecessionDirection,
    EscapedExtremePoint,
    sandwich_certify,
)
from asymgeo.norm import AsymNorm, gauge_eval
from asymgeo.polyhedron import PartialPolyhedron, Polyhedron, member
from asymgeo.ratlp import dot, feasible_nonneg, rank

ALL_PASS = tuple((cid, "PASS") for cid in sorted(CLAIM_LABELS))


@dataclass(frozen=True)
class Outcome:
    """What the pipeline printed for one instance, as values."""

    verdict: str
    center: Optional[tuple]
    witness: Optional[object]
    claims: tuple
    report: str


def _only_zero(rows: list) -> bool:
    """True iff {z : <m, z> <= 0 for every row m} is {0}.

    Holds iff the rows have full rank and some strictly positive
    combination of them vanishes; lam = 1 + mu with mu >= 0 solves
    sum(mu_i m_i) = -sum(m_i).
    """
    dim = len(rows[0])
    if rank(rows) < dim:
        return False
    columns = [[m[t] for m in rows] for t in range(dim)]
    target = [-sum((m[t] for m in rows), Fraction(0)) for t in range(dim)]
    return feasible_nonneg(columns, target)


def _is_escaped_extreme(norm: AsymNorm, region: PartialPolyhedron, p) -> bool:
    if member(region, p):
        return False
    tight = []
    for c in region.constraints:
        val = dot(c.normal, p)
        if val > c.rhs:
            return False
        if val == c.rhs:
            tight.append(c.normal)
    if not tight or rank(tight) < region.dim:
        return False
    return _only_zero(list(norm.functionals) + [tuple(-x for x in t) for t in tight])


def verify(norm: AsymNorm, region: PartialPolyhedron, out: Outcome) -> list[str]:
    """Problems found in one outcome; an empty list means it re-verifies."""
    if f"verdict: {out.verdict}\n" not in out.report:
        return ["report does not state the verdict"]
    if out.verdict == "COMPACT":
        if out.center is None or out.witness is not None:
            return ["COMPACT must carry a center and no witness"]
        if out.claims != ALL_PASS:
            return [f"claims are not all PASS: {out.claims}"]
        core = Polyhedron(region.dim, out.center)
        if not sandwich_certify(core, region, norm):
            return ["center fails the sandwich check"]
        return []
    if out.verdict == "NOT_COMPACT":
        if out.center is not None or out.claims:
            return ["NOT_COMPACT must carry no center and no claims"]
        w = out.witness
        if isinstance(w, BadRecessionDirection):
            d = w.direction
            if all(x == 0 for x in d):
                return ["zero recession direction"]
            if any(dot(c.normal, d) > 0 for c in region.constraints):
                return ["direction is not a recession direction of the closure"]
            if not gauge_eval(norm, d) > 0:
                return ["direction has zero gauge"]
            return []
        if isinstance(w, EscapedExtremePoint):
            if not _is_escaped_extreme(norm, region, w.point):
                return ["point is not an escaped extreme point of the saturated hull"]
            return []
        return [f"NOT_COMPACT with witness {w!r}"]
    return [f"verdict {out.verdict}"]


def digest(out: Outcome, shift) -> str:
    """Hash of verdict, center, witness and claims in unshifted coordinates."""

    def back(v):
        return "(" + ",".join(str(a - s) for a, s in zip(v, shift)) + ")"

    center = ";".join(back(v) for v in out.center) if out.center is not None else "-"
    w = out.witness
    if isinstance(w, BadRecessionDirection):
        witness = "direction(" + ",".join(str(a) for a in w.direction) + ")"
    elif isinstance(w, EscapedExtremePoint):
        witness = "point" + back(w.point)
    else:
        witness = repr(w)
    claims = ",".join(f"{cid}={status}" for cid, status in out.claims)
    text = f"{out.verdict}|{center}|{witness}|{claims}"
    return hashlib.sha256(text.encode()).hexdigest()[:16]
