"""Built-in reference suite: fixed instances with embedded expected outcomes.

Each catalog entry decides compactness, runs the structure checks, and
compares against the expected verdict and center.  The suite is
self-verifying: any mismatch is reported and flips the overall status.
"""

from __future__ import annotations

import time
from fractions import Fraction
from typing import Optional

from asymgeo.compactness import (
    ClaimStatus,
    Instance,
    Verdict,
    decide_compact,
    verify_theorems,
)
from asymgeo.cli.generators import gen_arc_hull, gen_lattice_norm
from asymgeo.norm import AsymNorm, make_norm
from asymgeo.polyhedron import Constraint, PartialPolyhedron
from asymgeo.ratlp import _Value


def _fmt_point(v) -> str:
    """A point as ``(x1, x2, ...)``, its coordinates in ``str`` form."""
    return "(" + ", ".join(map(str, v)) + ")"


class RunReport(_Value):
    """One instance's outcome in stable, line-oriented form.

    ``matched`` is None outside suite runs (nothing to compare against).
    """

    _fields = ("name", "dim", "functionals", "rows", "verdict", "center", "witness", "claims", "note",
               "matched", "timing_ms")

    def __init__(self, name: str, dim: int, functionals: int, rows: int, verdict: str,
                 center: Optional[tuple] = None, witness: Optional[str] = None, claims: tuple = (),
                 note: Optional[str] = None, matched: Optional[bool] = None, timing_ms: float = 0.0):
        self._set(name, dim, functionals, rows, verdict, center, witness, claims, note, matched, timing_ms)

    def render(self, include_timing: bool = True) -> str:
        lines = [
            f"instance: {self.name}",
            f"dim: {self.dim}",
            f"functionals: {self.functionals}",
            f"rows: {self.rows}",
            f"verdict: {self.verdict}",
        ]
        if self.center is not None:
            lines.append(f"center: {'; '.join(map(_fmt_point, self.center))}")
        if self.witness is not None:
            lines.append(f"witness: {self.witness}")
        for cid, status in self.claims:
            lines.append(f"{cid}: {status}")
        if self.note:
            lines.append(f"note: {self.note}")
        if self.matched is not None:
            lines.append(f"matched: {'yes' if self.matched else 'NO'}")
        if include_timing:
            lines.append(f"timing_ms: {self.timing_ms:.1f}")
        return "\n".join(lines) + "\n"


def _check(name: str, norm: AsymNorm, region: PartialPolyhedron) -> RunReport:
    """Build, decide and, when COMPACT, run the structure checks; timed."""
    start = time.perf_counter()
    inst = Instance.build(norm, region)
    cert = decide_compact(inst)
    claims = ()
    if cert.verdict is Verdict.COMPACT:
        claims = tuple((c.claim_id, c.status.value) for c in verify_theorems(inst, cert).claims)
    return RunReport(
        name=name,
        dim=norm.dim,
        functionals=len(norm._rows),
        rows=len(region._rows),
        verdict=cert.verdict.value,
        center=cert.center.vertices if cert.center is not None else None,
        witness=repr(cert.witness) if cert.witness is not None else None,
        claims=claims,
        timing_ms=(time.perf_counter() - start) * 1000.0,
    )


class CatalogEntry(_Value):
    _fields = ("name", "norm", "region", "expected_verdict", "expected_center", "note")

    def __init__(self, name: str, norm: AsymNorm, region: PartialPolyhedron, expected_verdict: Verdict,
                 expected_center: Optional[tuple] = None, note: Optional[str] = None):
        """``expected_center`` is the exact vertex tuple, or None to skip the comparison."""
        self._set(name, norm, region, expected_verdict, expected_center, note)


def _interval(lo, lo_strict, hi, hi_strict) -> PartialPolyhedron:
    rows = []
    if hi is not None:
        rows.append(Constraint((Fraction(1),), Fraction(hi), hi_strict))
    if lo is not None:
        rows.append(Constraint((Fraction(-1),), Fraction(-lo), lo_strict))
    return PartialPolyhedron(1, tuple(rows))


def reference_catalog() -> list[CatalogEntry]:
    ray = make_norm(1, [(1,)])
    sup2 = gen_lattice_norm(2, "sup")
    square = PartialPolyhedron(2, (
        Constraint((Fraction(1), Fraction(0)), Fraction(1), False),
        Constraint((Fraction(0), Fraction(1)), Fraction(1), False),
        Constraint((Fraction(-1), Fraction(0)), Fraction(0), False),
        Constraint((Fraction(0), Fraction(-1)), Fraction(0), False),
    ))
    sym2 = make_norm(2, [(1, 0), (0, 1), (-1, 0), (0, -1)])
    triangle = PartialPolyhedron(2, (
        Constraint((Fraction(-1), Fraction(0)), Fraction(0), False),
        Constraint((Fraction(0), Fraction(-1)), Fraction(0), False),
        Constraint((Fraction(1), Fraction(1)), Fraction(1), False),
    ))

    entries = [
        CatalogEntry(
            "half-open interval (-1,1]",
            ray,
            _interval(-1, True, 1, False),
            Verdict.COMPACT,
            expected_center=((Fraction(1),),),
        ),
        CatalogEntry(
            "vanishing-cone translate at 0",
            ray,
            _interval(None, False, 0, False),
            Verdict.COMPACT,
            expected_center=((Fraction(0),),),
        ),
        CatalogEntry(
            "vanishing-cone translate at 3/2",
            ray,
            _interval(None, False, Fraction(3, 2), False),
            Verdict.COMPACT,
            expected_center=((Fraction(3, 2),),),
        ),
        CatalogEntry(
            "unit square, sup lattice gauge",
            sup2,
            square,
            Verdict.COMPACT,
            expected_center=((Fraction(1), Fraction(1)),),
        ),
        CatalogEntry(
            "triangle under a symmetric gauge",
            sym2,
            triangle,
            Verdict.COMPACT,
            expected_center=(
                (Fraction(0), Fraction(0)),
                (Fraction(0), Fraction(1)),
                (Fraction(1), Fraction(0)),
            ),
        ),
    ]
    arc_note = (
        "every sampled stand-in of the circular-arc hull has a finite center, "
        "but the center grows with the sample count; the exact curved region "
        "this family approximates admits no compact center at all"
    )
    for n_arc in (2, 4, 8, 16):
        norm, region = gen_arc_hull(n_arc)
        entries.append(CatalogEntry(
            f"arc-hull approximation, {n_arc} segments",
            norm,
            region,
            Verdict.COMPACT,
            expected_center=None,
            note=arc_note,
        ))
    return entries


def run_reference_suite() -> tuple[list[RunReport], bool]:
    """Execute the catalog; returns the reports and the overall status."""
    reports = []
    ok = True
    previous_center_size = 0
    for entry in reference_catalog():
        report = _check(entry.name, entry.norm, entry.region)
        center = report.center
        matched = report.verdict == entry.expected_verdict.value
        if center is not None and entry.expected_center is not None:
            matched = matched and tuple(sorted(center)) == tuple(sorted(entry.expected_center))
        matched = matched and all(status == ClaimStatus.PASS.value for _, status in report.claims)
        if entry.name.startswith("arc-hull"):
            # the centers must grow strictly with the sample count
            matched = matched and center is not None and len(center) > previous_center_size
            previous_center_size = len(center) if center is not None else 0
        ok = ok and matched
        reports.append(RunReport(report.name, report.dim, report.functionals, report.rows, report.verdict,
                                 report.center, report.witness, report.claims, entry.note, matched,
                                 report.timing_ms))
    return reports, ok
