"""Exact geometry for polyhedral asymmetric norms.

The package evaluates polyhedral gauges, manipulates exact (possibly
half-open) polyhedra, and decides compactness in the gauge topology with
machine-checkable certificates.  All arithmetic is over arbitrary-precision
rationals; no floating point is used anywhere in the core.
"""

from asymgeo.ratlp import InternalInvariantError, LpOutcome, LpStatus, Rational, lp_solve, rank, rat, as_vec
from asymgeo.norm import (
    AsymNorm,
    Ball,
    Closedness,
    DefinitenessViolation,
    ball,
    degeneracy_cone,
    gauge_eval,
    make_norm,
    sym_gauge_eval,
)
from asymgeo.polyhedron import (
    Cone,
    Constraint,
    LinealityPresentError,
    PartialPolyhedron,
    Polyhedron,
    closure,
    contains_line,
    dd_convert_h_to_v,
    dd_convert_v_to_h,
    extreme_points,
    extreme_rays,
    is_closed,
    member,
    minkowski_sum_with_cone,
    recession_cone,
    set_equal,
    subset,
    to_partial,
)
from asymgeo.compactness import (
    BadRecessionDirection,
    ClaimResult,
    ClaimStatus,
    CompactnessCertificate,
    EmptyExtremeSetError,
    EmptyRegionError,
    EscapedExtremePoint,
    Instance,
    TheoremReport,
    Verdict,
    ball_no_line_check,
    center_candidate,
    decide_compact,
    region_extreme_points,
    sandwich_certify,
    saturate_region,
    saturation_extreme_points,
    verify_theorems,
)

__version__ = "0.1.0"
