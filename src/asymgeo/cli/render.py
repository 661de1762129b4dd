"""Deterministic 2-D SVG rendering of an instance and its outcome.

Draws the closure of the region (clipped along its rays for display), the
degeneracy-cone direction fan, the extreme points of the saturated hull,
and the center polytope.  Exact data is converted to floats only here, at
the presentation boundary, with fixed formatting for byte-stable output.
"""

from __future__ import annotations

from fractions import Fraction

from asymgeo.compactness import Instance, decide_compact, saturation_extreme_points
from asymgeo.norm import AsymNorm
from asymgeo.polyhedron import PartialPolyhedron

RAY_CLIP = Fraction(3)  # how far unbounded directions are drawn


class RenderError(ValueError):
    """Rendering is only defined for dimension 2."""


def _fmt(x: float) -> str:
    return f"{x:.4f}"


def _hull_order(points: list[tuple[Fraction, Fraction]]) -> list[tuple[Fraction, Fraction]]:
    """Convex polygon order via the monotone chain, exact arithmetic."""
    pts = sorted(set(points))
    if len(pts) <= 2:
        return pts

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    lower, upper = [], []
    for p in pts:
        while len(lower) >= 2 and cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    for p in reversed(pts):
        while len(upper) >= 2 and cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    return lower[:-1] + upper[:-1]


def _polygon(points, fill, stroke, opacity) -> str:
    coords = " ".join(f"{_fmt(float(x))},{_fmt(float(-y))}" for x, y in points)
    return (f'<polygon points="{coords}" fill="{fill}" stroke="{stroke}" '
            f'stroke-width="0.02" fill-opacity="{opacity}"/>')


def render_svg(norm: AsymNorm, region: PartialPolyhedron) -> str:
    """SVG 1.1 text for a 2-D instance; raises RenderError otherwise."""
    if norm.dim != 2 or region.dim != 2:
        raise RenderError("rendering requires dimension 2")
    inst = Instance.build(norm, region)
    cert = decide_compact(inst)

    closure_pts = [ (v[0], v[1]) for v in inst.hull.vertices ]
    for v in inst.hull.vertices:
        for r in inst.hull.rays:
            closure_pts.append((v[0] + RAY_CLIP * r[0], v[1] + RAY_CLIP * r[1]))
    outline = _hull_order(closure_pts)

    markers = saturation_extreme_points(inst)
    center_pts = list(cert.center.vertices) if cert.center is not None else []

    xs = [p[0] for p in outline] + [Fraction(0)]
    ys = [p[1] for p in outline] + [Fraction(0)]
    pad = Fraction(3, 2)
    x0, x1 = min(xs) - pad, max(xs) + pad
    y0, y1 = min(ys) - pad, max(ys) + pad

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        (f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
         f'viewBox="{_fmt(float(x0))} {_fmt(float(-y1))} '
         f'{_fmt(float(x1 - x0))} {_fmt(float(y1 - y0))}">'),
        f'<!-- verdict: {cert.verdict.value} -->',
        _polygon(outline, "#9ecae1", "#3182bd", "0.5"),
    ]
    if len(center_pts) >= 1:
        shaded = _hull_order([(v[0], v[1]) for v in center_pts])
        if len(shaded) == 1:
            x, y = shaded[0]
            parts.append(f'<circle cx="{_fmt(float(x))}" cy="{_fmt(float(-y))}" r="0.1" '
                         f'fill="#31a354" fill-opacity="0.8"/>')
        else:
            parts.append(_polygon(shaded, "#31a354", "#006d2c", "0.6"))
    for g in inst.degeneracy.generators:
        parts.append(
            f'<line x1="0.0000" y1="0.0000" x2="{_fmt(float(g[0]))}" '
            f'y2="{_fmt(float(-g[1]))}" stroke="#756bb1" stroke-width="0.03"/>'
        )
    for v in markers:
        parts.append(f'<circle cx="{_fmt(float(v[0]))}" cy="{_fmt(float(-v[1]))}" r="0.06" '
                     f'fill="#e6550d"/>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
