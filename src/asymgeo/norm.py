"""Polyhedral asymmetric norms: gauges of the form max(0, max_i <a_i, x>).

A gauge built from finitely many linear functionals is positively
homogeneous and subadditive by construction; definiteness (the pair
q(x) = q(-x) = 0 forces x = 0) holds exactly when the functionals span the
whole space, which the constructor enforces.  The module also extracts the
degeneracy cone {x : q(x) = 0}, evaluates the symmetrized norm, and builds
gauge balls as (possibly half-open) polyhedra.  The public constructor,
the parser and the random generator make their gauges' stored form with
one builder (``_gauge``), of int pairs.
"""

from __future__ import annotations

import enum
from fractions import Fraction
from math import lcm
from typing import Sequence

from asymgeo.ratlp import (InternalInvariantError, Rational, Vec, _Value, _basis, _clear, _cleared, _fractions,
                           _memo, _primitive, _sized, _unrolled, as_vec, rat, vneg)
from asymgeo.polyhedron import Cone, PartialPolyhedron, cone_from_rows


class DefinitenessViolation(ValueError):
    """The functionals span a proper subspace, so the gauge and its reverse
    both vanish along a line and the symmetrized gauge is not a norm."""


class AsymNorm(_Value):
    """Gauge q(x) = max(0, max_i <a_i, x>) over exact rational functionals.

    The zero functional is implicit (it is the 0 inside the max), so q >= 0
    holds structurally.  Functional rows are stored as supplied, as the
    ints ``_rows`` over their common denominator ``_scale`` (the lcm of all
    their denominators); ``functionals`` is their ``Fraction`` view, made
    through one memo, so the view holds one object per distinct entry, and
    redundant rows never change values.  Every gauge value is definite: the
    constructor, the parser and the random generator make the stored form
    with one builder (``_gauge``), which raises ``DefinitenessViolation``
    when the functionals do not span the space (``_check_definite``); the
    constructor hands it each row cleared on its own, and the lcm of the
    rows' lcms is the joint one.  ``_degeneracy`` is the double description
    of the functionals, memoized on the gauge and written by no other value.
    """

    _fields = ("dim", "_scale", "_rows")
    _public = ("dim", "functionals")

    def __init__(self, dim: int, functionals: Sequence[Vec]):
        if dim < 1:
            raise ValueError("dimension must be positive")
        rows = _sized("functional", [tuple(f) for f in functionals], dim)
        gauge = _gauge(dim, [(r, (s,) * dim) for s, r in map(_clear, rows)])
        vars(self).update(dim=dim, _scale=gauge._scale, _rows=gauge._rows)

    @_memo
    def functionals(self) -> tuple[Vec, ...]:
        memo, s = {}, self._scale
        return tuple([_fractions(f, s, memo) for f in self._rows])

    @_memo
    def _degeneracy(self) -> Cone:
        gens, lin, *_ = cone_from_rows(self._rows, self.dim)
        if lin:
            raise InternalInvariantError("a definite gauge has a pointed degeneracy cone")
        return Cone._make(dim=self.dim, _gens=gens, _lin=())


class Closedness(enum.Enum):
    OPEN = "OPEN"
    CLOSED = "CLOSED"


class Ball(_Value):
    _fields = ("center", "radius", "closedness", "as_set")

    def __init__(self, center: Vec, radius: Rational, closedness: Closedness, as_set: PartialPolyhedron):
        self._set(center, radius, closedness, as_set)


def make_norm(dim: int, functionals) -> AsymNorm:
    """Validated gauge; raises DefinitenessViolation on rank-deficient input."""
    functionals = tuple(functionals)
    if not functionals:
        raise ValueError("at least one functional is required")
    return AsymNorm(dim, functionals)


def _check_definite(dim: int, int_functionals: tuple[tuple[int, ...], ...]) -> None:
    """Raise DefinitenessViolation unless the int functional rows span the space:
    the elimination that picks the double description's base finds a base."""
    if len(_basis(int_functionals, dim)[1]) < dim:
        raise DefinitenessViolation(
            "functionals span a proper subspace; the gauge would vanish in both "
            "directions along a line"
        )


def _gauge(dim: int, pairs: Sequence[tuple[Sequence[int], Sequence[int]]]) -> AsymNorm:
    """The gauge of functionals held as int pairs (numerators, denominators),
    cleared jointly by the lcm of all their denominators (``_cleared``) and
    checked definite (``_check_definite``), made of that stored form."""
    s = lcm(*[q for _, qs in pairs for q in qs])
    rows = tuple([_cleared(ps, qs, s) for ps, qs in pairs])
    _check_definite(dim, rows)
    return AsymNorm._make(dim=dim, _scale=s, _rows=rows)


def gauge_eval(norm: AsymNorm, x: Vec) -> Rational:
    """q(x) = max(0, max_i <a_i, x>); always nonnegative.  With x = y / t it
    is the max of the ints <s * a_i, y> (the ``dot`` kernel), divided by
    s * t once."""
    t, y = _clear(as_vec(x))
    _sized("point", [y], norm.dim)
    dot = _unrolled("dot", norm.dim)
    return Fraction(max(0, max(dot(a, y) for a in norm._rows)), norm._scale * t)


def sym_gauge_eval(norm: AsymNorm, x: Vec) -> Rational:
    """The symmetrization max(q(x), q(-x)); a genuine norm."""
    x = as_vec(x)
    return max(gauge_eval(norm, x), gauge_eval(norm, vneg(x)))


def degeneracy_cone(norm: AsymNorm) -> Cone:
    """The pointed cone {x : q(x) = 0} = {x : <a_i, x> <= 0 for all i}.

    Pointedness is guaranteed by the definiteness check every gauge value passed,
    so the double description of the functional rows never yields
    lineality.  Memoized on the gauge value (``AsymNorm._degeneracy``),
    which only the first read writes.  A decision reads C off the region's
    closure where it can instead (``compactness.Instance.degeneracy``).
    """
    return norm._degeneracy


def ball(norm: AsymNorm, center: Vec, radius, closedness: Closedness) -> Ball:
    """Gauge ball around ``center`` as a partial polyhedron.

    Open: {y : q(y - center) < radius}; closed: <=.  The implicit zero
    functional makes the open radius-0 ball empty, while the closed
    radius-0 ball is the degeneracy cone translated to the center.

    The rows are made as ints from the stored functionals: with each
    functional a / s, the center y / t and the radius p / q, the row
    <a / s, x> <= p / q + <a, y> / (s t) has the common denominator s t q
    over the numerators (t q a, s t p + q <a, y>), <a, y> by the ``dot``
    kernel, and the primitive form of (denominator, right-hand side,
    normal) (``ratlp._primitive``) clears it by the lcm of its
    denominators, the stored form.
    """
    center = as_vec(center)
    radius = rat(radius)
    _sized("center", [center], norm.dim)
    if radius < 0:
        raise ValueError("radius must be nonnegative")
    strict = closedness is Closedness.OPEN
    t, y = _clear(center)
    p, q = radius.numerator, radius.denominator
    den = norm._scale * t * q
    lift, top = t * q, p * norm._scale * t
    rows, scales = [], []
    dot = _unrolled("dot", norm.dim)
    for a in norm._rows:
        s, rhs, *normal = _primitive((den, top + q * dot(a, y), *[lift * c for c in a]))
        rows.append((tuple(normal), rhs, strict))
        scales.append(s)
    if strict and radius == 0:
        # 0 < radius fails identically: the open ball of radius 0 is empty
        rows.append(((0,) * norm.dim, 0, True))
        scales.append(1)
    return Ball(center, radius, closedness,
                PartialPolyhedron._make(dim=norm.dim, _rows=tuple(rows), _scales=tuple(scales)))
