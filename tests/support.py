"""Shared test helpers: the ``Fraction`` vector helpers, independent
oracles, interval builders, transforms, the frozen Fraction references of
the exact kernel, the LP membership references, the predicates, the
instance parser, the random generator and the values' public attributes,
the frozen integer double description with its base elimination, and the
earlier T3 and test (a) scan."""

from __future__ import annotations

import random
import re
from fractions import Fraction
from math import gcd
from operator import mul
from typing import Optional, Sequence

from asymgeo.cli.generators import ONE_FLAVOR_DIM_LIMIT
from asymgeo.cli.instances import InstanceError, _fail, _parse_rational
from asymgeo.norm import AsymNorm, DefinitenessViolation, make_norm
from asymgeo.polyhedron import (
    Cone,
    Constraint,
    PartialPolyhedron,
    Polyhedron,
    _int_facets,
    _meets_face,
    _scan_support,
    _within,
    closure,
    cone_from_rows,
    minkowski_sum_with_cone,
    partial_is_empty,
    recession_cone,
    subset,
    to_partial,
)
from asymgeo.ratlp import (LpOutcome, LpStatus, Vec, _clear, _fractions, _primitive, _sized, as_vec, dot,
                           feasible_nonneg, lp_solve, vneg, zero_vec)


def vadd(u, v):
    return tuple(a + b for a, b in zip(u, v))


def vsub(u, v):
    return tuple(a - b for a, b in zip(u, v))


def vscale(t, u) -> tuple[Fraction, ...]:
    t = Fraction(t)
    return tuple(t * a for a in u)


def is_zero_vec(u) -> bool:
    return all(a == 0 for a in u)


def primitive(u) -> tuple[Fraction, ...]:
    """``u`` scaled to coprime integers, direction kept (zero stays zero), as
    ``Fraction``s, so that equal directions and constraint rows compare
    equal: the kernel's ``_primitive`` of ``u`` cleared to ints."""
    return _fractions(_primitive(_clear(u)[1]))


def interval(lo, hi, lo_open: bool = False, hi_open: bool = False) -> PartialPolyhedron:
    """Interval of the line as a partial polyhedron; None endpoint = unbounded."""
    rows = []
    if hi is not None:
        rows.append(Constraint((Fraction(1),), Fraction(hi), hi_open))
    if lo is not None:
        rows.append(Constraint((Fraction(-1),), -Fraction(lo), lo_open))
    return PartialPolyhedron(1, tuple(rows))


def interval_compact_oracle(lo: Optional[Fraction], hi: Optional[Fraction],
                            lo_open: bool, hi_open: bool) -> bool:
    """Cover-argument oracle for the positive-part gauge on the line.

    Independent of the LP/polyhedron machinery: balls of the gauge
    max(0, t) are the lower rays (-inf, c), so a cover of an interval K by
    balls reduces to a family of right endpoints.

    - sup K = +inf: the balls (-inf, n) cover K but any finite union is a
      single lower ray, and K has points beyond it.
    - sup K = b attained: any cover contains a ball (-inf, c) with c > b,
      and that single ball already covers K.
    - sup K = b not attained: the balls (-inf, b - (b - m)/2^k), with m an
      interior point, cover K, yet any finite union stops short of b and
      misses interval points.
    """
    if not (hi is None or lo is None or (lo, not lo_open) < (hi, True)):
        raise ValueError("nonempty intervals only")
    if hi is None:
        # spot-check the escape: beyond any candidate finite union bound N
        for bound in (Fraction(1), Fraction(10), Fraction(100)):
            inside = max(bound, Fraction(0) if lo is None else Fraction(lo)) + 1
            if not (lo is None or inside > lo):
                raise AssertionError("the escaping point lies in the interval")
        return False
    if hi_open:
        # points of K exceed every b - eps: take the midpoint toward b
        anchor = Fraction(hi) - 1 if lo is None else Fraction(lo)
        for k in (1, 4, 16):
            eps = (Fraction(hi) - anchor) / (2 ** k)
            missed = Fraction(hi) - eps / 2
            if not (missed < hi and (lo is None or missed > lo)):
                raise AssertionError("the missed point lies in the interval")
        return False
    return True


def affine_image(region: PartialPolyhedron, scale: Fraction, shift) -> PartialPolyhedron:
    """The set {scale * x + shift : x in region} for scale > 0."""
    if not scale > 0:
        raise ValueError("the scale must be positive")
    rows = tuple(
        Constraint(c.normal, scale * c.rhs + dot(c.normal, shift), c.strict)
        for c in region.constraints
    )
    return PartialPolyhedron(region.dim, rows)


def rand_fraction(rng: random.Random, span: int = 3, max_den: int = 3) -> Fraction:
    return Fraction(rng.randint(-span, span), rng.randint(1, max_den))


def rand_point(rng: random.Random, dim: int, span: int = 4, max_den: int = 3):
    return tuple(Fraction(rng.randint(-span * max_den, span * max_den), max_den)
                 for _ in range(dim))


def low_rank_rows(rng: random.Random, m: int, n: int, k: int) -> list[list[int]]:
    """m int rows of length n in the span of k random int rows, each a
    combination with coefficients in -2..2: the rank is at most k, and
    zero and repeated rows are common."""
    span = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(k)]
    return [[sum(map(mul, coeffs, col)) for col in zip(*span)] if span else [0] * n
            for coeffs in ([rng.randint(-2, 2) for _ in span] for _ in range(m))]


def rank_two_rows() -> list[list[int]]:
    """400 int rows of length 4 and rank 2, the same on every call."""
    return low_rank_rows(random.Random(5), 400, 4, 2)


def with_redundant_rows(rng: random.Random, poly: Polyhedron):
    """The facets of ``poly`` (or ``0 <= 0`` when it is the whole space) with
    duplicate, positively rescaled, implied and ``0 <= 1`` rows added,
    shuffled: another inequality description of the same set."""
    d = poly.dim
    base = list(poly.hrep) or [(zero_vec(d), Fraction(0))]
    rows = list(base)
    for _ in range(rng.randint(1, 4)):
        (c1, b1), (c2, b2) = rng.choice(base), rng.choice(base)
        s = Fraction(rng.randint(1, 5), rng.randint(1, 3))
        rows += [
            (c1, b1),                                             # duplicate
            (tuple(s * a for a in c1), s * b1),                   # positive rescaling
            (tuple(a + b for a, b in zip(c1, c2)), b1 + b2),      # implied by two rows
            (c2, b2 + Fraction(rng.randint(0, 3))),               # implied, maybe slack
        ]
    rows.append((zero_vec(d), Fraction(1)))                       # 0 <= 1
    rng.shuffle(rows)
    return rows


# ---------------------------------------------------------------------------
# Frozen reference kernel: Fraction Gauss-Jordan and two-phase Bland simplex
# ---------------------------------------------------------------------------
# A verbatim copy of the earlier Fraction kernel of ``asymgeo.ratlp``, kept
# only so property tests can compare the integer kernel against it.  Do not
# optimize it: its value is that it is the old, independent code path.


def _ref_pivot(tab, i, j):
    row = tab[i]
    piv = row[j]
    if piv != 1:
        inv = 1 / piv
        row = tab[i] = [inv * x if x else x for x in row]
    for k, other in enumerate(tab):
        if k != i:
            f = other[j]
            if f:
                tab[k] = [x - f * y if y else x for x, y in zip(other, row)]


def _ref_bland(tab, basis, ncols):
    m = len(tab) - 1
    while True:
        obj = tab[m]
        enter = next((j for j in range(ncols) if obj[j] > 0), None)
        if enter is None:
            return None
        best = None
        for i in range(m):
            a = tab[i][enter]
            if a > 0:
                key = (tab[i][-1] / a, basis[i])
                if best is None or key < best:
                    best, leave = key, i
        if best is None:
            return enter
        _ref_pivot(tab, leave, enter)
        basis[leave] = enter


def ref_rref(rows):
    work = [list(map(Fraction, r)) for r in rows]
    pivots = []
    if not work:
        return [], pivots
    ncols = len(work[0])
    if any(len(r) != ncols for r in work):
        raise ValueError("rows of differing length")
    for col in range(ncols):
        r = len(pivots)
        if r == len(work):
            break
        piv = next((i for i in range(r, len(work)) if work[i][col] != 0), None)
        if piv is None:
            continue
        work[r], work[piv] = work[piv], work[r]
        _ref_pivot(work, r, col)
        pivots.append(col)
    return work[:len(pivots)], pivots


def ref_rank(rows):
    return len(ref_rref(rows)[1])


def ref_null_space_basis(rows, dim):
    red, pivots = ref_rref(rows)
    free = [c for c in range(dim) if c not in pivots]
    basis = []
    for f in free:
        v = [Fraction(0)] * dim
        v[f] = Fraction(1)
        for i, p in enumerate(pivots):
            v[p] = -red[i][f]
        basis.append(primitive(v))
    return basis


def ref_invert(rows):
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError("matrix is not square")
    ident = [[1 if j == i else 0 for j in range(n)] for i in range(n)]
    red, pivots = ref_rref([list(r) + e for r, e in zip(rows, ident)])
    if pivots != list(range(n)):
        raise ValueError("singular matrix")
    return [r[n:] for r in red]


def ref_lp_solve(objective, constraints):
    c_obj = as_vec(objective)
    d = len(c_obj)
    rows = []
    for cj, bj in constraints:
        cj = as_vec(cj)
        if len(cj) != d:
            raise ValueError(f"constraint dimension {len(cj)} != objective dimension {d}")
        rows.append((cj, Fraction(bj)))

    m = len(rows)
    nreal = 2 * d + m
    arts = [i for i, (_, bj) in enumerate(rows) if bj < 0]
    ncols = nreal + len(arts)

    tab = []
    basis = []
    for i, (cj, bj) in enumerate(rows):
        sgn = -1 if bj < 0 else 1
        row = [sgn * x for x in cj] + [-sgn * x for x in cj] \
            + [Fraction(0)] * (ncols - 2 * d) + [sgn * bj]
        row[2 * d + i] = Fraction(sgn)
        tab.append(row)
        basis.append(2 * d + i)
    for k, i in enumerate(arts):
        tab[i][nreal + k] = Fraction(1)
        basis[i] = nreal + k

    def optimize(cost, enterable):
        tab.append(cost + [Fraction(0)])
        for i, bi in enumerate(basis):
            if tab[-1][bi]:
                _ref_pivot(tab, i, bi)
        enter = _ref_bland(tab, basis, enterable)
        tab.pop()
        return enter

    if arts:
        enter = optimize([Fraction(0)] * nreal + [Fraction(-1)] * len(arts), ncols)
        if enter is not None:
            raise AssertionError("phase one cannot be unbounded")
        if sum(row[-1] for row, bi in zip(tab, basis) if bi >= nreal) > 0:
            return LpOutcome(LpStatus.INFEASIBLE)
        keep = []
        for i in range(m):
            if basis[i] >= nreal:
                j = next((j for j in range(nreal) if tab[i][j] != 0), None)
                if j is None:
                    continue
                _ref_pivot(tab, i, j)
                basis[i] = j
            keep.append(i)
        tab[:] = [tab[i][:nreal] + tab[i][-1:] for i in keep]
        basis[:] = [basis[i] for i in keep]

    enter = optimize(list(c_obj) + [-x for x in c_obj] + [Fraction(0)] * m, nreal)

    if enter is not None:
        delta = [Fraction(0)] * nreal
        delta[enter] = Fraction(1)
        for row, bi in zip(tab, basis):
            delta[bi] = -row[enter]
        direction = tuple(delta[j] - delta[d + j] for j in range(d))
        return LpOutcome(LpStatus.UNBOUNDED, witness=direction)

    xs = [Fraction(0)] * nreal
    for row, bi in zip(tab, basis):
        xs[bi] = row[-1]
    point = tuple(xs[j] - xs[d + j] for j in range(d))
    return LpOutcome(LpStatus.OPTIMAL, value=dot(c_obj, point), witness=point)


def ref_feasible_nonneg(matrix_rows, rhs_col):
    m = len(matrix_rows)
    if m != len(rhs_col):
        raise ValueError("row/rhs count mismatch")
    n = len(matrix_rows[0]) if m else 0
    tab = []
    for i, (row, bi) in enumerate(zip(matrix_rows, rhs_col)):
        row = [Fraction(x) for x in row]
        bi = Fraction(bi)
        if len(row) != n:
            raise ValueError("ragged matrix")
        if bi < 0:
            row = [-x for x in row]
            bi = -bi
        ext = [Fraction(0)] * m
        ext[i] = Fraction(1)
        tab.append(row + ext + [bi])
    tab.append([sum((r[j] for r in tab), Fraction(0)) for j in range(n)]
               + [Fraction(0)] * m + [sum((r[-1] for r in tab), Fraction(0))])
    basis = list(range(n, n + m))
    enter = _ref_bland(tab, basis, n + m)
    if enter is not None:
        raise AssertionError("phase one is bounded")
    return sum(tab[i][-1] for i in range(m) if basis[i] >= n) == 0


# ---------------------------------------------------------------------------
# LP membership references
# ---------------------------------------------------------------------------
# Membership in cone(G) and conv(P) + cone(R) as one phase one of the
# kernel's ``feasible_nonneg`` each, kept so tests can check the incidence
# predicates of ``asymgeo.polyhedron``, which run no LP, against them.


def in_cone(x: Vec, generators: Sequence[Vec]) -> bool:
    """LP membership of x in the cone spanned by the generators.

    No predicate of ``asymgeo.polyhedron`` calls it: it is the independent
    LP reference that tests check the incidence predicates against, and it
    is ``in_conv_plus_cone`` with the origin as the one point, since
    cone(G) = conv{0} + cone(G).
    """
    x = as_vec(x)
    return in_conv_plus_cone(x, [zero_vec(len(x))], _lp_columns(generators, len(x), "generator"))


def in_conv_plus_cone(x: Vec, points: Sequence[Vec], rays: Sequence[Vec]) -> bool:
    """LP membership of x in conv(points) + cone(rays); the LP reference, as ``in_cone``."""
    x = as_vec(x)
    pts = _lp_columns(points, len(x), "vertex")
    rds = _lp_columns(rays, len(x), "ray")
    if not pts:
        return False
    dim = len(x)
    cols = pts + rds
    rows = [[c[t] for c in cols] for t in range(dim)]
    rows.append([Fraction(1)] * len(pts) + [Fraction(0)] * len(rds))
    return feasible_nonneg(rows, list(x) + [Fraction(1)])


def _lp_columns(vectors: Sequence[Vec], dim: int, kind: str) -> list[Vec]:
    """The vectors as ``Fraction`` columns of the LP references, each checked to be ``dim`` long."""
    return _sized(kind, [as_vec(v) for v in vectors], dim)


# ---------------------------------------------------------------------------
# Frozen reference parser: public constructors over Fraction tokens
# ---------------------------------------------------------------------------
# A verbatim copy of the earlier ``asymgeo.cli.instances.parse_instance``,
# which parsed every token into a ``Fraction`` and built the gauge and the
# region with ``make_norm`` and ``PartialPolyhedron``, kept so property tests
# can compare the integer parser against it.  It matches directives by
# prefix and takes a repeated ``version`` or ``dim`` line, which the parser
# now rejects.  Do not optimize it.


def ref_parse_instance(text: str) -> tuple[AsymNorm, PartialPolyhedron]:
    """Parse instance text into a validated (gauge, region) pair."""
    version: Optional[str] = None
    dim: Optional[int] = None
    functionals: list[tuple[Fraction, ...]] = []
    h_rows: list[Constraint] = []
    vertices: list[tuple[Fraction, ...]] = []
    rays: list[tuple[Fraction, ...]] = []

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("version"):
            parts = line.split()
            if len(parts) != 2:
                raise _fail(lineno, "expected 'version <tag>'")
            version = parts[1]
            continue
        if line.startswith("dim"):
            parts = line.split()
            if (len(parts) != 2 or re.fullmatch("[0-9]+", parts[1]) is None
                    or _parse_rational(parts[1], f"line {lineno}") < 1):
                raise _fail(lineno, "expected 'dim <positive integer>'")
            dim = int(parts[1])
            if dim > ONE_FLAVOR_DIM_LIMIT:
                raise _fail(lineno, f"dim {dim} is above the limit {ONE_FLAVOR_DIM_LIMIT}")
            continue
        if ":" not in line:
            raise _fail(lineno, f"unknown directive {line.split()[0]!r}")
        key, rest = line.split(":", 1)
        key = key.strip()
        toks = rest.split()
        where = f"line {lineno}"
        if dim is None:
            raise _fail(lineno, "dim must come before any row")
        if key == "F":
            if len(toks) != dim:
                raise _fail(lineno, f"expected {dim} coefficients, got {len(toks)}")
            functionals.append(tuple(_parse_rational(t, where) for t in toks))
        elif key == "H":
            if len(toks) != dim + 2:
                raise _fail(lineno, f"expected '{dim} coefficients REL rhs'")
            rel = toks[dim]
            if rel not in ("<", "<="):
                raise _fail(lineno, f"relation must be '<' or '<=', got {rel!r}")
            normal = tuple(_parse_rational(t, where) for t in toks[:dim])
            rhs = _parse_rational(toks[dim + 1], where)
            h_rows.append(Constraint(normal, rhs, rel == "<"))
        elif key == "V":
            if len(toks) != dim:
                raise _fail(lineno, f"expected {dim} coordinates, got {len(toks)}")
            vertices.append(tuple(_parse_rational(t, where) for t in toks))
        elif key == "R":
            if len(toks) != dim:
                raise _fail(lineno, f"expected {dim} coordinates, got {len(toks)}")
            rays.append(tuple(_parse_rational(t, where) for t in toks))
        else:
            raise _fail(lineno, f"unknown directive {key!r}")

    if version is None:
        raise InstanceError("missing 'version' line")
    if version != "1":
        raise InstanceError(f"unsupported version {version!r}")
    if dim is None:
        raise InstanceError("missing 'dim' line")
    if not functionals:
        raise InstanceError("missing functional rows (F:)")
    norm = make_norm(dim, functionals)

    if h_rows and (vertices or rays):
        raise InstanceError("give either H rows or a V/R block, not both")
    if h_rows:
        region = PartialPolyhedron(dim, tuple(h_rows))
    elif vertices:
        region = to_partial(Polyhedron(dim, tuple(vertices), tuple(rays)))
    else:
        raise InstanceError("missing set block (H rows or V/R block)")
    return norm, region


# ---------------------------------------------------------------------------
# Frozen reference generator: Fraction draws through the public constructors
# ---------------------------------------------------------------------------
# Verbatim copies of the earlier ``asymgeo.cli.generators`` random generator,
# which drew every number as a ``Fraction`` and built the gauge and the region
# with ``make_norm`` and ``PartialPolyhedron``, kept so a differential test
# can compare the integer generator against it.  Do not optimize them.


def _ref_rand_rational(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-3, 3), rng.randint(1, 3))


def ref_gen_random_norm(dim: int, rng: random.Random) -> AsymNorm:
    if dim < 1:
        raise ValueError("dimension must be positive")
    while True:
        count = rng.randint(dim, dim + 2)
        rows = [tuple(_ref_rand_rational(rng) for _ in range(dim)) for _ in range(count)]
        try:
            return make_norm(dim, rows)
        except DefinitenessViolation:
            pass


def ref_gen_random_region(dim: int, rng: random.Random) -> PartialPolyhedron:
    if dim < 1:
        raise ValueError("dimension must be positive")
    while True:
        count = rng.randint(dim + 1, dim + 4)
        rows = [
            Constraint(
                tuple(_ref_rand_rational(rng) for _ in range(dim)),
                _ref_rand_rational(rng),
                rng.random() < 0.4,
            )
            for _ in range(count)
        ]
        if rng.random() < 0.5:
            for j in range(dim):
                e = tuple(Fraction(1 if i == j else 0) for i in range(dim))
                bound = Fraction(rng.randint(1, 3))
                rows.append(Constraint(e, bound, rng.random() < 0.2))
                rows.append(Constraint(tuple(-x for x in e), bound, rng.random() < 0.2))
        region = PartialPolyhedron(dim, tuple(rows))
        if not partial_is_empty(region):
            return region


def ref_gen_random_instance(dim: int, seed: int) -> tuple[AsymNorm, PartialPolyhedron]:
    rng = random.Random(seed)
    return ref_gen_random_norm(dim, rng), ref_gen_random_region(dim, rng)


# ---------------------------------------------------------------------------
# Frozen reference predicates: Fraction dot products
# ---------------------------------------------------------------------------
# Verbatim copies of the earlier Fraction versions of ``support_value`` (now
# ``_scan_support``), ``member`` and ``_meets_face`` (``asymgeo.polyhedron``)
# and ``gauge_eval`` (``asymgeo.norm``), kept so property tests can compare
# the integer predicates against them, and the earlier ``is_closed``, which
# scanned the support of each strict row over the closure where the current
# one reads the closure's generators.  ``ref_meets_face`` is the full face scan: it
# scans the face also for a region without strict rows, which the current
# ``_meets_face`` answers without one.  ``ref_ball_set`` is the earlier
# ``ball`` region, made of ``Fraction`` rows by the public constructor, where
# the current one makes the stored ints directly.  ``ref_partial_is_empty``
# is the earlier margin LP on the public ``lp_solve``, where the current
# ``partial_is_empty`` runs one phase one on Motzkin's alternative.  As with
# the kernel above, do not optimize them.


def ref_support_value(poly, direction):
    if any(dot(direction, r) > 0 for r in poly.rays):
        return None
    return max(dot(direction, v) for v in poly.vertices)


def ref_member(region, x):
    x = as_vec(x)
    if len(x) != region.dim:
        raise ValueError(f"point of length {len(x)} in dimension {region.dim}")
    for c in region.constraints:
        val = dot(c.normal, x)
        if c.strict:
            if not val < c.rhs:
                return False
        elif not val <= c.rhs:
            return False
    return True


def ref_meets_face(region, hull, normal, top):
    verts = [v for v in hull.vertices if dot(normal, v) == top]
    rays = [r for r in hull.rays if dot(normal, r) == 0]
    return all(any(dot(c.normal, v) < c.rhs for v in verts) or any(dot(c.normal, r) != 0 for r in rays)
               for c in region.constraints if c.strict)


def ref_ball_set(norm, center, radius, strict):
    """The earlier ``ball(...).as_set``: ``Fraction`` rows over the
    ``functionals`` view, handed to the public ``PartialPolyhedron``
    constructor."""
    center, radius = as_vec(center), Fraction(radius)
    rows = [Constraint(a, radius + dot(a, center), strict) for a in norm.functionals]
    if strict and radius == 0:
        rows.append(Constraint((Fraction(0),) * norm.dim, Fraction(0), True))
    return PartialPolyhedron(norm.dim, tuple(rows))


def ref_is_closed(region):
    hull = closure(region)
    if hull is None:
        return True
    for c in region.constraints:
        if not c.strict:
            continue
        top = ref_support_value(hull, c.normal)
        if top is None:
            raise AssertionError("rows of the region bound its own closure")
        if top == c.rhs:
            return False
    return True


def ref_partial_is_empty(region):
    """Maximize a margin t <= 1 added to every strict row: the region is
    nonempty iff the closed system is feasible with t > 0."""
    unit = (Fraction(0),) * region.dim + (Fraction(1),)
    rows = [((*c.normal, Fraction(int(c.strict))), c.rhs) for c in region.constraints]
    res = lp_solve(unit, [*rows, (unit, Fraction(1))])
    if res.status is LpStatus.INFEASIBLE:
        return True
    if res.status is not LpStatus.OPTIMAL:
        raise AssertionError("the margin objective is capped")
    return res.value <= 0


def ref_gauge_eval(norm, x):
    x = as_vec(x)
    if len(x) != norm.dim:
        raise ValueError(f"point of length {len(x)} in dimension {norm.dim}")
    best = Fraction(0)
    for a in norm.functionals:
        v = dot(a, x)
        if v > best:
            best = v
    return best


# ---------------------------------------------------------------------------
# Frozen reference: the double description's base and its lexicographic run
# ---------------------------------------------------------------------------
# Verbatim copies of the integer Bareiss step of ``asymgeo.ratlp``
# (``_pivot``), of the row-by-row elimination loop ``_reduce`` ran on int
# rows before it became ``_basis`` on the rows' columns, and of the earlier
# ``polyhedron._pointed_cone_rays``, which picked its base by eliminating
# the whole [rows^T | I] and inserted the other rows in lexicographic order,
# kept so tests can compare ``_reduce``, the lazy base, the insertion order
# read off it and the simple-ray adjacency shortcut against them.  Do not
# optimize them.


def _ref_int_pivot(tab, i, j, det):
    row = tab[i]
    p = row[j]
    if p < 0:
        p = -p
        row = tab[i] = [-x for x in row]
    for k, other in enumerate(tab):
        if k != i:
            f = other[j]
            if f:
                tab[k] = ([p * x - f * y for x, y in zip(other, row)] if det == 1 else
                          [(p * x - f * y) // det for x, y in zip(other, row)])
            elif p != det:
                tab[k] = [p * x // det for x in other]
    return p


def _ref_int_reduce(rows, ncols):
    work = list(rows)
    n = len(work)
    pivots = []
    det = 1
    for col in range(ncols):
        r = len(pivots)
        if r == n:
            break
        for piv in range(r, n):
            if work[piv][col]:
                break
        else:
            continue
        work[r], work[piv] = work[piv], work[r]
        det = _ref_int_pivot(work, r, col, det)
        pivots.append(col)
    return work, pivots, det


def ref_basis(rows, dim):
    """(identity block, pivot columns, denominator) of the elimination of the
    int tableau [rows^T | I] over its m row columns, or None below rank dim."""
    m = len(rows)
    work, pivots, det = _ref_int_reduce(
        [[row[t] for row in rows] + [int(t == k) for k in range(dim)] for t in range(dim)], m)
    if len(pivots) < dim:
        return None
    return [list(w[m:]) for w in work], pivots, det


def ref_pointed_cone_rays(rows, dim):
    """Extreme rays of {x : <row, x> <= 0} for ``_prepare_rows`` rows, by the
    lexicographic double description; None below rank dim."""
    picked = ref_basis(rows, dim)
    if picked is None:
        return None
    block, base_idx, _ = picked
    rays = []
    for w in block:
        g = gcd(*w)
        rays.append(tuple(-a // g for a in w))
    base = sum(1 << i for i in base_idx)
    inc = [base & ~(1 << i) for i in base_idx]
    need = dim - 2
    for i, row in enumerate(rows):
        if base >> i & 1:
            continue
        bit = 1 << i
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
                holders = 0
                for m in inc:
                    if m & common == common:
                        holders += 1
                        if holders > 2:
                            break
                else:
                    w = [vp * b - vq * a for a, b in zip(rp, rq)]
                    g = gcd(*w)
                    next_rays.append(tuple([a // g for a in w]))
                    next_inc.append(common | bit)
        rays, inc = next_rays, next_inc
    return sorted(set(rays))


# ---------------------------------------------------------------------------
# Frozen reference values: the Fraction canonicalization of the constructors
# ---------------------------------------------------------------------------
# Copies of the earlier ``__post_init__`` of ``Polyhedron``, ``Cone``,
# ``PartialPolyhedron`` and ``AsymNorm``, which stored the public attributes
# as ``Fraction`` dataclass fields, and of the repr the dataclass made of
# them, kept so tests can check the stored int form and its views against
# them.  Do not optimize them.

REF_PUBLIC = {
    Polyhedron: ("dim", "vertices", "rays"),
    Cone: ("dim", "generators", "lineality_basis"),
    PartialPolyhedron: ("dim", "constraints"),
    AsymNorm: ("dim", "functionals"),
}


def _ref_rays(rays):
    return tuple(sorted({primitive(as_vec(r)) for r in rays if not is_zero_vec(r)}))


def ref_attributes(cls, dim, *args) -> tuple:
    """The public attributes, ``dim`` first, that the earlier constructor of
    ``cls`` made of its arguments."""
    if cls is Polyhedron:
        vertices, rays = args
        return dim, tuple(sorted({as_vec(v) for v in vertices})), _ref_rays(rays)
    if cls is Cone:
        generators, lineality_basis = args
        return dim, _ref_rays(generators), tuple(primitive(as_vec(b)) for b in lineality_basis)
    if cls is PartialPolyhedron:
        (constraints,) = args
        return dim, tuple(Constraint(as_vec(c), Fraction(b), bool(s)) for c, b, s in constraints)
    (functionals,) = args
    return dim, tuple(as_vec(f) for f in functionals)


def ref_repr(value) -> str:
    """The repr the earlier dataclass made of the value its constructor made
    of ``value``'s public attributes."""
    names = REF_PUBLIC[type(value)]
    attrs = ref_attributes(type(value), *[getattr(value, n) for n in names])
    return f"{type(value).__name__}({', '.join(f'{n}={a!r}' for n, a in zip(names, attrs))})"


# ---------------------------------------------------------------------------
# Reference incidence: tight rows by dot products
# ---------------------------------------------------------------------------
# The earlier ``polyhedron._tight_masks``, which rescanned rows seeded
# without masks, and the earlier ``polyhedron._maximal``, a pairwise scan
# over the masks.  The conversions now seed every value's masks, and the
# extreme flags come from the one holder scan ``polyhedron._held``, so the
# tests compare those masks and flags against these.  Do not optimize them.


def ref_tight_masks(rows, gens) -> tuple:
    """Incidence as bitmasks: per generator (y, t), bit i is set iff row i
    (c, b) is tight on it, <c, y> = b * t (the point y / t for t > 0, the
    direction y for t = 0)."""
    masks = []
    for y, t in gens:
        mask = 0
        for i, (c, b) in enumerate(rows):
            if sum(map(mul, c, y)) == b * t:
                mask |= 1 << i
        masks.append(mask)
    return tuple(masks)


def ref_maximal(masks, rivals=()) -> list:
    """Per mask, whether no other mask and no rival holds all of its bits."""
    pool = (*masks, *rivals)
    return [not any(m & a == a for j, m in enumerate(pool) if j != k) for k, a in enumerate(masks)]


# ---------------------------------------------------------------------------
# Reference half-open sum: the facet construction
# ---------------------------------------------------------------------------
# The earlier ``compactness.saturate_region``, which converted the saturated
# hull to its facets and decided each strict flag by a support scan of the
# closure and a dot-product scan of its face.  The current one reads its
# rows and flags off the saturated hull's own rows and masks, so the tests
# compare the two sets.  Do not optimize it.


def ref_saturate_region(inst) -> PartialPolyhedron:
    """region + degeneracy cone on the facets of closure + cone (converted
    afresh): a facet is strict exactly when the closure reaches its bound
    and its optimal face over the closure misses the region.  Built by the
    public constructor; its closure is not seeded."""
    rows = []
    for c, b in _int_facets(inst.saturated).rows:
        top = _scan_support(inst.hull, c)
        if top is None or top[0] > b * top[1]:
            raise AssertionError("sum rows bound the closure")
        strict = top[0] == b * top[1] and not _meets_face(inst.region, c, b)
        rows.append(Constraint(tuple(map(Fraction, c)), Fraction(b), strict))
    return PartialPolyhedron(inst.region.dim, tuple(rows))


# ---------------------------------------------------------------------------
# Reference T3: a second sandwich and an inclusion each way
# ---------------------------------------------------------------------------
# The earlier T3 of ``compactness.verify_theorems`` for a center other than
# the candidate: the center's own sandwich (the earlier
# ``compactness._sandwich``), then center + C and closure + C compared as
# sets by an inclusion each way.  The current one reads the instance's
# sandwich fact and compares the two sums as values, so the tests compare
# the two.  Do not optimize them.


def ref_sandwich(core, region, cone):
    """core + cone when core <= region <= core + cone holds, else None: the
    first inclusion off the core's generators (``_within``), the second off
    the rows of core + cone (``subset``)."""
    if not _within(core, region):
        return None
    padded = minkowski_sum_with_cone(core, cone)
    return padded if subset(region, to_partial(padded)) else None


def ref_t3(inst, core) -> bool:
    """core <= region <= core + C, and core + C equals closure + C as a set:
    equal values, or an inclusion each way, each set's generators against
    the other's rows."""
    sat = inst.saturated
    padded = ref_sandwich(core, inst.region, inst.degeneracy)
    return padded is not None and (padded == sat or _within(padded, to_partial(sat))
                                   and _within(sat, to_partial(padded)))


# ---------------------------------------------------------------------------
# Reference local test: one full double description per vertex
# ---------------------------------------------------------------------------
# The earlier ``compactness._extreme_in_saturation``, which ran the cone
# {x : A_v x <= 0, <a_i, x> >= 0} through ``cone_from_rows`` afresh at each
# vertex (a base elimination, then every tight row and every -a_i).  The
# current one seeds the insertion loop with the closure's edges at v
# (``polyhedron._edges``, by the combinatorial test) and inserts the -a_i
# only, so the tests compare the two, and the edges against the algebraic
# test of adjacency (``ref_edges``, by rank).  Do not optimize them.


def ref_edges(poly, k: int) -> tuple[list, list]:
    """The edges of a pointed polyhedron at its k-th listed vertex v, by the
    algebraic test on ``Fraction`` views: a listed vertex w or ray r spans
    one iff the rows of ``poly._rows`` tight on both, homogenized as
    (c, -b), have rank dim - 1.  Each comes with its direction, w - v or r
    made primitive, and the mask of those rows."""
    rows, v, mv = poly._rows, poly.vertices[k], poly._vert_masks[k]
    gens = [(tuple(a - b for a, b in zip(w, v)), m) for w, m in zip(poly.vertices, poly._vert_masks)]
    gens += zip(poly.rays, poly._ray_masks)
    edges, masks = [], []
    for j, (direction, m) in enumerate(gens):
        common = m & mv
        tight = [(*c, -b) for i, (c, b) in enumerate(rows) if common >> i & 1]
        if j != k and ref_rank(tight) == poly.dim - 1:
            edges.append(primitive(direction))
            masks.append(common)
    return edges, masks


def ref_extreme_in_saturation(inst, mask: int) -> bool:
    """Is the closure vertex with mask ``mask`` (``hull._vert_masks``)
    extreme in closure + degeneracy cone?  Its tangent cone must meet -C in
    0 only: the double description of the tight rows and the rows -a_i has
    neither generators nor lineality."""
    rows = inst.hull._rows
    tight = [rows[j][0] for j in range(len(rows)) if mask >> j & 1]
    return cone_from_rows([*tight, *map(vneg, inst.norm._rows)], inst.norm.dim)[:2] == ((), ())


# ---------------------------------------------------------------------------
# Reference test (a): the scan of every closure recession direction
# ---------------------------------------------------------------------------
# The earlier ``compactness.Instance._escaping``, which made the closure's
# recession cone and took a dot product of each direction with each
# functional on every instance.  The current one skips both when the
# closure's row directions are the gauge's, so the tests compare the two.


def ref_escaping(inst):
    """The first recession direction of the closure, in sorted order, with
    positive gauge, as stored ints, or None: the recession cone's generators
    and both signs of its lineality basis, each against every functional."""
    rec, rows = recession_cone(inst.hull), inst.norm._rows
    directions = {*rec._gens, *rec._lin, *map(vneg, rec._lin)}
    return next((d for d in sorted(directions) if any(sum(map(mul, a, d)) > 0 for a in rows)), None)


# ---------------------------------------------------------------------------
# Reference predicates: when a decision reads C and test (a) off the closure
# ---------------------------------------------------------------------------
# ``decide_compact`` seeds the gauge's degeneracy cone with the closure's rays
# when every nonzero row normal of the closure is a positive multiple of a
# functional, and skips test (a)'s scan when moreover every functional is a
# positive multiple of a row normal, which it tests on primitive forms.  These
# test parallelism by 2x2 minors and the sign by a dot product, with no gcd.


def ref_rows_are_gauge_rows(norm, region) -> bool:
    """Is every nonzero row normal of the region (``region._rows``) a
    positive multiple of some functional of the gauge (``norm._rows``)?"""

    return all(any(_positive_multiple(c, a) for a in norm._rows) for c, _, _ in region._rows if any(c))


def ref_gauge_rows_are_rows(norm, region) -> bool:
    """Is every nonzero functional of the gauge (``norm._rows``) a positive
    multiple of some row normal of the region (``region._rows``)?"""
    return all(any(_positive_multiple(a, c) for c, _, _ in region._rows) for a in norm._rows if any(a))


def _positive_multiple(c, a) -> bool:
    """Is the int row c a positive multiple of the int row a?  Parallel by
    2x2 minors, the same side by a dot product."""
    return sum(map(mul, c, a)) > 0 and all(c[i] * a[j] == c[j] * a[i] for i in range(len(c)) for j in range(i))
