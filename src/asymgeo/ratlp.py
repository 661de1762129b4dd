"""Exact rational linear algebra and linear programming kernel.

Everything downstream (gauge evaluation, polyhedra, compactness
certificates) rests on this module.  Vectors are plain tuples of
``fractions.Fraction`` and there is deliberately no floating point
anywhere.  One Gauss-Jordan pivot (``_pivot``) does every elimination
step, and one Bland's-rule simplex loop (``_bland``) drives every linear
program: ``rref`` is the only elimination loop (``rank`` and ``invert``
read their answers off it), while ``lp_solve`` (two-phase, free variables
split) and ``feasible_nonneg`` (phase one only) just build a tableau for
it.  The compactness decision itself runs no LP: ``lp_solve`` serves the
random generator's emptiness test, and ``feasible_nonneg`` the LP membership
tests kept as a reference.  Instances are desk scale (dimension <= 6, at
most a few hundred rows), so exactness and determinism win over speed.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Optional, Sequence

Rational = Fraction

# Points, directions and functional rows all share one representation.
Vec = tuple[Rational, ...]
Point = Vec
LinFunctional = Vec


def rat(value, den: Optional[int] = None) -> Rational:
    """Coerce ``value`` (int, string like ``"3/5"``, or Fraction) to Rational."""
    if den is not None:
        return Fraction(value, den)
    return Fraction(value)


def as_vec(coords: Iterable) -> tuple[Rational, ...]:
    return tuple(Fraction(c) for c in coords)


def zero_vec(dim: int) -> tuple[Rational, ...]:
    return (Fraction(0),) * dim


def dot(u: Sequence[Rational], v: Sequence[Rational]) -> Rational:
    if len(u) != len(v):
        raise ValueError(f"dimension mismatch: {len(u)} vs {len(v)}")
    return sum((a * b for a, b in zip(u, v)), Fraction(0))


def vadd(u, v):
    return tuple(a + b for a, b in zip(u, v))


def vsub(u, v):
    return tuple(a - b for a, b in zip(u, v))


def vneg(u):
    return tuple(-a for a in u)


def vscale(t: Rational, u) -> tuple[Rational, ...]:
    t = Fraction(t)
    return tuple(t * a for a in u)


def is_zero_vec(u) -> bool:
    return all(a == 0 for a in u)


def primitive(u) -> tuple[Rational, ...]:
    """Scale ``u`` to integer entries with gcd 1, preserving direction.

    The zero vector is returned unchanged.  Used to canonicalize ray
    directions and constraint rows so that equal directions compare equal.
    """
    if is_zero_vec(u):
        return zero_vec(len(u))
    mult = lcm(*(a.denominator for a in u))
    ints = [int(a * mult) for a in u]
    g = gcd(*ints)
    return tuple(Fraction(n // g) for n in ints)


# ---------------------------------------------------------------------------
# The pivot kernel
# ---------------------------------------------------------------------------


def _pivot(tab: list[list[Rational]], i: int, j: int) -> None:
    """Scale row i so that entry j is 1, then clear column j from every other row.

    A right-hand side, when there is one, is the last column of each row and
    is carried along like any other entry.
    """
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


def _bland(tab: list[list[Rational]], basis: list[int], ncols: int) -> Optional[int]:
    """Simplex with Bland's rule; None at optimality, else an unbounded column.

    ``tab`` holds one row per basic variable, right-hand side last, and the
    reduced objective (to be maximized) as its last row.  Only the first
    ``ncols`` columns may enter.  The leaving row minimizes (ratio, basic
    variable), so the pivot sequence is deterministic and cannot cycle.
    """
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
        _pivot(tab, leave, enter)
        basis[leave] = enter


# ---------------------------------------------------------------------------
# Elimination
# ---------------------------------------------------------------------------


def rref(rows: Sequence[Sequence[Rational]]) -> tuple[list[list[Rational]], list[int]]:
    """Reduced row echelon form; returns (nonzero rows, pivot column indices)."""
    work = [list(map(Fraction, r)) for r in rows]
    pivots: list[int] = []
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
        _pivot(work, r, col)
        pivots.append(col)
    return work[:len(pivots)], pivots


def rank(rows: Sequence[Sequence[Rational]]) -> int:
    """Exact rank of the given rows over Q."""
    return len(rref(rows)[1])


def null_space_basis(rows: Sequence[Sequence[Rational]], dim: int) -> list[tuple[Rational, ...]]:
    """Deterministic basis of {x : <row, x> = 0 for every row}."""
    red, pivots = rref(rows)
    free = [c for c in range(dim) if c not in pivots]
    basis = []
    for f in free:
        v = [Fraction(0)] * dim
        v[f] = Fraction(1)
        for i, p in enumerate(pivots):
            v[p] = -red[i][f]
        basis.append(primitive(v))
    return basis


def invert(rows: Sequence[Sequence[Rational]]) -> list[list[Rational]]:
    """Exact inverse of a square matrix given as rows; raises on singular input."""
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError("matrix is not square")
    ident = [[1 if j == i else 0 for j in range(n)] for i in range(n)]
    red, pivots = rref([list(r) + e for r, e in zip(rows, ident)])
    if pivots != list(range(n)):
        raise ValueError("singular matrix")
    return [r[n:] for r in red]


# ---------------------------------------------------------------------------
# Linear programming
# ---------------------------------------------------------------------------


class LpStatus(enum.Enum):
    OPTIMAL = "OPTIMAL"
    UNBOUNDED = "UNBOUNDED"
    INFEASIBLE = "INFEASIBLE"


@dataclass(frozen=True)
class LpOutcome:
    """Result of ``lp_solve``.

    ``witness`` is the optimizer when OPTIMAL and a recession direction with
    positive objective growth when UNBOUNDED.
    """

    status: LpStatus
    value: Optional[Rational] = None
    witness: Optional[tuple[Rational, ...]] = None


def lp_solve(objective: Sequence[Rational],
             constraints: Sequence[tuple[Sequence[Rational], Rational]]) -> LpOutcome:
    """Maximize <objective, x> subject to <c_j, x> <= b_j, x free.

    Two-phase simplex over exact rationals with Bland's rule, so the result
    is deterministic and cycling is impossible.  Free variables are split
    into positive and negative parts internally.
    """
    c_obj = as_vec(objective)
    d = len(c_obj)
    rows = []
    for cj, bj in constraints:
        cj = as_vec(cj)
        if len(cj) != d:
            raise ValueError(f"constraint dimension {len(cj)} != objective dimension {d}")
        rows.append((cj, Fraction(bj)))

    m = len(rows)
    nreal = 2 * d + m  # u parts, w parts, slacks
    arts = [i for i, (_, bj) in enumerate(rows) if bj < 0]
    ncols = nreal + len(arts)

    # Rows over columns [u | w | s | artificials | rhs], rhs kept >= 0.
    tab: list[list[Fraction]] = []
    basis: list[int] = []
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

    def optimize(cost: list[Fraction], enterable: int) -> Optional[int]:
        """Price ``cost`` against the basis, run Bland, drop the objective row."""
        tab.append(cost + [Fraction(0)])
        for i, bi in enumerate(basis):
            if tab[-1][bi]:
                _pivot(tab, i, bi)
        enter = _bland(tab, basis, enterable)
        tab.pop()
        return enter

    if arts:
        enter = optimize([Fraction(0)] * nreal + [Fraction(-1)] * len(arts), ncols)
        assert enter is None, "phase one cannot be unbounded"
        if sum(row[-1] for row, bi in zip(tab, basis) if bi >= nreal) > 0:
            return LpOutcome(LpStatus.INFEASIBLE)
        # pivot remaining artificials out of the basis, or drop zero rows
        keep = []
        for i in range(m):
            if basis[i] >= nreal:
                j = next((j for j in range(nreal) if tab[i][j] != 0), None)
                if j is None:
                    continue  # redundant row (0 = 0)
                _pivot(tab, i, j)
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


def feasible_nonneg(matrix_rows: Sequence[Sequence[Rational]],
                    rhs_col: Sequence[Rational]) -> bool:
    """Does A lam = b admit lam >= 0?  Phase-one simplex, Bland's rule.

    Dedicated tableau for the conic and convex combination tests that serve
    as the LP reference for polyhedral extremality: variables are already
    sign-constrained, so no split is needed and only the artificial phase
    runs.
    """
    m = len(matrix_rows)
    if m != len(rhs_col):
        raise ValueError("row/rhs count mismatch")
    n = len(matrix_rows[0]) if m else 0
    tab: list[list[Fraction]] = []
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
    # reduced phase-one objective: the artificials' cost -1 priced out
    tab.append([sum((r[j] for r in tab), Fraction(0)) for j in range(n)]
               + [Fraction(0)] * m + [sum((r[-1] for r in tab), Fraction(0))])
    basis = list(range(n, n + m))
    enter = _bland(tab, basis, n + m)
    assert enter is None, "phase one is bounded"
    return sum(tab[i][-1] for i in range(m) if basis[i] >= n) == 0
