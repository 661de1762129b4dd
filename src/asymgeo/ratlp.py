"""Exact rational linear algebra and linear programming kernel.

Vectors are plain tuples of ``fractions.Fraction``; there is no floating
point anywhere.  The kernel itself is an integer fraction-free one: rows are
cleared of denominators on entry (int rows, which the double description and
the definiteness check hand over, pass as they are) and results become
``Fraction`` on return, except the int null space ``_null_space`` that the
double description reads.  One int helper, ``_primitive``, divides a row by
the gcd of its entries for every caller outside the double description's
ray combination.  One builder, ``_fractions``, turns an int row over a
positive denominator into a ``Fraction`` tuple: the kernel's results here
(``lp_solve``'s witnesses) and every view, extreme point, extreme ray and
witness that ``asymgeo.polyhedron``, ``asymgeo.norm`` and
``asymgeo.compactness`` make of their stored ints.
The gauge's ``functionals``, a region's ``constraints`` and a polyhedron's
``vertices`` hand it one memo per denominator for all their rows, so each
of these views holds one ``Fraction`` object per distinct (entry,
denominator) pair: a d = 4 lattice ball's gauge and region rows hold 135
entries and about 18 distinct numbers.  A memo lives for one call of the
view; nothing is cached across values, and equal views of equal values
share no object.
It lives in this module because int results first become ``Fraction``s
here, and because the kernel imports no other module of the package while
they all import it.
One Bareiss pivot (``_pivot``) does every elimination step and one Bland's
rule loop (``_bland``) every simplex step.  One loop runs the eliminations:
``_basis``, the elimination of [rows^T | I] over its row columns, which
keeps only the identity block and forms a column of rows^T when its pivot
search reaches it.  It picks the base of the double description and of the
definiteness check, and its count of picked rows is ``rank``.  ``_reduce``
is it run on a matrix's columns, with an n x n block for n rows, so it is
handed only the independent rows ``_basis`` picks: ``_null_space``, on the
int rows that ``asymgeo.polyhedron.cone_from_rows`` has cleared and sized,
and the reduced row echelon form of a recession cone's lineality basis in
``asymgeo.polyhedron`` read their answers off that.  One helper clears a
row list to ints (``_int_rows``) and one raises the "of length ... in
dimension" error (``_sized``).
The per-entry work of the double description and the eliminations, on
vectors of at most 14 entries at d <= 12, runs through four straight-line
kernels (``_unrolled``): a dot product, the combination p * b - q * a, an
exact division and the Bareiss row update (p * x - f * y) // d, which
divides by 1 at a first pivot, each written out entry by entry for one
vector length.  Every other int dot product of the package takes the same
``dot`` kernel: the support scans, the face test and membership of
``asymgeo.polyhedron``, the gauge and the ball of ``asymgeo.norm`` and
phase one's weighted sum here.  The interpreter's cost is per element: at 5
entries ``sum(map(mul, a, b))`` took 0.35 us against 0.17 us for
``a[0] * b[0] + ... + a[4] * b[4]``, and the combination's list
comprehension over ``zip`` 0.73 us against 0.26 us (Python 3.11.7, a
2-vCPU Xeon).  A kernel is compiled from its template, formatted from
ints only, when a length first asks for it, not on import, since a
compile takes 40-130 us and a process checks one instance at a few
lengths; above ``_UNROLL_CAP`` entries (the tableaux of ``lp_solve`` and
of large emptiness tests) the kernel is its generic form, since an
expression of 1000 terms took 9 ms to compile and one of 3000 exceeded
the compiler's recursion limit.
``lp_solve`` (two-phase, free variables split) and ``feasible_nonneg``
(phase one only) share one phase one: the tableau is the cleared rows,
negated where the right-hand side is negative, with no artificial
column; an artificial is a basis label past the real columns, the
objective row a weighted sum of the rows with an artificial, made in one
pass, and only real columns enter.  ``lp_solve`` carries its phase-two
cost row through phase one, which keeps it priced, so no pass prices it.
The compactness decision runs no LP:
``feasible_nonneg`` serves the random generator's emptiness test
(Motzkin's alternative, in ``asymgeo.polyhedron.partial_is_empty``) and
the tests' LP membership references (``tests/support.py``), and
``lp_solve`` stays as public API that no module of the package calls.
Nor does the decision call the ``Fraction`` ``dot``: the predicates
compare int copies cleared by ``_clear``, through the ``dot`` kernel.
Every value type of the package, ``LpOutcome`` here and the gauges,
polyhedra, instances, certificates and reports elsewhere, derives from
one frozen base, ``_Value``, and memoizes with ``_memo``: no class is
made by ``dataclasses``, whose generated code every process would run
on import.
"""

from __future__ import annotations

import enum
from fractions import Fraction
from itertools import chain
from math import gcd, lcm
from operator import mul, neg
from typing import Callable, Iterable, Optional, Sequence

Rational = Fraction

# Points, directions and functional rows all share one representation.
Vec = tuple[Rational, ...]


def rat(value, den: Optional[int] = None) -> Rational:
    """Coerce ``value`` (int, string like ``"3/5"``, or Fraction) to Rational."""
    return Fraction(value) if den is None else Fraction(value, den)


def as_vec(coords: Iterable) -> tuple[Rational, ...]:
    return tuple(c if type(c) is Fraction else Fraction(c) for c in coords)


def zero_vec(dim: int) -> tuple[Rational, ...]:
    return (Fraction(0),) * dim


def dot(u: Sequence[Rational], v: Sequence[Rational]) -> Rational:
    if len(u) != len(v):
        raise ValueError(f"dimension mismatch: {len(u)} vs {len(v)}")
    return sum((a * b for a, b in zip(u, v)), Fraction(0))


def vneg(u):
    return tuple(map(neg, u))


def _primitive(row: Sequence[int]) -> tuple[int, ...]:
    """An int row scaled to coprime integers, direction kept, so that equal
    directions and constraint rows compare equal: divided by the gcd of its
    entries when that is above 1 (a zero row stays zero)."""
    g = gcd(*row)
    return tuple(row) if g < 2 else _unrolled("div", len(row))(row, g)


def _fractions(row: Sequence[int], den: int = 1, memo: Optional[dict] = None) -> Vec:
    """An int row over ``den`` > 0 as a ``Fraction`` tuple: the one builder
    that turns the package's stored ints into public vectors.

    A view passes ``memo``, one dict of numerator -> ``Fraction`` over
    ``den`` for all its rows over that ``den``, so each (entry, den) pair of
    the view is made once and every other occurrence is that same object;
    the dict lives for that one call of the view.  ``Fraction(a)`` skips the
    gcd that ``Fraction(a, 1)`` takes."""
    if memo is None:
        return tuple(map(Fraction, row)) if den == 1 else tuple([Fraction(a, den) for a in row])
    return tuple([memo[a] if a in memo else memo.setdefault(a, Fraction(a, den) if den != 1 else Fraction(a))
                  for a in row])


def _all_int(values: Iterable) -> bool:
    """Is every value an ``int`` (bool excluded)?  One C-level pass, no generator."""
    return set(map(type, values)) <= {int}


def _clear(row: Sequence) -> tuple[int, Sequence[int]]:
    """(s, s * row) as ints, s > 0 the lcm of the denominators; int rows pass as is."""
    if _all_int(row):
        return 1, row
    row = [a if type(a) is Fraction else Fraction(a) for a in row]
    s = lcm(*[a.denominator for a in row])  # a list: a starred generator's tuple stays in the free list
    return s, [a.numerator * (s // a.denominator) for a in row]


def _cleared(ps: Sequence[int], qs: Sequence[int], s: int) -> tuple[int, ...]:
    """The numbers p / q times s, a common multiple of the q's, as ints: ``_clear``
    for numbers held as int pairs (the parser's tokens, the generator's draws)."""
    return tuple(ps) if s == 1 else tuple([p * (s // q) for p, q in zip(ps, qs)])


def _int_rows(rows: Iterable[Sequence[Rational]]) -> list[Sequence[int]]:
    """The rows, as a list, cleared to ints by ``_clear``, one pass that leaves
    int rows as they are; rows of differing length raise ``ValueError``."""
    rows = list(rows)
    if not _all_int(chain.from_iterable(rows)):
        rows = [_clear(r)[1] for r in rows]
    if len(set(map(len, rows))) > 1:
        raise ValueError("rows of differing length")
    return rows


def _sized(kind: str, vectors: Iterable[Sequence], dim: int) -> list[Sequence]:
    """The vectors as a list; ``ValueError`` at the first whose length is not ``dim``."""
    vectors = list(vectors)
    for v in vectors:
        if len(v) != dim:
            raise ValueError(f"{kind} of length {len(v)} in dimension {dim}")
    return vectors


class InternalInvariantError(RuntimeError):
    """A broken invariant: a bug, never a bad input (raised, not asserted, so ``-O`` keeps it)."""


# --- Values ------------------------------------------------------------------


class _Value:
    """The base of every value type, read off its class's ``_fields``: a
    value equals one of the very same class with equal fields (else
    ``NotImplemented``), hashes as the tuple of its fields, prints as the
    call ``Name(field=..., ...)`` (or of the public views named in
    ``_public``) and is frozen.  ``__init__`` sets the fields with
    ``_set`` and ``_make`` takes them as given; memos (``_memo``) write
    the value's ``__dict__``, past the frozen ``__setattr__``."""

    _fields: tuple[str, ...] = ()
    _public: tuple[str, ...] = ()

    @classmethod
    def _make(cls, **fields):
        """The value of canonical stored fields, taken as given: checks nothing."""
        value = object.__new__(cls)
        vars(value).update(fields)
        return value

    def _set(self, *values) -> None:
        """Set the fields, in ``_fields`` order, past the frozen ``__setattr__``."""
        for name, value in zip(self._fields, values):
            object.__setattr__(self, name, value)

    def _key(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key() == other._key()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        names = self._public or self._fields
        return f"{type(self).__qualname__}({', '.join(f'{n}={getattr(self, n)!r}' for n in names)})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class _memo:
    """An attribute computed on first read and stored in the value's
    ``__dict__``, where later reads find it first: a non-data descriptor,
    as ``functools.cached_property`` is, without the lock that one takes
    on every first read up to Python 3.11."""

    def __init__(self, func):
        self.func = func
        self.name = func.__name__
        self.__doc__ = func.__doc__

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = obj.__dict__[self.name] = self.func(obj)
        return value


# --- Unrolled kernels --------------------------------------------------------

_UNROLL_CAP = 16
# kind: (arguments, entry i, separator, shape of the joined entries, generic form);
# "update" divides by the running denominator d, which is 1 at a first pivot
_TEMPLATES = {
    "dot": ("a, b", "a[{i}] * b[{i}]", " + ", "{}", lambda a, b: sum(map(mul, a, b))),
    "comb": ("p, q, a, b", "p * b[{i}] - q * a[{i}]", ", ", "({},)",
             lambda p, q, a, b: tuple([p * y - q * x for x, y in zip(a, b)])),
    "div": ("r, g", "r[{i}] // g", ", ", "({},)", lambda r, g: tuple([x // g for x in r])),
    "update": ("p, f, x, y, d", "(p * x[{i}] - f * y[{i}]) // d", ", ", "[{}]",
               lambda p, f, x, y, d: [(p * u - f * v) // d for u, v in zip(x, y)]),
}
_KERNELS: dict[tuple[str, int], Callable] = {}


def _unrolled(kind: str, n: int) -> Callable:
    """The kernel ``kind`` of ``_TEMPLATES`` for vectors of length n: its
    n entries written out as one expression, compiled on first use, for
    0 < n <= ``_UNROLL_CAP``; otherwise its generic form."""
    try:
        return _KERNELS[kind, n]
    except KeyError:
        args, entry, sep, shape, kernel = _TEMPLATES[kind]
        if 0 < n <= _UNROLL_CAP:
            # formatted from the template and ints only: no input reaches eval
            body = shape.format(sep.join([entry.format(i=i) for i in range(n)]))
            kernel = eval(f"lambda {args}: {body}", {})
        _KERNELS[kind, n] = kernel
        return kernel


# --- The pivot kernel --------------------------------------------------------


def _pivot(tab: list[Sequence[int]], i: int, j: int, det: int) -> int:
    """Fraction-free Gauss-Jordan step on entry (i, j); returns the new denominator.

    Every row stands for itself over the common denominator ``det`` > 0.  Row i
    is negated if need be so that its entry p = |tab[i][j]| is the new
    denominator; every other row y becomes (p * y - y[j] * row_i) / det, which
    divides exactly (Bareiss 1968: entries are minors of the input), by the
    row update kernel of the tableau's width (``_unrolled``), one kernel
    whatever ``det`` is: at a first pivot it divides by 1.  The rows are of
    equal length.
    """
    row = tab[i]
    p = row[j]
    if p < 0:
        p = -p
        row = tab[i] = [-x for x in row]
    update = _unrolled("update", len(row))
    for k, other in enumerate(tab):
        if k != i:
            f = other[j]
            if f or p != det:
                tab[k] = update(p, f, other, row, det)
    return p


def _bland(tab: list[Sequence[int]], basis: list[int], ncols: int, det: int) -> tuple[Optional[int], int]:
    """Maximize the objective; returns (None at optimality, else an unbounded column; the denominator).

    ``tab`` holds one row per basic variable over ``det``, right-hand side
    last, in basis order, then any rows that ride along (``lp_solve``'s
    cost row in phase one), and the priced objective row as its last row,
    where it stays.  Only the first ``ncols`` columns may enter, and the
    leaving row minimizes (ratio, basic variable), so the pivots are
    deterministic and cannot cycle.
    """
    m = len(basis)
    while True:
        obj = tab[-1]
        enter = next((j for j in range(ncols) if obj[j] > 0), None)
        if enter is None:
            break
        best = None
        for i in range(m):
            a, b = tab[i][enter], tab[i][-1]
            # key (b / a, basis[i]), compared by cross-multiplying with the best (num, den)
            if a > 0 and (best is None or b * best[1] < best[0] * a
                          or b * best[1] == best[0] * a and basis[i] < basis[leave]):
                best, leave = (b, a), i
        if best is None:
            break
        det = _pivot(tab, leave, enter, det)
        basis[leave] = enter
    return enter, det


# --- Elimination -------------------------------------------------------------


def _basis(rows: Sequence[Sequence[int]], dim: int) -> tuple[list[Sequence[int]], list[int], int]:
    """The elimination of the int tableau [rows^T | I] over its row columns:
    (identity block E, chosen row indices, common denominator), with fewer
    than ``dim`` indices exactly when the rows have rank below ``dim``.

    Each step rewrites a row of the tableau by one linear combination of
    its rows, so the row block always equals E * rows^T and is never built:
    column j is formed when the pivot search reaches it, as the ``dim`` dot
    products E * row_j (the ``dot`` kernel of length dim, ``_unrolled``),
    and a pivot is ``_pivot`` on the dim x (dim + 1) tableau [E | column j].
    Pivot k's row comes k-th, and it stops at the dim-th pivot."""
    # the search forms the entries below the pivots up to the first nonzero
    # one, a pivot the rest of the column; the tableau's rows are made here
    # or by _pivot, so its column slot is written in place, and the dot
    # products read the first dim entries of a tableau row, row_j's length
    tab: list[list[int]] = [[int(i == k) for k in range(dim + 1)] for i in range(dim)]
    picked: list[int] = []
    det = 1
    dot = _unrolled("dot", dim)
    for j, row in enumerate(rows):
        r = len(picked)
        if r == dim:
            break
        for piv in range(r, dim):
            c = dot(tab[piv], row)
            if c:
                break
        else:
            continue
        for k, t in enumerate(tab):
            t[dim] = c if k == piv else 0 if r <= k < piv else dot(t, row)
        tab[r], tab[piv] = tab[piv], tab[r]
        det = _pivot(tab, r, dim, det)
        picked.append(j)
    return [t[:dim] for t in tab], picked, det


def _reduce(rows: Sequence[Sequence[Rational]]) -> tuple[list[Sequence[int]], list[int], int]:
    """Gauss-Jordan over the columns of the rows cleared to ints; returns
    (rows, pivot columns, common denominator).
    It is ``_basis`` run on the rows' columns, the elimination of
    [rows | I]: its identity block E times the rows is that elimination's
    row block, so the reduced rows are E * rows, with its pivots, swaps
    and denominator.  Pivot row k comes k-th; it stops once every row holds
    a pivot.  The input rows are left as they were.  E is n x n for n
    rows, so its callers hand it independent rows, those ``_basis`` picks."""
    work = _int_rows(rows)
    cols = list(zip(*work))
    block, pivots, det = _basis(cols, len(work))
    dot = _unrolled("dot", len(work))
    return [[dot(e, c) for c in cols] for e in block], pivots, det


def rank(rows: Sequence[Sequence[Rational]]) -> int:
    """Exact rank of the given rows over Q: the count of independent rows
    ``_basis`` picks, with no reduction."""
    rows = _int_rows(rows)
    return len(_basis(rows, len(rows[0]) if rows else 0)[1])


def _null_space(rows: Sequence[Sequence[int]], dim: int) -> list[tuple[int, ...]]:
    """Deterministic basis of {x : <row, x> = 0 for every row}, primitive int
    tuples, one per non-pivot column.  Takes a list of int rows of length
    ``dim``, as ``asymgeo.polyhedron.cone_from_rows`` clears and sizes them.

    Only the independent rows that ``_basis`` picks are reduced: they span
    the same row space, whose reduced form, and so the basis, is unique."""
    work, pivots, det = _reduce([rows[j] for j in _basis(rows, dim)[1]])
    basis = []
    for f in (c for c in range(dim) if c not in pivots):
        v = [0] * dim
        v[f] = det
        for row, p in zip(work, pivots):
            v[p] = -row[f]
        basis.append(_primitive(v))
    return basis


# --- Linear programming ------------------------------------------------------


class LpStatus(enum.Enum):
    OPTIMAL = "OPTIMAL"
    UNBOUNDED = "UNBOUNDED"
    INFEASIBLE = "INFEASIBLE"


class LpOutcome(_Value):
    """Result of ``lp_solve``: ``witness`` is the optimizer when OPTIMAL and a
    recession direction with positive objective growth when UNBOUNDED."""

    _fields = ("status", "value", "witness")

    def __init__(self, status: LpStatus, value: Optional[Rational] = None,
                 witness: Optional[tuple[Rational, ...]] = None):
        self._set(status, value, witness)


def lp_solve(objective: Sequence[Rational],
             constraints: Sequence[tuple[Sequence[Rational], Rational]]) -> LpOutcome:
    """Maximize <objective, x> subject to <c_j, x> <= b_j, x free.

    Two-phase simplex with Bland's rule, free variables split in two parts.
    Row j is scaled to integers by s_j > 0 while its slack and artificial keep
    coefficient 1, so they stand for s_j times the unscaled ones: no reduced
    cost or ratio changes sign or order, nor does the pivot sequence.
    Phase one is ``feasible_nonneg``'s: an artificial is never stored, and
    once it leaves the basis it never enters again (Chvatal 1983, ch. 8).
    The cost row [cost | -cost | 0 | 0] rides along from the start: it is
    priced there, since every starting basic variable costs 0, and every
    pivot of phase one and every pivot-out keeps it priced, so phase two
    starts on it as it is.
    """
    c_obj = as_vec(objective)
    d = len(c_obj)
    scales, rows = [], []
    for cj, bj in constraints:
        s, row = _clear((*cj, bj))
        if len(row) != d + 1:
            raise ValueError(f"constraint dimension {len(row) - 1} != objective dimension {d}")
        scales.append(s)
        rows.append(row)

    m = len(rows)
    nreal = 2 * d + m  # u parts, w parts, slacks
    arts = [i for i, row in enumerate(rows) if row[-1] < 0]

    # Rows over columns [u | w | s | rhs], rhs kept >= 0: a row with b < 0 is
    # negated, and its basic variable is its artificial, the label nreal + i
    # with no column; the others' is their slack.
    tab: list[list[int]] = []
    basis = [nreal + i if row[-1] < 0 else 2 * d + i for i, row in enumerate(rows)]
    for i, row in enumerate(rows):
        sgn = -1 if row[-1] < 0 else 1
        cj = [sgn * x for x in row[:-1]]
        tab.append(cj + [-x for x in cj] + [0] * m + [sgn * row[-1]])
        tab[i][2 * d + i] = sgn
    cost = _clear(c_obj)[1]
    tab.append([*cost, *[-x for x in cost], *[0] * (m + 1)])
    det = 1

    if arts:
        # phase one minimizes the sum of the artificials; a row's artificial
        # stands for s times the unscaled one (s its scale), so it costs
        # L / s, L = lcm(scales) times the unscaled cost, and the priced
        # objective row is the sum of the negated rows by those weights
        big = lcm(*[scales[i] for i in arts])
        weights, weigh = [big // scales[i] for i in arts], _unrolled("dot", len(arts))
        tab.append([weigh(weights, col) for col in zip(*[tab[i] for i in arts])])
        enter, det = _bland(tab, basis, nreal, det)
        if enter is not None:
            raise InternalInvariantError("phase one is bounded")
        if tab.pop()[-1]:
            return LpOutcome(LpStatus.INFEASIBLE)
        # pivot remaining artificials out of the basis, or drop zero rows;
        # the cost row, last, is kept
        keep = []
        for i in range(m):
            if basis[i] >= nreal:
                j = next((j for j in range(nreal) if tab[i][j]), None)
                if j is None:
                    continue  # redundant row (0 = 0)
                det = _pivot(tab, i, j, det)
                basis[i] = j
            keep.append(i)
        tab = [tab[i] for i in (*keep, m)]
        basis = [basis[i] for i in keep]

    enter, det = _bland(tab, basis, nreal, det)
    tab.pop()

    # xs: the basic solution (rhs column) at an optimum, else minus the ray
    # (-det on the entering variable, its column on the basic ones)
    xs = [0] * nreal
    if enter is not None:
        xs[enter] = -det
    for row, bi in zip(tab, basis):
        xs[bi] = row[-1 if enter is None else enter]
    if enter is None:
        point = _fractions([xs[j] - xs[d + j] for j in range(d)], det)
        return LpOutcome(LpStatus.OPTIMAL, value=dot(c_obj, point), witness=point)
    s = scales[enter - 2 * d] if enter >= 2 * d else 1  # an entering slack stands for s_k of them
    return LpOutcome(LpStatus.UNBOUNDED, witness=_fractions([s * (xs[d + j] - xs[j]) for j in range(d)], det))


def feasible_nonneg(matrix_rows: Sequence[Sequence[Rational]],
                    rhs_col: Sequence[Rational]) -> bool:
    """Does A lam = b admit lam >= 0?  Phase-one simplex, Bland's rule.

    Variables are sign-constrained, so none is split and only the artificial
    phase runs: the tableau of the emptiness test's alternative system and
    of the LP references for polyhedral extremality.  It is the rows [A | b]
    alone, each cleared of its denominators and negated where b_i < 0.
    Row i's artificial is its basic variable n + i, never stored: each
    costs 1, so the priced objective row is the sum of the rows, made in
    one pass, and it never enters again once it has left (Chvatal 1983,
    ch. 8), so only the n columns of A may enter.  The system is feasible
    iff that row's right-hand side, the sum of the artificials, ends at 0:
    a cleared row's artificial is a positive multiple of the unscaled one,
    and any positive costs make 0 the optimum exactly when A lam = b has a
    solution lam >= 0.
    """
    m = len(matrix_rows)
    if m != len(rhs_col):
        raise ValueError("row/rhs count mismatch")
    n = len(matrix_rows[0]) if m else 0
    if any(len(row) != n for row in matrix_rows):
        raise ValueError("ragged matrix")
    if not m:
        return True  # lam = 0; with no rows zip(*tab) would price no column
    tab = []
    for row, bi in zip(matrix_rows, rhs_col):
        row = _clear((*row, bi))[1]
        tab.append(row if row[-1] >= 0 else [-x for x in row])
    tab.append([sum(col) for col in zip(*tab)])
    if _bland(tab, list(range(n, n + m)), n, 1)[0] is not None:
        raise InternalInvariantError("phase one is bounded")
    return tab[-1][-1] == 0
