"""Kernel tests: exact LP outcomes, rank, determinism, certificates."""

from __future__ import annotations

import ast
import itertools
import os
import random
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import asymgeo
from asymgeo import polyhedron, ratlp
from asymgeo.cli.generators import gen_lattice_norm
from asymgeo.norm import Closedness, ball
from asymgeo.polyhedron import Polyhedron, extreme_rays
from asymgeo.ratlp import (
    InternalInvariantError,
    LpStatus,
    dot,
    feasible_nonneg,
    lp_solve,
    rank,
    zero_vec,
)

import support
from support import (
    _ref_int_reduce,
    low_rank_rows,
    primitive,
    rand_fraction,
    rand_point,
    rank_two_rows,
    ref_feasible_nonneg,
    ref_lp_solve,
    ref_null_space_basis,
    ref_rank,
    ref_rref,
)


def test_lp_unit_square_corner():
    res = lp_solve((1, 1), [((1, 0), 1), ((0, 1), 1), ((-1, 0), 0), ((0, -1), 0)])
    assert res.status is LpStatus.OPTIMAL
    assert res.value == 2
    assert res.witness == (1, 1)


def test_lp_half_line_unbounded():
    res = lp_solve((1,), [((-1,), 0)])
    assert res.status is LpStatus.UNBOUNDED
    assert res.witness == (1,)


def test_lp_empty_region_infeasible():
    res = lp_solve((1,), [((1,), 0), ((-1,), -1)])
    assert res.status is LpStatus.INFEASIBLE


def test_lp_no_constraints():
    assert lp_solve((0, 0), []).value == 0
    res = lp_solve((2, -1), [])
    assert res.status is LpStatus.UNBOUNDED
    assert dot((2, -1), res.witness) > 0


def test_lp_dimension_mismatch():
    with pytest.raises(ValueError):
        lp_solve((1, 0), [((1,), 1)])


def test_lp_negative_rhs_needs_phase_one():
    # x >= 2, x <= 5: max -x hits the lower bound
    res = lp_solve((-1,), [((-1,), -2), ((1,), 5)])
    assert res.status is LpStatus.OPTIMAL
    assert res.witness == (2,)


def test_lp_redundant_zero_rows():
    res = lp_solve((1,), [((0,), 3), ((1,), 1)])
    assert res.value == 1
    assert lp_solve((1,), [((0,), -1)]).status is LpStatus.INFEASIBLE


def test_rank_examples():
    assert rank([(1, 0), (0, 1)]) == 2
    assert rank([(1, 1), (2, 2)]) == 1
    assert rank([]) == 0
    assert rank(iter([(1, 2), (2, 4)])) == 1 and rank(r for r in [(1, 2), (0, 1)]) == 2


def test_rank_rational_rows():
    assert rank([(Fraction(1, 2), Fraction(1, 3)), (Fraction(3, 2), Fraction(1, 1))]) == 1
    assert rank([(Fraction(1, 2), Fraction(1, 3)), (Fraction(1, 2), Fraction(1, 1))]) == 2


def test_invert_and_null_space():
    basis = ratlp._null_space([(1, 1, 0)], 3)
    assert len(basis) == 2
    for b in basis:
        assert dot((1, 1, 0), b) == 0


def _rref(rows):
    """The reduced row echelon form ``_reduce`` leaves over its denominator:
    (nonzero rows as ``Fraction``s, pivot columns)."""
    work, pivots, det = ratlp._reduce(rows)
    return [[Fraction(x, det) for x in r] for r in work[:len(pivots)]], pivots


def test_feasible_nonneg_and_dot_reject_shapes_that_do_not_fit():
    """A ragged matrix, a right-hand side of another length than the
    column, and two vectors of different lengths are refused."""
    with pytest.raises(ValueError, match="^ragged matrix$"):
        feasible_nonneg([[1, 0], [0, 1, 0]], [1, 1])
    for rhs in ([1], [1, 1, 1]):
        with pytest.raises(ValueError, match="^row/rhs count mismatch$"):
            feasible_nonneg([[1, 0], [0, 1]], rhs)
    with pytest.raises(ValueError, match="^dimension mismatch: 2 vs 3$"):
        dot((1, 2), (1, 2, 3))


def test_rank_and_rref_reject_ragged_rows():
    with pytest.raises(ValueError):
        rank([(1, 0), (0, 1, 0)])
    with pytest.raises(ValueError):
        ratlp._reduce([(1,), (1, 2)])


def test_rref_examples():
    red, pivots = _rref([(0, 2, 4), (1, 1, 1), (1, 2, 3)])
    assert pivots == [0, 1]
    assert red == [[1, 0, -1], [0, 1, 2]]
    assert _rref([]) == ([], [])


def test_primitive_normalization():
    assert primitive((Fraction(2, 3), Fraction(-4, 3))) == (1, -2)
    assert primitive((0, 0)) == (0, 0)


def test_feasible_nonneg():
    # (1,1) is a nonnegative combination of (1,0) and (0,1); (-1,0) is not
    assert feasible_nonneg([[1, 0], [0, 1]], [1, 1])
    assert not feasible_nonneg([[1, 0], [0, 1]], [-1, 0])
    assert feasible_nonneg([], [])
    # rows with no columns, right-hand side zero or not; an all-zero
    # right-hand side (lam = 0 solves it); negative and rational entries
    half = Fraction(1, 2)
    assert feasible_nonneg([[]], [0])
    assert feasible_nonneg([[], []], [0, 0])
    assert not feasible_nonneg([[]], [3])
    assert not feasible_nonneg([[], []], [0, -half])
    assert feasible_nonneg([[-1, half], [Fraction(2, 3), -3]], [0, 0])
    assert not feasible_nonneg([[-1, -half]], [Fraction(1, 3)])
    assert feasible_nonneg([[-1, half]], [Fraction(1, 3)])


def test_determinism_bit_identical():
    rng = random.Random(7)
    for _ in range(25):
        d = rng.randint(1, 3)
        m = rng.randint(0, 5)
        obj = rand_point(rng, d)
        cons = [(rand_point(rng, d), rand_fraction(rng)) for _ in range(m)]
        first = lp_solve(obj, cons)
        second = lp_solve(obj, cons)
        assert first == second


def _random_box_instance(rng: random.Random, d: int):
    lo = [rand_fraction(rng) for _ in range(d)]
    hi = [l + Fraction(rng.randint(1, 4)) for l in lo]
    rows = []
    for j in range(d):
        e = tuple(Fraction(1 if i == j else 0) for i in range(d))
        rows.append((e, hi[j]))
        rows.append((tuple(-x for x in e), -lo[j]))
    # a few provably redundant rows: positive combinations of box rows
    for _ in range(rng.randint(0, 2)):
        w = [Fraction(rng.randint(0, 2)) for _ in rows]
        normal = tuple(sum(wi * r[0][t] for wi, r in zip(w, rows)) for t in range(d))
        rhs = sum((wi * r[1] for wi, r in zip(w, rows)), Fraction(0))
        rows.append((normal, rhs + rng.randint(0, 1)))
    return lo, hi, rows


def test_optimality_certificate_against_sampling():
    """No feasible sample may beat the reported optimum (100 samples/instance)."""
    rng = random.Random(11)
    for _ in range(12):
        d = rng.randint(1, 3)
        lo, hi, rows = _random_box_instance(rng, d)
        obj = rand_point(rng, d)
        res = lp_solve(obj, rows)
        assert res.status is LpStatus.OPTIMAL
        for c, b in rows:
            assert dot(c, res.witness) <= b
        for _ in range(100):
            sample = tuple(
                lo[j] + (hi[j] - lo[j]) * Fraction(rng.randint(0, 12), 12)
                for j in range(d)
            )
            assert dot(obj, sample) <= res.value


def test_unbounded_witness_is_recession_direction():
    rng = random.Random(13)
    found = 0
    for _ in range(60):
        d = rng.randint(1, 3)
        m = rng.randint(1, d + 1)
        rows = [(rand_point(rng, d), rand_fraction(rng)) for _ in range(m)]
        obj = rand_point(rng, d)
        res = lp_solve(obj, rows)
        if res.status is LpStatus.UNBOUNDED:
            found += 1
            direction = res.witness
            assert dot(obj, direction) > 0
            for c, _b in rows:
                assert dot(c, direction) <= 0
    assert found > 5


def _square_submatrices(rows, size):
    m, d = len(rows), len(rows[0])
    for ridx in itertools.combinations(range(m), size):
        for cidx in itertools.combinations(range(d), size):
            yield [[rows[i][j] for j in cidx] for i in ridx]


def _det(mat):
    n = len(mat)
    if n == 1:
        return Fraction(mat[0][0])
    total = Fraction(0)
    for j in range(n):
        minor = [row[:j] + row[j + 1:] for row in mat[1:]]
        total += (-1) ** j * mat[0][j] * _det(minor)
    return total


def test_exactness_denominators_divide_a_subdeterminant():
    """On integer data every optimizer is a basic solution, so coordinate
    denominators divide the determinant of some square submatrix."""
    rng = random.Random(17)
    checked = 0
    for _ in range(25):
        d = rng.randint(1, 3)
        m = rng.randint(d, d + 3)
        rows = [tuple(Fraction(rng.randint(-3, 3)) for _ in range(d)) for _ in range(m)]
        rhs = [Fraction(rng.randint(-3, 3)) for _ in range(m)]
        res = lp_solve(rand_point(rng, d, span=2, max_den=1),
                       list(zip(rows, rhs)))
        if res.status is not LpStatus.OPTIMAL:
            continue
        checked += 1
        dets = {int(abs(_det(sub))) for k in range(1, d + 1)
                for sub in _square_submatrices(rows, k)}
        dets.discard(0)
        for coord in res.witness:
            den = coord.denominator
            assert den == 1 or any(det % den == 0 for det in dets), (res.witness, sorted(dets))
    assert checked >= 8


# --- the integer kernel against the frozen Fraction reference ---------------


def _rand_matrix(rng: random.Random, m: int, n: int):
    """Random rational m x n matrix; half of them a product through a rank-k
    bottleneck (k below both sizes when possible), the rest sparse."""
    if rng.random() < 0.5:
        k = rng.randint(1, max(1, min(m, n) - 1))
        left = [[rand_fraction(rng) for _ in range(k)] for _ in range(m)]
        right = [[rand_fraction(rng) for _ in range(n)] for _ in range(k)]
        return [[sum((a * b for a, b in zip(row, col)), Fraction(0)) for col in zip(*right)]
                for row in left]
    return [[rand_fraction(rng) if rng.random() < 0.7 else Fraction(0) for _ in range(n)]
            for _ in range(m)]


def test_elimination_matches_fraction_reference():
    rng = random.Random(23)
    deficient = 0
    for _ in range(1500):
        m, n = rng.randint(0, 5), rng.randint(1, 5)
        mat = _rand_matrix(rng, m, n)
        assert _rref(mat) == ref_rref(mat), mat
        assert rank(mat) == ref_rank(mat), mat
        assert ratlp._null_space(ratlp._int_rows(mat), n) == ref_null_space_basis(mat, n), mat
        deficient += ref_rank(mat) < min(m, n)
    assert deficient > 300
    # int rows are eliminated as they are: the same rows, pivots and
    # denominator as the rows given as Fractions, or mixed, and the input
    # rows are left as they were
    int_deficient = 0
    for _ in range(600):
        m, n = rng.randint(0, 5), rng.randint(1, 5)
        ints = [[rng.randint(-4, 4) if rng.random() < 0.7 else 0 for _ in range(n)] for _ in range(m)]
        if m > 1 and rng.random() < 0.4:
            ints[-1] = [2 * a - b for a, b in zip(ints[0], ints[1])]
        before = [list(r) for r in ints]
        work, pivots, det = ratlp._reduce(ints)
        assert ints == before
        ref_work, ref_pivots, ref_det = _ref_int_reduce(ints, n)
        assert ([list(r) for r in work], pivots, det) == ([list(r) for r in ref_work], ref_pivots, ref_det), ints
        fracs = [[Fraction(a) for a in r] for r in ints]
        mixed = [[Fraction(a) if j % 2 else a for j, a in enumerate(r)] for r in ints]
        for other in (fracs, mixed):
            other_work, other_pivots, other_det = ratlp._reduce(other)
            assert ([list(r) for r in work], pivots, det) == ([list(r) for r in other_work], other_pivots, other_det)
        assert _rref(ints) == ref_rref(fracs) and rank(ints) == ref_rank(fracs), ints
        assert ratlp._null_space(ints, n) == ref_null_space_basis(fracs, n), ints
        int_deficient += ref_rank(fracs) < min(m, n)
    assert int_deficient > 60
    # tall rows of rank below their length, up to 400 of them, int or rational
    tallest = 0
    for _ in range(40):
        m, n = rng.randint(6, 400), rng.randint(1, 5)
        mat = low_rank_rows(rng, m, n, rng.randint(0, n - 1))
        if rng.random() < 0.5:
            mat = [[a * s for a in r] for r, s in zip(mat, (rand_fraction(rng) for _ in mat))]
        assert rank(mat) == ref_rank(mat) < n, mat
        assert ratlp._null_space(ratlp._int_rows(mat), n) == ref_null_space_basis(mat, n), mat
        tallest = max(tallest, m)
    assert tallest > 300
    with pytest.raises(ValueError, match="differing length"):
        ratlp._reduce([(1, 2), (3,)])


def test_rank_and_null_space_pivot_a_small_tableau_on_many_rows(monkeypatch):
    """``rank`` and ``_null_space`` of 400 rank-2 rows of length 4 eliminate
    over the rows' length, not their count: the ``_pivot`` calls of each
    touch at most 1,000 tableau entries (rows times width), where an
    elimination carrying a 400 x 400 block touches 320,800."""
    pivot = ratlp._pivot
    touched = []

    def counted(tab, i, j, det):
        touched[-1] += len(tab) * len(tab[i])
        return pivot(tab, i, j, det)

    monkeypatch.setattr(ratlp, "_pivot", counted)
    rows = rank_two_rows()
    for call in (lambda: rank(rows), lambda: ratlp._null_space(rows, 4)):
        touched.append(0)
        call()
    monkeypatch.undo()
    assert rank(rows) == 2 and len(ratlp._null_space(rows, 4)) == 2
    assert all(0 < t <= 1000 for t in touched), touched


def test_lazy_base_matches_the_full_elimination():
    """``_basis`` is the elimination of the whole [rows^T | I] over its m
    row columns (the frozen ``_ref_int_reduce``, run as ``ref_basis`` runs
    it): the same identity block, pivots and denominator at every rank, and
    as many pivots as the rank.  Seeded int rows at d = 1..7 of every rank, with zero rows,
    duplicates and dependent first d rows; the rows are left as they were."""
    rng = random.Random(191)
    seen = set()
    kinds = dict.fromkeys(("zero", "duplicate", "dependent head"), 0)
    for _ in range(1500):
        d = rng.randint(1, 7)
        span = [[rng.randint(-3, 3) for _ in range(d)] for _ in range(rng.randint(0, d))]
        rows = []
        for _ in range(rng.randint(0, 2 * d + 3)):
            coeffs = [rng.randint(-2, 2) for _ in span]
            rows.append(tuple(sum(a * v[t] for a, v in zip(coeffs, span)) for t in range(d)))
        if rows and rng.random() < 0.3:
            rows.insert(rng.randrange(len(rows) + 1), (0,) * d)
            kinds["zero"] += 1
        if rows and rng.random() < 0.3:
            rows.insert(rng.randrange(len(rows) + 1), rng.choice(rows))
            kinds["duplicate"] += 1
        if len(rows) > d and rng.random() < 0.3:
            # the first d rows are dependent: row d - 1 is 0 or rows[0] - 2 rows[d - 2]
            rows[d - 1] = (0,) * d if d == 1 else tuple(a - 2 * b for a, b in zip(rows[0], rows[d - 2]))
            kinds["dependent head"] += 1
        before = list(rows)
        block, picked, det = ratlp._basis(rows, d)
        assert rows == before
        m = len(rows)
        work, pivots, ref_det = _ref_int_reduce(
            [[row[t] for row in rows] + [int(t == k) for k in range(d)] for t in range(d)], m)
        assert ([list(r) for r in block], picked, det) == ([w[m:] for w in work], pivots, ref_det), (d, rows)
        r = ref_rank(rows)
        assert len(picked) == r, (d, rows)
        seen.add((d, r))
    assert seen == {(d, r) for d in range(1, 8) for r in range(d + 1)}, sorted(seen)
    assert min(kinds.values()) >= 100, kinds


def _rand_lp(rng: random.Random):
    """Random LP with rational data.  Zero right-hand sides make degenerate
    vertices, a rescaled copy of a row ties with it in every ratio test that
    meets it, positive combinations add redundant rows, and negative
    right-hand sides need phase-one artificials."""
    d = rng.randint(1, 3)
    rows = []
    for _ in range(rng.randint(0, 6)):
        c = tuple(rand_fraction(rng, max_den=4) for _ in range(d))
        b = rand_fraction(rng, max_den=4) if rng.random() < 0.7 else Fraction(0)
        rows.append((c, b))
        if rng.random() < 0.3:
            s = Fraction(rng.randint(1, 4), rng.randint(1, 4))
            rows.append((tuple(s * x for x in c), s * b))
    if len(rows) > 1 and rng.random() < 0.4:
        w = [Fraction(rng.randint(0, 2), rng.randint(1, 2)) for _ in rows]
        normal = tuple(sum((wi * c[t] for wi, (c, _) in zip(w, rows)), Fraction(0)) for t in range(d))
        rows.append((normal, sum((wi * b for wi, (_, b) in zip(w, rows)), Fraction(0))))
    # a zero objective returns the point where phase one stopped; a row
    # normal as objective makes ties among optima
    obj = rng.choice([zero_vec(d), rows[0][0] if rows else zero_vec(d)] + [rand_point(rng, d)] * 3)
    return obj, rows


def test_lp_solve_matches_fraction_reference():
    rng = random.Random(31)
    seen = {status: 0 for status in LpStatus}
    phase_one_feasible = 0
    for _ in range(1200):
        obj, rows = _rand_lp(rng)
        res = lp_solve(obj, rows)
        assert res == ref_lp_solve(obj, rows), (obj, rows)
        seen[res.status] += 1
        phase_one_feasible += res.status is not LpStatus.INFEASIBLE and any(b < 0 for _, b in rows)
    assert min(seen.values()) > 100, seen
    assert phase_one_feasible > 100


def test_lp_solve_with_more_negative_rows_than_the_unroll_cap_matches_fraction_reference():
    """Phase one's weighted sum is a dot product over the rows with an
    artificial; past ``_UNROLL_CAP`` of them it takes the ``dot`` kernel's
    generic form.  Every LP here has 18 to 21 rows with a negative
    right-hand side, all satisfied by a point p, the row -x_1 - ... - x_d
    <= -(p_1 + ... + p_d) among them; in every third one an added row
    x_1 + ... + x_d <= p_1 + ... + p_d - 1 makes it infeasible."""
    rng = random.Random(43)
    seen = {status: 0 for status in LpStatus}
    for trial in range(24):
        d = rng.randint(2, 4)
        p = [Fraction(rng.randint(4, 9), rng.randint(1, 2)) for _ in range(d)]
        rows = [((-1,) * d, -sum(p))]
        for _ in range(rng.randint(17, 20)):
            c = tuple(Fraction(-rng.randint(1, 3), rng.randint(1, 3)) for _ in range(d))
            rows.append((c, dot(c, p) + Fraction(rng.randint(0, 3), rng.randint(1, 3))))
        if trial % 3 == 0:
            rows.append(((1,) * d, sum(p) - 1))
        assert sum(b < 0 for _, b in rows) > ratlp._UNROLL_CAP
        obj = rng.choice([(-1,) * d, (1,) + (0,) * (d - 1), rand_point(rng, d)])
        res = lp_solve(obj, rows)
        assert res == ref_lp_solve(obj, rows), (obj, rows)
        seen[res.status] += 1
    assert min(seen.values()) > 0, seen


def test_feasible_nonneg_matches_fraction_reference():
    rng = random.Random(37)
    outcomes = {True: 0, False: 0}
    for _ in range(1200):
        m, n = rng.randint(0, 4), rng.randint(0, 5)
        mat = _rand_matrix(rng, m, n)
        rhs = [rand_fraction(rng) if rng.random() < 0.8 else Fraction(0) for _ in range(m)]
        if rng.random() < 0.1:  # lam = 0 solves it
            rhs = [Fraction(0)] * m
        elif rng.random() < 0.5:  # b in the cone of the columns
            lam = [Fraction(rng.randint(0, 2), rng.randint(1, 3)) for _ in range(n)]
            rhs = [sum((a * x for a, x in zip(row, lam)), Fraction(0)) for row in mat]
        got = feasible_nonneg(mat, rhs)
        assert got == ref_feasible_nonneg(mat, rhs), (mat, rhs)
        outcomes[got] += 1
    assert min(outcomes.values()) > 200, outcomes


def _motzkin_system(rng: random.Random, dim: int):
    """The system ``polyhedron.partial_is_empty`` builds for a random
    half-open region of dimension ``dim``: a column (c, b, [strict]) per row
    and (0, 1, 1) for z, right-hand side d + 1 zeros and a 1.  Some rows are
    copies of earlier ones and some all zero, so columns repeat or vanish;
    some are the strict opposite of an earlier one, which empties the region."""
    rows = []
    for _ in range(rng.randint(1, dim + 4)):
        roll = rng.random()
        if rows and roll < 0.15:
            rows.append(rng.choice(rows))
        elif rows and roll < 0.25:
            c, b, _ = rng.choice(rows)
            rows.append((tuple(-a for a in c), -b, True))
        elif roll < 0.35:
            rows.append(((0,) * dim, 0, False))
        else:
            rows.append((tuple(rng.randint(-3, 3) for _ in range(dim)), rng.randint(-3, 3), rng.random() < 0.4))
    cols = [(*c, b, int(strict)) for c, b, strict in rows] + [(0,) * dim + (1, 1)]
    return [list(r) for r in zip(*cols)], [0] * (dim + 1) + [1]


def test_feasible_nonneg_matches_fraction_reference_on_motzkin_systems():
    rng = random.Random(41)
    outcomes = {True: 0, False: 0}
    for dim in range(1, 7):
        for _ in range(150):
            mat, rhs = _motzkin_system(rng, dim)
            got = feasible_nonneg(mat, rhs)
            assert got == ref_feasible_nonneg(mat, rhs), (mat, rhs)
            outcomes[got] += 1
    assert min(outcomes.values()) > 200, outcomes


def _watch_pivots(monkeypatch):
    """Wrap ``ratlp._pivot``: the returned (widths, columns, steps) collect
    the widths of the rows each call reads or writes, its pivot column, and
    whether it is a Bland step, on the first column of the tableau's last
    row with a positive entry (the objective row, while one rides along)."""
    pivot = ratlp._pivot
    widths, columns, steps = set(), [], []

    def watched(tab, i, j, det):
        widths.update(map(len, tab))
        columns.append(j)
        steps.append(j == next((k for k in range(len(tab[-1]) - 1) if tab[-1][k] > 0), None))
        det = pivot(tab, i, j, det)
        widths.update(map(len, tab))
        return det

    monkeypatch.setattr(ratlp, "_pivot", watched)
    return widths, columns, steps


def test_feasible_nonneg_stores_no_artificial_and_pivots_only_bland_steps(monkeypatch):
    """The emptiness kernel's tableau is [A | b] and its objective row is
    priced in one pass: every row a pivot reads or writes has n + 1
    entries, no pivot column is an artificial's (>= n), and every pivot is
    a Bland step, on the first column of the objective row with a positive
    entry, so no pricing pivot runs."""
    widths, columns, steps = _watch_pivots(monkeypatch)
    rng = random.Random(53)
    for dim in range(1, 7):
        for _ in range(40):
            mat, rhs = _motzkin_system(rng, dim)
            n = len(mat[0])
            widths.clear()
            columns.clear()
            feasible_nonneg(mat, rhs)
            assert widths <= {n + 1}, (mat, widths)
            assert all(j < n for j in columns), (mat, columns)
    assert len(steps) > 200
    assert steps.count(True) == len(steps)


def test_lp_solve_stores_no_artificial(monkeypatch):
    """``lp_solve``'s phase one is ``feasible_nonneg``'s: over its nreal = 2d + m
    columns (u, w and the slacks), every row a pivot reads or writes has
    nreal + 1 entries and no pivot column is an artificial's (>= nreal),
    in phase one, after it and in phase two."""
    widths, columns, _ = _watch_pivots(monkeypatch)
    rng = random.Random(59)
    phase_one = pivots = 0
    for _ in range(600):
        obj, rows = _rand_lp(rng)
        nreal = 2 * len(obj) + len(rows)
        widths.clear()
        columns.clear()
        lp_solve(obj, rows)
        assert widths <= {nreal + 1}, (obj, rows, widths)
        assert all(j < nreal for j in columns), (obj, rows, columns)
        phase_one += any(b < 0 for _, b in rows)
        pivots += len(columns)
    assert phase_one > 200 and pivots > 1000, (phase_one, pivots)


def test_src_holds_no_assert_statement():
    """``python -O`` strips asserts, so invariant guards raise InternalInvariantError."""
    root = Path(asymgeo.__file__).parent
    found = [f"{path.relative_to(root)}:{node.lineno}"
             for path in sorted(root.rglob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Assert)]
    assert found == []


def _src_nodes(match):
    """(module path, enclosing definition) of each AST node under
    ``src/asymgeo`` for which ``match`` holds, sorted."""
    root = Path(asymgeo.__file__).parent
    found = []

    def visit(node, path, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, path, (*scope, child.name))
                continue
            if match(child):
                found.append((path, ".".join(scope)))
            visit(child, path, scope)

    for path in sorted(root.rglob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), str(path.relative_to(root)), ())
    return sorted(found)


def _src_calls(name):
    """(module path, enclosing definition) of each call of the bare name
    ``name`` under ``src/asymgeo``, sorted."""
    return _src_nodes(lambda node: isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                      and node.func.id == name)


def test_src_words_a_length_mismatch_only_in_sized():
    """One length check: the only string under ``src/asymgeo`` that says
    "of length ... in dimension" is the message of ``ratlp._sized``."""
    def message(node):
        if not isinstance(node, ast.JoinedStr):
            return False
        text = "{}".join(part.value for part in node.values if isinstance(part, ast.Constant))
        return "of length {}" in text and "in dimension" in text

    assert _src_nodes(message) == [("ratlp.py", "_sized")]


def test_src_calls_vars_only_where_a_value_is_made():
    """Memo slots are read through their attributes and seeded through
    ``_make``: ``vars`` is called in ``_Value._make`` and the four public
    constructors, so no value reads or writes another's memo."""
    assert _src_calls("vars") == [
        ("norm.py", "AsymNorm.__init__"),
        ("polyhedron.py", "Cone.__init__"), ("polyhedron.py", "PartialPolyhedron.__init__"),
        ("polyhedron.py", "Polyhedron.__init__"), ("ratlp.py", "_Value._make"),
    ]


def test_src_pivots_only_in_the_elimination_loop_and_the_simplex():
    """One elimination loop: ``_pivot`` is called in ``_basis``, which
    ``_reduce`` runs, in the Bland loop ``_bland``, and where ``lp_solve``
    pivots its artificials out of the basis after phase one."""
    assert _src_calls("_pivot") == [("ratlp.py", "_basis"), ("ratlp.py", "_bland"), ("ratlp.py", "lp_solve")]


def test_src_builds_fraction_tuples_only_in_fractions():
    """One int-to-``Fraction`` tuple builder: ``_fractions`` is defined only
    in ``ratlp``, where the kernel's results become ``Fraction``s, and
    ``lp_solve``, ``Polyhedron.hrep``, ``extreme_rays`` and the views
    (``functionals``, ``constraints``, ``vertices``, ``rays``,
    ``generators``, ``lineality_basis``) call or map
    it and build no ``Fraction`` tuple themselves: no ``map(Fraction, ...)``
    and no comprehension or generator whose element is a ``Fraction(...)``
    call.  The views call no ``Fraction(...)`` at all, so the memo lookup
    lives only in ``ratlp``, and no module of ``src/`` holds a dict of
    ``Fraction``s at module level: each memo lives for one call of a view.
    ``extreme_rays`` reads the int rays, so it leaves the ``rays`` view
    unmade."""
    def builds(node):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "map":
            return bool(node.args) and isinstance(node.args[0], ast.Name) and node.args[0].id == "Fraction"
        return (isinstance(node, (ast.ListComp, ast.GeneratorExp)) and isinstance(node.elt, ast.Call)
                and isinstance(node.elt.func, ast.Name) and node.elt.func.id == "Fraction")

    def maps_fractions(node):
        return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "map"
                and bool(node.args) and isinstance(node.args[0], ast.Name) and node.args[0].id == "_fractions")

    root = Path(asymgeo.__file__).parent
    defined = [str(path.relative_to(root)) for path in sorted(root.rglob("*.py"))
               for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
               if isinstance(node, ast.FunctionDef) and node.name == "_fractions"]
    assert defined == ["ratlp.py"]
    views = {("norm.py", "AsymNorm.functionals"), ("polyhedron.py", "PartialPolyhedron.constraints"),
             ("polyhedron.py", "Polyhedron.vertices"), ("polyhedron.py", "Polyhedron.rays"),
             ("polyhedron.py", "Cone.generators"), ("polyhedron.py", "Cone.lineality_basis")}
    sites = views | {("ratlp.py", "lp_solve"), ("polyhedron.py", "Polyhedron.hrep"), ("polyhedron.py", "extreme_rays")}
    assert sites <= set(_src_calls("_fractions")) | set(_src_nodes(maps_fractions))
    assert sites & set(_src_nodes(builds)) == set()
    assert views & set(_src_calls("Fraction")) == set()
    poly = Polyhedron(2, [(0, 0)], [(2, 3), (0, 1)])
    assert extreme_rays(poly) == ((0, 1), (1, Fraction(3, 2)))
    assert "rays" not in vars(poly)
    # once views are built, no module holds a dict of Fractions (or of
    # dicts of them): that would be a cache shared across values
    q = gen_lattice_norm(2, "one")
    assert q.functionals and ball(q, (0, 0), 1, Closedness.CLOSED).as_set.constraints and poly.vertices
    modules = [m for name, m in sorted(sys.modules.items()) if name.startswith("asymgeo")]
    assert not [(m.__name__, k) for m in modules for k, v in vars(m).items()
                if not k.startswith("__") and isinstance(v, dict)
                and any(isinstance(x, (Fraction, dict)) for x in v.values())]


def _one_object_per_key(entries, keys):
    """The ``Fraction`` objects ``entries`` hold, as a set of ids, after
    checking that they hold one object per distinct key, each key being the
    (stored int, denominator) pair an entry was made of."""
    entries, keys = list(entries), list(keys)
    assert len(entries) == len(keys)
    ids_of = {}
    for f, key in zip(entries, keys):
        assert f == Fraction(*key)
        ids_of.setdefault(key, set()).add(id(f))
    assert all(len(ids) == 1 for ids in ids_of.values())
    ids = {id(f) for f in entries}
    assert len(ids) == len(ids_of)
    return ids


def test_each_view_holds_one_fraction_per_distinct_entry_and_denominator():
    """``functionals``, ``constraints`` and ``vertices`` pass one memo per
    denominator through all their rows (``_fractions``), so each holds one
    ``Fraction`` object per distinct (entry, denominator) pair of its stored
    ints, the constraints' right-hand sides included; a memo lives for one
    call, so the views of two equal values share no object."""
    q = gen_lattice_norm(4, "one")
    center, radius = (Fraction(1, 2), Fraction(-2, 3), Fraction(0), Fraction(5, 3)), Fraction(3, 2)
    region = ball(q, center, radius, Closedness.CLOSED).as_set
    third, two_thirds = Fraction(1, 3), Fraction(2, 3)
    box = Polyhedron(2, [(third, third), (third, two_thirds), (two_thirds, third), (two_thirds, two_thirds)])

    functionals = _one_object_per_key([a for f in q.functionals for a in f],
                                      [(a, q._scale) for f in q._rows for a in f])
    assert len(functionals) == 2 < sum(map(len, q._rows))  # 0 and 1, over 15 rows
    constraints = _one_object_per_key([a for c in region.constraints for a in (*c.normal, c.rhs)],
                                      [(a, s) for (c, b, _), s in zip(region._rows, region._scales) for a in (*c, b)])
    assert len(constraints) < 5 * len(region._rows)
    vertices = _one_object_per_key([a for v in box.vertices for a in v],
                                   [(a, t) for y, t in box._verts for a in y])
    assert {t for _, t in box._verts} == {3} and len(vertices) == 2

    q_again = gen_lattice_norm(4, "one")
    region_again = ball(q_again, center, radius, Closedness.CLOSED).as_set
    box_again = Polyhedron(2, [(third, third), (third, two_thirds), (two_thirds, third), (two_thirds, two_thirds)])
    assert (q_again, region_again, box_again) == (q, region, box)
    assert functionals.isdisjoint(id(a) for f in q_again.functionals for a in f)
    assert constraints.isdisjoint(id(a) for c in region_again.constraints for a in (*c.normal, c.rhs))
    assert vertices.isdisjoint(id(a) for v in box_again.vertices for a in v)


# the generic expression of each kernel kind, written out here on its own
_GENERIC_KERNELS = {
    "dot": lambda a, b: sum(x * y for x, y in zip(a, b)),
    "comb": lambda p, q, a, b: tuple(p * y - q * x for x, y in zip(a, b)),
    "div": lambda r, g: tuple(x // g for x in r),
    "update": lambda p, f, x, y, d: [(p * u - f * v) // d for u, v in zip(x, y)],
}


def _kernel_args(kind, n, rng):
    """Seeded arguments of the kernel ``kind`` for vectors of length n:
    ints of both signs, zeros and ints of 100 bits and more, with an exact
    divisor where the kernel divides (the row update's is 1, as at a first
    pivot, or above it)."""
    def entry():
        return rng.choice([0, rng.randint(-9, 9), rng.randint(-2 ** 130, 2 ** 130),
                           rng.choice([1, -1]) * (2 ** 100 + rng.randint(0, 9))])

    def vec(make=tuple):
        return make(entry() for _ in range(n))

    nonzero = rng.choice([1, -1]) * rng.choice([1, 2, 7, 2 ** 100 + 1])
    if kind == "dot":
        return vec(), vec()
    if kind == "comb":
        return entry(), entry(), vec(), vec()
    if kind == "div":
        g = abs(nonzero)
        return [g * a for a in vec()], g
    d = rng.choice([1, abs(nonzero)])
    return d * nonzero, d * entry(), vec(list), vec(list), d


def test_unrolled_kernels_equal_their_generic_expressions():
    """Every kernel kind at every length 0..cap + 1 returns what its generic
    expression does, of the same type (tuple or list), on seeded ints with
    zeros, negatives, entries of 100 bits and more and exact divisors;
    lengths 1..cap are compiled, and 0 and cap + 1 get the generic form."""
    rng = random.Random(42)
    cap = ratlp._UNROLL_CAP
    assert set(_GENERIC_KERNELS) == set(ratlp._TEMPLATES)
    for kind, generic in _GENERIC_KERNELS.items():
        for n in range(cap + 2):
            kernel = ratlp._unrolled(kind, n)
            assert (kernel is ratlp._TEMPLATES[kind][-1]) == (not 0 < n <= cap), (kind, n)
            assert ratlp._unrolled(kind, n) is kernel
            for _ in range(20):
                args = _kernel_args(kind, n, rng)
                got, want = kernel(*args), generic(*args)
                assert type(got) is type(want) and got == want, (kind, n, args)


def test_the_cli_compiles_no_kernel_on_import():
    """A fresh interpreter that imports ``asymgeo.cli.main`` holds an empty
    kernel table: each kernel is compiled on its first use."""
    src = str(Path(asymgeo.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = "import asymgeo.cli.main, asymgeo.ratlp as r; print(len(r._KERNELS))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "0\n"


def _sum_map_mul(node):
    """Is ``node`` the call ``sum(map(mul, ...))``?"""
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "sum"
            and bool(node.args) and isinstance(node.args[0], ast.Call)
            and isinstance(node.args[0].func, ast.Name) and node.args[0].func.id == "map"
            and bool(node.args[0].args) and isinstance(node.args[0].args[0], ast.Name)
            and node.args[0].args[0].id == "mul")


def test_a_first_check_compiles_the_kernels_of_its_lengths_only():
    """A fresh interpreter that parses and checks
    ``tests/data/balls/one-4-closed.txt`` as ``asymgeo check`` does
    (``parse_instance`` and ``suite._check``) compiles exactly these seven
    kernels: one row update per tableau width, whatever the denominator."""
    src = str(Path(asymgeo.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    path = Path(__file__).parent / "data" / "balls" / "one-4-closed.txt"
    code = ("import asymgeo.ratlp as r\n"
            "from asymgeo.cli.instances import parse_instance\n"
            "from asymgeo.cli.suite import _check\n"
            f"_check('one-4-closed', *parse_instance(open({str(path)!r}, encoding='utf-8').read()))\n"
            "print(sorted(r._KERNELS))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert ast.literal_eval(proc.stdout) == [("comb", 5), ("div", 4), ("div", 5), ("dot", 4), ("dot", 5),
                                             ("update", 5), ("update", 6)]


def test_src_kernels_take_dot_products_and_combinations_only_through_unrolled():
    """One integer dot product: the only ``sum(map(mul, ...))`` under
    ``src/asymgeo`` is the generic form of the ``dot`` kernel in
    ``ratlp._TEMPLATES``, so the support scan, the face test, membership,
    the gauge, the ball and phase one's weighted sum call the kernel.  The
    double description's and the elimination's loops (``_cut``,
    ``_edges``, ``_basis``, ``_pivot``, ``_primitive``) and test (a)
    (``Instance._escaping``) hold no comprehension over ``zip(...)``
    either: they take their dot products, combinations and divisions from
    ``ratlp._unrolled``."""
    def over_zip(node):
        return isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp)) and any(
            isinstance(g.iter, ast.Call) and isinstance(g.iter.func, ast.Name) and g.iter.func.id == "zip"
            for g in node.generators)

    tree = ast.parse(Path(ratlp.__file__).read_text(encoding="utf-8"))
    templates = next(node for node in tree.body if isinstance(node, ast.Assign)
                     and [t.id for t in node.targets if isinstance(t, ast.Name)] == ["_TEMPLATES"])
    assert len([node for node in ast.walk(templates) if _sum_map_mul(node)]) == 1
    assert _src_nodes(_sum_map_mul) == [("ratlp.py", "")]
    kernels = {("polyhedron.py", "_cut"), ("polyhedron.py", "_edges"), ("ratlp.py", "_basis"),
               ("ratlp.py", "_pivot"), ("ratlp.py", "_primitive"), ("compactness.py", "Instance._escaping")}
    assert kernels & set(_src_nodes(over_zip)) == set()
    scans = {("polyhedron.py", "_scan_support"), ("polyhedron.py", "_meets_face"), ("polyhedron.py", "member"),
             ("norm.py", "gauge_eval"), ("norm.py", "ball"), ("ratlp.py", "lp_solve")}
    assert kernels | scans <= set(_src_calls("_unrolled"))


def test_src_imports_only_the_standard_library():
    """The runtime uses only the standard library: every module under
    ``src/asymgeo`` imports ``asymgeo`` itself or a standard-library module."""
    root = Path(asymgeo.__file__).parent
    found = []
    for path in sorted(root.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            found += [f"{path.relative_to(root)}:{node.lineno}: {name}" for name in names
                      if name.split(".")[0] not in sys.stdlib_module_names | {"asymgeo"}]
    assert found == []


def test_the_fraction_vector_helpers_live_in_the_tests():
    """``vadd``, ``vsub``, ``vscale`` and ``is_zero_vec`` have no caller in
    ``src/``: ``asymgeo.ratlp`` defines none of them, and the tests take
    them from ``tests/support.py``."""
    helpers = {"vadd", "vsub", "vscale", "is_zero_vec"}
    assert not helpers & set(vars(ratlp))
    assert helpers <= set(vars(support))


def _functions_without_a_caller():
    """The module-level functions under ``src/asymgeo``, as sorted
    ``module.name`` strings, that no code of ``src/`` names outside their own
    body and that fall in none of these groups: exported by
    ``asymgeo/__init__.py`` or ``asymgeo/cli/__init__.py``, the console
    script of ``pyproject.toml``, or imported by ``tests/test_acceptance.py``.

    A name is resolved in the module that reads it: to a function defined
    there or imported from a module of the package, unless the enclosing
    function binds it itself (an argument or an assignment, as the local
    ``dot`` kernels of the double description)."""
    root = Path(asymgeo.__file__).parent
    trees = {".".join(path.relative_to(root).with_suffix("").parts): ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(root.rglob("*.py"))}
    defined = {(mod, node.name) for mod, tree in trees.items() for node in tree.body
               if isinstance(node, ast.FunctionDef)}

    def key(module):
        mod = module.removeprefix("asymgeo").lstrip(".")
        return mod if mod in trees else ".".join(filter(None, (mod, "__init__")))

    def imports(tree):
        return {alias.asname or alias.name: (key(node.module), alias.name)
                for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and node.level == 0
                and node.module.split(".")[0] == "asymgeo" for alias in node.names}

    bound = {mod: {**imports(tree), **{name: (m, name) for m, name in defined if m == mod}}
             for mod, tree in trees.items()}

    def resolve(mod, name):
        while (mod, name) not in defined and name in bound.get(mod, {}) and bound[mod][name] != (mod, name):
            mod, name = bound[mod][name]
        return mod, name

    def local_names(fn):
        args = fn.args
        names = {a.arg for a in (*args.posonlyargs, *args.args, *args.kwonlyargs, args.vararg, args.kwarg) if a}
        stack = list(ast.iter_child_nodes(fn))
        while stack:
            node = stack.pop()
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names.add(node.name)
            elif not isinstance(node, ast.Lambda):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                    names.add(node.id)
                stack.extend(ast.iter_child_nodes(node))
        return names

    called = set()

    def visit(node, mod, owner, scopes):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.Lambda)):
                inner = child.name if isinstance(node, ast.Module) and isinstance(child, ast.FunctionDef) else owner
                visit(child, mod, inner, (*scopes, local_names(child)))
                continue
            if (isinstance(child, ast.Name) and isinstance(child.ctx, ast.Load)
                    and not any(child.id in s for s in scopes) and child.id in bound[mod]):
                target = resolve(mod, child.id)
                if target != (mod, owner):
                    called.add(target)
            visit(child, mod, owner, scopes)

    for mod, tree in trees.items():
        visit(tree, mod, None, ())
    public = {resolve(mod, name) for mod in ("__init__", "cli.__init__") for name in imports(trees[mod])}
    scripts = re.findall(r'"asymgeo\.([\w.]+):(\w+)"', (Path(__file__).parents[1] / "pyproject.toml").read_text())
    gate = ast.parse((Path(__file__).parent / "test_acceptance.py").read_text(encoding="utf-8"))
    accepted = {resolve(mod, name) for mod, name in imports(gate).values()}
    return sorted(f"{mod}.{name}" for mod, name in defined - called - public - set(scripts) - accepted)


def test_every_function_in_src_has_a_caller_in_src_or_is_public():
    """``src/`` holds only code that ``src/`` itself, the public API, the
    CLI entry or the acceptance gate calls (ROADMAP item 8's groups): the
    LP membership references and the ``Fraction`` views of ``_primitive``
    and ``_null_space`` that only tests called live in the tests."""
    assert _functions_without_a_caller() == []
    for name in ("in_cone", "in_conv_plus_cone", "_lp_columns", "primitive", "null_space_basis"):
        assert not hasattr(ratlp, name) and not hasattr(polyhedron, name), name


def test_broken_invariant_raises_internal_invariant_error(monkeypatch):
    monkeypatch.setattr(ratlp, "_bland", lambda tab, basis, ncols, det: (0, det))
    with pytest.raises(InternalInvariantError):
        feasible_nonneg([[1, 0], [0, 1]], [1, 1])
    with pytest.raises(InternalInvariantError):
        lp_solve((1,), [((1,), -1)])
