"""Kernel tests: exact LP outcomes, rank, determinism, certificates."""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

import pytest

from asymgeo.ratlp import (
    LpStatus,
    dot,
    feasible_nonneg,
    invert,
    lp_solve,
    null_space_basis,
    primitive,
    rank,
    rref,
)

from support import rand_fraction, rand_point


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


def test_rank_rational_rows():
    assert rank([(Fraction(1, 2), Fraction(1, 3)), (Fraction(3, 2), Fraction(1, 1))]) == 1
    assert rank([(Fraction(1, 2), Fraction(1, 3)), (Fraction(1, 2), Fraction(1, 1))]) == 2


def test_invert_and_null_space():
    inv = invert([(2, 0), (0, 4)])
    assert inv == [[Fraction(1, 2), 0], [0, Fraction(1, 4)]]
    basis = null_space_basis([(1, 1, 0)], 3)
    assert len(basis) == 2
    for b in basis:
        assert dot((1, 1, 0), b) == 0


def test_invert_rejects_singular_and_non_square():
    with pytest.raises(ValueError):
        invert([(1, 2), (2, 4)])
    with pytest.raises(ValueError):
        invert([(0, 0, 0), (0, 1, 0), (0, 0, 1)])
    with pytest.raises(ValueError):
        invert([(1, 0, 0), (0, 1, 0)])
    assert invert([]) == []


def test_rank_and_rref_reject_ragged_rows():
    with pytest.raises(ValueError):
        rank([(1, 0), (0, 1, 0)])
    with pytest.raises(ValueError):
        rref([(1,), (1, 2)])


def test_rref_examples():
    red, pivots = rref([(0, 2, 4), (1, 1, 1), (1, 2, 3)])
    assert pivots == [0, 1]
    assert red == [[1, 0, -1], [0, 1, 2]]
    assert rref([]) == ([], [])


def test_primitive_normalization():
    assert primitive((Fraction(2, 3), Fraction(-4, 3))) == (1, -2)
    assert primitive((0, 0)) == (0, 0)


def test_feasible_nonneg():
    # (1,1) is a nonnegative combination of (1,0) and (0,1); (-1,0) is not
    assert feasible_nonneg([[1, 0], [0, 1]], [1, 1])
    assert not feasible_nonneg([[1, 0], [0, 1]], [-1, 0])
    assert feasible_nonneg([], [])


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
