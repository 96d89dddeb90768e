"""Bit-for-bit regression tests for the fast GFMatrix kernels.

The flat-row, table-bound kernels must return exactly the results the
straightforward per-element implementation produces: same echelon forms,
same pivots, same inverses, same solutions.  The reference implementations
below mirror the pre-optimisation algorithms using the polynomial-arithmetic
oracle of ``tests/_oracles/gf.py``.
"""

from __future__ import annotations

import random
from functools import partial
from typing import List, Tuple

import pytest

from _oracles.gf import inv_fallback, mul_fallback
from repro.gf.field import GF2m
from repro.gf.matrix import GFMatrix

DEGREES = [4, 8, 20]  # 20 > table threshold: exercises the fallback kernels too
SIZES = [1, 2, 3, 5, 7]


def _reference_matmul(field: GF2m, left: List[List[int]], right: List[List[int]]):
    mul = partial(mul_fallback, field)
    rows, inner, cols = len(left), len(right), len(right[0])
    product = [[0] * cols for _ in range(rows)]
    for r in range(rows):
        for c in range(cols):
            accumulator = 0
            for k in range(inner):
                accumulator ^= mul(left[r][k], right[k][c])
            product[r][c] = accumulator
    return product


def _reference_eliminated(
    field: GF2m, data: List[List[int]]
) -> Tuple[List[List[int]], List[int], int]:
    work = [list(row) for row in data]
    rows, cols = len(work), len(work[0])
    mul, inv = partial(mul_fallback, field), partial(inv_fallback, field)
    pivot_cols: List[int] = []
    swaps = 0
    pivot_row = 0
    for col in range(cols):
        pivot = None
        for r in range(pivot_row, rows):
            if work[r][col] != 0:
                pivot = r
                break
        if pivot is None:
            continue
        if pivot != pivot_row:
            work[pivot_row], work[pivot] = work[pivot], work[pivot_row]
            swaps += 1
        inv_pivot = inv(work[pivot_row][col])
        work[pivot_row] = [mul(inv_pivot, entry) for entry in work[pivot_row]]
        for r in range(rows):
            if r != pivot_row and work[r][col] != 0:
                factor = work[r][col]
                work[r] = [
                    entry ^ mul(factor, pivot_entry)
                    for entry, pivot_entry in zip(work[r], work[pivot_row])
                ]
        pivot_cols.append(col)
        pivot_row += 1
        if pivot_row == rows:
            break
    return work, pivot_cols, swaps


def _reference_determinant(field: GF2m, data: List[List[int]]) -> int:
    work = [list(row) for row in data]
    size = len(work)
    mul, inv = partial(mul_fallback, field), partial(inv_fallback, field)
    det = 1
    for col in range(size):
        pivot = None
        for r in range(col, size):
            if work[r][col] != 0:
                pivot = r
                break
        if pivot is None:
            return 0
        if pivot != col:
            work[col], work[pivot] = work[pivot], work[col]
        pivot_value = work[col][col]
        det = mul(det, pivot_value)
        inv_pivot = inv(pivot_value)
        for r in range(col + 1, size):
            if work[r][col] != 0:
                factor = mul(work[r][col], inv_pivot)
                work[r] = [
                    entry ^ mul(factor, pivot_entry)
                    for entry, pivot_entry in zip(work[r], work[col])
                ]
    return det


def _reference_inverse(field: GF2m, data: List[List[int]]) -> List[List[int]]:
    size = len(data)
    augmented = [list(row) + [1 if r == c else 0 for c in range(size)] for r, row in enumerate(data)]
    reduced, pivot_cols, _ = _reference_eliminated(field, augmented)
    assert pivot_cols[:size] == list(range(size))
    return [row[size:] for row in reduced]


@pytest.mark.parametrize("degree", DEGREES)
class TestEliminationRegression:
    def test_eliminated_bit_for_bit(self, degree):
        field = GF2m(degree)
        rng = random.Random(1000 + degree)
        for size in SIZES:
            matrix = GFMatrix.random(field, size, size + 2, rng)
            fast = matrix._eliminated()
            reference = _reference_eliminated(field, matrix.to_lists())
            assert fast == reference

    def test_rank_and_determinant(self, degree):
        field = GF2m(degree)
        rng = random.Random(2000 + degree)
        for size in SIZES:
            matrix = GFMatrix.random(field, size, size, rng)
            data = matrix.to_lists()
            assert matrix.rank() == len(_reference_eliminated(field, data)[1])
            assert matrix.determinant() == _reference_determinant(field, data)

    def test_inverse_and_solve_bit_for_bit(self, degree):
        field = GF2m(degree)
        rng = random.Random(3000 + degree)
        for size in SIZES:
            matrix = GFMatrix.random(field, size, size, rng)
            while not matrix.is_invertible():
                matrix = GFMatrix.random(field, size, size, rng)
            reference_inverse = _reference_inverse(field, matrix.to_lists())
            assert matrix.inverse().to_lists() == reference_inverse
            rhs = GFMatrix.random(field, size, 2, rng)
            expected = _reference_matmul(field, reference_inverse, rhs.to_lists())
            assert matrix.solve(rhs).to_lists() == expected

    def test_matmul_bit_for_bit(self, degree):
        field = GF2m(degree)
        rng = random.Random(4000 + degree)
        for size in SIZES:
            left = GFMatrix.random(field, size, size + 1, rng)
            right = GFMatrix.random(field, size + 1, size, rng)
            assert left.matmul(right).to_lists() == _reference_matmul(
                field, left.to_lists(), right.to_lists()
            )

    def test_vecmat_matches_row_vector_matmul(self, degree):
        field = GF2m(degree)
        rng = random.Random(5000 + degree)
        for size in SIZES:
            matrix = GFMatrix.random(field, size, size + 3, rng)
            vector = field.random_vector(size, rng)
            via_matmul = GFMatrix.row_vector(field, vector).matmul(matrix).row(0)
            assert matrix.vecmat(vector) == via_matmul


class TestTrustedConstructionsKeepSemantics:
    def test_double_transpose_and_stacking_roundtrip(self):
        field = GF2m(8)
        rng = random.Random(6000)
        matrix = GFMatrix.random(field, 4, 6, rng)
        assert matrix.transpose().transpose() == matrix
        stacked = matrix.hstack(matrix).submatrix(range(4), range(6))
        assert stacked == matrix
        tall = matrix.vstack(matrix)
        assert tall.submatrix(range(4), range(6)) == matrix
        assert tall.submatrix(range(4, 8), range(6)) == matrix

    def test_operations_do_not_alias_inputs(self):
        field = GF2m(8)
        rng = random.Random(7000)
        matrix = GFMatrix.random(field, 3, 3, rng)
        original = matrix.to_lists()
        matrix.hstack(matrix)
        matrix.vstack(matrix)
        matrix.transpose()
        matrix.matmul(matrix)
        matrix._eliminated()
        matrix.inverse() if matrix.is_invertible() else None
        assert matrix.to_lists() == original
