"""The frozen per-symbol ``GF(2^m)`` oracles: don't optimise.

These are the bit-serial and per-symbol loops that ``GF2m`` and ``GFMatrix``
replaced with table, window, stacked and ``native`` kernels, kept verbatim as
functions of the field (or matrix) they used to be methods of, and the
generator walk the small-field tables were once built by.  The fast
paths are property-tested against them (``tests/test_big_field_kernels.py``,
``tests/test_gf_backends.py``, ``tests/test_vector_kernels.py``, ...); their
only job is to stay exactly as they are.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence, Tuple

from repro.exceptions import FieldError, MatrixError
from repro.gf.field import GF2m
from repro.gf.matrix import GFMatrix
from repro.gf.polynomials import poly_divmod, poly_mod, poly_mul


def build_tables_by_walk(degree: int, modulus: int) -> Tuple[List[int], List[int], List[int]]:
    """Build ``(exp, log, inv)`` tables for the field ``GF(2^degree)``.

    The pre-order-test build: each candidate's whole cycle is walked with
    the bit-serial multiply, and the first one of full order is the
    generator.  ``_build_tables`` must return the same tables.

    ``exp`` holds two copies of the antilog table back to back so that
    ``exp[log[a] + log[b]]`` never needs a ``% (order - 1)`` reduction.
    ``log[0]`` and ``inv[0]`` are unused placeholders (zero has neither).
    """
    order = 1 << degree
    group = order - 1
    if group == 1:
        return [1, 1], [0, 0], [0, 1]
    powers: List[int] = []
    for candidate in range(2, order):
        powers = [1]
        value = candidate
        while value != 1 and len(powers) <= group:
            powers.append(value)
            value = poly_mod(poly_mul(value, candidate), modulus)
        if len(powers) == group:
            break
    else:  # pragma: no cover - impossible for an irreducible modulus
        raise FieldError(f"no generator found for GF(2^{degree})")
    exp = powers + powers
    log = [0] * order
    for index, element in enumerate(powers):
        log[element] = index
    inv = [0] * order
    for element in range(1, order):
        inv[element] = exp[group - log[element]]
    return exp, log, inv


def mul_fallback(field: GF2m, a: int, b: int) -> int:
    """Bit-serial polynomial multiplication: the correctness oracle.

    The pre-windowing implementation, so the big-field kernels
    (``GF2m._mul_big``, ``square``, ``inv``) have a fixed reference.
    """
    if a == 0 or b == 0:
        return 0
    if a == 1:
        return b
    if b == 1:
        return a
    return poly_mod(poly_mul(a, b), field.modulus)


def inv_fallback(field: GF2m, a: int) -> int:
    """Extended Euclidean inverse: the correctness oracle.

    Raises:
        FieldError: if ``a`` is zero.
    """
    if a == 0:
        raise FieldError("zero has no multiplicative inverse")
    # Extended Euclid on polynomials: maintain r = s * a + t * modulus.
    r_prev, r_curr = field.modulus, a
    s_prev, s_curr = 0, 1
    while r_curr != 0:
        quotient, remainder = poly_divmod(r_prev, r_curr)
        r_prev, r_curr = r_curr, remainder
        s_prev, s_curr = s_curr, s_prev ^ poly_mul(quotient, s_curr)
    # r_prev is the gcd, necessarily 1 since the modulus is irreducible.
    return poly_mod(s_prev, field.modulus)


def dot(field: GF2m, left: Sequence[int], right: Sequence[int]) -> int:
    """Inner product of two equal-length vectors of field elements.

    Raises:
        FieldError: if the lengths differ.
    """
    if len(left) != len(right):
        raise FieldError(f"dot product length mismatch: {len(left)} vs {len(right)}")
    accumulator = 0
    tables = field.tables()
    if tables is not None:
        exp, log, _ = tables
        for a, b in zip(left, right):
            if a and b:
                accumulator ^= exp[log[a] + log[b]]
    else:
        mul = field._mul_big
        for a, b in zip(left, right):
            if a and b:
                accumulator ^= mul(a, b)
    return accumulator


def scalar_mul(field: GF2m, scalar: int, vector: Iterable[int]) -> List[int]:
    """Multiply every component of ``vector`` by ``scalar``, one symbol at a time."""
    mul = field.mul
    return [mul(scalar, component) for component in vector]


def matmul_loop(left: GFMatrix, other: GFMatrix) -> GFMatrix:
    """Per-symbol matrix product ``left @ other``.

    One field multiplication per ``(row, column, inner)`` triple, exactly the
    pre-vectorisation kernel.
    """
    left._require_same_field(other)
    if left.cols != other.rows:
        raise MatrixError(f"shape mismatch for matmul: {left.shape} @ {other.shape}")
    columns = list(zip(*other._data))
    product: List[List[int]] = []
    tables = left.field.tables()
    if tables is not None:
        exp, log, _ = tables
        for row in left._data:
            product_row = []
            for col in columns:
                accumulator = 0
                for a, b in zip(row, col):
                    if a and b:
                        accumulator ^= exp[log[a] + log[b]]
                product_row.append(accumulator)
            product.append(product_row)
    else:
        mul = left.field._mul_big
        for row in left._data:
            product_row = []
            for col in columns:
                accumulator = 0
                for a, b in zip(row, col):
                    if a and b:
                        accumulator ^= mul(a, b)
                product_row.append(accumulator)
            product.append(product_row)
    return GFMatrix._trusted(left.field, product)


def vecmat_loop(matrix: GFMatrix, vector: Sequence[int]) -> List[int]:
    """Per-symbol ``vector @ matrix``: one field multiplication per (symbol,
    column) pair, the pre-vectorisation encode kernel.

    Raises:
        MatrixError: if ``len(vector)`` does not equal the row count.
    """
    if len(vector) != matrix.rows:
        raise MatrixError(
            f"vecmat length mismatch: vector of {len(vector)} vs {matrix.rows} rows"
        )
    validate = matrix.field.validate
    for value in vector:
        validate(value)
    result = [0] * matrix.cols
    tables = matrix.field.tables()
    if tables is not None:
        exp, log, _ = tables
        for value, row in zip(vector, matrix._data):
            if value:
                log_value = log[value]
                for index, entry in enumerate(row):
                    if entry:
                        result[index] ^= exp[log_value + log[entry]]
    else:
        mul = matrix.field._mul_big
        for value, row in zip(vector, matrix._data):
            if value:
                for index, entry in enumerate(row):
                    if entry:
                        result[index] ^= mul(value, entry)
    return result
