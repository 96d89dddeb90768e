"""Property tests: table-driven GF(2^m) arithmetic vs the polynomial oracle.

The table path (log/antilog lookups, degree <= 16) and the bit-serial
polynomial oracle of ``tests/_oracles/gf.py`` must compute identical field
values; these tests compare them on random samples and pin down the
shared-table / shared-field cache contracts.
"""

from __future__ import annotations

import os
import random

import pytest

from _oracles.gf import dot, inv_fallback, mul_fallback
from repro.exceptions import FieldError
from repro.gf.field import _TABLE_MAX_DEGREE, GF2m, get_field
from repro.gf.polynomials import (
    _LOW_WEIGHT_EXPONENTS,
    _has_small_degree_factor,
    _poly_from_exponents,
    is_irreducible,
)

TABLE_DEGREES = [1, 4, 8, 12]
SAMPLES = 200


@pytest.mark.parametrize("degree", TABLE_DEGREES)
class TestTableMatchesPolynomialOracle:
    def test_mul(self, degree):
        field = GF2m(degree)
        rng = random.Random(100 + degree)
        assert field.tables() is not None
        for _ in range(SAMPLES):
            a = field.random_element(rng)
            b = field.random_element(rng)
            assert field.mul(a, b) == mul_fallback(field, a, b)

    def test_inv_and_div(self, degree):
        field = GF2m(degree)
        rng = random.Random(200 + degree)
        for _ in range(SAMPLES):
            a = field.random_nonzero(rng)
            b = field.random_nonzero(rng)
            inverse = field.inv(a)
            assert inverse == inv_fallback(field, a)
            assert field.mul(a, inverse) == 1
            assert field.div(a, b) == mul_fallback(field, a, inv_fallback(field, b))

    def test_square(self, degree):
        field = GF2m(degree)
        rng = random.Random(300 + degree)
        for _ in range(SAMPLES):
            a = field.random_element(rng)
            assert field.square(a) == mul_fallback(field, a, a)

    def test_pow(self, degree):
        field = GF2m(degree)
        rng = random.Random(400 + degree)
        for _ in range(40):
            a = field.random_nonzero(rng)
            exponent = rng.randrange(0, 3 * field.order)
            expected = 1
            for _step in range(exponent):
                expected = mul_fallback(field, expected, a)
            assert field.pow(a, exponent) == expected
            if exponent:
                assert field.pow(a, -exponent) == inv_fallback(field, field.pow(a, exponent))

    def test_dot(self, degree):
        field = GF2m(degree)
        rng = random.Random(500 + degree)
        for length in (1, 3, 9):
            left = field.random_vector(length, rng)
            right = field.random_vector(length, rng)
            expected = 0
            for a, b in zip(left, right):
                expected ^= mul_fallback(field, a, b)
            assert dot(field, left, right) == expected


class TestPowEdgeCases:
    def test_zero_base(self):
        field = GF2m(8)
        assert field.pow(0, 0) == 1
        assert field.pow(0, 7) == 0
        with pytest.raises(FieldError):
            field.pow(0, -1)

    def test_every_nonzero_element_has_group_order_power_one(self):
        field = GF2m(6)
        for element in range(1, field.order):
            assert field.pow(element, field.order - 1) == 1


class TestTableAndFieldCaches:
    def test_tables_shared_across_instances(self):
        first = GF2m(8)
        second = GF2m(8)
        assert first is not second
        assert first.tables()[0] is second.tables()[0]
        assert first.tables()[1] is second.tables()[1]

    def test_get_field_returns_canonical_instance(self):
        assert get_field(8) is get_field(8)
        assert get_field(8) == GF2m(8)
        # The explicit default modulus resolves to the same cached instance.
        assert get_field(8, GF2m(8).modulus) is get_field(8)

    def test_get_field_distinct_moduli_distinct_instances(self):
        default = get_field(4)
        other = get_field(4, 0b11001)  # x^4 + x^3 + 1, also irreducible
        assert default is not other
        assert default != other

    def test_get_field_rejects_bad_degree(self):
        with pytest.raises(FieldError):
            get_field(0)

    def test_large_degree_has_no_tables_but_correct_arithmetic(self):
        field = GF2m(_TABLE_MAX_DEGREE + 4)
        assert field.tables() is None
        rng = random.Random(77)
        for _ in range(20):
            a = field.random_nonzero(rng)
            assert field.mul(field.inv(a), a) == 1
            assert field.mul(a, 1) == a
            assert field.square(a) == mul_fallback(field, a, a)


#: Full Rabin verification is O(degree) modular squarings; beyond this bound
#: (several seconds per entry) the default run downgrades to the small-factor
#: screen and the full test is opted into via REPRO_SLOW_TESTS=1.
_FULL_RABIN_MAX_DEGREE = 4096


def test_tabulated_irreducible_polynomials_are_irreducible():
    # irreducible_polynomial() trusts the table at runtime (re-running the
    # Rabin test per process was a ~1s tax on large degrees); this test is
    # the authoritative check of every tabulated entry.  Entries beyond
    # _FULL_RABIN_MAX_DEGREE get the cheap necessary condition here (no
    # irreducible factor of degree <= 14) and the authoritative Rabin run
    # under REPRO_SLOW_TESTS=1 (see below).
    for degree, exponents in sorted(_LOW_WEIGHT_EXPONENTS.items()):
        poly = _poly_from_exponents(degree, exponents)
        if degree <= _FULL_RABIN_MAX_DEGREE:
            assert is_irreducible(poly), f"table entry for degree {degree} is reducible"
        else:
            assert not _has_small_degree_factor(poly), (
                f"table entry for degree {degree} has a small factor"
            )


@pytest.mark.skipif(
    not os.environ.get("REPRO_SLOW_TESTS"),
    reason="full Rabin verification of the multi-thousand-bit table entries "
    "takes tens of seconds; set REPRO_SLOW_TESTS=1 to run it",
)
def test_large_tabulated_entries_full_rabin():
    for degree, exponents in sorted(_LOW_WEIGHT_EXPONENTS.items()):
        if degree > _FULL_RABIN_MAX_DEGREE:
            poly = _poly_from_exponents(degree, exponents)
            assert is_irreducible(poly), f"table entry for degree {degree} is reducible"
