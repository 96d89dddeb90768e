"""Property tests: table-driven GF(2^m) arithmetic vs the polynomial oracle.

The table path (log/antilog lookups, degree <= 16) and the bit-serial
polynomial oracle of ``tests/_oracles/gf.py`` must compute identical field
values; these tests compare them on random samples, hold the table build to
the generator walk it replaced, and pin down the shared-table / shared-field
cache contracts.
"""

from __future__ import annotations

import os
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from _oracles.gf import build_tables_by_walk, dot, inv_fallback, mul_fallback
from repro.exceptions import FieldError
from repro.gf import field as field_module
from repro.gf import polynomials
from repro.gf.field import _TABLE_CACHE, _TABLE_MAX_DEGREE, GF2m, _build_tables, get_field
from repro.gf.polynomials import (
    _LOW_WEIGHT_EXPONENTS,
    _has_small_degree_factor,
    _poly_from_exponents,
    irreducible_polynomial,
    is_irreducible,
)

TABLE_DEGREES = [1, 4, 8, 12, 13, 14, 15, 16]
SAMPLES = 200


def _pow_by_squaring(field, a, exponent):
    """``a ** exponent`` by square-and-multiply on the bit-serial oracle."""
    power = 1
    while exponent:
        if exponent & 1:
            power = mul_fallback(field, power, a)
        a = mul_fallback(field, a, a)
        exponent >>= 1
    return power


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
            expected = _pow_by_squaring(field, a, exponent)
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


def _assert_walk_tables(tables, degree, modulus):
    exp, log, inv = tables
    walk_exp, walk_log, walk_inv = build_tables_by_walk(degree, modulus)
    assert exp == walk_exp
    assert log == walk_log
    assert inv[1:] == walk_inv[1:]


@pytest.mark.parametrize("degree", range(1, _TABLE_MAX_DEGREE + 1))
def test_tables_equal_the_generator_walk(degree):
    modulus = irreducible_polynomial(degree)
    _assert_walk_tables(_build_tables(degree, modulus), degree, modulus)


@st.composite
def _irreducible_moduli(draw):
    degree = draw(st.integers(min_value=2, max_value=12))
    middle = draw(st.integers(min_value=0, max_value=(1 << (degree - 1)) - 1))
    return degree, (1 << degree) | (middle << 1) | 1


# x is not primitive for the fixed examples: its order is 5, 9, 51, 73 and
# 45 in place of 15, 63, 255, 511 and 4095, so the walk skips past it.
@settings(max_examples=40, deadline=None)
@given(_irreducible_moduli().filter(lambda drawn: is_irreducible(drawn[1])))
@example((4, 0x1F))
@example((6, 0x49))
@example((8, 0x11B))
@example((9, 0x203))
@example((12, 0x1009))
def test_tables_equal_the_generator_walk_for_any_modulus(drawn):
    degree, modulus = drawn
    _assert_walk_tables(GF2m(degree, modulus).tables(), degree, modulus)


@pytest.fixture
def fresh_tables():
    """The default GF(2^11) and GF(2^16) with their cached tables dropped.

    The cached tables are put back afterwards, so the canonical fields built
    before keep sharing them.
    """
    keys = [(degree, irreducible_polynomial(degree)) for degree in (11, 16)]
    saved = {key: _TABLE_CACHE.pop(key) for key in keys if key in _TABLE_CACHE}
    yield [GF2m(degree, modulus) for degree, modulus in keys]
    for key in keys:
        _TABLE_CACHE.pop(key, None)
    _TABLE_CACHE.update(saved)


def test_tables_build_without_the_polynomial_arithmetic(monkeypatch, fresh_tables):
    def forbidden(*args):
        raise AssertionError("the table build ran bit-serial polynomial arithmetic")

    for module in (field_module, polynomials):
        for name in ("poly_mul", "poly_mod"):
            monkeypatch.setattr(module, name, forbidden, raising=False)
    for field in fresh_tables:
        assert field.tables() is not None
        assert (field.degree, field.modulus) in _TABLE_CACHE
    monkeypatch.undo()
    for field in fresh_tables:
        _assert_walk_tables(field.tables(), field.degree, field.modulus)


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
