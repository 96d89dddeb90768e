"""Unit and property tests for the GF(2^m) field implementation."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles.gf import dot, scalar_mul
from repro.exceptions import FieldError
from repro.gf.field import GF2m


@pytest.fixture(scope="module")
def gf8():
    return GF2m(8)


@pytest.fixture(scope="module")
def gf16():
    return GF2m(16)


class TestFieldConstruction:
    def test_order_is_two_to_the_degree(self):
        assert GF2m(5).order == 32

    def test_invalid_degree_raises(self):
        with pytest.raises(FieldError):
            GF2m(0)

    def test_custom_modulus_accepted(self):
        field = GF2m(4, modulus=0b10011)
        assert field.modulus == 0b10011

    def test_reducible_modulus_rejected(self):
        with pytest.raises(FieldError):
            GF2m(4, modulus=0b10001)  # x^4 + 1 is reducible

    def test_wrong_degree_modulus_rejected(self):
        with pytest.raises(FieldError):
            GF2m(4, modulus=0b1011)  # degree 3

    def test_equality_depends_on_degree_and_modulus(self):
        assert GF2m(8) == GF2m(8)
        assert GF2m(8) != GF2m(9)

    def test_fields_are_hashable(self):
        assert len({GF2m(8), GF2m(8), GF2m(9)}) == 2

    def test_repr_mentions_degree(self):
        assert "degree=8" in repr(GF2m(8))


class TestFieldArithmetic:
    def test_add_is_xor(self, gf8):
        assert gf8.add(0b1010, 0b0110) == 0b1100

    def test_sub_equals_add(self, gf8):
        assert gf8.sub(37, 91) == gf8.add(37, 91)

    def test_neg_is_identity(self, gf8):
        assert gf8.neg(123) == 123

    def test_mul_zero_annihilates(self, gf8):
        assert gf8.mul(0, 200) == 0

    def test_mul_one_is_identity(self, gf8):
        assert gf8.mul(1, 200) == 200

    def test_gf2_is_boolean_arithmetic(self):
        field = GF2m(1)
        assert field.mul(1, 1) == 1
        assert field.add(1, 1) == 0
        assert field.inv(1) == 1

    def test_known_aes_style_reduction(self):
        # In GF(2^8) with modulus x^8+x^4+x^3+x+1 (the table entry), x^7 * x = reduction.
        field = GF2m(8)
        product = field.mul(0b10000000, 0b10)
        assert product == field.modulus ^ (1 << 8)

    def test_inverse_of_zero_raises(self, gf8):
        with pytest.raises(FieldError):
            gf8.inv(0)

    def test_div_by_zero_raises(self, gf8):
        with pytest.raises(FieldError):
            gf8.div(5, 0)

    def test_every_nonzero_element_has_inverse_gf16_elements(self):
        field = GF2m(4)
        for element in range(1, field.order):
            assert field.mul(element, field.inv(element)) == 1

    def test_pow_zero_exponent(self, gf8):
        assert gf8.pow(77, 0) == 1

    def test_pow_negative_exponent(self, gf8):
        assert gf8.mul(gf8.pow(77, -1), 77) == 1

    def test_pow_matches_repeated_multiplication(self, gf8):
        expected = 1
        for _ in range(9):
            expected = gf8.mul(expected, 0x53)
        assert gf8.pow(0x53, 9) == expected

    def test_fermat_little_theorem(self):
        field = GF2m(6)
        for element in (1, 5, 17, 44, 63):
            assert field.pow(element, field.order - 1) == 1

    def test_validate_rejects_out_of_range(self, gf8):
        with pytest.raises(FieldError):
            gf8.validate(256)
        with pytest.raises(FieldError):
            gf8.validate(-1)

    def test_validate_rejects_bool(self, gf8):
        with pytest.raises(FieldError):
            gf8.validate(True)

    def test_validate_returns_value(self, gf8):
        assert gf8.validate(200) == 200


class TestVectorHelpers:
    def test_dot_product(self, gf8):
        left = [1, 2, 3]
        right = [4, 5, 6]
        expected = gf8.mul(1, 4) ^ gf8.mul(2, 5) ^ gf8.mul(3, 6)
        assert dot(gf8, left, right) == expected

    def test_dot_length_mismatch_raises(self, gf8):
        with pytest.raises(FieldError):
            dot(gf8, [1, 2], [1, 2, 3])

    def test_scalar_mul(self, gf8):
        scaled = scalar_mul(gf8, 3, [1, 2])
        assert scaled == [gf8.mul(3, 1), gf8.mul(3, 2)]

    def test_random_element_in_range(self, gf16):
        rng = random.Random(7)
        for _ in range(50):
            assert 0 <= gf16.random_element(rng) < gf16.order

    def test_random_nonzero_never_zero(self, gf8):
        rng = random.Random(3)
        assert all(gf8.random_nonzero(rng) != 0 for _ in range(100))

    def test_random_vector_length(self, gf8):
        rng = random.Random(11)
        assert len(gf8.random_vector(13, rng)) == 13


FIELD_DEGREES = st.sampled_from([2, 3, 8, 13, 16, 32, 64])


@st.composite
def field_and_elements(draw, count=2):
    degree = draw(FIELD_DEGREES)
    field = GF2m(degree)
    elements = [draw(st.integers(min_value=0, max_value=field.order - 1)) for _ in range(count)]
    return field, elements


class TestFieldAxiomsProperty:
    @given(field_and_elements(count=3))
    @settings(max_examples=100, deadline=None)
    def test_multiplication_associativity(self, data):
        field, (a, b, c) = data
        assert field.mul(field.mul(a, b), c) == field.mul(a, field.mul(b, c))

    @given(field_and_elements(count=2))
    @settings(max_examples=100, deadline=None)
    def test_multiplication_commutativity(self, data):
        field, (a, b) = data
        assert field.mul(a, b) == field.mul(b, a)

    @given(field_and_elements(count=3))
    @settings(max_examples=100, deadline=None)
    def test_distributivity(self, data):
        field, (a, b, c) = data
        assert field.mul(a, field.add(b, c)) == field.add(field.mul(a, b), field.mul(a, c))

    @given(field_and_elements(count=1))
    @settings(max_examples=100, deadline=None)
    def test_additive_inverse(self, data):
        field, (a,) = data
        assert field.add(a, field.neg(a)) == 0

    @given(field_and_elements(count=1))
    @settings(max_examples=100, deadline=None)
    def test_multiplicative_inverse(self, data):
        field, (a,) = data
        if a != 0:
            assert field.mul(a, field.inv(a)) == 1

    @given(field_and_elements(count=2))
    @settings(max_examples=100, deadline=None)
    def test_division_inverts_multiplication(self, data):
        field, (a, b) = data
        if b != 0:
            assert field.div(field.mul(a, b), b) == a

    @given(field_and_elements(count=1))
    @settings(max_examples=50, deadline=None)
    def test_frobenius_square_is_additive(self, data):
        field, (a,) = data
        b = (a * 7 + 13) % field.order
        assert field.square(field.add(a, b)) == field.add(field.square(a), field.square(b))
