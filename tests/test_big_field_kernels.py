"""Property tests: the windowed big-field kernels vs the bit-serial oracles.

PR 4 added windowed carry-less multiplication, linear-time squaring, chunked
modular reduction and an inlined extended-Euclid inverse for fields of degree
> 16.  The pre-existing bit-serial routines (``poly_mul`` / ``poly_divmod`` on
the polynomial layer, ``mul_fallback`` / ``inv_fallback`` of
``tests/_oracles/gf.py`` on the field layer) are retained verbatim as
correctness oracles; these tests pit the fast paths against them on random
operands across degrees 17-2048.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles.gf import dot, inv_fallback, mul_fallback
from repro.gf.field import GF2m, get_field
from repro.gf.polynomials import (
    irreducible_polynomial,
    is_irreducible,
    poly_mod,
    poly_mul,
    poly_mul_windowed,
    poly_mulmod,
    poly_reduce,
    poly_square,
    reduction_table,
    window_table,
)

#: Degrees sampled by the hypothesis-driven field tests: beyond the table
#: limit (16) up to the multi-KB payload regime.  Tabulated degrees keep the
#: modulus lookup free; 100 and 820 exercise the runtime search path (820 is
#: the field of the 512-byte / k7-unit profile the PR optimises).
BIG_DEGREES = (17, 24, 33, 64, 100, 256, 820, 1024, 2048)


def _field(degree: int) -> GF2m:
    return get_field(degree)


class TestWindowedPolynomialKernels:
    @given(
        a=st.integers(min_value=0, max_value=(1 << 2048) - 1),
        b=st.integers(min_value=0, max_value=(1 << 2048) - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_windowed_mul_matches_bit_serial(self, a, b):
        assert poly_mul_windowed(a, b) == poly_mul(a, b)

    @given(a=st.integers(min_value=0, max_value=(1 << 2048) - 1))
    @settings(max_examples=60, deadline=None)
    def test_square_matches_bit_serial(self, a):
        assert poly_square(a) == poly_mul(a, a)

    def test_window_table_holds_all_byte_multiples(self):
        rng = random.Random(1)
        a = rng.getrandbits(300)
        table = window_table(a)
        assert len(table) == 256
        for w in (0, 1, 2, 3, 17, 128, 255):
            assert table[w] == poly_mul(a, w)

    @given(data=st.data(), degree=st.sampled_from(BIG_DEGREES))
    @settings(max_examples=60, deadline=None)
    def test_chunked_reduction_matches_euclidean_division(self, data, degree):
        # Values span the full carry-less product range (degree up to 2m - 2).
        value = data.draw(
            st.integers(min_value=0, max_value=(1 << (2 * degree)) - 1)
        )
        modulus = irreducible_polynomial(degree)
        table = reduction_table(modulus)
        assert table is not None, "searched moduli are low-weight by construction"
        assert poly_reduce(value, table) == poly_mod(value, modulus)

    def test_reduction_table_rejects_dense_or_unbalanced_moduli(self):
        # x^8 + (all lower bits set): weight 9 tail of degree 7 > 8 // 2.
        assert reduction_table((1 << 8) | 0xFF) is None
        # A modulus of degree 40 whose tail is sparse but too high-degree.
        assert reduction_table((1 << 40) | (1 << 39) | 1) is None
        assert reduction_table(0) is None

    @given(
        a=st.integers(min_value=0, max_value=(1 << 512) - 1),
        b=st.integers(min_value=0, max_value=(1 << 512) - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_mulmod_fast_path_matches_divide_path(self, a, b):
        modulus = irreducible_polynomial(256)
        assert poly_mulmod(a, b, modulus) == poly_mod(poly_mul(a, b), modulus)

    def test_mulmod_dense_modulus_falls_back(self):
        dense = (1 << 9) | 0b111111111  # weight 10 tail on a degree-9 modulus
        rng = random.Random(3)
        for _ in range(20):
            a, b = rng.getrandbits(9), rng.getrandbits(9)
            assert poly_mulmod(a, b, dense) == poly_mod(poly_mul(a, b), dense)


class TestBigFieldAgainstOracle:
    @given(data=st.data(), degree=st.sampled_from(BIG_DEGREES))
    @settings(max_examples=80, deadline=None)
    def test_mul_matches_fallback(self, data, degree):
        field = _field(degree)
        a = data.draw(st.integers(min_value=0, max_value=field.order - 1))
        b = data.draw(st.integers(min_value=0, max_value=field.order - 1))
        assert field.mul(a, b) == mul_fallback(field, a, b)

    @given(data=st.data(), degree=st.sampled_from(BIG_DEGREES))
    @settings(max_examples=60, deadline=None)
    def test_square_matches_fallback(self, data, degree):
        field = _field(degree)
        a = data.draw(st.integers(min_value=0, max_value=field.order - 1))
        assert field.square(a) == mul_fallback(field, a, a)

    @given(data=st.data(), degree=st.sampled_from(BIG_DEGREES))
    @settings(max_examples=40, deadline=None)
    def test_inv_matches_fallback_and_inverts(self, data, degree):
        field = _field(degree)
        a = data.draw(st.integers(min_value=1, max_value=field.order - 1))
        inverse = field.inv(a)
        assert inverse == inv_fallback(field, a)
        assert field.mul(a, inverse) == 1

    @given(data=st.data(), degree=st.sampled_from(BIG_DEGREES))
    @settings(max_examples=30, deadline=None)
    def test_pow_matches_repeated_fallback_mul(self, data, degree):
        field = _field(degree)
        a = data.draw(st.integers(min_value=1, max_value=field.order - 1))
        exponent = data.draw(st.integers(min_value=0, max_value=12))
        expected = 1
        for _ in range(exponent):
            expected = mul_fallback(field, expected, a)
        assert field.pow(a, exponent) == expected

    def test_dot_uses_big_kernel_and_matches_fallback(self):
        field = _field(820)
        rng = random.Random(9)
        left = field.random_vector(7, rng)
        right = field.random_vector(7, rng)
        expected = 0
        for a, b in zip(left, right):
            expected ^= mul_fallback(field, a, b)
        assert dot(field, left, right) == expected


class TestWindowTableCache:
    def test_repeated_multiplicands_share_one_table(self):
        field = GF2m(256, kernel_backend="windowed")
        rng = random.Random(5)
        a = field.random_nonzero(rng)
        field._wtab.clear()
        field.mul(a, field.random_nonzero(rng))
        assert len(field._wtab) == 1
        field.mul(a, field.random_nonzero(rng))
        assert len(field._wtab) == 1  # cache hit, no second table

    def test_table_reused_for_either_operand_position(self):
        field = GF2m(256, kernel_backend="windowed")
        rng = random.Random(6)
        a = field.random_nonzero(rng)
        b = field.random_nonzero(rng)
        field._wtab.clear()
        field.mul(a, b)
        assert list(field._wtab) == [a]
        # a arrives as the *right* operand now: still only a's table in use.
        field.mul(b, a)
        assert list(field._wtab) == [a]

    def test_cache_bounded_by_byte_budget(self):
        import sys

        from repro.gf.field import _WINDOW_CACHE_BYTES

        field = GF2m(2048, kernel_backend="windowed")
        rng = random.Random(7)
        field._wtab.clear()
        field._wtab_bytes = 0
        # Charge by actual table size: enough distinct multiplicands to
        # overflow the budget and force at least one wholesale eviction.
        probe = window_table(field.random_nonzero(rng))
        per_table = sys.getsizeof(probe) + sum(map(sys.getsizeof, probe))
        for _ in range(_WINDOW_CACHE_BYTES // per_table + 5):
            field.mul(field.random_nonzero(rng), field.random_nonzero(rng))
        assert field._wtab_bytes <= _WINDOW_CACHE_BYTES
        stats = field.kernel_cache_stats()["window"]
        assert stats["evictions"] >= 1
        assert stats["bytes"] == field._wtab_bytes

    def test_accounting_charges_actual_bytes_not_estimates(self):
        import sys

        field = GF2m(2048, kernel_backend="windowed")
        field._wtab.clear()
        field._wtab_bytes = 0
        # A sparse multiplicand's table holds short ints; the charge must
        # reflect that, not a degree-scaled estimate.
        field.mul(1 << 3, field.random_nonzero(random.Random(8)))
        sparse_cost = field._wtab_bytes
        table = field._wtab[1 << 3]
        assert sparse_cost == sys.getsizeof(table) + sum(map(sys.getsizeof, table))
        dense = field.random_nonzero(random.Random(9))
        field.mul(dense, field.random_nonzero(random.Random(10)))
        assert field._wtab_bytes - sparse_cost > 4 * sparse_cost


_FAULT_PROBE = """
import random, resource, sys
from repro.gf.field import GF2m
from repro.gf.polynomials import window_table

if sys.argv[1] == "field":
    GF2m(2185)
stacked = random.Random(1).getrandbits(8 * 4096)
# Held, so every table below is built on the heap top itself: where the first
# one happens to land (under some longer-lived block or not) depends on what
# the imports allocated, and decided whether the control saw any trimming.
keep = window_table(stacked)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(40):
    window_table(stacked)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


class TestHeapRetention:
    """Building and dropping window tables must not page-fault them back in."""

    def _faults(self, mode: str) -> int:
        import os
        import subprocess
        import sys

        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env = {k: v for k, v in os.environ.items() if not k.startswith("MALLOC_")}
        env["PYTHONPATH"] = os.path.abspath(src)
        out = subprocess.run(
            [sys.executable, "-c", _FAULT_PROBE, mode],
            env=env, capture_output=True, text=True, check=True,
        )
        return int(out.stdout)

    def test_first_big_field_stops_heap_trimming(self):
        import ctypes

        if not hasattr(ctypes.CDLL(None), "mallopt"):
            pytest.skip("C library without mallopt")
        # 40 tables x 1 MB: ~5 000 faults on glibc when each build regrows the
        # heap top, none once the top is kept.
        trimmed = self._faults("none")
        if trimmed < 1000:
            pytest.skip("this allocator does not trim the heap top")
        assert self._faults("field") < trimmed // 10

    def test_retention_is_idempotent(self):
        from repro.gf import field as field_module

        GF2m(64)
        assert field_module._heap_retained
        field_module._retain_heap()
        assert GF2m(64).mul(3, 5) == mul_fallback(GF2m(64), 3, 5)


class TestIrreducibilitySpeedups:
    def test_fast_rabin_agrees_with_known_values(self):
        # x^8 + x^4 + x^3 + x + 1 (AES) is irreducible; x^8 + 1 is not.
        assert is_irreducible(0b100011011)
        assert not is_irreducible(0b100000001)

    @given(degree=st.integers(min_value=17, max_value=80), data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_searched_polynomials_are_irreducible_and_low_weight(self, degree, data):
        poly = irreducible_polynomial(degree)
        assert is_irreducible(poly)
        assert reduction_table(poly) is not None

    def test_swan_skip_still_finds_pentanomials(self):
        # Degree divisible by 8 (no trinomial exists): the search must come
        # back with an irreducible pentanomial.
        poly = irreducible_polynomial(40)
        assert is_irreducible(poly)
        assert poly.bit_count() == 5
