"""Property tests for the stacked GF kernels behind ``vecmat``.

``GFMatrix.vecmat`` / ``matmul`` / ``scalar_mul`` and ``GF2m.mul`` are pitted
against the frozen per-symbol oracles of ``tests/_oracles/gf.py`` across
small table-driven degrees and big stacked degrees (17..2048), vector lengths
1..64, ragged window tails and zero-heavy inputs; the
stacked-window tests pin the ``windowed`` backend, whose pass they cover.  A
byte-identity regression replays a committed ``nab_vs_classical`` sample cell
and compares the persisted row byte for byte.
"""

from __future__ import annotations

import json
import os
import random
from contextlib import contextmanager

import pytest

from _oracles.gf import dot, matmul_loop, mul_fallback, scalar_mul, vecmat_loop
from repro.classical.relay import majority_value
from repro.coding.coding_matrix import (
    CodingScheme,
    encode_on_edges,
    encode_value,
    generate_coding_scheme,
)
from repro.coding.equality_check import run_equality_check
from repro.coding.verification import subgraph_is_constrained, verification_cache_stats
from repro.exceptions import FieldError, MatrixError
from repro.gf.field import GF2m, get_field
from repro.gf.matrix import GFMatrix
from repro.gf.polynomials import (
    irreducible_polynomial,
    poly_reduce,
    poly_reduce_stacked,
    reduction_table,
    stack_slots,
    stack_stride,
    unstack_slots,
)
from repro.graph.flow_cache import clear_scope
from repro.graph.generators import figure1a
from repro.transport.network import SynchronousNetwork

#: Degrees spanning the table-driven (<= 16) and stacked (> 16) regimes; the
#: big degrees cover the contract range 17..2048.
SMALL_DEGREES = (4, 8, 16)
BIG_DEGREES = (17, 31, 64, 256, 821, 1093, 2048)

#: Batch sizes 1..64, chosen to hit singletons, tiny batches and window-cap
#: boundaries (the ragged-tail test additionally shrinks the cap).
BATCH_SIZES = (1, 2, 3, 16, 37, 64)


def _vectors(field: GF2m, rng: random.Random, count: int, zero_heavy: bool = False):
    if zero_heavy:
        return [
            0 if rng.random() < 0.6 else field.random_element(rng)
            for _ in range(count)
        ]
    return [field.random_element(rng) for _ in range(count)]


@contextmanager
def _slot_cap(field: GF2m, cap: int):
    """Temporarily shrink the field's stacking window to force ragged tails."""
    original = field._slot_cap
    field._slot_cap = cap
    try:
        yield
    finally:
        field._slot_cap = original


class TestStackedPolynomials:
    def test_stack_roundtrip(self):
        rng = random.Random(11)
        for degree in (1, 17, 256, 2048):
            stride = stack_stride(degree, degree)
            for count in BATCH_SIZES:
                values = [rng.getrandbits(degree) for _ in range(count)]
                stacked = stack_slots(values, stride)
                assert unstack_slots(stacked, stride, count) == values

    def test_poly_reduce_stacked_matches_per_slot_reduce(self):
        rng = random.Random(37)
        for degree in BIG_DEGREES:
            modulus = irreducible_polynomial(degree)
            table = reduction_table(modulus)
            assert table is not None, "tabulated moduli are low weight"
            stride = stack_stride(degree, degree)
            for count in (1, 3, 16, 64):
                raws = [rng.getrandbits(2 * degree - 1) for _ in range(count)]
                raws[0] = 0
                stacked = stack_slots(raws, stride)
                reduced = poly_reduce_stacked(stacked, table, stride, count)
                assert unstack_slots(reduced, stride, count) == [
                    poly_reduce(raw, table) for raw in raws
                ]


class TestVectorShapedProducts:
    """Vector-shaped products through the field and matrix API: scaling a
    vector is ``GFMatrix.scalar_mul`` or a one-row ``vecmat``, a dot product
    a one-column ``vecmat``, element-wise products ``GF2m.mul``."""

    @pytest.mark.parametrize("degree", SMALL_DEGREES + BIG_DEGREES)
    def test_scaling_matches_scalar_mul_oracle(self, degree):
        field = get_field(degree)
        rng = random.Random(100 + degree)
        for count in BATCH_SIZES:
            for zero_heavy in (False, True):
                vector = _vectors(field, rng, count, zero_heavy)
                row = GFMatrix.row_vector(field, vector)
                for scalar in (0, 1, field.random_nonzero(rng)):
                    expected = scalar_mul(field, scalar, vector)
                    assert row.scalar_mul(scalar).row(0) == expected
                    assert row.vecmat([scalar]) == expected

    @pytest.mark.parametrize("degree", SMALL_DEGREES + BIG_DEGREES)
    def test_mul_matches_bit_serial_oracle(self, degree):
        field = get_field(degree)
        rng = random.Random(200 + degree)
        for count in BATCH_SIZES:
            left = _vectors(field, rng, count, zero_heavy=True)
            right = _vectors(field, rng, count)
            assert [field.mul(a, b) for a, b in zip(left, right)] == [
                mul_fallback(field, a, b) for a, b in zip(left, right)
            ]

    @pytest.mark.parametrize("degree", SMALL_DEGREES + BIG_DEGREES)
    def test_one_column_vecmat_matches_dot_oracle(self, degree):
        field = get_field(degree)
        rng = random.Random(300 + degree)
        for count in BATCH_SIZES:
            left = _vectors(field, rng, count, zero_heavy=True)
            right = _vectors(field, rng, count, zero_heavy=True)
            column = GFMatrix.column_vector(field, right)
            assert column.vecmat(left) == [dot(field, left, right)]

    def test_vecmat_rejects_bad_vectors(self):
        for degree in (8, 17):
            field = get_field(degree)
            matrix = GFMatrix.identity(field, 2)
            with pytest.raises(MatrixError):
                matrix.vecmat([1])
            with pytest.raises(MatrixError):
                matrix.vecmat([1, 2, 3])
            with pytest.raises(FieldError):
                matrix.vecmat([1, field.order])


class TestStackedWindows:
    def test_ragged_window_tails(self):
        """Column counts that do not divide the slot cap split into ragged windows."""
        field = GF2m(256, kernel_backend="windowed")
        rng = random.Random(404)
        with _slot_cap(field, 5):
            for cols in (1, 4, 5, 6, 11, 13):
                matrix = GFMatrix.random(field, 3, cols, rng)
                vector = _vectors(field, rng, 3)
                assert matrix.vecmat(vector) == vecmat_loop(matrix, vector)

    def test_full_windows_stay_cacheable_at_gate_degrees(self):
        """The slot cap must not exceed the cache's per-entry budget where a
        cacheable window is still a useful batch (>= 8 slots)."""
        from repro.gf.field import _STACK_CACHE_BYTES

        for degree in (256, 821, 1024, 2048):
            field = GF2m(degree, kernel_backend="windowed")
            width = field._stride // 8
            if (_STACK_CACHE_BYTES // 4) // (256 * width) >= 8:
                assert 256 * field._slot_cap * width <= _STACK_CACHE_BYTES // 4
        # A full-window stacked row of a mid_field-sized matrix is retained.
        # (At 821, 1024, 2048 or 4096 it is not: the slot cap's estimate
        # leaves out the ~7 % that 30-bit int digits add, so a full window's
        # table lands just over the per-entry quarter and is rebuilt per
        # encode instead — same values.)
        field = GF2m(2185, kernel_backend="windowed")
        rng = random.Random(5)
        matrix = GFMatrix.random(field, 2, field._slot_cap, rng)
        vector = _vectors(field, rng, 2)
        matrix.vecmat(vector)
        cached_before = set(field._swtab)
        assert cached_before, "the first encode builds the stacked tables"
        matrix.vecmat(_vectors(field, rng, 2))
        assert set(field._swtab) == cached_before, "full windows must stay cached"

    def test_stacked_table_cache_is_bounded(self):
        field = GF2m(31, kernel_backend="windowed")
        rng = random.Random(9)
        matrix = GFMatrix.random(field, 2, 8, rng)
        matrix.vecmat(_vectors(field, rng, 2))
        assert 0 < field._swtab_bytes <= 8 << 20
        # Encoding again against the same matrix reuses its stacked tables.
        before = dict(field._swtab)
        hits = field.kernel_cache_stats()["stacked"]["hits"]
        matrix.vecmat(_vectors(field, rng, 2))
        assert set(field._swtab) >= set(before)
        assert field.kernel_cache_stats()["stacked"]["hits"] > hits


class TestMatrixVectorKernels:
    @pytest.mark.parametrize("degree", (8, 17, 256, 1093))
    def test_vecmat_matches_frozen_loop_oracle(self, degree):
        field = get_field(degree)
        rng = random.Random(500 + degree)
        for rows, cols in ((1, 1), (2, 3), (4, 16), (5, 33), (3, 64)):
            matrix = GFMatrix.random(field, rows, cols, rng)
            vector = _vectors(field, rng, rows, zero_heavy=True)
            assert matrix.vecmat(vector) == vecmat_loop(matrix, vector)

    @pytest.mark.parametrize("degree", (8, 17, 256, 1093))
    def test_matmul_matches_frozen_loop_oracle(self, degree):
        field = get_field(degree)
        rng = random.Random(600 + degree)
        for rows, inner, cols in ((1, 1, 1), (2, 3, 4), (4, 5, 16)):
            left = GFMatrix.random(field, rows, inner, rng)
            right = GFMatrix.random(field, inner, cols, rng)
            assert left.matmul(right) == matmul_loop(left, right)

    @pytest.mark.parametrize("degree", (8, 17, 256))
    def test_matvec_matches_per_row_dot_oracle(self, degree):
        field = get_field(degree)
        rng = random.Random(700 + degree)
        matrix = GFMatrix.random(field, 4, 6, rng)
        for _ in range(4):
            vector = _vectors(field, rng, 6, zero_heavy=True)
            product = matrix @ GFMatrix.column_vector(field, vector)
            assert product.column(0) == [dot(field, row, vector) for row in matrix.to_lists()]

    @pytest.mark.parametrize("degree", (8, 17, 256))
    def test_repeated_vecmat_matches_frozen_loop_oracle(self, degree):
        """Many vectors against one matrix reuse its packing and tables."""
        field = get_field(degree)
        rng = random.Random(800 + degree)
        matrix = GFMatrix.random(field, 5, 7, rng)
        for batch in (1, 3, 16, 64):
            vectors = [_vectors(field, rng, 5, zero_heavy=True) for _ in range(batch)]
            assert [matrix.vecmat(vector) for vector in vectors] == [
                vecmat_loop(matrix, vector) for vector in vectors
            ]

    def test_identity_and_zero_matrices(self):
        for degree in (8, 17, 256):
            field = get_field(degree)
            rng = random.Random(degree)
            vector = _vectors(field, rng, 3)
            assert GFMatrix.identity(field, 3).vecmat(vector) == vector
            assert GFMatrix.zeros(field, 3, 5).vecmat(vector) == [0] * 5
            assert GFMatrix.random(field, 3, 5, rng).vecmat([0, 0, 0]) == [0] * 5

    def test_ragged_windows_per_matrix(self):
        field = GF2m(821, kernel_backend="windowed")
        rng = random.Random(901)
        matrix = GFMatrix.random(field, 3, 9, rng)
        with _slot_cap(field, 4):
            matrix_small = GFMatrix.random(field, 3, 9, rng)
            vector = _vectors(field, rng, 3)
            assert matrix_small.vecmat(vector) == vecmat_loop(matrix_small, vector)
        # A matrix whose stacked rows were built under a different cap is
        # unaffected (the packing is cached per matrix, not per field).
        vector = _vectors(field, rng, 3)
        assert matrix.vecmat(vector) == vecmat_loop(matrix, vector)


class TestEncodeBatching:
    def _scheme(self, symbol_bits: int):
        graph = figure1a()
        return graph, generate_coding_scheme(graph, 2, symbol_bits, seed=3)

    @pytest.mark.parametrize("symbol_bits", (8, 64))
    def test_encode_on_edges_matches_per_edge_encode(self, symbol_bits):
        graph, scheme = self._scheme(symbol_bits)
        rng = random.Random(42)
        symbols = [scheme.field.random_element(rng) for _ in range(scheme.rho)]
        edges = sorted(scheme.matrices)
        batched = encode_on_edges(scheme, symbols, edges)
        assert set(batched) == set(edges)
        for edge in edges:
            assert batched[edge] == encode_value(scheme, symbols, edge)

    def test_encode_on_edges_empty_and_single(self):
        graph, scheme = self._scheme(8)
        symbols = [1, 2]
        assert encode_on_edges(scheme, symbols, []) == {}
        edge = next(iter(sorted(scheme.matrices)))
        assert encode_on_edges(scheme, symbols, [edge]) == {
            edge: encode_value(scheme, symbols, edge)
        }

    def test_combined_matrix_is_cached(self):
        _graph, scheme = self._scheme(8)
        edges = tuple(sorted(scheme.matrices))[:3]
        first = scheme.combined_matrix(edges)
        assert scheme.combined_matrix(edges) is first

    @pytest.mark.parametrize("symbol_bits", (8, 40))
    def test_equality_check_unchanged_by_batched_encode(self, symbol_bits):
        """The batched memoised encode must reproduce the per-edge outcome."""
        graph = figure1a()
        scheme = generate_coding_scheme(graph, 2, symbol_bits, seed=5)
        total_bits = 2 * symbol_bits
        rng = random.Random(77)
        values = {node: rng.getrandbits(total_bits) for node in graph.nodes()}
        outcome = run_equality_check(
            SynchronousNetwork(graph), graph, values, total_bits, scheme
        )
        for (tail, head), sent in outcome.sent_vectors.items():
            symbols = [
                (values[tail] >> shift) & ((1 << symbol_bits) - 1)
                for shift in (symbol_bits, 0)
            ]
            assert list(sent) == encode_value(scheme, symbols, (tail, head))
        equal = {node: 123 for node in graph.nodes()}
        assert not run_equality_check(
            SynchronousNetwork(graph), graph, equal, total_bits, scheme
        ).mismatch_detected()


class TestVerificationRankMemo:
    def test_rank_results_are_memoised_with_stats(self):
        clear_scope("topology")
        graph = figure1a()
        scheme = generate_coding_scheme(graph, 2, 16, seed=9)
        nodes = [1, 2, 3, 4]
        baseline = verification_cache_stats()
        first = subgraph_is_constrained(graph, nodes, scheme)
        after_miss = verification_cache_stats()
        assert after_miss["misses"] == baseline["misses"] + 1
        second = subgraph_is_constrained(graph, nodes, scheme)
        after_hit = verification_cache_stats()
        assert second == first
        assert after_hit["hits"] == after_miss["hits"] + 1
        clear_scope("topology")
        assert verification_cache_stats()["entries"] == 0

    def test_distinct_instances_do_not_share_entries(self):
        clear_scope("topology")
        graph = figure1a()
        nodes = [1, 2, 3, 4]
        for instance in (0, 1):
            scheme = generate_coding_scheme(graph, 2, 16, seed=9, instance=instance)
            subgraph_is_constrained(graph, nodes, scheme)
        assert verification_cache_stats()["entries"] == 2
        clear_scope("topology")

    def test_capacity_mismatch_fails_loudly(self):
        """Row slice assembly must reject matrices narrower/wider than the edge."""
        from repro.coding.verification import build_check_matrix
        from repro.exceptions import ProtocolError

        graph = figure1a()
        derived = generate_coding_scheme(graph, 2, 16, seed=1)
        bad_matrices = dict(derived.matrices)
        edge = next(iter(sorted(bad_matrices)))
        bad_matrices[edge] = GFMatrix.zeros(
            derived.field, 2, graph.capacity(*edge) + 1
        )
        bad_scheme = CodingScheme(
            field=derived.field, rho=2, symbol_bits=16, matrices=bad_matrices, seed=1
        )
        with pytest.raises(ProtocolError, match="capacity"):
            build_check_matrix(graph, graph.nodes(), bad_scheme)

    def test_hand_built_schemes_bypass_the_cache(self):
        """A zero scheme must not alias a derived scheme with equal key fields."""
        clear_scope("topology")
        graph = figure1a()
        derived = generate_coding_scheme(graph, 2, 16, seed=0)
        nodes = [1, 2, 3, 4]
        assert subgraph_is_constrained(graph, nodes, derived)
        zero_scheme = CodingScheme(
            field=derived.field,
            rho=2,
            symbol_bits=16,
            matrices={
                (tail, head): GFMatrix.zeros(derived.field, 2, capacity)
                for tail, head, capacity in graph.edges()
            },
            seed=0,
        )
        assert not subgraph_is_constrained(graph, nodes, zero_scheme)
        clear_scope("topology")


class TestMajorityFastPath:
    def test_identical_scalar_copies_take_the_fast_path(self):
        assert majority_value([b"x", b"x", b"x"]) == b"x"
        assert majority_value([None, None, None]) is None

    def test_mixed_bool_int_copies_still_use_repr_keys(self):
        # 1 == True but their reprs differ; the keyed path must decide, so
        # [True, 1, 1] resolves to the repr-majority value 1, not True.
        assert majority_value([True, 1, 1]) == 1
        assert repr(majority_value([True, 1, 1])) == "1"
        assert majority_value([True, 1]) is None


class TestByteIdentityRegression:
    def test_nab_vs_classical_sample_cell_matches_committed_row(self):
        """One committed grid row must reproduce byte for byte."""
        from repro.engine.runner import dump_row, run_cell
        from repro.engine.specs import get_spec

        results_path = os.path.join(
            os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
            "results",
            "nab_vs_classical_quick.jsonl",
        )
        if not os.path.exists(results_path):
            pytest.skip("committed results file not present")
        with open(results_path, "r", encoding="utf-8") as handle:
            committed = {
                json.loads(line)["cell_id"]: line.rstrip("\n")
                for line in handle
                if line.strip()
            }
        cells = get_spec("nab_vs_classical_quick").expand()
        # One NAB cell and one classical cell, adversarial where available.
        sampled = 0
        for cell in cells:
            if cell.cell_id not in committed:
                continue
            if cell.strategy == "equality-garbage" or sampled == 0:
                assert dump_row(run_cell(cell)) == committed[cell.cell_id], (
                    f"cell {cell.cell_id} diverged from the committed row"
                )
                sampled += 1
            if sampled >= 3:
                break
        assert sampled, "no committed cells found to replay"
