"""Tests for Omega_k enumeration, coding matrices, equality check and Theorem 1 verification."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.coding.coding_matrix import CodingScheme, encode_value, generate_coding_scheme
from repro.coding.equality_check import run_equality_check, value_to_symbols
from repro.coding.omega import (
    compute_rho,
    compute_uk,
    dispute_free_subgraphs,
    omega_and_parameters,
)
from repro.coding.verification import (
    build_check_matrix,
    scheme_is_correct,
    subgraph_is_constrained,
    theorem1_failure_bound,
    verify_coding_scheme,
)
from repro.exceptions import ProtocolError
from repro.graph.generators import complete_graph, figure1a, figure1b
from repro.transport.faults import ByzantineStrategy, FaultModel
from repro.transport.network import SynchronousNetwork
from repro.types import node_pair


class GarbageEqualityStrategy(ByzantineStrategy):
    """A faulty node sends all-zero coded symbols regardless of its value."""

    name = "garbage-equality"

    def equality_check_vector(self, instance, node, neighbor, true_vector):
        return [0] * len(true_vector)


class TestOmega:
    def test_no_disputes_all_subsets(self):
        graph = figure1a()
        subgraphs = dispute_free_subgraphs(graph, 3)
        assert len(subgraphs) == 4  # C(4, 3)

    def test_paper_example_omega_k(self):
        """Figure 1(b) with the 2-3 dispute: Omega_k = {(1,2,4), (1,3,4)}."""
        graph = figure1b()
        subgraphs = dispute_free_subgraphs(graph, 3, [node_pair(2, 3)])
        assert sorted(subgraphs) == [(1, 2, 4), (1, 3, 4)]

    def test_invalid_sizes(self):
        graph = figure1a()
        with pytest.raises(ProtocolError):
            dispute_free_subgraphs(graph, 0)
        with pytest.raises(ProtocolError):
            dispute_free_subgraphs(graph, 9)

    def test_uk_of_paper_example(self):
        graph = figure1b()
        subgraphs = dispute_free_subgraphs(graph, 3, [node_pair(2, 3)])
        assert compute_uk(graph, subgraphs) == 2

    def test_uk_requires_nonempty_family(self):
        with pytest.raises(ProtocolError):
            compute_uk(figure1a(), [])

    def test_rho_is_half_of_uk(self):
        assert compute_rho(2) == 1
        assert compute_rho(5) == 2
        assert compute_rho(8) == 4

    def test_rho_rejects_small_uk(self):
        with pytest.raises(ProtocolError):
            compute_rho(1)

    def test_omega_and_parameters_wrapper(self):
        graph = figure1b()
        subgraphs, uk, rho = omega_and_parameters(graph, 4, 1, [node_pair(2, 3)])
        assert len(subgraphs) == 2
        assert uk == 2
        assert rho == 1

    def test_complete_graph_parameters(self):
        graph = complete_graph(4, capacity=2)
        subgraphs, uk, rho = omega_and_parameters(graph, 4, 1)
        assert len(subgraphs) == 4
        # In a K3 with undirected capacity 4 per edge, pairwise min-cut is 8.
        assert uk == 8
        assert rho == 4


class TestCodingScheme:
    def test_matrix_shapes_follow_capacities(self):
        graph = figure1a()
        scheme = generate_coding_scheme(graph, rho=2, symbol_bits=8, seed=7)
        assert scheme.matrix_for((1, 2)).shape == (2, 2)
        assert scheme.matrix_for((2, 3)).shape == (2, 1)

    def test_deterministic_in_seed_and_instance(self):
        graph = figure1a()
        first = generate_coding_scheme(graph, 2, 8, seed=3, instance=5)
        second = generate_coding_scheme(graph, 2, 8, seed=3, instance=5)
        different = generate_coding_scheme(graph, 2, 8, seed=3, instance=6)
        assert first.matrices == second.matrices
        assert first.matrices != different.matrices

    def test_invalid_parameters(self):
        graph = figure1a()
        with pytest.raises(ProtocolError):
            generate_coding_scheme(graph, 0, 8)
        with pytest.raises(ProtocolError):
            generate_coding_scheme(graph, 2, 0)

    def test_missing_edge_matrix(self):
        graph = figure1a()
        scheme = generate_coding_scheme(graph, 2, 8)
        with pytest.raises(ProtocolError):
            scheme.matrix_for((2, 4))

    def test_encode_value_length_and_determinism(self):
        graph = figure1a()
        scheme = generate_coding_scheme(graph, 2, 8, seed=1)
        coded = encode_value(scheme, [3, 5], (1, 2))
        assert len(coded) == 2
        assert coded == encode_value(scheme, [3, 5], (1, 2))

    def test_encode_value_wrong_length(self):
        graph = figure1a()
        scheme = generate_coding_scheme(graph, 2, 8)
        with pytest.raises(ProtocolError):
            encode_value(scheme, [1], (1, 2))

    def test_encode_value_accepts_any_sequence(self):
        # The signature is Sequence[int]: list, tuple, range and custom
        # sequence types must all encode identically.
        class SymbolSequence:
            def __init__(self, items):
                self._items = list(items)

            def __len__(self):
                return len(self._items)

            def __getitem__(self, index):
                return self._items[index]

        graph = figure1a()
        scheme = generate_coding_scheme(graph, 2, 8, seed=1)
        expected = encode_value(scheme, [3, 5], (1, 2))
        assert encode_value(scheme, (3, 5), (1, 2)) == expected
        assert encode_value(scheme, SymbolSequence([3, 5]), (1, 2)) == expected
        assert encode_value(scheme, range(3, 5), (1, 2)) == [
            coded for coded in encode_value(scheme, [3, 4], (1, 2))
        ]

    def test_edges_listing(self):
        graph = figure1a()
        scheme = generate_coding_scheme(graph, 2, 8)
        assert list(scheme.edges()) == [(tail, head) for tail, head, _ in graph.edges()]


class TestValueToSymbols:
    def test_exact_split(self):
        graph = figure1a()
        scheme = generate_coding_scheme(graph, 2, 8)
        assert value_to_symbols(0xABCD, 16, scheme) == [0xAB, 0xCD]

    def test_padding_to_rho(self):
        graph = figure1a()
        scheme = generate_coding_scheme(graph, 4, 8)
        assert value_to_symbols(0xFF, 8, scheme) == [0, 0, 0, 0xFF]

    def test_too_many_symbols_rejected(self):
        graph = figure1a()
        scheme = generate_coding_scheme(graph, 1, 4)
        with pytest.raises(ProtocolError):
            value_to_symbols(0xABC, 12, scheme)


def _equality_setup(graph, rho, symbol_bits, faulty=(), strategy=None, seed=0):
    network = SynchronousNetwork(graph, FaultModel(faulty, strategy))
    scheme = generate_coding_scheme(graph, rho, symbol_bits, seed=seed)
    return network, scheme


class TestEqualityCheck:
    def test_identical_values_no_mismatch(self):
        graph = figure1a()
        network, scheme = _equality_setup(graph, rho=2, symbol_bits=8)
        values = {node: 0xBEEF for node in graph.nodes()}
        outcome = run_equality_check(network, graph, values, 16, scheme)
        assert not outcome.mismatch_detected()
        assert set(outcome.flags) == set(graph.nodes())

    def test_differing_value_detected(self):
        graph = figure1a()
        network, scheme = _equality_setup(graph, rho=2, symbol_bits=16)
        values = {node: 0xBEEF for node in graph.nodes()}
        values[3] = 0xDEAD
        outcome = run_equality_check(network, graph, values, 16, scheme)
        assert outcome.mismatch_detected()

    def test_time_accounting_is_L_over_rho(self):
        graph = figure1a()
        rho = 2
        symbol_bits = 8  # L = 16, L / rho = 8
        network, scheme = _equality_setup(graph, rho, symbol_bits)
        values = {node: 0x1234 for node in graph.nodes()}
        run_equality_check(network, graph, values, 16, scheme, phase="eq")
        assert network.accountant.phase_elapsed("eq") == Fraction(symbol_bits)

    def test_missing_value_raises(self):
        graph = figure1a()
        network, scheme = _equality_setup(graph, 2, 8)
        values = {node: 1 for node in graph.nodes() if node != 3}
        with pytest.raises(ProtocolError):
            run_equality_check(network, graph, values, 16, scheme)

    def test_faulty_node_garbage_triggers_neighbor_flag(self):
        graph = figure1a()
        network, scheme = _equality_setup(
            graph, 2, 16, faulty=[2], strategy=GarbageEqualityStrategy()
        )
        values = {node: 0xCAFE for node in graph.nodes()}
        outcome = run_equality_check(network, graph, values, 16, scheme)
        # Node 3 receives garbage from node 2 on edge (2, 3) and must flag it.
        assert outcome.flags[3] is True

    def test_byzantine_vector_with_wrong_length_rejected(self):
        class WrongLengthStrategy(ByzantineStrategy):
            def equality_check_vector(self, instance, node, neighbor, true_vector):
                return [0]

        graph = figure1a()
        network, scheme = _equality_setup(
            graph, 2, 8, faulty=[1], strategy=WrongLengthStrategy()
        )
        values = {node: 3 for node in graph.nodes()}
        with pytest.raises(ProtocolError):
            run_equality_check(network, graph, values, 16, scheme)

    def test_sent_and_expected_vectors_exposed(self):
        graph = figure1a()
        network, scheme = _equality_setup(graph, 2, 8)
        values = {node: 0xAB12 for node in graph.nodes()}
        outcome = run_equality_check(network, graph, values, 16, scheme)
        assert set(outcome.sent_vectors) == {(tail, head) for tail, head, _ in graph.edges()}
        for edge, sent in outcome.sent_vectors.items():
            assert outcome.expected_vectors[edge] == sent


class TestVerification:
    def test_check_matrix_shape(self):
        graph = figure1a()
        scheme = generate_coding_scheme(graph, 2, 16, seed=2)
        matrix = build_check_matrix(graph, [1, 2, 3, 4], scheme)
        assert matrix.rows == (4 - 1) * 2
        assert matrix.cols == sum(capacity for _, _, capacity in graph.edges())

    def test_check_matrix_requires_two_nodes(self):
        graph = figure1a()
        scheme = generate_coding_scheme(graph, 2, 8)
        with pytest.raises(ProtocolError):
            build_check_matrix(graph, [1], scheme)

    def test_check_matrix_requires_edges(self):
        graph = figure1a()
        scheme = generate_coding_scheme(graph, 1, 8)
        with pytest.raises(ProtocolError):
            build_check_matrix(graph, [2, 4], scheme)  # no links between 2 and 4

    def test_random_scheme_is_correct_with_large_symbols(self):
        graph = figure1b()
        subgraphs, uk, rho = omega_and_parameters(graph, 4, 1, [node_pair(2, 3)])
        scheme = generate_coding_scheme(graph, rho, symbol_bits=32, seed=11)
        results = verify_coding_scheme(graph, subgraphs, scheme)
        assert all(results.values())
        assert scheme_is_correct(graph, subgraphs, scheme)

    def test_correct_scheme_catches_any_difference(self):
        """If the scheme verifies, differing values at fault-free nodes are always caught."""
        graph = figure1b()
        subgraphs, _, rho = omega_and_parameters(graph, 4, 1, [node_pair(2, 3)])
        scheme = generate_coding_scheme(graph, rho, symbol_bits=32, seed=11)
        assert scheme_is_correct(graph, subgraphs, scheme)
        rng = random.Random(4)
        for _ in range(20):
            values = {node: rng.getrandbits(32) for node in graph.nodes()}
            if len(set(values.values())) == 1:
                continue
            network = SynchronousNetwork(graph)
            outcome = run_equality_check(network, graph, values, 32, scheme)
            assert outcome.mismatch_detected()

    def test_all_zero_scheme_is_incorrect(self):
        graph = figure1a()
        field_scheme = generate_coding_scheme(graph, 2, 8, seed=0)
        from repro.gf.matrix import GFMatrix

        zero_matrices = {
            (tail, head): GFMatrix.zeros(field_scheme.field, 2, capacity)
            for tail, head, capacity in graph.edges()
        }
        zero_scheme = CodingScheme(
            field=field_scheme.field,
            rho=2,
            symbol_bits=8,
            matrices=zero_matrices,
            seed=0,
        )
        assert not subgraph_is_constrained(graph, [1, 2, 3, 4], zero_scheme)

    def test_theorem1_bound_values(self):
        bound = theorem1_failure_bound(4, 1, rho=1, symbol_bits=10)
        assert bound == Fraction(4 * 2 * 1, 2**10)
        assert theorem1_failure_bound(4, 1, 1, 1) == 1  # clamped

    def test_theorem1_bound_validation(self):
        with pytest.raises(ProtocolError):
            theorem1_failure_bound(0, 1, 1, 8)
        with pytest.raises(ProtocolError):
            theorem1_failure_bound(4, 1, 0, 8)

    def test_small_symbols_sometimes_incorrect_but_within_bound(self):
        """With 1-bit symbols random schemes fail noticeably often; bound must hold."""
        graph = figure1b()
        subgraphs, _, rho = omega_and_parameters(graph, 4, 1, [node_pair(2, 3)])
        failures = 0
        trials = 60
        for seed in range(trials):
            scheme = generate_coding_scheme(graph, rho, symbol_bits=1, seed=seed)
            if not scheme_is_correct(graph, subgraphs, scheme):
                failures += 1
        assert failures > 0  # 1-bit symbols are genuinely risky
        # and correctness failures become rare with 16-bit symbols
        failures_16 = sum(
            0 if scheme_is_correct(
                graph, subgraphs, generate_coding_scheme(graph, rho, 16, seed=seed)
            ) else 1
            for seed in range(20)
        )
        assert failures_16 == 0


class TestEqualityCheckProperties:
    @given(st.integers(min_value=0, max_value=2**16 - 1), st.integers(min_value=0, max_value=5))
    @settings(max_examples=30, deadline=None)
    def test_equal_values_never_flag(self, value, seed):
        graph = figure1a()
        network = SynchronousNetwork(graph)
        scheme = generate_coding_scheme(graph, 2, 8, seed=seed)
        values = {node: value for node in graph.nodes()}
        outcome = run_equality_check(network, graph, values, 16, scheme)
        assert not outcome.mismatch_detected()

    @given(st.data())
    @settings(max_examples=30, deadline=None)
    def test_verified_scheme_detects_differences(self, data):
        graph = figure1b()
        subgraphs, _, rho = omega_and_parameters(graph, 4, 1, [node_pair(2, 3)])
        scheme = generate_coding_scheme(graph, rho, 24, seed=5)
        assert scheme_is_correct(graph, subgraphs, scheme)
        values = {
            node: data.draw(st.integers(min_value=0, max_value=2**24 - 1))
            for node in graph.nodes()
        }
        network = SynchronousNetwork(graph)
        outcome = run_equality_check(network, graph, values, 24, scheme)
        if len(set(values.values())) > 1:
            assert outcome.mismatch_detected()
        else:
            assert not outcome.mismatch_detected()
