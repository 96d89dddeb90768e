"""Tests for the individual NAB phases (1, 2 and 3)."""

from __future__ import annotations

from fractions import Fraction

import pytest

from repro.adversary.strategies import (
    DisputeLiarStrategy,
    EqualityGarbageStrategy,
    EquivocatingSourceStrategy,
    FalseFlagStrategy,
    Phase1CorruptingRelayStrategy,
)
from repro.coding.coding_matrix import generate_coding_scheme
from repro.core.dispute_state import DisputeState
from repro.core.parameters import compute_instance_parameters
from repro.core.phase1_broadcast import expected_forward_symbols, run_phase1
from repro.core.phase2_equality import run_phase2
from repro.core.phase3_dispute import claims_bit_size, honest_claims, run_phase3
from repro.exceptions import ProtocolError
from repro.gf.symbols import symbol_size_for
from repro.graph.flow_cache import graph_signature
from repro.graph.generators import complete_graph, figure1a
from repro.graph.mincut import broadcast_mincut
from repro.transport.faults import FaultModel
from repro.transport.network import SynchronousNetwork

L_BITS = 32
INPUT = 0xDEADBEEF


def _phase1_setup(graph, faulty=(), strategy=None):
    network = SynchronousNetwork(graph, FaultModel(faulty, strategy))
    gamma = broadcast_mincut(graph, 1)
    return network, gamma


class TestParameters:
    def test_figure1b_parameters_match_paper(self):
        """Figure 1(b) with the 2-3 dispute: gamma = 2, U_k = 2, rho_k = 1."""
        from repro.graph.generators import figure1b

        state = DisputeState(1)
        state.add_dispute(2, 3)
        graph = state.instance_graph(figure1a())
        assert graph_signature(graph) == graph_signature(figure1b())
        params = compute_instance_parameters(graph, 1, 4, 1, state)
        assert params.gamma == 2
        assert params.uk == 2
        assert params.rho == 1
        assert sorted(params.omega) == [(1, 2, 4), (1, 3, 4)]

    def test_complete_graph_parameters(self):
        graph = complete_graph(4, capacity=2)
        params = compute_instance_parameters(graph, 1, 4, 1, DisputeState(1))
        assert params.gamma == 6
        assert params.uk == 8
        assert params.rho == 4
        assert len(params.omega) == 4

    def test_source_missing_raises(self):
        graph = figure1a().remove_nodes([1])
        with pytest.raises(ProtocolError):
            compute_instance_parameters(graph, 1, 4, 1, DisputeState(1))


class TestPhase1:
    def test_honest_broadcast_delivers_input_everywhere(self):
        graph = figure1a()
        network, gamma = _phase1_setup(graph)
        transcript = run_phase1(network, graph, 1, INPUT, L_BITS, gamma)
        assert all(value == INPUT for value in transcript.values.values())

    def test_elapsed_time_is_L_over_gamma(self):
        graph = complete_graph(4, capacity=1)
        network, gamma = _phase1_setup(graph)
        run_phase1(network, graph, 1, 0xAB, 8, gamma, phase="p1")
        # gamma = 3 on K4 with unit capacities; ceil(8/3) = 3 bits per symbol.
        assert network.accountant.phase_elapsed("p1") == Fraction(symbol_size_for(8, gamma))

    def test_input_out_of_range_rejected(self):
        graph = figure1a()
        network, gamma = _phase1_setup(graph)
        with pytest.raises(ProtocolError):
            run_phase1(network, graph, 1, 1 << L_BITS, L_BITS, gamma)

    def test_bad_gamma_rejected(self):
        graph = figure1a()
        network, _ = _phase1_setup(graph)
        with pytest.raises(ProtocolError):
            run_phase1(network, graph, 1, INPUT, L_BITS, 0)

    def test_wrong_tree_count_rejected(self):
        graph = figure1a()
        network, gamma = _phase1_setup(graph)
        from repro.graph.spanning_trees import pack_arborescences

        trees = pack_arborescences(graph, 1, 1)
        with pytest.raises(ProtocolError):
            run_phase1(network, graph, 1, INPUT, L_BITS, 2, trees=trees)

    def test_corrupting_relay_pollutes_descendants_only(self):
        graph = figure1a()
        network, gamma = _phase1_setup(
            graph, faulty=[3], strategy=Phase1CorruptingRelayStrategy()
        )
        transcript = run_phase1(network, graph, 1, INPUT, L_BITS, gamma)
        assert transcript.values[1] == INPUT
        assert transcript.values[2] == INPUT  # node 2 is not downstream of 3 in any tree
        # At least one node downstream of node 3 got a corrupted value.
        corrupted = [node for node, value in transcript.values.items() if value != INPUT]
        assert corrupted  # node 4 receives (3,4) traffic in some packing

    def test_equivocating_source_creates_disagreement(self):
        # A star topology forces a single tree with three direct children of
        # the source, so per-child equivocation really does create divergence.
        from repro.graph.network_graph import NetworkGraph

        graph = NetworkGraph.from_edges({(1, 2): 1, (1, 3): 1, (1, 4): 1})
        network, gamma = _phase1_setup(
            graph, faulty=[1], strategy=EquivocatingSourceStrategy()
        )
        transcript = run_phase1(network, graph, 1, INPUT, L_BITS, gamma)
        received = {transcript.values[node] for node in (2, 3, 4)}
        assert len(received) > 1

    def test_transcript_records_sent_and_received(self):
        graph = figure1a()
        network, gamma = _phase1_setup(graph)
        transcript = run_phase1(network, graph, 1, INPUT, L_BITS, gamma)
        assert transcript.sent_symbols
        for (tree_index, child), symbol in transcript.received_symbols.items():
            parent = transcript.trees[tree_index].parents[child]
            assert transcript.sent_symbols[(tree_index, parent, child)] == symbol

    def test_expected_forward_symbols_for_honest_relay(self):
        graph = figure1a()
        network, gamma = _phase1_setup(graph)
        transcript = run_phase1(network, graph, 1, INPUT, L_BITS, gamma)
        for node in (2, 3, 4):
            for (tree_index, tail, child), symbol in expected_forward_symbols(
                transcript, node
            ).items():
                assert transcript.sent_symbols[(tree_index, tail, child)] == symbol


def _phase2_setup(graph, values, faulty=(), strategy=None, rho=None):
    network = SynchronousNetwork(graph, FaultModel(faulty, strategy))
    state = DisputeState(1)
    params = compute_instance_parameters(graph, 1, graph.node_count(), 1, state)
    rho = rho if rho is not None else params.rho
    scheme = generate_coding_scheme(graph, rho, symbol_size_for(L_BITS, rho), seed=3)
    return network, scheme, params


class TestPhase2:
    def test_no_mismatch_when_all_equal_and_honest(self):
        graph = complete_graph(4, capacity=2)
        values = {node: INPUT for node in graph.nodes()}
        network, scheme, params = _phase2_setup(graph, values)
        result = run_phase2(
            network, graph, values, L_BITS, scheme, graph.nodes(), 1, 1
        )
        assert not result.mismatch_announced
        assert all(flag is False for flag in result.announced_flags.values())

    def test_disagreement_is_announced(self):
        graph = complete_graph(4, capacity=2)
        values = {node: INPUT for node in graph.nodes()}
        values[3] = INPUT ^ 1
        network, scheme, params = _phase2_setup(graph, values)
        result = run_phase2(
            network, graph, values, L_BITS, scheme, graph.nodes(), 1, 1
        )
        assert result.mismatch_announced

    def test_false_flag_strategy_forces_phase3(self):
        graph = complete_graph(4, capacity=2)
        values = {node: INPUT for node in graph.nodes()}
        network, scheme, params = _phase2_setup(
            graph, values, faulty=[2], strategy=FalseFlagStrategy()
        )
        result = run_phase2(
            network, graph, values, L_BITS, scheme, graph.nodes(), 1, 1
        )
        assert result.mismatch_announced
        assert result.announced_flags[2] is True

    def test_garbage_coded_symbols_detected_by_neighbor(self):
        graph = complete_graph(4, capacity=2)
        values = {node: INPUT for node in graph.nodes()}
        network, scheme, params = _phase2_setup(
            graph, values, faulty=[2], strategy=EqualityGarbageStrategy()
        )
        result = run_phase2(
            network, graph, values, L_BITS, scheme, graph.nodes(), 1, 1
        )
        assert result.mismatch_announced
        # Some fault-free node (not node 2) must have raised the flag.
        assert any(result.announced_flags[node] for node in (1, 3, 4))

    def test_flag_agreement_across_fault_free_nodes(self):
        graph = complete_graph(4, capacity=2)
        values = {node: INPUT for node in graph.nodes()}
        network, scheme, params = _phase2_setup(
            graph, values, faulty=[4], strategy=FalseFlagStrategy()
        )
        result = run_phase2(
            network, graph, values, L_BITS, scheme, graph.nodes(), 1, 1
        )
        assert set(result.announced_flags) == {1, 2, 3, 4}


class TestPhase3:
    def _run_instance_through_phase3(self, graph, faulty, strategy):
        fault_model = FaultModel(faulty, strategy)
        network = SynchronousNetwork(graph, fault_model)
        state = DisputeState(1)
        params = compute_instance_parameters(graph, 1, graph.node_count(), 1, state)
        scheme = generate_coding_scheme(
            graph, params.rho, symbol_size_for(L_BITS, params.rho), seed=5
        )
        phase1 = run_phase1(network, graph, 1, INPUT, L_BITS, params.gamma)
        phase2 = run_phase2(
            network, graph, phase1.values, L_BITS, scheme, graph.nodes(), 1, 1
        )
        assert phase2.mismatch_announced
        result = run_phase3(
            network,
            graph,
            1,
            INPUT,
            L_BITS,
            phase1,
            phase2.check,
            phase2.announced_flags,
            scheme,
            graph.nodes(),
            1,
            1,
        )
        return result, fault_model

    def test_output_is_source_input_when_source_honest(self):
        graph = complete_graph(4, capacity=2)
        result, _ = self._run_instance_through_phase3(
            graph, [3], Phase1CorruptingRelayStrategy()
        )
        assert result.output_bits == INPUT

    def test_corrupting_relay_is_caught(self):
        graph = complete_graph(4, capacity=2)
        result, fault_model = self._run_instance_through_phase3(
            graph, [3], Phase1CorruptingRelayStrategy()
        )
        involved = set(result.identified_faulty)
        for pair in result.new_disputes:
            involved |= set(pair)
        assert 3 in involved
        # Fault-free nodes never end up accused together.
        for pair in result.new_disputes:
            assert any(fault_model.is_faulty(node) for node in pair)
        for node in result.identified_faulty:
            assert fault_model.is_faulty(node)

    def test_false_flag_node_identified_faulty(self):
        graph = complete_graph(4, capacity=2)
        result, _ = self._run_instance_through_phase3(graph, [2], FalseFlagStrategy())
        assert 2 in result.identified_faulty
        assert result.output_bits == INPUT

    def test_dispute_liar_creates_dispute_with_faulty_node(self):
        graph = complete_graph(4, capacity=2)
        result, fault_model = self._run_instance_through_phase3(
            graph, [3], DisputeLiarStrategy()
        )
        evidence = set(result.identified_faulty)
        for pair in result.new_disputes:
            evidence |= set(pair)
        assert 3 in evidence
        for pair in result.new_disputes:
            assert any(fault_model.is_faulty(node) for node in pair)

    def test_equivocating_source_output_still_agreed(self):
        graph = complete_graph(4, capacity=2)
        result, _ = self._run_instance_through_phase3(
            graph, [1], EquivocatingSourceStrategy()
        )
        # The adversarial source's broadcast input is adopted by everyone;
        # whatever it is, it is a single agreed value.
        assert isinstance(result.output_bits, int)

    def test_honest_claims_structure_and_size(self):
        graph = complete_graph(4, capacity=2)
        network = SynchronousNetwork(graph)
        state = DisputeState(1)
        params = compute_instance_parameters(graph, 1, 4, 1, state)
        scheme = generate_coding_scheme(
            graph, params.rho, symbol_size_for(L_BITS, params.rho), seed=1
        )
        phase1 = run_phase1(network, graph, 1, INPUT, L_BITS, params.gamma)
        phase2 = run_phase2(
            network, graph, phase1.values, L_BITS, scheme, graph.nodes(), 1, 1
        )
        claims = honest_claims(1, 1, INPUT, phase1, phase2.check, graph)
        assert claims["input"] == INPUT
        assert claims["phase1_sent"]
        assert claims_bit_size(claims, phase1.symbol_bits, scheme) > 0
