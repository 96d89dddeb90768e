"""End-to-end tests for the multi-instance NAB runner (agreement, validity, amortisation)."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.adversary.strategies import (
    CrashStrategy,
    DisputeLiarStrategy,
    EqualityGarbageStrategy,
    EquivocatingSourceStrategy,
    FalseFlagStrategy,
    Phase1CorruptingRelayStrategy,
    RandomizedChaosStrategy,
)
from repro.core.nab import NetworkAwareBroadcast
from repro.exceptions import ProtocolError
from repro.graph.flow_cache import graph_signature
from repro.graph.generators import complete_graph, heterogeneous_bottleneck, random_connected_network
from repro.transport.faults import ByzantineStrategy, FaultModel


def _values(count, length=4, seed=0):
    rng = random.Random(seed)
    return [bytes(rng.randrange(256) for _ in range(length)) for _ in range(count)]


class TestConstruction:
    def test_rejects_missing_source(self):
        with pytest.raises(ProtocolError):
            NetworkAwareBroadcast(complete_graph(4), 99, 1)

    def test_rejects_insufficient_nodes(self):
        with pytest.raises(ProtocolError):
            NetworkAwareBroadcast(complete_graph(3), 1, 1)

    def test_rejects_negative_faults(self):
        with pytest.raises(ProtocolError):
            NetworkAwareBroadcast(complete_graph(4), 1, -1)

    def test_rejects_low_connectivity(self):
        from repro.graph.network_graph import NetworkGraph

        graph = NetworkGraph.from_edges(
            {(1, 2): 1, (2, 1): 1, (2, 3): 1, (3, 2): 1, (3, 4): 1, (4, 3): 1, (4, 1): 1, (1, 4): 1}
        )
        with pytest.raises(ProtocolError):
            NetworkAwareBroadcast(graph, 1, 1)

    def test_rejects_too_many_actual_faults(self):
        with pytest.raises(ProtocolError):
            NetworkAwareBroadcast(
                complete_graph(4), 1, 1, fault_model=FaultModel([2, 3])
            )

    def test_rejects_empty_values(self):
        nab = NetworkAwareBroadcast(complete_graph(4), 1, 1)
        with pytest.raises(ProtocolError):
            nab.run([])
        with pytest.raises(ProtocolError):
            nab.run_instance(b"")


class TestFaultFreeRuns:
    def test_single_instance_validity(self):
        nab = NetworkAwareBroadcast(complete_graph(4, capacity=2), 1, 1)
        result = nab.run_instance(b"\x12\x34\x56\x78")
        assert result.agreed_value() == 0x12345678
        assert not result.dispute_control_ran
        assert result.elapsed > 0

    def test_multiple_instances_throughput_reported(self):
        nab = NetworkAwareBroadcast(complete_graph(4, capacity=2), 1, 1)
        record = nab.run(_values(5))
        assert record.throughput is not None and record.throughput > 0
        assert record.dispute_control_executions == 0
        assert record.instances == len(record.outputs) == 5
        assert nab.instances_run == 5

    def test_outputs_match_inputs_per_instance(self):
        values = _values(4, seed=3)
        nab = NetworkAwareBroadcast(complete_graph(5, capacity=3), 1, 1)
        for value in values:
            assert nab.run_instance(value).agreed_value() == int.from_bytes(value, "big")

    def test_instance_graph_unchanged_without_faults(self):
        nab = NetworkAwareBroadcast(complete_graph(4), 1, 1)
        nab.run(_values(3))
        assert graph_signature(nab.current_instance_graph()) == graph_signature(nab.graph)


ATTACKS = [
    ("phase1-relay", Phase1CorruptingRelayStrategy()),
    ("equality-garbage", EqualityGarbageStrategy()),
    ("false-flag", FalseFlagStrategy()),
    ("dispute-liar", DisputeLiarStrategy()),
    ("crash", CrashStrategy()),
    ("chaos", RandomizedChaosStrategy(seed=7)),
]


class TestAdversarialRuns:
    @pytest.mark.parametrize("name,strategy", ATTACKS, ids=[name for name, _ in ATTACKS])
    def test_agreement_and_validity_with_faulty_relay(self, name, strategy):
        graph = complete_graph(4, capacity=2)
        fault_model = FaultModel([3], strategy)
        nab = NetworkAwareBroadcast(graph, 1, 1, fault_model=fault_model)
        for value in _values(4, seed=11):
            # Source (node 1) is fault-free: validity must hold every instance.
            assert nab.run_instance(value).agreed_value() == int.from_bytes(value, "big")

    @pytest.mark.parametrize("name,strategy", ATTACKS, ids=[name for name, _ in ATTACKS])
    def test_agreement_with_faulty_source(self, name, strategy):
        graph = complete_graph(4, capacity=2)
        fault_model = FaultModel([1], strategy)
        nab = NetworkAwareBroadcast(graph, 1, 1, fault_model=fault_model)
        for value in _values(3, seed=13):
            result = nab.run_instance(value)
            # Agreement: all fault-free nodes output the same value.
            result.agreed_value()

    def test_equivocating_source_agreement(self):
        graph = complete_graph(4, capacity=2)
        nab = NetworkAwareBroadcast(
            graph, 1, 1, fault_model=FaultModel([1], EquivocatingSourceStrategy())
        )
        for value in _values(3, seed=17):
            result = nab.run_instance(value)
            result.agreed_value()

    def test_disputes_only_involve_faulty_nodes(self):
        graph = complete_graph(4, capacity=2)
        fault_model = FaultModel([2], DisputeLiarStrategy())
        nab = NetworkAwareBroadcast(graph, 1, 1, fault_model=fault_model)
        nab.run(_values(5, seed=19))
        for pair in nab.dispute_state.disputes():
            assert 2 in pair
        for node in nab.dispute_state.implied_faulty(graph.nodes()):
            assert node == 2

    def test_dispute_control_budget_respected(self):
        """Phase 3 runs at most f(f+1) times across many instances (paper Section 2)."""
        graph = complete_graph(4, capacity=2)
        fault_model = FaultModel([3], EqualityGarbageStrategy())
        nab = NetworkAwareBroadcast(graph, 1, 1, fault_model=fault_model)
        record = nab.run(_values(10, seed=23))
        assert record.dispute_control_executions <= 1 * (1 + 1)

    def test_misbehaving_node_eventually_neutralised(self):
        """After enough evidence the faulty node is cut out and later instances are clean."""
        graph = complete_graph(4, capacity=2)
        fault_model = FaultModel([3], EqualityGarbageStrategy())
        nab = NetworkAwareBroadcast(graph, 1, 1, fault_model=fault_model)
        values = _values(12, seed=29)
        results = [nab.run_instance(value) for value in values]
        later = results[-3:]
        assert all(not result.dispute_control_ran for result in later)
        for result, value in zip(results, values):
            assert result.agreed_value() == int.from_bytes(value, "big")

    def test_crashed_source_leads_to_default_or_agreed_output(self):
        graph = complete_graph(4, capacity=2)
        nab = NetworkAwareBroadcast(graph, 1, 1, fault_model=FaultModel([1], CrashStrategy()))
        for value in _values(4, seed=31):
            result = nab.run_instance(value)
            result.agreed_value()

    def test_two_faults_on_larger_network(self):
        graph = complete_graph(7, capacity=2)
        fault_model = FaultModel([3, 6], EqualityGarbageStrategy())
        nab = NetworkAwareBroadcast(graph, 1, 2, fault_model=fault_model)
        values = _values(3, length=2, seed=37)
        results = [nab.run_instance(value) for value in values]
        for value, result in zip(values, results):
            assert result.agreed_value() == int.from_bytes(value, "big")
        assert sum(result.dispute_control_ran for result in results) <= 2 * 3

    def test_random_topology_with_random_adversary(self):
        rng = random.Random(5)
        graph = random_connected_network(6, 3, rng, max_capacity=3)
        fault_model = FaultModel([4], RandomizedChaosStrategy(seed=2))
        nab = NetworkAwareBroadcast(graph, 1, 1, fault_model=fault_model)
        for value in _values(4, length=2, seed=41):
            assert nab.run_instance(value).agreed_value() == int.from_bytes(value, "big")


class TestThroughputBehaviour:
    def test_faster_links_reduce_elapsed_time(self):
        """NAB's per-instance time scales down with link capacity (gamma and rho scale up)."""
        slow = complete_graph(4, capacity=1)
        fast = complete_graph(4, capacity=4)
        values = _values(3, length=8, seed=43)
        slow_run = NetworkAwareBroadcast(slow, 1, 1).run(values)
        fast_run = NetworkAwareBroadcast(fast, 1, 1).run(values)
        assert fast_run.elapsed < slow_run.elapsed

    def test_heterogeneous_network_no_worse_than_uniform_slow(self):
        """Extra capacity on non-bottleneck links never hurts NAB."""
        slow = heterogeneous_bottleneck(4, fast_capacity=1, slow_capacity=1)
        fast = heterogeneous_bottleneck(4, fast_capacity=8, slow_capacity=1)
        values = _values(2, length=8, seed=47)
        slow_run = NetworkAwareBroadcast(slow, 1, 1).run(values)
        fast_run = NetworkAwareBroadcast(fast, 1, 1).run(values)
        assert fast_run.elapsed <= slow_run.elapsed

    def test_larger_inputs_increase_elapsed_linearly_ish(self):
        graph = complete_graph(4, capacity=2)
        small = NetworkAwareBroadcast(graph, 1, 1).run_instance(b"\xaa" * 4)
        large = NetworkAwareBroadcast(graph, 1, 1).run_instance(b"\xaa" * 16)
        assert large.elapsed > small.elapsed


class TestPropertyBasedInvariants:
    @given(
        st.sampled_from([2, 3, 4]),
        st.binary(min_size=2, max_size=6),
        st.integers(min_value=0, max_value=10),
    )
    @settings(max_examples=15, deadline=None)
    def test_agreement_validity_under_chaos(self, faulty_node, value, seed):
        graph = complete_graph(4, capacity=2)
        fault_model = FaultModel([faulty_node], RandomizedChaosStrategy(seed=seed))
        nab = NetworkAwareBroadcast(graph, 1, 1, fault_model=fault_model)
        result = nab.run_instance(value)
        assert result.agreed_value() == int.from_bytes(value, "big")

    @given(st.binary(min_size=1, max_size=8))
    @settings(max_examples=15, deadline=None)
    def test_fault_free_runs_always_valid(self, value):
        nab = NetworkAwareBroadcast(complete_graph(4, capacity=3), 1, 1)
        result = nab.run_instance(value)
        assert result.agreed_value() == int.from_bytes(value, "big")
        assert not result.mismatch_announced
