"""Tests for the classical Byzantine-broadcast substrate (relay, EIG, baseline)."""

from __future__ import annotations

from collections import Counter

import pytest

from repro.classical.broadcast_default import BroadcastDefault
from repro.classical.eig import EIGBroadcast, broadcast_bit_cost
from repro.classical.flooding import (
    classical_chunked_broadcast,
    classical_full_value_broadcast,
)
from repro.classical.relay import DisjointPathRelay, majority_value
from repro.exceptions import ProtocolError
from repro.graph.generators import complete_graph, heterogeneous_bottleneck, ring_with_chords
from repro.core.nab import NetworkAwareBroadcast
from repro.transport.faults import ByzantineStrategy, FaultModel
from repro.transport.network import SynchronousNetwork
from repro.workloads.scenarios import make_strategy, named_strategies, strategy_attacks_source
from repro.workloads.topologies import topology


class CorruptingRelayStrategy(ByzantineStrategy):
    """Faulty intermediate nodes flip every value they relay."""

    name = "corrupting-relay"

    def relay_value(self, instance, node, path, receiver, true_value):
        return ("corrupted", node)


class EquivocatingBroadcastStrategy(ByzantineStrategy):
    """A faulty broadcaster tells even-numbered receivers one thing and odd another."""

    name = "equivocating-broadcast"

    def broadcast_value(self, instance, node, receiver, context, true_value):
        return "even" if receiver % 2 == 0 else "odd"


class LyingRelayerStrategy(ByzantineStrategy):
    """A faulty EIG relayer reports a fixed bogus value in every relay round."""

    name = "lying-relayer"

    def broadcast_value(self, instance, node, receiver, context, true_value):
        return "bogus"


class RecordingStrategy(ByzantineStrategy):
    """Delegates every hook to ``inner`` and logs ``(hook, args, result)``."""

    HOOKS = (
        "phase1_source_symbol",
        "phase1_forward_symbol",
        "equality_check_vector",
        "equality_check_flag",
        "broadcast_value",
        "relay_value",
        "dispute_claims",
        "observe_faulty_nodes",
        "observe_instance",
    )

    def __init__(self, inner):
        self.inner = inner
        self.name = inner.name
        self.calls = []

    def value_hook_calls(self):
        """The calls the relay and EIG batching reorders."""
        return [call for call in self.calls if call[0] in ("broadcast_value", "relay_value")]


def _recording(hook):
    def method(self, *args):
        result = getattr(self.inner, hook)(*args)
        self.calls.append((hook, args, result))
        return result

    return method


for _hook in RecordingStrategy.HOOKS:
    setattr(RecordingStrategy, _hook, _recording(_hook))


def _ledger(network):
    """Per-phase, per-link bit totals of everything sent so far."""
    accountant = network.accountant
    return {phase: accountant.link_bits(phase) for phase in accountant.phase_names()}


class TestMajorityValue:
    def test_empty_returns_default(self):
        assert majority_value([]) is None

    def test_strict_majority(self):
        assert majority_value([1, 1, 2]) == 1

    def test_no_strict_majority_returns_default(self):
        assert majority_value([1, 2]) is None

    def test_unhashable_payloads(self):
        assert majority_value([[1, 2], [1, 2], [3]]) == [1, 2]

    def test_identical_objects_skip_the_keying(self):
        claims = {"phase1_sent": {(0, 2): 5}}
        assert majority_value([claims] * 5) is claims
        assert majority_value([None, None, None]) is None

    def test_equal_int_and_bool_are_different_values(self):
        # 1 == True, but they are not the same object and their reprs differ.
        winner = majority_value([1, True, 1])
        assert winner == 1 and type(winner) is int
        assert majority_value([1, True]) is None

    def test_equal_dicts_in_different_order_are_keyed_by_repr(self):
        forward = {"x": 1, "y": 2}
        backward = {"y": 2, "x": 1}
        assert forward == backward
        assert majority_value([forward, backward]) is None
        assert majority_value([forward, backward, forward]) is forward

    def test_distinct_unhashable_values_have_no_majority(self):
        assert majority_value([{"x": 1}, {"x": 2}]) is None


class TestDisjointPathRelay:
    def test_paths_are_cached_and_disjoint(self):
        network = SynchronousNetwork(complete_graph(4))
        relay = DisjointPathRelay(network, max_faults=1)
        paths_first = relay.paths_between(1, 3)
        paths_second = relay.paths_between(1, 3)
        assert paths_first is paths_second
        assert len(paths_first) == 3

    def test_insufficient_connectivity_raises(self):
        graph = ring_with_chords(5, chord_span=0)  # plain ring, connectivity 2
        network = SynchronousNetwork(graph)
        relay = DisjointPathRelay(network, max_faults=1)
        with pytest.raises(ProtocolError):
            relay.paths_between(1, 3)

    def test_negative_faults_rejected(self):
        network = SynchronousNetwork(complete_graph(4))
        with pytest.raises(ProtocolError):
            DisjointPathRelay(network, max_faults=-1)

    def test_reliable_send_without_faults(self):
        network = SynchronousNetwork(complete_graph(4))
        relay = DisjointPathRelay(network, max_faults=1)
        assert relay.reliable_send(1, 3, "payload", 8, "p") == "payload"

    def test_reliable_send_to_self_is_identity(self):
        network = SynchronousNetwork(complete_graph(4))
        relay = DisjointPathRelay(network, max_faults=1)
        assert relay.reliable_send(2, 2, "x", 8, "p") == "x"
        assert network.total_bits() == 0

    def test_reliable_send_survives_corrupting_intermediate(self):
        fault_model = FaultModel([2], CorruptingRelayStrategy())
        network = SynchronousNetwork(complete_graph(4), fault_model)
        relay = DisjointPathRelay(network, max_faults=1)
        assert relay.reliable_send(1, 3, "payload", 8, "p") == "payload"

    def test_reliable_send_charges_bits(self):
        network = SynchronousNetwork(complete_graph(4))
        relay = DisjointPathRelay(network, max_faults=1)
        relay.reliable_send(1, 3, "payload", 10, "p")
        # 3 disjoint paths: one direct (1 hop) and two 2-hop paths -> 5 hops total.
        assert network.total_bits() == 5 * 10


#: (topology, f, faulty placement).  ``ring7-chords`` has connectivity 4, so
#: only f = 1 (three disjoint paths) is feasible on it.
RELAY_PLACEMENTS = [
    ("k7-unit", 1, (3,)),
    ("k7-unit", 1, (1,)),
    ("k7-unit", 2, (3, 5)),
    ("k7-unit", 2, (2, 7)),
    ("k7-unit", 2, (1, 4)),
    ("ring7-chords", 1, (2,)),
    ("ring7-chords", 1, (5,)),
]
RELAY_VALUES = [0, True, "flag", {"sent": {(0, 2): 9}}, None, (1, 2, 3)]
RELAY_SIZES = [1, 1, 8, 40, 1, 3]


class TestBatchedRelayMatchesPerValueOracle:
    """``reliable_send_vector`` against a loop of the frozen ``reliable_send``."""

    def _run(self, topology_name, max_faults, faulty, strategy_name, batched):
        recorder = RecordingStrategy(make_strategy(strategy_name, seed=5))
        network = SynchronousNetwork(topology(topology_name), FaultModel(faulty, recorder))
        relay = DisjointPathRelay(network, max_faults, instance=3)
        delivered = {}
        for sender in network.nodes():
            for receiver in network.nodes():
                phase = f"round{sender % 2}"
                if batched:
                    delivered[sender, receiver] = relay.reliable_send_vector(
                        sender, receiver, RELAY_VALUES, RELAY_SIZES, phase
                    )
                else:
                    delivered[sender, receiver] = [
                        relay.reliable_send(sender, receiver, value, size, phase)
                        for value, size in zip(RELAY_VALUES, RELAY_SIZES)
                    ]
        hooks = Counter(repr(call) for call in recorder.calls)
        return delivered, _ledger(network), hooks, len(network.delivered_messages())

    @pytest.mark.parametrize("topology_name, max_faults, faulty", RELAY_PLACEMENTS)
    @pytest.mark.parametrize("strategy_name", named_strategies())
    def test_equal_values_bits_and_hook_calls(
        self, strategy_name, topology_name, max_faults, faulty
    ):
        batched = self._run(topology_name, max_faults, faulty, strategy_name, True)
        oracle = self._run(topology_name, max_faults, faulty, strategy_name, False)
        # repr, because [1] == [True].
        assert repr(batched[0]) == repr(oracle[0])
        assert batched[1] == oracle[1]
        assert batched[2] == oracle[2]
        assert batched[3] * len(RELAY_VALUES) == oracle[3]

    def test_one_size_for_all_values(self):
        network = SynchronousNetwork(complete_graph(4))
        relay = DisjointPathRelay(network, max_faults=1)
        assert relay.reliable_send_vector(1, 3, ["a", "b"], 10, "p") == ["a", "b"]
        # 5 hops (one direct path, two 2-hop paths), one message each.
        assert network.total_bits() == 5 * 2 * 10
        assert len(network.delivered_messages()) == 5

    def test_to_self_is_identity(self):
        network = SynchronousNetwork(complete_graph(4))
        relay = DisjointPathRelay(network, max_faults=1)
        assert relay.reliable_send_vector(2, 2, ["x", "y"], [8, 9], "p") == ["x", "y"]
        assert network.total_bits() == 0

    @pytest.mark.parametrize(
        "values, sizes",
        [([], 8), ([], []), (["a"], 0), (["a", "b"], [8, -1]), (["a"], True),
         (["a"], 1.5), (["a", "b"], [8]), (["a"], "8"), (["a", "b"], "88"),
         (["a", "b"], [8, "8"]), (["a"], {8: 8})],
    )
    def test_bad_vectors_are_rejected_before_anything_is_sent(self, values, sizes):
        network = SynchronousNetwork(complete_graph(4))
        relay = DisjointPathRelay(network, max_faults=1)
        with pytest.raises(ProtocolError):
            relay.reliable_send_vector(1, 3, values, sizes, "p")
        assert network.total_bits() == 0


class TestSharedRoundsMatchPerOriginBroadcasts:
    """``broadcast_from_all`` with per-origin sizes against one ``broadcast`` per origin."""

    @pytest.mark.parametrize("strategy_name", ["chaos", "sub-broadcast-liar", "relay-tamper", "crash"])
    def test_equal_decisions_bits_and_hook_calls(self, strategy_name):
        graph = topology("k7-unit")
        values = {node: {"claims": node} for node in graph.nodes()}
        sizes = {node: 10 + node for node in graph.nodes()}

        def run(shared):
            recorder = RecordingStrategy(make_strategy(strategy_name, seed=2))
            network = SynchronousNetwork(graph, FaultModel([2, 6], recorder))
            broadcaster = BroadcastDefault(network, graph.nodes(), 2, instance=1)
            if shared:
                outputs = broadcaster.broadcast_from_all(values, sizes, "dc", context="claims")
            else:
                outputs = {node: {} for node in network.fault_free_nodes()}
                for origin in graph.nodes():
                    decided = broadcaster.broadcast(
                        origin, values[origin], sizes[origin], "dc",
                        context=f"claims|origin={origin}",
                    )
                    for receiver, value in decided.items():
                        outputs[receiver][origin] = value
            return repr(outputs), _ledger(network), Counter(repr(c) for c in recorder.calls)

        assert run(True) == run(False)


#: (f, faulty placement) on ``k7-unit`` with source 1: the source faulty and not.
MANY_PLACEMENTS = [(1, (1,)), (1, (3,)), (2, (1, 4)), (2, (3, 5))]
MANY_VALUES = [b"\x00", b"ab", {"claims": 3}, None, b"", 7]
MANY_SIZES = [8, 16, 40, 1, 1, 3]


class TestSharedRoundsMatchPerValueBroadcasts:
    """``broadcast_many`` against one ``broadcast`` per value of the same source."""

    @pytest.mark.parametrize("max_faults, faulty", MANY_PLACEMENTS)
    @pytest.mark.parametrize("strategy_name", named_strategies())
    def test_equal_decisions_bits_and_hook_calls(self, strategy_name, max_faults, faulty):
        graph = topology("k7-unit")
        contexts = [f"chunked|{index}" for index in range(len(MANY_VALUES))]

        def run(shared):
            recorder = RecordingStrategy(make_strategy(strategy_name, seed=4))
            network = SynchronousNetwork(graph, FaultModel(faulty, recorder))
            broadcaster = BroadcastDefault(network, graph.nodes(), max_faults, instance=2)
            if shared:
                outputs = broadcaster.broadcast_many(
                    1, MANY_VALUES, MANY_SIZES, "bb", context="chunked", contexts=contexts
                )
            else:
                outputs = {node: [] for node in network.fault_free_nodes()}
                for value, size, context in zip(MANY_VALUES, MANY_SIZES, contexts):
                    decided = broadcaster.broadcast(1, value, size, "bb", context=context)
                    for receiver, decision in decided.items():
                        outputs[receiver].append(decision)
            hooks = Counter(repr(call) for call in recorder.value_hook_calls())
            return repr(outputs), _ledger(network), hooks, len(network.delivered_messages())

        shared, oracle = run(True), run(False)
        assert shared[:3] == oracle[:3]
        assert shared[3] * len(MANY_VALUES) == oracle[3]

    def test_default_contexts_number_the_values(self):
        graph = topology("k7-unit")

        def run(contexts):
            recorder = RecordingStrategy(make_strategy("chaos", seed=1))
            network = SynchronousNetwork(graph, FaultModel([1, 5], recorder))
            eig = BroadcastDefault(network, graph.nodes(), 2)
            outputs = eig.broadcast_many(1, ["x", "y"], [8, 9], "bb", "ctx", contexts)
            return repr(outputs), [repr(call) for call in recorder.calls]

        assert run(None) == run(["ctx|0", "ctx|1"])

    @pytest.mark.parametrize(
        "source, values, sizes, contexts",
        [(1, [], [], None), (1, ["a"], [8, 8], None), (1, ["a", "b"], [8], None),
         (1, ["a"], [8], ["c", "d"]), (9, ["a"], [8], None), (1, ["a"], [0], None),
         (1, ["a", "b"], [8, True], None)],
    )
    def test_bad_batches_are_rejected_before_anything_is_sent(
        self, source, values, sizes, contexts
    ):
        graph = topology("k7-unit")
        network = SynchronousNetwork(graph)
        broadcaster = BroadcastDefault(network, graph.nodes(), 1)
        with pytest.raises(ProtocolError):
            broadcaster.broadcast_many(source, values, sizes, "bb", contexts=contexts)
        assert network.total_bits() == 0


class TestStrategiesAreKeyedStateless:
    """The contract batching relies on: a value hook's answer depends on its
    arguments (and on state fixed before the instance's first value hook),
    never on which other value hooks ran before it."""

    @pytest.mark.parametrize("strategy_name", named_strategies())
    def test_value_hooks_replay_identically_in_reverse(self, strategy_name):
        faulty = (1, 4) if strategy_attacks_source(strategy_name) else (3, 5)
        recorder = RecordingStrategy(make_strategy(strategy_name, seed=9))
        nab = NetworkAwareBroadcast(
            topology("k7-unit"), 1, 2, fault_model=FaultModel(faulty, recorder)
        )
        nab.run_instance(bytes(range(8)))
        recorded = recorder.value_hook_calls()
        assert recorded

        fresh = make_strategy(strategy_name, seed=9)
        for hook, args, _result in recorder.calls:
            if hook.startswith("observe_"):
                getattr(fresh, hook)(*args)
        for hook, args, result in reversed(recorded):
            assert repr(getattr(fresh, hook)(*args)) == repr(result), (hook, args)


class TestEIGBroadcast:
    def _make(self, node_count, faulty=(), strategy=None, max_faults=1):
        graph = complete_graph(node_count)
        network = SynchronousNetwork(graph, FaultModel(faulty, strategy))
        relay = DisjointPathRelay(network, max_faults)
        return network, EIGBroadcast(network, network.graph.nodes(), max_faults, relay)

    def test_requires_enough_participants(self):
        network = SynchronousNetwork(complete_graph(3))
        relay = DisjointPathRelay(network, 1)
        with pytest.raises(ProtocolError):
            EIGBroadcast(network, [1, 2, 3], 1, relay)

    def test_participants_must_be_graph_nodes(self):
        network = SynchronousNetwork(complete_graph(4))
        relay = DisjointPathRelay(network, 1)
        with pytest.raises(ProtocolError):
            EIGBroadcast(network, [1, 2, 3, 99], 1, relay)

    def test_source_must_be_participant(self):
        network, eig = self._make(4)
        with pytest.raises(ProtocolError):
            eig.broadcast(99, "v", 8, "p")

    def test_all_honest_agree_on_source_value(self):
        network, eig = self._make(4)
        outputs = eig.broadcast(1, "the-value", 16, "p")
        assert set(outputs) == {1, 2, 3, 4}
        assert all(value == "the-value" for value in outputs.values())

    def test_validity_with_faulty_non_source(self):
        network, eig = self._make(4, faulty=[3], strategy=LyingRelayerStrategy())
        outputs = eig.broadcast(1, 42, 8, "p")
        assert set(outputs) == {1, 2, 4}
        assert all(value == 42 for value in outputs.values())

    def test_agreement_with_equivocating_faulty_source(self):
        network, eig = self._make(4, faulty=[1], strategy=EquivocatingBroadcastStrategy())
        outputs = eig.broadcast(1, "never-sent", 8, "p")
        assert set(outputs) == {2, 3, 4}
        assert len(set(map(repr, outputs.values()))) == 1

    def test_agreement_and_validity_with_f2(self):
        graph = complete_graph(7)
        network = SynchronousNetwork(graph, FaultModel([3, 5], LyingRelayerStrategy()))
        relay = DisjointPathRelay(network, 2)
        eig = EIGBroadcast(network, graph.nodes(), 2, relay)
        outputs = eig.broadcast(1, "v7", 8, "p")
        assert set(outputs) == {1, 2, 4, 6, 7}
        assert all(value == "v7" for value in outputs.values())

    def test_agreement_with_faulty_source_f2(self):
        graph = complete_graph(7)
        network = SynchronousNetwork(graph, FaultModel([1, 4], EquivocatingBroadcastStrategy()))
        relay = DisjointPathRelay(network, 2)
        eig = EIGBroadcast(network, graph.nodes(), 2, relay)
        outputs = eig.broadcast(1, "x", 8, "p")
        assert len(set(map(repr, outputs.values()))) == 1

    def test_bits_are_charged(self):
        network, eig = self._make(4)
        eig.broadcast(1, "v", 8, "p")
        assert network.total_bits() > 0

    def test_broadcast_bit_cost_monotone_in_n(self):
        assert broadcast_bit_cost(5, 1) > broadcast_bit_cost(4, 1)
        assert broadcast_bit_cost(7, 2) > broadcast_bit_cost(7, 1)


class TestBroadcastDefault:
    def test_broadcast_from_all_agreement(self):
        graph = complete_graph(4)
        network = SynchronousNetwork(graph, FaultModel([2], EquivocatingBroadcastStrategy()))
        broadcaster = BroadcastDefault(network, graph.nodes(), 1)
        values = {node: f"flag-{node}" for node in graph.nodes()}
        outputs = broadcaster.broadcast_from_all(values, bit_size=1, phase="flags")
        fault_free = [1, 3, 4]
        assert sorted(outputs) == fault_free
        # All fault-free receivers agree on the whole vector.
        vectors = [repr(sorted(outputs[node].items(), key=lambda kv: kv[0])) for node in fault_free]
        assert len(set(vectors)) == 1
        # Validity for fault-free origins.
        for node in fault_free:
            for origin in fault_free:
                assert outputs[node][origin] == f"flag-{origin}"

    def test_broadcast_on_incomplete_network(self):
        graph = ring_with_chords(5, chord_span=2)
        network = SynchronousNetwork(graph)
        broadcaster = BroadcastDefault(network, graph.nodes(), 1)
        outputs = broadcaster.broadcast(2, "hello", 8, "p")
        assert all(value == "hello" for value in outputs.values())


class TestClassicalFloodingBaseline:
    def test_result_structure_and_validity(self):
        graph = complete_graph(4, capacity=4)
        result = classical_full_value_broadcast(graph, 1, b"payload-bytes", 1)
        assert result.agreed_value() == b"payload-bytes"
        assert result.elapsed > 0
        assert result.bits_sent > 0
        assert result.metadata["algorithm"] == "classical_eig_flooding"

    def test_slow_link_throttles_elapsed_time(self):
        value = b"x" * 64
        fast = heterogeneous_bottleneck(4, fast_capacity=8, slow_capacity=8)
        slow = heterogeneous_bottleneck(4, fast_capacity=8, slow_capacity=1)
        fast_result = classical_full_value_broadcast(fast, 1, value, 1)
        slow_result = classical_full_value_broadcast(slow, 1, value, 1)
        assert slow_result.elapsed > fast_result.elapsed

    def test_with_faulty_node_still_agrees(self):
        graph = complete_graph(4, capacity=2)
        fault_model = FaultModel([3], LyingRelayerStrategy())
        result = classical_full_value_broadcast(graph, 1, b"abc", 1, fault_model)
        assert sorted(result.outputs) == [1, 2, 4]
        assert result.agreed_value() == b"abc"

    @pytest.mark.parametrize("payload_bytes", [8, 32])
    @pytest.mark.parametrize("max_faults, faulty", [(1, ()), (2, ()), (2, (1, 4)), (2, (3, 5))])
    def test_chunked_baseline_sends_the_messages_of_one_full_value_broadcast(
        self, payload_bytes, max_faults, faulty
    ):
        graph = topology("k7-unit")
        value = bytes(range(payload_bytes))
        networks = []

        def factory(graph, fault_model):
            networks.append(SynchronousNetwork(graph, fault_model))
            return networks[-1]

        def run(broadcast):
            fault_model = FaultModel(faulty, make_strategy("chaos", seed=3))
            return broadcast(graph, 1, value, max_faults, fault_model, network_factory=factory)

        chunked, full = run(classical_chunked_broadcast), run(classical_full_value_broadcast)
        assert chunked.metadata["chunks"] == payload_bytes
        counts = [len(network.delivered_messages()) for network in networks]
        assert counts[0] == counts[1] > 0
        # One bit ledger: the chunks' sizes add up to the full value's.
        assert chunked.link_bits == full.link_bits
        assert chunked.phase_timings == full.phase_timings
        if 1 not in faulty:
            assert chunked.agreed_value() == full.agreed_value() == value
