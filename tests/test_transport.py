"""Tests for the synchronous network transport, time accounting and fault model."""

from __future__ import annotations

import copy
import pickle
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import GraphError, ProtocolError
from repro.graph.generators import figure1a
from repro.graph.network_graph import NetworkGraph
from repro.transport.accounting import TimeAccountant
from repro.transport.faults import ByzantineStrategy, FaultModel
from repro.transport.message import Message
from repro.transport.network import SynchronousNetwork
from repro.types import PhaseTiming


@pytest.fixture()
def simple_graph():
    return NetworkGraph.from_edges({(1, 2): 2, (2, 3): 1, (1, 3): 4})


class TestMessage:
    def test_valid_message(self):
        message = Message(1, 2, "phase1", "symbol", b"abc", 24)
        assert message.bit_size == 24
        assert message.payload == b"abc"

    def test_rejects_nonpositive_bits(self):
        with pytest.raises(ProtocolError):
            Message(1, 2, "p", "k", None, 0)
        with pytest.raises(ProtocolError):
            Message(1, 2, "p", "k", None, -5)

    @pytest.mark.parametrize("bit_size", [True, False, 2.0, "8", None, Fraction(8)])
    def test_rejects_non_integer_bits(self, bit_size):
        with pytest.raises(ProtocolError):
            Message(1, 2, "p", "k", None, bit_size)

    def test_rejects_self_message(self):
        with pytest.raises(ProtocolError):
            Message(1, 1, "p", "k", None, 8)

    def test_sequence_monotone(self):
        first = Message(1, 2, "p", "k", None, 1)
        second = Message(1, 2, "p", "k", None, 1)
        assert second.sequence > first.sequence

    def test_replace_payload(self):
        message = Message(1, 2, "p", "k", "original", 8)
        tampered = message.replace_payload("evil")
        assert tampered.payload == "evil"
        assert tampered.bit_size == 8
        assert tampered.sender == 1
        changed_size = message.replace_payload("evil", bit_size=16)
        assert changed_size.bit_size == 16
        assert (changed_size.phase, changed_size.kind) == ("p", "k")
        assert message.sequence < tampered.sequence < changed_size.sequence
        assert (message.payload, message.bit_size) == ("original", 8)
        with pytest.raises(ProtocolError):
            message.replace_payload("evil", bit_size=0)

    def test_cannot_be_mutated(self):
        message = Message(1, 2, "p", "k", "original", 8)
        for name in ("sender", "receiver", "phase", "kind", "payload", "bit_size", "sequence"):
            with pytest.raises(AttributeError):
                setattr(message, name, 3)
            with pytest.raises(AttributeError):
                delattr(message, name)
        with pytest.raises(AttributeError):
            message.extra = 1
        with pytest.raises(TypeError):
            message[4] = "evil"
        assert message.payload == "original" and not hasattr(message, "__dict__")

    def test_keyword_construction_repr_and_copies(self):
        message = Message(
            sender=1, receiver=2, phase="p", kind="k", payload=[1], bit_size=8
        )
        assert repr(message) == (
            f"Message(sender=1, receiver=2, phase='p', kind='k', payload=[1], "
            f"bit_size=8, sequence={message.sequence})"
        )
        for clone in (copy.copy(message), pickle.loads(pickle.dumps(message))):
            assert type(clone) is Message and clone == message
            assert clone.sequence == message.sequence


def _elapsed(network, phase):
    """The elapsed time the accountant reports for ``phase``."""
    (elapsed,) = [t.time_units for t in network.accountant.phase_timings() if t.name == phase]
    return elapsed


class TestTimeAccountant:
    def test_phase_elapsed_is_max_over_links(self, simple_graph):
        network = SynchronousNetwork(simple_graph)
        network.send(1, 2, None, 10, "phase1")  # 10 / 2 = 5
        network.send(1, 3, None, 12, "phase1")  # 12 / 4 = 3
        assert network.accountant.phase_timings() == (PhaseTiming("phase1", Fraction(5), 22),)

    def test_usage_accumulates_per_link(self, simple_graph):
        network = SynchronousNetwork(simple_graph)
        network.send(1, 2, None, 3, "p")
        network.send(1, 2, None, 5, "p")
        assert network.accountant.link_ledger("p") == {(1, 2): 8}
        assert _elapsed(network, "p") == Fraction(8, 2)

    def test_fixed_overhead_added(self, simple_graph):
        network = SynchronousNetwork(simple_graph)
        network.send(1, 2, None, 2, "p")
        network.accountant.add_fixed_overhead("p", Fraction(3, 2))
        assert _elapsed(network, "p") == Fraction(1) + Fraction(3, 2)

    def test_negative_overhead_rejected(self, simple_graph):
        accountant = TimeAccountant(simple_graph)
        with pytest.raises(ProtocolError):
            accountant.add_fixed_overhead("p", -1)

    def test_unknown_phase_is_zero(self, simple_graph):
        accountant = TimeAccountant(simple_graph)
        assert accountant.phase_fixed_overhead("nope") == 0
        assert accountant.phase_timings() == ()
        assert accountant.total_elapsed() == 0

    def test_totals_and_order(self, simple_graph):
        network = SynchronousNetwork(simple_graph)
        network.send(1, 2, None, 2, "a")
        network.send(2, 3, None, 3, "b")
        accountant = network.accountant
        assert accountant.phase_names() == ["a", "b"]
        assert network.result_accounting()["bits_sent"] == 5
        assert accountant.total_elapsed() == Fraction(1) + Fraction(3)

    def test_phase_timings_structure(self, simple_graph):
        network = SynchronousNetwork(simple_graph)
        network.send(1, 2, None, 4, "a")
        timings = network.accountant.phase_timings()
        assert len(timings) == 1
        assert timings[0].name == "a"
        assert timings[0].time_units == Fraction(2)
        assert timings[0].bits_sent == 4


class TestFaultModel:
    def test_defaults_to_no_faults_honest_strategy(self):
        model = FaultModel()
        assert model.fault_count() == 0
        assert model.strategy.name == "honest"

    def test_faulty_membership(self):
        model = FaultModel([2, 4])
        assert model.is_faulty(2)
        assert not model.is_faulty(1)
        assert model.fault_free([1, 2, 3, 4]) == [1, 3]

    def test_duplicate_faulty_nodes_rejected(self):
        with pytest.raises(ProtocolError):
            FaultModel([2, 2])

    def test_validate_for_resilience(self):
        model = FaultModel([2])
        model.validate_for(node_count=4, max_faults=1)
        with pytest.raises(ProtocolError):
            model.validate_for(node_count=3, max_faults=1)
        with pytest.raises(ProtocolError):
            FaultModel([2, 3]).validate_for(node_count=7, max_faults=1)

    def test_repr_lists_nodes(self):
        assert "2" in repr(FaultModel([2]))

    def test_honest_strategy_hooks_are_identity(self):
        strategy = ByzantineStrategy()
        assert strategy.phase1_source_symbol(0, 0, 2, 17) == 17
        assert strategy.phase1_forward_symbol(0, 3, 1, 2, 17) == 17
        assert strategy.equality_check_vector(0, 3, 2, [1, 2]) == [1, 2]
        assert strategy.equality_check_flag(0, 3, False) is False
        assert strategy.broadcast_value(0, 3, 2, "flag", 1) == 1
        assert strategy.relay_value(0, 3, [1, 3, 2], 2, "v") == "v"
        assert strategy.dispute_claims(0, 3, {"sent": []}) == {"sent": []}


class TestSynchronousNetwork:
    def test_send_charges_link_and_delivers(self, simple_graph):
        network = SynchronousNetwork(simple_graph)
        message = network.send(1, 2, "hello", 6, "phase1")
        assert message.payload == "hello"
        assert network.result_accounting()["bits_sent"] == 6
        assert network.result_accounting()["elapsed"] == Fraction(3)

    def test_send_on_missing_link_raises(self, simple_graph):
        network = SynchronousNetwork(simple_graph)
        with pytest.raises(GraphError):
            network.send(2, 1, "x", 1, "p")

    @pytest.mark.parametrize("bit_size", [0, -3, True, 2.5, "8", None])
    def test_send_with_a_bad_size_charges_and_delivers_nothing(self, simple_graph, bit_size):
        network = SynchronousNetwork(simple_graph)
        with pytest.raises(ProtocolError):
            network.send(1, 2, "x", bit_size, "p")
        assert network.delivered_messages() == []
        assert network.accountant.phase_names() == []

    def test_send_round_inboxes(self, simple_graph):
        network = SynchronousNetwork(simple_graph)
        inboxes = network.send_round(
            [(1, 2, "a", 1), (1, 3, "b", 2), (2, 3, "c", 1)], phase="p"
        )
        assert [m.payload for m in inboxes[3]] == ["b", "c"]
        assert [m.payload for m in inboxes[2]] == ["a"]

    def test_figure1a_phase_time_matches_formula(self):
        """Sending L/gamma bits down each of gamma trees takes L/gamma time on figure1a."""
        graph = figure1a()
        network = SynchronousNetwork(graph)
        total_bits = 120
        gamma = 2
        per_tree = total_bits // gamma
        # Tree 1 uses (1,2),(2,3),(3,4); tree 2 uses (1,3),(1,4) -> wait (1,4) capacity 1.
        for tail, head in [(1, 2), (2, 3), (3, 4)]:
            network.send(tail, head, "sym", per_tree, "phase1")
        for tail, head in [(1, 3), (1, 4), (3, 4)]:
            network.send(tail, head, "sym", per_tree, "phase1")
        # Link (3,4) carries both trees: 2 * 60 bits over capacity 1 -> 120 time units.
        assert _elapsed(network, "phase1") == Fraction(120)


class TestAccountingProperties:
    #: Mixed capacities, including pairs whose ratios tie (10/2 == 15/3 == 5/1).
    CAPACITIES = {(1, 2): 2, (2, 3): 1, (1, 3): 4, (3, 1): 3, (2, 1): 7, (3, 2): 6}

    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["a", "b", "c"]),
                st.sampled_from(sorted(CAPACITIES)),
                st.integers(min_value=1, max_value=10**6),
            ),
            max_size=30,
        ),
        st.lists(
            st.tuples(
                st.sampled_from(["a", "b", "c", "overhead-only"]),
                st.fractions(min_value=0, max_value=50, max_denominator=12),
            ),
            max_size=4,
        ),
    )
    @settings(max_examples=150, deadline=None)
    def test_elapsed_time_is_the_per_link_fraction_maximum(self, transmissions, overheads):
        graph = NetworkGraph.from_edges(self.CAPACITIES)
        network = SynchronousNetwork(graph)
        accountant = network.accountant
        # The oracle: one Fraction per link, compared as Fractions.
        ledgers = {}
        for phase, (tail, head), bits in transmissions:
            network.send(tail, head, None, bits, phase)
            links = ledgers.setdefault(phase, {})
            links[tail, head] = links.get((tail, head), 0) + bits
        fixed = {}
        for phase, duration in overheads:
            accountant.add_fixed_overhead(phase, duration)
            ledgers.setdefault(phase, {})
            fixed[phase] = fixed.get(phase, 0) + duration
        expected = {
            phase: max(
                (Fraction(bits, graph.capacity(*link)) for link, bits in links.items()),
                default=Fraction(0),
            )
            + fixed.get(phase, 0)
            for phase, links in ledgers.items()
        }

        assert accountant.phase_names() == list(expected)
        for phase, elapsed in expected.items():
            assert _elapsed(network, phase) == elapsed
            assert isinstance(_elapsed(network, phase), Fraction)
        assert accountant.total_elapsed() == sum(expected.values(), Fraction(0))
        assert accountant.phase_timings() == tuple(
            PhaseTiming(phase, elapsed, sum(ledgers[phase].values()))
            for phase, elapsed in expected.items()
        )
        assert network.result_accounting() == {
            "elapsed": accountant.total_elapsed(),
            "bits_sent": sum(bits for _phase, _link, bits in transmissions),
            "phase_timings": accountant.phase_timings(),
            "link_bits": accountant.total_link_bits(),
        }

    @given(st.lists(st.integers(min_value=1, max_value=100), min_size=1, max_size=10))
    @settings(max_examples=50, deadline=None)
    def test_total_bits_is_sum(self, bit_amounts):
        network = SynchronousNetwork(NetworkGraph.from_edges({(1, 2): 3}))
        for bits in bit_amounts:
            network.send(1, 2, None, bits, "p")
        assert network.result_accounting()["bits_sent"] == sum(bit_amounts)
