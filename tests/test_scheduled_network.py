"""Tests for :class:`ScheduledNetwork`: FIFO drains, barriers, latency, and
the scheduler contract (measured clock == analytical clock at zero latency).
"""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import get_protocol, registered_protocols
from repro.exceptions import ConfigurationError
from repro.graph.network_graph import NetworkGraph
from repro.transport import FaultModel, ScheduledNetwork, SynchronousNetwork
from repro.transport.links import LinkModel
from repro.workloads.scenarios import input_stream
from repro.workloads.topologies import topology
import random

#: The topologies of the headline ``nab_vs_classical`` grid.
HEADLINE_TOPOLOGIES = ("k4-fast", "bottleneck4", "ring7-chords")


@pytest.fixture()
def graph():
    return NetworkGraph.from_edges({(1, 2): 2, (2, 3): 1, (1, 3): 4})


class TestZeroLatencySemantics:
    def test_single_message_drains_at_capacity(self, graph):
        network = ScheduledNetwork(graph)
        network.send(1, 2, b"x", 10, "p")
        assert network.elapsed_time() == Fraction(10, 2)

    def test_same_link_messages_queue_fifo(self, graph):
        network = ScheduledNetwork(graph)
        network.send(1, 2, b"x", 10, "p")
        network.send(1, 2, b"y", 6, "p")
        first, second = network.delivery_timeline()
        assert (first.departure, first.arrival) == (Fraction(0), Fraction(5))
        assert (second.departure, second.arrival) == (Fraction(5), Fraction(8))
        assert network.elapsed_time() == Fraction(8)

    def test_parallel_links_overlap(self, graph):
        network = ScheduledNetwork(graph)
        network.send(1, 2, b"x", 10, "p")  # 5 time units
        network.send(1, 3, b"y", 12, "p")  # 3 time units
        assert network.elapsed_time() == Fraction(5)

    def test_phase_change_is_a_barrier(self, graph):
        network = ScheduledNetwork(graph)
        network.send(1, 2, b"x", 10, "p1")
        network.send(1, 3, b"y", 4, "p2")
        segments = network.phase_segments()
        assert [segment.phase for segment in segments] == ["p1", "p2"]
        assert segments[1].start == segments[0].end == Fraction(5)
        assert network.elapsed_time() == Fraction(6)

    def test_interleaved_phase_names_share_one_round(self, graph):
        # Two phase names sent alternately (the per-origin sub-broadcast
        # pattern): each name is one parallel round, exactly as the
        # accountant sees it.
        network = ScheduledNetwork(graph)
        network.send(1, 2, b"a", 2, "round1")
        network.send(1, 2, b"b", 2, "round2")
        network.send(1, 2, b"c", 2, "round1")
        network.send(1, 2, b"d", 2, "round2")
        assert network.elapsed_time() == network.accountant.total_elapsed()
        segments = {segment.phase: segment for segment in network.phase_segments()}
        assert segments["round1"].duration == Fraction(4, 2)
        assert segments["round2"].start == segments["round1"].end

    def test_fixed_overhead_mirrored_on_both_clocks(self, graph):
        network = ScheduledNetwork(graph)
        network.send(1, 2, b"x", 10, "p")
        network.charge_fixed_overhead("p", Fraction(3, 2))
        assert network.elapsed_time() == Fraction(5) + Fraction(3, 2)
        assert network.elapsed_time() == network.accountant.total_elapsed()

    def test_overhead_charged_directly_on_the_accountant_is_measured(self, graph):
        # The replay reads overhead from the accountant's ledger, so code
        # written against the portable SynchronousNetwork surface (which only
        # exposes the accountant) keeps the contract — even after the clock
        # was already computed once, and even for phases with no sends.
        network = ScheduledNetwork(graph)
        network.send(1, 2, b"x", 10, "p")
        assert network.elapsed_time() == Fraction(5)  # prime the memo
        network.accountant.add_fixed_overhead("p", Fraction(2))
        network.accountant.add_fixed_overhead("overhead-only-phase", Fraction(1))
        assert network.elapsed_time() == Fraction(8)
        assert network.elapsed_time() == network.accountant.total_elapsed()
        assert [segment.phase for segment in network.phase_segments()] == [
            "p",
            "overhead-only-phase",
        ]

    def test_zero_valued_overhead_still_registers_its_phase(self, graph):
        # A zero charge changes no clock but must still invalidate the memo:
        # the new phase has to appear in the measured segments.
        network = ScheduledNetwork(graph)
        network.send(1, 2, b"x", 10, "p")
        assert network.elapsed_time() == Fraction(5)  # prime the memo
        network.accountant.add_fixed_overhead("empty-phase", 0)
        assert network.elapsed_time() == Fraction(5)
        assert [segment.phase for segment in network.phase_segments()] == [
            "p",
            "empty-phase",
        ]

    def test_send_round_and_inboxes_behave_like_synchronous(self, graph):
        network = ScheduledNetwork(graph)
        inboxes = network.send_round([(1, 2, b"a", 4), (1, 3, b"b", 4)], "p")
        assert sorted(inboxes) == [2, 3]
        assert len(network.messages_received_by(2, "p")) == 1
        assert network.total_bits() == 8


class TestLatencyAndJitter:
    def test_uniform_latency_shifts_arrivals(self, graph):
        model = LinkModel(name="u", latency=Fraction(2))
        network = ScheduledNetwork(graph, link_model=model)
        network.send(1, 2, b"x", 10, "p")
        assert network.elapsed_time() == Fraction(7)
        # Latency delays delivery but does not occupy the link: a second
        # message starts draining when the first has drained, not arrived.
        network.send(1, 2, b"y", 2, "p")
        first, second = network.delivery_timeline()
        assert second.departure == Fraction(5)
        assert second.arrival == Fraction(8)

    def test_heterogeneous_latency_per_link(self, graph):
        model = LinkModel(
            name="hetero", latency=Fraction(0), per_link={(1, 3): Fraction(10)}
        )
        network = ScheduledNetwork(graph, link_model=model)
        network.send(1, 2, b"x", 2, "p")
        network.send(1, 3, b"y", 4, "p")
        assert network.elapsed_time() == Fraction(11)

    def test_latency_propagates_into_next_phase_start(self, graph):
        model = LinkModel(name="u", latency=Fraction(3))
        network = ScheduledNetwork(graph, link_model=model)
        network.send(1, 2, b"x", 2, "p1")
        network.send(1, 2, b"y", 2, "p2")
        segments = network.phase_segments()
        assert segments[1].start == Fraction(4)
        assert network.elapsed_time() == Fraction(8)

    def test_jittered_runs_are_reproducible(self, graph):
        model = LinkModel(name="j", latency=Fraction(1), jitter=Fraction(1), seed=5)

        def run():
            network = ScheduledNetwork(graph, link_model=model)
            for _ in range(5):
                network.send(1, 2, b"x", 2, "p")
            return network.elapsed_time()

        assert run() == run()
        assert run() > Fraction(5, 1)  # latency strictly exceeds the drain time


class TestWireOrdinals:
    """Edge cases the fault layer leans on: phantom wire copies must get
    jitter ordinals of their own, overhead must respect phase barriers, and
    per-phase FIFOs must drain in send order even when phases interleave."""

    def test_duplicated_copies_consume_unique_jitter_ordinals(self, graph):
        from repro.transport.link_faults import DUPLICATE, EdgeFaultRates, LinkFaultPlan
        from repro.transport import ReliableNetwork

        class AlwaysDuplicate(LinkFaultPlan):
            def decide(self, edge, attempt):
                return DUPLICATE

        plan = AlwaysDuplicate(
            name="dup", rates=EdgeFaultRates(duplicate=Fraction(1))
        )

        def run():
            network = ReliableNetwork(
                graph,
                link_model=LinkModel(
                    name="j", latency=Fraction(1), jitter=Fraction(1), seed=9
                ),
                fault_plan=plan,
            )
            for _ in range(3):
                network.send(1, 2, b"x", 2, "p")
            return network

        network = run()
        timeline = network.delivery_timeline()
        # 3 deliveries + 3 redundant copies, each with its own wire ordinal —
        # no two wire items may share a jitter key.
        sequences = [timing.sequence for timing in timeline]
        assert sorted(sequences) == list(range(6))
        # And the jittered schedule is reproducible run to run.
        assert run().elapsed_time() == network.elapsed_time()

    def test_fixed_overhead_delays_the_next_phase_barrier(self, graph):
        network = ScheduledNetwork(graph)
        network.send(1, 2, b"x", 10, "p1")  # drains at 5
        network.charge_fixed_overhead("p1", Fraction(4))
        network.send(1, 2, b"y", 2, "p2")  # drains in 1
        segments = network.phase_segments()
        assert segments[0].end == Fraction(9)
        assert segments[1].start == Fraction(9)
        assert network.elapsed_time() == Fraction(10)
        assert network.elapsed_time() == network.accountant.total_elapsed()

    def test_overhead_on_a_later_phase_never_shifts_an_earlier_one(self, graph):
        network = ScheduledNetwork(graph)
        network.send(1, 2, b"x", 10, "p1")
        network.send(1, 2, b"y", 10, "p2")
        network.charge_fixed_overhead("p2", Fraction(3))
        segments = network.phase_segments()
        assert segments[0].end == Fraction(5)
        assert segments[1].end == Fraction(13)

    def test_interleaved_phases_drain_each_fifo_in_send_order(self, graph):
        network = ScheduledNetwork(graph)
        # Alternate two phase names on one link: each phase's FIFO must keep
        # its own send order, independent of the global send interleaving.
        network.send(1, 2, b"a1", 2, "round1")
        network.send(1, 2, b"b1", 4, "round2")
        network.send(1, 2, b"a2", 6, "round1")
        network.send(1, 2, b"b2", 8, "round2")
        by_phase = {}
        for timing in network.delivery_timeline():
            by_phase.setdefault(timing.phase, []).append(timing)
        round1, round2 = by_phase["round1"], by_phase["round2"]
        # round1: 2 bits then 6 bits at capacity 2, starting at t=0.
        assert [(t.departure, t.arrival) for t in round1] == [
            (Fraction(0), Fraction(1)),
            (Fraction(1), Fraction(4)),
        ]
        # round2 starts at the barrier (t=4) and keeps its own order.
        assert [(t.departure, t.arrival) for t in round2] == [
            (Fraction(4), Fraction(6)),
            (Fraction(6), Fraction(10)),
        ]
        # Within each phase the wire ordinals are increasing (FIFO).
        assert [t.sequence for t in round1] == sorted(t.sequence for t in round1)
        assert [t.sequence for t in round2] == sorted(t.sequence for t in round2)
        assert network.elapsed_time() == network.accountant.total_elapsed()


class TestSchedulerContract:
    """The satellite property: measured clock == analytical oracle at zero latency."""

    @pytest.mark.parametrize("topology_name", HEADLINE_TOPOLOGIES)
    @pytest.mark.parametrize("protocol_name", ["nab", "classical-flooding", "eig"])
    @given(data=st.data())
    @settings(max_examples=5, deadline=None)
    def test_protocol_elapsed_matches_analytical_clock(
        self, protocol_name, topology_name, data
    ):
        assert protocol_name in registered_protocols()
        instances = data.draw(st.integers(min_value=1, max_value=3), label="instances")
        payload_bytes = data.draw(st.integers(min_value=1, max_value=6), label="bytes")
        seed = data.draw(st.integers(min_value=0, max_value=2**16), label="seed")
        inputs = input_stream(random.Random(seed), instances, payload_bytes)
        graph = topology(topology_name)

        captured = []
        original_init = ScheduledNetwork.__init__

        def capturing_init(self, *args, **kwargs):
            original_init(self, *args, **kwargs)
            captured.append(self)

        protocol = get_protocol(protocol_name)
        params = {"max_faults": 1, "coding_seed": seed, "link_model": "instant"}
        try:
            ScheduledNetwork.__init__ = capturing_init
            scheduled_record = protocol.run(graph, 1, inputs, FaultModel(), params)
        finally:
            ScheduledNetwork.__init__ = original_init
        plain_record = protocol.run(
            graph, 1, inputs, FaultModel(), {"max_faults": 1, "coding_seed": seed}
        )

        # Every network the run constructed went through the scheduler, and on
        # each one the measured event clock equals the analytical oracle.
        assert captured, "the link_model param must route through ScheduledNetwork"
        for network in captured:
            assert network.elapsed_time() == network.accountant.total_elapsed()
        # End to end, the scheduled run and the plain run agree exactly.
        assert scheduled_record.elapsed == plain_record.elapsed
        assert scheduled_record.bits_sent == plain_record.bits_sent
        assert scheduled_record.outputs == plain_record.outputs

    def test_latency_model_strictly_slower_than_oracle(self):
        graph = topology("k4-fast")
        protocol = get_protocol("nab")
        instant = protocol.run(
            graph, 1, [b"\x01" * 8], FaultModel(),
            {"max_faults": 1, "link_model": "instant"},
        )
        delayed = protocol.run(
            graph, 1, [b"\x01" * 8], FaultModel(),
            {"max_faults": 1, "link_model": "unit-latency"},
        )
        assert delayed.elapsed > instant.elapsed
        assert delayed.outputs == instant.outputs
        assert delayed.bits_sent == instant.bits_sent

    def test_unknown_link_model_rejected(self):
        graph = topology("k4-fast")
        with pytest.raises(ConfigurationError):
            get_protocol("nab").run(
                graph, 1, [b"\x01"], FaultModel(),
                {"max_faults": 1, "link_model": "no-such-model"},
            )
