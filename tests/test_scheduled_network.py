"""Tests for the transport's replayed clock: FIFO drains, barriers, latency,
and the scheduler contract (replayed clock == analytical clock at zero delay),
which lets a zero-delay network skip the replay.
"""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import get_protocol, registered_protocols
from repro.exceptions import ConfigurationError
from repro.graph.network_graph import NetworkGraph
from repro.transport import FaultModel, SynchronousNetwork
from repro.transport.link_faults import fault_plan
from repro.transport.links import LinkModel, link_model
from repro.workloads.scenarios import input_stream
from repro.workloads.topologies import topology
import random

#: The topologies of the headline ``nab_vs_classical`` grid.
HEADLINE_TOPOLOGIES = ("k4-fast", "bottleneck4", "ring7-chords")


@pytest.fixture()
def graph():
    return NetworkGraph.from_edges({(1, 2): 2, (2, 3): 1, (1, 3): 4})


def measured(network):
    """Where the replayed clock ends: when the last round's last delivery lands."""
    segments = network.phase_segments()
    return segments[-1].end if segments else Fraction(0)


def elapsed(network):
    """The clock a result reports: the replay's under delay, else the accountant's."""
    return network.result_accounting()["elapsed"]


def zero_delay_clock(network):
    """The replayed clock, after checking the scheduler contract on it."""
    assert network.result_accounting()["elapsed"] == network.accountant.total_elapsed()
    assert measured(network) == network.accountant.total_elapsed()
    return measured(network)


class TestZeroLatencySemantics:
    def test_single_message_drains_at_capacity(self, graph):
        network = SynchronousNetwork(graph)
        network.send(1, 2, b"x", 10, "p")
        assert zero_delay_clock(network) == Fraction(10, 2)

    def test_same_link_messages_queue_fifo(self, graph):
        network = SynchronousNetwork(graph)
        network.send(1, 2, b"x", 10, "p")
        network.send(1, 2, b"y", 6, "p")
        first, second = network.delivery_timeline()
        assert (first.departure, first.arrival) == (Fraction(0), Fraction(5))
        assert (second.departure, second.arrival) == (Fraction(5), Fraction(8))
        assert zero_delay_clock(network) == Fraction(8)

    def test_parallel_links_overlap(self, graph):
        network = SynchronousNetwork(graph)
        network.send(1, 2, b"x", 10, "p")  # 5 time units
        network.send(1, 3, b"y", 12, "p")  # 3 time units
        assert zero_delay_clock(network) == Fraction(5)

    def test_phase_change_is_a_barrier(self, graph):
        network = SynchronousNetwork(graph)
        network.send(1, 2, b"x", 10, "p1")
        network.send(1, 3, b"y", 4, "p2")
        segments = network.phase_segments()
        assert [segment.phase for segment in segments] == ["p1", "p2"]
        assert segments[1].start == segments[0].end == Fraction(5)
        assert zero_delay_clock(network) == Fraction(6)

    def test_interleaved_phase_names_share_one_round(self, graph):
        # Two phase names sent alternately (the per-origin sub-broadcast
        # pattern): each name is one parallel round, exactly as the
        # accountant sees it.
        network = SynchronousNetwork(graph)
        network.send(1, 2, b"a", 2, "round1")
        network.send(1, 2, b"b", 2, "round2")
        network.send(1, 2, b"c", 2, "round1")
        network.send(1, 2, b"d", 2, "round2")
        zero_delay_clock(network)
        segments = {segment.phase: segment for segment in network.phase_segments()}
        assert segments["round1"].end - segments["round1"].start == Fraction(4, 2)
        assert segments["round2"].start == segments["round1"].end

    def test_fixed_overhead_mirrored_on_both_clocks(self, graph):
        network = SynchronousNetwork(graph)
        network.send(1, 2, b"x", 10, "p")
        network.accountant.add_fixed_overhead("p", Fraction(3, 2))
        assert zero_delay_clock(network) == Fraction(5) + Fraction(3, 2)
        zero_delay_clock(network)

    def test_overhead_charged_directly_on_the_accountant_is_measured(self, graph):
        # The replay reads overhead from the accountant's ledger, so a
        # charge keeps the contract even after the clock was already
        # computed once, and even for phases with no sends.
        network = SynchronousNetwork(graph)
        network.send(1, 2, b"x", 10, "p")
        assert zero_delay_clock(network) == Fraction(5)  # prime the memo
        network.accountant.add_fixed_overhead("p", Fraction(2))
        network.accountant.add_fixed_overhead("overhead-only-phase", Fraction(1))
        assert zero_delay_clock(network) == Fraction(8)
        zero_delay_clock(network)
        assert [segment.phase for segment in network.phase_segments()] == [
            "p",
            "overhead-only-phase",
        ]

    def test_zero_valued_overhead_still_registers_its_phase(self, graph):
        # A zero charge changes no clock, but the new phase has to appear in
        # the measured segments.
        network = SynchronousNetwork(graph)
        network.send(1, 2, b"x", 10, "p")
        assert zero_delay_clock(network) == Fraction(5)  # prime the memo
        network.accountant.add_fixed_overhead("empty-phase", 0)
        assert zero_delay_clock(network) == Fraction(5)
        assert [segment.phase for segment in network.phase_segments()] == [
            "p",
            "empty-phase",
        ]

    def test_send_round_and_inboxes_behave_like_synchronous(self, graph):
        network = SynchronousNetwork(graph)
        inboxes = network.send_round([(1, 2, b"a", 4), (1, 3, b"b", 4)], "p")
        assert sorted(inboxes) == [2, 3]
        assert [message.receiver for message in network.delivered_messages()] == [2, 3]
        assert network.result_accounting()["bits_sent"] == 8


class TestLatencyAndJitter:
    def test_uniform_latency_shifts_arrivals(self, graph):
        model = LinkModel(name="u", latency=Fraction(2))
        network = SynchronousNetwork(graph, link_model=model)
        network.send(1, 2, b"x", 10, "p")
        assert elapsed(network) == Fraction(7)
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
        network = SynchronousNetwork(graph, link_model=model)
        network.send(1, 2, b"x", 2, "p")
        network.send(1, 3, b"y", 4, "p")
        assert elapsed(network) == Fraction(11)

    def test_latency_propagates_into_next_phase_start(self, graph):
        model = LinkModel(name="u", latency=Fraction(3))
        network = SynchronousNetwork(graph, link_model=model)
        network.send(1, 2, b"x", 2, "p1")
        network.send(1, 2, b"y", 2, "p2")
        segments = network.phase_segments()
        assert segments[1].start == Fraction(4)
        assert elapsed(network) == Fraction(8)

    def test_jittered_runs_are_reproducible(self, graph):
        model = LinkModel(name="j", latency=Fraction(1), jitter=Fraction(1), seed=5)

        def run():
            network = SynchronousNetwork(graph, link_model=model)
            for _ in range(5):
                network.send(1, 2, b"x", 2, "p")
            return elapsed(network)

        assert run() == run()
        assert run() > Fraction(5, 1)  # latency strictly exceeds the drain time


class TestWireOrdinals:
    """Edge cases the fault layer leans on: phantom wire copies must get
    jitter ordinals of their own, overhead must respect phase barriers, and
    per-phase FIFOs must drain in send order even when phases interleave."""

    def test_duplicated_copies_consume_unique_jitter_ordinals(self, graph):
        from repro.transport.link_faults import DUPLICATE, EdgeFaultRates, LinkFaultPlan

        class AlwaysDuplicate(LinkFaultPlan):
            def decide(self, edge, attempt):
                return DUPLICATE

        plan = AlwaysDuplicate(
            name="dup", rates=EdgeFaultRates(duplicate=Fraction(1))
        )

        def run():
            network = SynchronousNetwork(
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
        assert elapsed(run()) == elapsed(network)

    def test_fixed_overhead_delays_the_next_phase_barrier(self, graph):
        network = SynchronousNetwork(graph)
        network.send(1, 2, b"x", 10, "p1")  # drains at 5
        network.accountant.add_fixed_overhead("p1", Fraction(4))
        network.send(1, 2, b"y", 2, "p2")  # drains in 1
        segments = network.phase_segments()
        assert segments[0].end == Fraction(9)
        assert segments[1].start == Fraction(9)
        assert zero_delay_clock(network) == Fraction(10)

    def test_overhead_on_a_later_phase_never_shifts_an_earlier_one(self, graph):
        network = SynchronousNetwork(graph)
        network.send(1, 2, b"x", 10, "p1")
        network.send(1, 2, b"y", 10, "p2")
        network.accountant.add_fixed_overhead("p2", Fraction(3))
        segments = network.phase_segments()
        assert segments[0].end == Fraction(5)
        assert segments[1].end == Fraction(13)

    def test_interleaved_phases_drain_each_fifo_in_send_order(self, graph):
        network = SynchronousNetwork(graph)
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
        zero_delay_clock(network)


class TestZeroDelayShortcut:
    """At zero delay the replay is skipped, which the contract makes exact."""

    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    @pytest.mark.parametrize("plan_name", ["none", "lossy-mix"])
    def test_replay_ends_at_the_accountants_total(self, plan_name, data):
        nodes = range(1, data.draw(st.integers(min_value=2, max_value=6), label="n") + 1)
        pairs = [(tail, head) for tail in nodes for head in nodes if tail != head]
        links = data.draw(
            st.lists(st.sampled_from(pairs), min_size=1, max_size=len(pairs), unique=True),
            label="links",
        )
        capacities = data.draw(
            st.lists(st.integers(1, 7), min_size=len(links), max_size=len(links)),
            label="capacities",
        )
        graph = NetworkGraph.from_edges(dict(zip(links, capacities)))
        phases = st.sampled_from(["a", "b", "c", "idle"])
        operations = data.draw(
            st.lists(
                st.one_of(
                    st.tuples(st.just("send"), st.sampled_from(links), st.integers(1, 64), phases),
                    st.tuples(
                        st.just("overhead"),
                        phases,
                        st.fractions(min_value=0, max_value=9, max_denominator=6),
                    ),
                ),
                max_size=40,
            ),
            label="operations",
        )
        # A zero-valued charge on a phase with no sends: a round of length 0.
        operations.append(("overhead", "empty", Fraction(0)))
        plan = fault_plan(plan_name)
        for model in (None, LinkModel(name="instant")):
            network = SynchronousNetwork(graph, link_model=model, fault_plan=plan)
            for operation in operations:
                if operation[0] == "send":
                    _kind, (tail, head), bits, phase = operation
                    network.send(tail, head, None, bits, phase)
                else:
                    network.accountant.add_fixed_overhead(operation[1], operation[2])
            assert [segment.phase for segment in network.phase_segments()] == (
                network.accountant.phase_names()
            )
            zero_delay_clock(network)

    @pytest.mark.parametrize("plan_name", [None, "none", "lossy-mix"])
    @pytest.mark.parametrize("model_name", [None, "instant"])
    def test_zero_delay_accounting_never_replays(
        self, graph, monkeypatch, model_name, plan_name
    ):
        network = SynchronousNetwork(
            graph,
            link_model=None if model_name is None else link_model(model_name),
            fault_plan=None if plan_name is None else fault_plan(plan_name),
        )
        for index in range(40):
            network.send(1, 2, None, 1 + index % 5, f"p{index % 3}")
        network.accountant.add_fixed_overhead("p1", Fraction(1, 3))

        def refuse(self):
            raise AssertionError("a zero-delay network replayed its wire log")

        monkeypatch.setattr(SynchronousNetwork, "_replay", refuse)
        assert network.result_accounting()["elapsed"] == network.accountant.total_elapsed()

    def test_a_delaying_model_reads_the_replay(self, graph):
        network = SynchronousNetwork(graph, link_model=link_model("unit-latency"))
        network.send(1, 2, None, 10, "p")
        assert elapsed(network) == measured(network) == Fraction(5) + 1
        assert network.accountant.total_elapsed() == Fraction(5)


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
        original_init = SynchronousNetwork.__init__

        def capturing_init(self, *args, **kwargs):
            original_init(self, *args, **kwargs)
            captured.append(self)

        protocol = get_protocol(protocol_name)
        params = {"max_faults": 1, "coding_seed": seed, "link_model": "instant"}
        try:
            SynchronousNetwork.__init__ = capturing_init
            scheduled_record = protocol.run(graph, 1, inputs, FaultModel(), params)
        finally:
            SynchronousNetwork.__init__ = original_init
        plain_record = protocol.run(
            graph, 1, inputs, FaultModel(), {"max_faults": 1, "coding_seed": seed}
        )

        # Every network the run constructed carries the instant model, and on
        # each one the replayed clock equals the analytical oracle.
        assert captured, "the link_model param must reach the transport"
        for network in captured:
            assert network.link_model.name == "instant"
            zero_delay_clock(network)
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
