"""Seeded link faults and ARQ reliable delivery.

Pins the PR 6 reliability contract: fault plans decide deterministically per
``(seed, edge, attempt)``; the transport over a *clean* plan is
bit-identical to the transport without one (and a zero-rate shadow of
every registered plan reproduces the quick-grid rows byte-for-byte with
``retransmit_bits == 0``); under loss, retransmission preserves delivery and
the measured clock keeps equalling the analytical oracle; a link dead after
the retry budget surfaces as an omission, never as a crash.
"""

from __future__ import annotations

import random
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import get_protocol, get_spec
from repro.engine.runner import dump_row, run_cell
from repro.exceptions import ConfigurationError, SchedulerError
from repro.graph.network_graph import NetworkGraph
from repro.transport import FaultModel, SynchronousNetwork
from repro.transport.link_faults import (
    CORRUPT,
    DELIVER,
    DROP,
    DUPLICATE,
    EdgeFaultRates,
    LinkFaultPlan,
    fault_plan,
    named_fault_plans,
)
from repro.transport.network import ARQ_BACKOFF, ARQ_MAX_ATTEMPTS, ARQ_TIMEOUT
from repro.workloads.scenarios import input_stream
from repro.workloads.topologies import topology


@pytest.fixture()
def graph():
    return NetworkGraph.from_edges({(1, 2): 2, (2, 3): 1, (1, 3): 4})


def elapsed(network):
    """The clock a result reports (the accountant's total at zero delay)."""
    return network.result_accounting()["elapsed"]


def bits(network):
    return network.result_accounting()["bits_sent"]


def replayed(network):
    """Where the replayed clock ends; equals :func:`elapsed` at zero delay."""
    return network.phase_segments()[-1].end


def received_by(network, node, phase):
    return [m for m in network.delivered_messages() if m.receiver == node and m.phase == phase]


#: A plan that drops every attempt on every link: the degradation worst case.
ALWAYS_DROP = LinkFaultPlan(name="always-drop", rates=EdgeFaultRates(drop=Fraction(1)))


def scaled(plan: LinkFaultPlan, factor: Fraction | int) -> LinkFaultPlan:
    """A copy of ``plan`` with every rate multiplied by ``factor``.

    ``scaled(plan, 0)`` is the plan's zero-rate shadow — structurally
    identical but clean — which is what the zero-fault contract tests sweep:
    every registered plan at rate 0 must reproduce the fault-free grids
    byte-identically.
    """
    factor = Fraction(factor)

    def scale(rates: EdgeFaultRates) -> EdgeFaultRates:
        return EdgeFaultRates(
            drop=Fraction(rates.drop) * factor,
            duplicate=Fraction(rates.duplicate) * factor,
            corrupt=Fraction(rates.corrupt) * factor,
        )

    return replace(
        plan,
        rates=scale(plan.rates),
        per_edge={edge: scale(rates) for edge, rates in plan.per_edge.items()},
    )


class TestFaultPlans:
    def test_registry_contains_the_named_plans(self):
        for name in (
            "none",
            "drop-1pct",
            "drop-10pct",
            "drop-10pct-one-edge",
            "dup-mild",
            "corrupt-1pct",
            "lossy-mix",
        ):
            assert name in named_fault_plans()
            assert fault_plan(name).name == name

    def test_unknown_plan_rejected(self):
        with pytest.raises(ConfigurationError):
            fault_plan("no-such-plan")

    def test_rates_validated(self):
        with pytest.raises(SchedulerError):
            EdgeFaultRates(drop=Fraction(-1, 10))
        with pytest.raises(SchedulerError):
            EdgeFaultRates(drop=Fraction(3, 5), duplicate=Fraction(3, 5))

    def test_decisions_are_deterministic_and_edge_local(self):
        plan = fault_plan("lossy-mix")
        first = [plan.decide((1, 2), attempt) for attempt in range(500)]
        second = [plan.decide((1, 2), attempt) for attempt in range(500)]
        assert first == second
        # A different edge sees an independent decision stream.
        other = [plan.decide((2, 1), attempt) for attempt in range(500)]
        assert first != other

    def test_decision_frequencies_track_the_rates(self):
        plan = fault_plan("drop-10pct")
        outcomes = [plan.decide((1, 2), attempt) for attempt in range(2000)]
        drops = outcomes.count(DROP)
        assert outcomes.count(DELIVER) == 2000 - drops
        # 10% +- a loose tolerance over 2000 lattice points.
        assert 120 <= drops <= 280

    def test_per_edge_overrides(self):
        plan = fault_plan("drop-10pct-one-edge")
        assert not plan.is_clean
        assert plan.edge_rates((1, 2)).drop == Fraction(1, 10)
        assert plan.edge_rates((3, 4)).is_clean
        assert all(plan.decide((3, 4), k) == DELIVER for k in range(100))

    def test_scaled_zero_is_clean_for_every_registered_plan(self):
        for name in named_fault_plans():
            shadow = scaled(fault_plan(name), 0)
            assert shadow.is_clean
            assert all(shadow.decide((1, 2), k) == DELIVER for k in range(20))

    def test_every_outcome_reachable(self):
        plan = LinkFaultPlan(
            name="thirds",
            rates=EdgeFaultRates(
                drop=Fraction(1, 4), duplicate=Fraction(1, 4), corrupt=Fraction(1, 4)
            ),
            seed=3,
        )
        outcomes = {plan.decide((1, 2), attempt) for attempt in range(200)}
        assert outcomes == {DELIVER, DROP, DUPLICATE, CORRUPT}


class TestReliableNetworkCleanPath:
    def test_clean_plan_is_bit_identical_to_scheduled(self, graph):
        scheduled = SynchronousNetwork(graph)
        reliable = SynchronousNetwork(graph, fault_plan=LinkFaultPlan())
        for network in (scheduled, reliable):
            network.send(1, 2, b"a", 10, "p1")
            network.send(1, 3, b"b", 12, "p1")
            network.send(2, 3, b"c", 3, "p2")
        assert reliable.result_accounting() == scheduled.result_accounting()
        assert reliable.delivery_timeline() == scheduled.delivery_timeline()
        assert reliable.phase_segments() == scheduled.phase_segments()
        # Messages equal but for their process-wide sequence numbers.
        assert [message[:6] for message in reliable.delivered_messages()] == [
            message[:6] for message in scheduled.delivered_messages()
        ]
        assert reliable.reliability_stats() == {
            "retransmit_bits": 0,
            "retransmissions": 0,
            "duplicated_messages": 0,
            "corrupted_attempts": 0,
            "dropped_messages": 0,
            "timeout_time": "0",
        }


class TestReliableNetworkArq:
    def test_lost_attempts_charge_bits_and_backoff(self, graph):
        # Attempts 0 and 1 drop, attempt 2 delivers (a plan with drop=1 on
        # the first two ordinals only, via a crafted per-edge schedule).
        class TwoDrops(LinkFaultPlan):
            def decide(self, edge, attempt):
                return DROP if attempt < 2 else DELIVER

        plan = TwoDrops(name="two-drops", rates=EdgeFaultRates(drop=Fraction(1, 2)))
        network = SynchronousNetwork(graph, fault_plan=plan)
        network.send(1, 2, b"x", 10, "p")
        stats = network.reliability_stats()
        assert stats["retransmissions"] == 2
        assert stats["retransmit_bits"] == 20
        assert stats["dropped_messages"] == 0
        # Timeouts: 1 * 2**0 + 1 * 2**1 = 3 units of backoff.
        assert (ARQ_TIMEOUT, ARQ_BACKOFF) == (1, 2)
        assert stats["timeout_time"] == "3"
        # All three copies drained the link (15 units at capacity 2) plus the
        # 3 timeout units; measured equals analytical throughout.
        assert elapsed(network) == Fraction(30, 2) + 3
        assert elapsed(network) == replayed(network) == network.accountant.total_elapsed()
        # Exactly one delivery reached the inbox.
        assert len(received_by(network, 2, "p")) == 1

    def test_duplicate_delivers_once_but_drains_twice(self, graph):
        class AlwaysDuplicate(LinkFaultPlan):
            def decide(self, edge, attempt):
                return DUPLICATE

        plan = AlwaysDuplicate(
            name="always-dup", rates=EdgeFaultRates(duplicate=Fraction(1))
        )
        network = SynchronousNetwork(graph, fault_plan=plan)
        network.send(1, 2, b"x", 10, "p")
        stats = network.reliability_stats()
        assert stats["duplicated_messages"] == 1
        assert stats["retransmit_bits"] == 10
        assert stats["retransmissions"] == 0
        assert stats["timeout_time"] == "0"
        assert len(received_by(network, 2, "p")) == 1
        # Two copies on the wire: 20 bits over capacity 2.
        assert elapsed(network) == Fraction(20, 2)
        assert elapsed(network) == replayed(network) == network.accountant.total_elapsed()

    def test_dead_link_surfaces_as_omission_not_exception(self, graph):
        assert ARQ_MAX_ATTEMPTS == 8
        network = SynchronousNetwork(graph, fault_plan=ALWAYS_DROP)
        message = network.send(1, 2, b"x", 10, "p")
        # The caller gets a message object, but nothing was delivered.
        assert message.receiver == 2
        assert network.delivered_messages() == []
        stats = network.reliability_stats()
        assert stats["dropped_messages"] == 1
        assert stats["retransmissions"] == 7  # attempts 2 to 8 were retries
        assert stats["retransmit_bits"] == 80  # all 8 attempts drained
        letters = network.dead_letters()
        assert len(letters) == 1
        assert letters[0].edge == (1, 2)
        assert letters[0].attempts == 8
        # 1 + 2 + ... + 128 timeout units; clocks still agree.
        assert stats["timeout_time"] == "255"
        assert elapsed(network) == replayed(network) == network.accountant.total_elapsed()

    def test_corrupt_costs_exactly_what_drop_costs(self, graph):
        class AlwaysCorrupt(LinkFaultPlan):
            def decide(self, edge, attempt):
                return CORRUPT if attempt == 0 else DELIVER

        class OneDrop(LinkFaultPlan):
            def decide(self, edge, attempt):
                return DROP if attempt == 0 else DELIVER

        rates = EdgeFaultRates(corrupt=Fraction(1, 2))
        corrupt_net = SynchronousNetwork(
            graph, fault_plan=AlwaysCorrupt(name="c", rates=rates)
        )
        drop_net = SynchronousNetwork(graph, fault_plan=OneDrop(name="d", rates=rates))
        corrupt_net.send(1, 2, b"x", 10, "p")
        drop_net.send(1, 2, b"x", 10, "p")
        assert elapsed(corrupt_net) == elapsed(drop_net)
        corrupt_stats = corrupt_net.reliability_stats()
        assert corrupt_stats["corrupted_attempts"] == 1
        assert corrupt_stats["retransmit_bits"] == 10
        assert (
            corrupt_stats["timeout_time"]
            == drop_net.reliability_stats()["timeout_time"]
        )

    def test_faulty_sends_validate_like_clean_ones(self, graph):
        from repro.exceptions import GraphError, ProtocolError

        network = SynchronousNetwork(graph, fault_plan=ALWAYS_DROP)
        with pytest.raises(GraphError):
            network.send(3, 1, b"x", 4, "p")  # no such link
        with pytest.raises(ProtocolError):
            network.send(1, 2, b"x", 0, "p")

    def test_seeded_arq_runs_are_reproducible(self, graph):
        def run():
            network = SynchronousNetwork(graph, fault_plan=fault_plan("lossy-mix"))
            for _ in range(100):
                network.send(1, 2, b"x", 4, "p")
            return (elapsed(network), replayed(network), network.reliability_stats())

        assert run() == run()

    @pytest.mark.parametrize("plan_name", ["drop-10pct", "dup-mild", "lossy-mix"])
    def test_measured_clock_equals_oracle_under_faults(self, graph, plan_name):
        # Every phantom copy charges both clocks identically, so the
        # zero-latency scheduler contract survives arbitrary fault activity.
        network = SynchronousNetwork(graph, fault_plan=fault_plan(plan_name))
        rng = random.Random(7)
        for index in range(150):
            edge = rng.choice([(1, 2), (1, 3), (2, 3)])
            network.send(edge[0], edge[1], b"x", rng.randint(1, 16), f"p{index % 3}")
        assert elapsed(network) == replayed(network) == network.accountant.total_elapsed()

    @pytest.mark.parametrize("factor", [0, Fraction(1, 10), Fraction(1, 2), 1, 2])
    def test_bit_ledger_is_clean_plus_retransmits(self, graph, factor):
        # Faults only ever add accounted wire copies: at every loss rate the
        # lossy total is the clean total plus retransmit_bits, and at rate 0
        # the ARQ layer costs nothing at all.
        def drive(network):
            edges = [(tail, head) for tail, head, _ in graph.edges()]
            for index in range(2000):
                tail, head = edges[index % len(edges)]
                network.send(tail, head, b"x", 1 + index % 16, f"phase-{index % 8}")
            return network

        clean = drive(SynchronousNetwork(graph))
        lossy = drive(SynchronousNetwork(graph, fault_plan=scaled(fault_plan("drop-10pct"), factor)))
        stats = lossy.reliability_stats()
        assert bits(lossy) == bits(clean) + stats["retransmit_bits"]
        assert elapsed(lossy) == replayed(lossy) == lossy.accountant.total_elapsed()
        assert (stats["retransmit_bits"] == 0) == (factor == 0)
        if factor == 0:
            assert stats["timeout_time"] == "0"
            assert elapsed(lossy) == elapsed(clean)


class TestProtocolsOverLossyLinks:
    @pytest.mark.parametrize("protocol_name", ["nab", "classical-flooding"])
    @pytest.mark.parametrize("plan_name", ["drop-1pct", "drop-10pct", "dup-mild"])
    def test_agreement_and_validity_survive_loss(self, protocol_name, plan_name):
        graph = topology("k4-fast")
        protocol = get_protocol(protocol_name)
        inputs = input_stream(random.Random(3), 2, 8)
        lossy = protocol.run(
            graph, 1, inputs, FaultModel(),
            {"max_faults": 1, "fault_plan": plan_name},
        )
        assert lossy.agreement_ok and lossy.validity_ok
        reliability = lossy.metadata["reliability"]
        assert reliability["dropped_messages"] == 0
        if plan_name == "drop-10pct":
            # At 10% loss a run of this size cannot plausibly stay clean;
            # the milder plans may legitimately see zero fault events.
            assert reliability["retransmit_bits"] > 0
        # The ARQ overhead extends exactly the clock and the bit ledger.
        clean = protocol.run(
            graph, 1, inputs, FaultModel(), {"max_faults": 1}
        )
        assert lossy.outputs == clean.outputs
        assert lossy.bits_sent == clean.bits_sent + reliability["retransmit_bits"]
        if reliability["retransmit_bits"]:
            assert lossy.elapsed > clean.elapsed
        else:
            assert lossy.elapsed == clean.elapsed

    def test_unknown_fault_plan_rejected(self):
        with pytest.raises(ConfigurationError):
            get_protocol("nab").run(
                topology("k4-fast"), 1, [b"\x01"], FaultModel(),
                {"max_faults": 1, "fault_plan": "no-such-plan"},
            )


class TestZeroFaultByteIdentity:
    """The PR 6 zero-fault contract, end to end through the engine."""

    @pytest.fixture(scope="class")
    def baseline_rows(self):
        cells = get_spec("nab_vs_classical_quick").expand()
        return cells, [dump_row(run_cell(cell)) for cell in cells]

    def test_every_plan_at_rate_zero_reproduces_the_quick_grid(
        self, baseline_rows, monkeypatch
    ):
        import repro.transport.link_faults as faults_module

        cells, baseline = baseline_rows
        for name in named_fault_plans():
            shadow = scaled(fault_plan(name), 0)
            shadow_name = f"{name}@zero"
            monkeypatch.setitem(
                faults_module._FAULT_PLAN_FACTORIES, shadow_name, lambda s=shadow: s
            )
            # Same cell identity (id and seed), only the transport re-routed
            # through the ARQ layer over the zero-rate plan.
            rows = [
                dump_row(run_cell(replace(cell, fault_plan=shadow_name)))
                for cell in cells
            ]
            assert rows == baseline, f"plan {name} at rate 0 changed the grid"

    def test_zero_rate_plan_reports_zero_retransmit_bits(self, monkeypatch):
        # Transport-level confirmation that byte-identity is not vacuous:
        # the run really goes through ARQ's network and really measures 0.
        import repro.transport.link_faults as faults_module

        graph = topology("k4-fast")
        for name in named_fault_plans():
            shadow = scaled(fault_plan(name), 0)
            shadow_name = f"{name}@zero"
            monkeypatch.setitem(
                faults_module._FAULT_PLAN_FACTORIES, shadow_name, lambda s=shadow: s
            )
            captured = []
            original_init = SynchronousNetwork.__init__

            def capturing_init(self, *args, _init=original_init, **kwargs):
                _init(self, *args, **kwargs)
                captured.append(self)

            try:
                SynchronousNetwork.__init__ = capturing_init
                record = get_protocol("nab").run(
                    graph, 1, [b"\x01" * 8], FaultModel(),
                    {"max_faults": 1, "fault_plan": shadow_name},
                )
            finally:
                SynchronousNetwork.__init__ = original_init
            assert captured, "the fault_plan param must reach the transport"
            for network in captured:
                assert network.fault_plan is not None
                stats = network.reliability_stats()
                assert stats["retransmit_bits"] == 0
                assert stats["dropped_messages"] == 0
            assert "reliability" not in record.metadata


class TestLossyLinksSpec:
    def test_spec_grid_shape(self):
        spec = get_spec("lossy_links")
        cells = spec.expand()
        assert len(cells) == 30
        plans = {cell.fault_plan for cell in cells}
        assert plans == {
            "none", "drop-1pct", "drop-10pct", "drop-10pct-one-edge", "dup-mild"
        }
        for cell in cells:
            if cell.fault_plan == "none":
                assert "|fp=" not in cell.cell_id
            else:
                assert cell.cell_id.endswith(f"|fp={cell.fault_plan}")

    @given(data=st.data())
    @settings(max_examples=5, deadline=None)
    def test_sampled_lossy_cells_satisfy_the_spec(self, data):
        cells = [
            cell for cell in get_spec("lossy_links").expand()
            if cell.fault_plan != "none"
        ]
        cell = data.draw(st.sampled_from(cells), label="cell")
        row = run_cell(cell)
        assert row["error"] is None
        record = row["record"]
        assert record["agreement_ok"] and record["validity_ok"]
        assert row["fault_plan"] == cell.fault_plan
        reliability = record["metadata"]["reliability"]
        assert set(reliability) >= {
            "retransmit_bits", "retransmissions", "dropped_messages", "timeout_time"
        }
        assert reliability["retransmit_bits"] >= 0
