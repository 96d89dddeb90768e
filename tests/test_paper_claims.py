"""The paper's quantitative claims, each pinned as exact rationals.

One test per claim that no narrower suite already asserts: the Figure 2
undirected view, the Figure 3 depth sweep, the Theorem 1 failure rate per
symbol size, the Theorem 2 / Theorem 3 bounds on the named topologies,
Section 1's "arbitrarily worse" comparison, the amortisation of dispute
control and the end-to-end throughput's approach to Eq. 6.  Every value is
a deterministic function of the code (seeded draws, simulated clocks), so a
changed number is a changed result, not noise.
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from repro.adversary.strategies import EqualityGarbageStrategy
from repro.capacity.bounds import analyse_network, nab_throughput_lower_bound
from repro.capacity.pipelining import pipelined_schedule, unpipelined_schedule
from repro.capacity.rho_star import u1_value
from repro.coding.coding_matrix import generate_coding_scheme
from repro.coding.omega import omega_and_parameters
from repro.coding.verification import scheme_is_correct, theorem1_failure_bound
from repro.core.nab import NetworkAwareBroadcast
from repro.engine import get_protocol
from repro.graph.generators import complete_graph, figure1b, figure2a, random_connected_network
from repro.graph.mincut import broadcast_mincut
from repro.graph.network_graph import NetworkGraph
from repro.graph.undirected import UndirectedView
from repro.transport.faults import FaultModel
from repro.types import node_pair
from repro.workloads.topologies import topology

#: (gamma*, rho*) at f = 1 with source 1 for every named topology the
#: Theorem 2 / Theorem 3 checks cover.
NAMED_PARAMETERS = {
    "k4-unit": (2, 2),
    "k4-fast": (8, 8),
    "k5-unit": (3, 3),
    "k7-unit": (5, 5),
    "ring7-chords": (6, 6),
    "bottleneck4": (2, 2),
    "bottleneck5": (3, 3),
}


def test_figure2_undirected_view_and_appendix_c_tree():
    graph = figure2a()
    view = {(low, high): capacity for low, high, capacity in UndirectedView(graph).edges()}
    # Link (1, 2) carries both packed trees: its capacity is 2 in both views.
    assert graph.capacity(1, 2) == view[(1, 2)] == 2
    # The Appendix C tree {2,3}, {1,4}, {3,4} spans the undirected view...
    assert (2, 3) in view and (1, 4) in view and (3, 4) in view
    # ...but its directed edges (1,4), (4,3), (2,3) never reach node 2 from 1.
    reached = {1}
    for tail, head in [(1, 4), (4, 3), (2, 3)]:
        if tail in reached:
            reached.add(head)
    assert reached == {1, 3, 4}


def test_figure3_pipelining_recovers_eq6_at_every_depth():
    """L = 4096, gamma = rho = 4, Q = 200: naive decays as 4/(h+1), pipelined stays near Eq. 6."""
    eq6 = nab_throughput_lower_bound(4, 4)
    assert eq6 == 2
    expected = {
        1: (Fraction(2), Fraction(2)),
        2: (Fraction(4, 3), Fraction(400, 201)),
        4: (Fraction(4, 5), Fraction(400, 203)),
        8: (Fraction(4, 9), Fraction(400, 207)),
        16: (Fraction(4, 17), Fraction(80, 43)),
    }
    for hops, (naive, piped) in expected.items():
        assert unpipelined_schedule(4096, 4, 4, hops, 200).throughput == naive
        assert pipelined_schedule(4096, 4, 4, hops, 200).throughput == piped
        assert piped >= naive and piped >= eq6 * Fraction(9, 10)
    assert expected[16][0] < eq6 / 4


def test_theorem1_failure_rate_within_bound_and_vanishing():
    """120 seeded schemes per symbol size on Figure 1(b) after the 2-3 dispute."""
    graph = figure1b()
    omega, _uk, rho = omega_and_parameters(graph, 4, 1, [node_pair(2, 3)])
    failures = {
        bits: sum(
            not scheme_is_correct(graph, omega, generate_coding_scheme(graph, rho, bits, seed=seed))
            for seed in range(120)
        )
        for bits in (1, 2, 3, 4, 6, 8)
    }
    assert failures == {1: 61, 2: 18, 3: 4, 4: 2, 6: 0, 8: 0}
    for bits, count in failures.items():
        assert Fraction(count, 120) <= theorem1_failure_bound(4, 1, rho, bits)


def _theorem_networks(seeds, max_capacity):
    for name in NAMED_PARAMETERS:
        yield name, topology(name)
    for seed in seeds:
        yield f"random6/{seed}", random_connected_network(
            6, 3, random.Random(seed), max_capacity=max_capacity
        )


def test_theorem2_bound_sits_between_eq6_and_the_outer_cuts():
    """Eq. 6 <= min(gamma*, 2 rho*) <= gamma_1 and <= U_1 (Appendix F cuts)."""
    for name, graph in _theorem_networks(range(4), max_capacity=4):
        analysis = analyse_network(graph, 1, 1)
        if name in NAMED_PARAMETERS:
            assert (analysis.gamma_star, analysis.rho_star) == NAMED_PARAMETERS[name]
        assert analysis.nab_lower_bound <= analysis.capacity_upper_bound, name
        assert analysis.capacity_upper_bound <= broadcast_mincut(graph, 1), name
        assert analysis.capacity_upper_bound <= u1_value(graph, 1), name


def test_theorem3_ratio_on_named_and_random_networks():
    """T_NAB / min(gamma*, 2 rho*) >= 1/3, and >= 1/2 whenever gamma* <= rho*."""
    fractions = {}
    for name, graph in _theorem_networks(range(1000, 1008), max_capacity=5):
        analysis = analyse_network(graph, 1, 1)
        assert analysis.achieved_fraction >= analysis.guaranteed_fraction, name
        assert analysis.achieved_fraction >= Fraction(1, 3)
        if analysis.gamma_star <= analysis.rho_star:
            assert analysis.achieved_fraction >= Fraction(1, 2)
        fractions[name] = analysis.achieved_fraction
    # Every named topology sits exactly on the 1/2 guarantee; seed 1005 is the
    # one sampled network in the 1/3 case (gamma* = 9 > rho* = 8).
    assert all(fractions[name] == Fraction(1, 2) for name in NAMED_PARAMETERS)
    assert fractions["random6/1005"] == Fraction(8, 17)


def _one_slow_pair(fast_capacity):
    """Complete 5-node network whose only slow (capacity 1) link pair is 4-5."""
    graph = NetworkGraph()
    for tail in range(1, 6):
        for head in range(1, 6):
            if tail != head:
                graph.add_edge(tail, head, 1 if {tail, head} == {4, 5} else fast_capacity)
    return graph


def test_section1_classical_is_arbitrarily_worse_than_nab():
    """Classical EIG keeps shipping full copies over the slow 4-5 link; NAB scales."""
    nab, classical = get_protocol("nab"), get_protocol("classical-flooding")
    payload, params = [bytes(range(32))], {"max_faults": 1}
    ratios = []
    for fast in (1, 2, 4, 8, 16):
        graph = _one_slow_pair(fast)
        nab_record = nab.run(graph, 1, payload, FaultModel(), params)
        classical_record = classical.run(graph, 1, payload, FaultModel(), params)
        assert nab_record.spec_ok and classical_record.spec_ok
        ratios.append(classical_record.elapsed / nab_record.elapsed)
    assert ratios == [
        Fraction(512, 37),
        Fraction(512, 31),
        Fraction(64, 3),
        Fraction(896, 31),
        Fraction(256, 7),
    ]
    assert all(later > earlier for earlier, later in zip(ratios, ratios[1:]))
    assert ratios[-1] >= 4


def _amortisation_inputs(count):
    return [bytes((13 * index + offset) % 256 for offset in range(8)) for index in range(count)]


def test_dispute_control_runs_once_and_amortises_over_q():
    """K4 (capacity 2), f = 1, node 3 garbling the equality check, Q = 1 .. 16."""
    graph = complete_graph(4, capacity=2)
    reference = NetworkAwareBroadcast(graph, 1, 1).run(_amortisation_inputs(16))
    assert reference.spec_ok
    assert reference.throughput == Fraction(64, 37)
    throughputs = {}
    for count in (1, 2, 4, 8, 16):
        attacked = NetworkAwareBroadcast(
            graph, 1, 1, fault_model=FaultModel([3], EqualityGarbageStrategy())
        ).run(_amortisation_inputs(count))
        assert attacked.spec_ok
        assert attacked.dispute_control_executions == 1  # <= f(f+1) = 2
        throughputs[count] = attacked.throughput
    assert throughputs == {
        1: Fraction(64, 3077),
        2: Fraction(128, 3093),
        4: Fraction(256, 3125),
        8: Fraction(512, 3189),
        16: Fraction(1024, 3317),
    }
    # The single Phase 3 execution is a fixed cost: the ratio climbs ~linearly.
    assert throughputs[16] > 8 * throughputs[1]


@pytest.mark.parametrize(
    "length,throughput",
    [
        (8, Fraction(64, 37)),
        (32, Fraction(256, 117)),
        (128, Fraction(1024, 437)),
        (512, Fraction(4096, 1717)),
    ],
)
def test_end_to_end_throughput_grows_with_l_below_theorem2(length, throughput):
    """Fault-free K4 (capacity 2): Eq. 6 = 2, min(gamma*, 2 rho*) = 4."""
    graph = complete_graph(4, capacity=2)
    analysis = analyse_network(graph, 1, 1)
    assert (analysis.nab_lower_bound, analysis.capacity_upper_bound) == (2, 4)
    value = bytes((index * 31) % 256 for index in range(length))
    result = NetworkAwareBroadcast(graph, 1, 1).run_instance(value)
    assert result.agreed_value() == int.from_bytes(value, "big")
    assert Fraction(8 * length) / result.elapsed == throughput
    assert throughput <= analysis.capacity_upper_bound
    if length == 512:
        assert throughput >= analysis.nab_lower_bound * Fraction(8, 10)
