"""Tests for gamma*, rho*, the capacity bounds (Theorems 2 & 3) and pipelining."""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations
from math import comb

import pytest
from _oracles.capacity import construct_gamma_family, gamma_star_by_family, uk_by_members
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.capacity.bounds import (
    analyse_network,
    capacity_upper_bound,
    nab_throughput_lower_bound,
    theorem3_guarantee,
)
from repro.capacity.gamma_star import gamma_star
from repro.capacity.pipelining import pipelined_schedule, unpipelined_schedule
from repro.capacity.rho_star import rho_star, u1_value
from repro.coding.omega import compute_rho, compute_uk, dispute_free_subgraphs
from repro.exceptions import ProtocolError
from repro.graph import gomory_hu
from repro.graph.connectivity import resilience_violation
from repro.graph.flow_cache import all_cache_stats, clear_mincut_cache, graph_signature
from repro.graph.generators import (
    complete_graph,
    heterogeneous_bottleneck,
    random_connected_network,
    torus_2d,
)
from repro.graph.gomory_hu import clear_gomory_hu_cache
from repro.graph.mincut import broadcast_mincut
from repro.graph.network_graph import NetworkGraph
from repro.workloads.topologies import topology


@st.composite
def gated_graphs(draw, faults=(1, 2)):
    """``(graph, f)``: a random graph that passes the resilience gate at ``f``.

    ``f`` is drawn from ``faults``.  Symmetric graphs draw one capacity per
    link; the others draw one per direction and may lose up to two single
    directions, so some links are one-way and a node's neighbours are its
    in- and out-neighbours together.
    """
    max_faults = draw(st.sampled_from(faults))
    node_count = draw(st.integers(min_value=max(3 * max_faults + 1, 3), max_value=10))
    symmetric = draw(st.booleans())
    graph = random_connected_network(
        node_count,
        2 * max_faults + 1,
        random.Random(draw(st.integers(min_value=0, max_value=2**32))),
        max_capacity=5,
        extra_edge_probability=draw(st.sampled_from((0.0, 0.3, 0.6))),
        symmetric=symmetric,
    )
    if not symmetric:
        edges = [(tail, head) for tail, head, _capacity in graph.edges()]
        graph = graph.remove_edges(draw(st.sets(st.sampled_from(edges), max_size=2)))
    assume(resilience_violation(graph, max_faults) is None)
    return graph, max_faults


class TestGammaStar:
    def test_gamma_of_full_graph(self):
        assert broadcast_mincut(complete_graph(4, capacity=2), 1) == 6

    def test_gamma_star_at_most_gamma1(self):
        graph = complete_graph(4, capacity=2)
        assert gamma_star(graph, 1, 1) <= broadcast_mincut(graph, 1)

    def test_gamma_star_complete_graph(self):
        # Removing one faulty node's links from K4 (capacity 2) leaves each
        # remaining node with in-capacity 4 from {source, one other}.
        assert gamma_star(complete_graph(4, capacity=2), 1, 1) == 4

    def test_gamma_star_with_no_faults_is_gamma1(self):
        graph = complete_graph(4, capacity=3)
        assert gamma_star(graph, 1, 0) == broadcast_mincut(graph, 1)

    def test_family_excludes_source_removal(self):
        graph = complete_graph(4)
        family = construct_gamma_family(graph, 1, 1)
        for faulty_set, candidate in family.items():
            assert candidate.has_node(1)

    def test_family_contains_empty_fault_set(self):
        graph = complete_graph(4)
        family = construct_gamma_family(graph, 1, 1)
        assert frozenset() in family
        assert graph_signature(family[frozenset()]) == graph_signature(graph)

    def test_invalid_arguments(self):
        graph = complete_graph(4)
        with pytest.raises(ProtocolError):
            gamma_star(graph, 99, 1)
        with pytest.raises(ProtocolError):
            gamma_star(graph, 1, -1)


class TestClosedFormAgainstTheFamilies:
    """``gamma*`` and ``U_k`` read off ``G - F`` equal the literal families."""

    @settings(max_examples=40, deadline=None)
    @given(gated_graphs(faults=(0, 1, 2)))
    def test_gamma_star_and_u1_equal_the_oracle(self, case):
        graph, max_faults = case
        members = combinations(graph.nodes(), graph.node_count() - max_faults)
        u1 = uk_by_members(graph, members)
        for source in (1, graph.node_count()):
            gamma = gamma_star_by_family(graph, source, max_faults)
            analysis = analyse_network(graph, source, max_faults)
            assert (analysis.gamma_star, analysis.rho_star) == (gamma, compute_rho(u1))
            assert gamma_star(graph, source, max_faults) == gamma
        assert u1_value(graph, max_faults) == u1

    @pytest.mark.parametrize("max_faults", [0, 1, 2])
    def test_one_pass_contracts_each_member_once_and_caches_nothing(
        self, max_faults, contractions, solves, monkeypatch
    ):
        # gamma*'s members with |F| < f avoid the source; U_1 takes every
        # |F| = f member, and gamma* reads those avoiding the source too.
        graph = torus_2d(3, 4)
        clear_gomory_hu_cache()
        unit_forms = []
        monkeypatch.setattr(gomory_hu, "_unit_form", lambda signature: unit_forms.append(1))
        before = all_cache_stats()["gomory_hu"]
        analysis = analyse_network(graph, 1, max_faults)
        n = graph.node_count()
        assert len(contractions) == sum(comb(n - 1, size) for size in range(max_faults)) + comb(
            n, max_faults
        )
        assert (solves, unit_forms) == ([], [])
        assert all_cache_stats()["gomory_hu"] == before
        assert analysis.rho_star == analysis.gamma_star == 8 - 2 * max_faults

    @settings(max_examples=30, deadline=None)
    @given(gated_graphs(), st.data())
    def test_uk_under_disputes_equals_the_per_member_chain(self, case, data):
        graph, max_faults = case
        pairs = list(combinations(graph.nodes(), 2))
        disputes = data.draw(st.lists(st.sampled_from(pairs), min_size=1, max_size=3))
        instance = graph.remove_links_between(disputes)
        omega = dispute_free_subgraphs(instance, graph.node_count() - max_faults, disputes)
        assume(omega)
        clear_gomory_hu_cache()
        assert compute_uk(instance, omega) == uk_by_members(instance, omega)

    def test_analysis_builds_no_graph(self, monkeypatch):
        graph = topology("torus-8x8")
        clear_mincut_cache()
        clear_gomory_hu_cache()
        built = []
        original = NetworkGraph.add_edge

        def counted(self, tail, head, capacity):
            built.append((tail, head))
            original(self, tail, head, capacity)

        monkeypatch.setattr(NetworkGraph, "add_edge", counted)
        analysis = analyse_network(graph, 1, 1)
        assert (analysis.gamma_star, analysis.rho_star) == (6, 6)
        assert built == []

    def test_a_node_with_f_neighbours_is_refused_by_name(self):
        graph = complete_graph(4)
        graph.add_edge(1, 5, 1)
        graph.add_edge(5, 1, 1)
        assert gamma_star(graph, 1, 0) == 1
        with pytest.raises(ProtocolError, match="node 5 has 1 neighbours"):
            gamma_star(graph, 1, 1)


class TestRhoStar:
    def test_u1_complete_graph(self):
        # K4, capacity 2: any 3-subset is a K3 with undirected capacity 4 per edge.
        assert u1_value(complete_graph(4, capacity=2), 1) == 8

    def test_rho_star_is_half_u1(self):
        graph = complete_graph(4, capacity=2)
        assert rho_star(graph, 1) == 4

    def test_rho_star_heterogeneous(self):
        graph = heterogeneous_bottleneck(4, fast_capacity=8, slow_capacity=1)
        # Subsets containing the slow node are limited by its capacity-2 undirected links.
        assert u1_value(graph, 1) == 4
        assert rho_star(graph, 1) == 2

    def test_invalid_arguments(self):
        with pytest.raises(ProtocolError):
            u1_value(complete_graph(4), -1)
        with pytest.raises(ProtocolError):
            u1_value(complete_graph(4), 3)


class TestBounds:
    def test_lower_bound_formula(self):
        assert nab_throughput_lower_bound(4, 4) == Fraction(2)
        assert nab_throughput_lower_bound(6, 3) == Fraction(2)

    def test_upper_bound_formula(self):
        assert capacity_upper_bound(4, 4) == 4
        assert capacity_upper_bound(10, 3) == 6

    def test_guarantee_cases(self):
        assert theorem3_guarantee(3, 4) == Fraction(1, 2)
        assert theorem3_guarantee(4, 4) == Fraction(1, 2)
        assert theorem3_guarantee(5, 4) == Fraction(1, 3)

    def test_invalid_arguments(self):
        with pytest.raises(ProtocolError):
            nab_throughput_lower_bound(0, 3)
        with pytest.raises(ProtocolError):
            capacity_upper_bound(3, 0)
        with pytest.raises(ProtocolError):
            theorem3_guarantee(0, 0)

    def test_analyse_network_satisfies_theorem3(self):
        analysis = analyse_network(complete_graph(4, capacity=2), 1, 1)
        assert analysis.achieved_fraction >= analysis.guaranteed_fraction
        assert analysis.nab_lower_bound <= analysis.capacity_upper_bound
        assert analysis.achieved_fraction >= Fraction(1, 3)

    def test_theorem3_holds_on_random_networks(self):
        rng = random.Random(23)
        for seed in range(6):
            graph = random_connected_network(6, 3, random.Random(seed), max_capacity=4)
            analysis = analyse_network(graph, 1, 1)
            assert analysis.achieved_fraction >= analysis.guaranteed_fraction
        del rng

    def test_theorem3_half_case_when_gamma_le_rho(self):
        for seed in range(8):
            graph = random_connected_network(6, 3, random.Random(100 + seed), max_capacity=4)
            analysis = analyse_network(graph, 1, 1)
            if analysis.gamma_star <= analysis.rho_star:
                assert analysis.achieved_fraction >= Fraction(1, 2)


class TestPipelining:
    def test_unpipelined_grows_with_hops(self):
        shallow = unpipelined_schedule(1024, 4, 4, hops=1, instances=10)
        deep = unpipelined_schedule(1024, 4, 4, hops=5, instances=10)
        assert deep.total_time > shallow.total_time

    def test_pipelined_latency_additive_in_hops(self):
        base = pipelined_schedule(1024, 4, 4, hops=1, instances=10)
        deep = pipelined_schedule(1024, 4, 4, hops=5, instances=10)
        assert deep.total_time - base.total_time == base.round_length * 4

    def test_pipelined_throughput_approaches_eq6(self):
        """For many instances the pipelined throughput approaches gamma*rho*/(gamma*+rho*)."""
        gamma_value, rho_value, bits = 4, 4, 4096
        target = nab_throughput_lower_bound(gamma_value, rho_value)
        schedule = pipelined_schedule(bits, gamma_value, rho_value, hops=6, instances=500)
        assert schedule.throughput > target * Fraction(98, 100)
        assert schedule.throughput <= target

    def test_speedup_at_least_one_and_grows_with_depth(self):
        def speedup(hops):
            piped = pipelined_schedule(1024, 4, 4, hops=hops, instances=50)
            naive = unpipelined_schedule(1024, 4, 4, hops=hops, instances=50)
            return piped.throughput / naive.throughput

        flat, deep = speedup(1), speedup(6)
        assert flat >= 1
        assert deep > flat

    def test_overhead_is_included(self):
        with_overhead = pipelined_schedule(64, 2, 2, hops=2, instances=3, flag_overhead=10)
        without = pipelined_schedule(64, 2, 2, hops=2, instances=3)
        assert with_overhead.total_time > without.total_time

    def test_invalid_arguments(self):
        with pytest.raises(ProtocolError):
            unpipelined_schedule(0, 2, 2, 1, 1)
        with pytest.raises(ProtocolError):
            pipelined_schedule(8, 0, 2, 1, 1)
        with pytest.raises(ProtocolError):
            pipelined_schedule(8, 2, 2, 0, 1)
        with pytest.raises(ProtocolError):
            pipelined_schedule(8, 2, 2, 1, 0)


class TestBoundProperties:
    @given(st.integers(min_value=1, max_value=40), st.integers(min_value=1, max_value=40))
    @settings(max_examples=100, deadline=None)
    def test_theorem3_algebraic_identity(self, gamma_value, rho_value):
        """gamma*rho*/(gamma*+rho*) >= min(gamma*, 2rho*)/3 always (and /2 when gamma <= rho)."""
        lower = nab_throughput_lower_bound(gamma_value, rho_value)
        upper = capacity_upper_bound(gamma_value, rho_value)
        assert lower >= upper / 3
        if gamma_value <= rho_value:
            assert lower >= upper / 2

    @given(st.integers(min_value=1, max_value=40), st.integers(min_value=1, max_value=40))
    @settings(max_examples=60, deadline=None)
    def test_lower_bound_never_exceeds_upper_bound(self, gamma_value, rho_value):
        assert nab_throughput_lower_bound(gamma_value, rho_value) <= capacity_upper_bound(
            gamma_value, rho_value
        )

    @given(
        st.integers(min_value=8, max_value=2048),
        st.integers(min_value=1, max_value=8),
        st.integers(min_value=1, max_value=8),
        st.integers(min_value=1, max_value=6),
        st.integers(min_value=1, max_value=50),
    )
    @settings(max_examples=60, deadline=None)
    def test_pipelining_never_hurts_for_enough_instances(
        self, bits, gamma_value, rho_value, hops, instances
    ):
        # Pipelining pays a fill-in latency of (hops - 1) rounds, so it only
        # wins once Q >= 1 + gamma/rho (algebra on the two schedule formulas);
        # for smaller Q we only check the asymptotic throughput ordering.
        naive = unpipelined_schedule(bits, gamma_value, rho_value, hops, instances)
        piped = pipelined_schedule(bits, gamma_value, rho_value, hops, instances)
        if instances * rho_value >= rho_value + gamma_value:
            assert piped.total_time <= naive.total_time
        large_naive = unpipelined_schedule(bits, gamma_value, rho_value, hops, 1000)
        large_piped = pipelined_schedule(bits, gamma_value, rho_value, hops, 1000)
        assert large_piped.throughput >= large_naive.throughput
