"""Dispute control's rules, each named by a behavioural test.

Five rules of Phase 3 and the instance loop were held only by the sha256 of
the ``adversary_zoo`` grid or by a search score: breaking one moved a digest
or a score, and no test said which rule broke.  Each test below pins one rule
at the exact boundary a one-token change would cross:

* DC2 compares the equality-check claims, not only the Phase 1 claims;
* DC3 checks a node's announced flag against its claimed receptions, and its
  claimed Phase 1 forwards against its claimed Phase 1 receptions;
* DC4 intersects the explaining sets of *at most* ``f`` nodes;
* special case 2 skips Phase 2 once *at least* ``f`` nodes are excluded.

Special case 1, its neighbour in the instance loop, gets its rule named
here too: a source identified as faulty means the default output, no phase.
"""

from __future__ import annotations

import pytest

from repro.adversary.strategies import FalseFlagStrategy, Phase1CorruptingRelayStrategy
from repro.coding.coding_matrix import generate_coding_scheme
from repro.core.dispute_state import DisputeState
from repro.core.nab import NetworkAwareBroadcast
from repro.core.parameters import compute_instance_parameters
from repro.core.phase1_broadcast import run_phase1
from repro.core.phase2_equality import run_phase2
from repro.core.phase3_dispute import DEFAULT_OUTPUT, run_phase3
from repro.gf.symbols import symbol_size_for
from repro.graph.generators import complete_graph
from repro.transport.faults import ByzantineStrategy, FaultModel
from repro.transport.network import SynchronousNetwork

L_BITS = 32
INPUT = 0xC0FFEE42


class EqualitySendLiar(ByzantineStrategy):
    """Honest everywhere; in dispute control it misstates one equality-check send."""

    name = "equality-send-liar"

    def __init__(self, head: int) -> None:
        self.head = head

    def dispute_claims(self, instance, node, true_claims):
        claims = dict(true_claims)
        sent = dict(claims["equality_sent"])
        sent[self.head] = tuple(symbol ^ 1 for symbol in sent[self.head])
        claims["equality_sent"] = sent
        return claims


def _three_phases(faulty, strategy):
    """Phases 1-3 of one instance on K4 (f = 1), dispute control run regardless."""
    graph = complete_graph(4, capacity=2)
    network = SynchronousNetwork(graph, FaultModel([faulty], strategy))
    params = compute_instance_parameters(graph, 1, 4, 1, DisputeState(1))
    scheme = generate_coding_scheme(
        graph, params.rho, symbol_size_for(L_BITS, params.rho), seed=5
    )
    phase1 = run_phase1(network, graph, 1, INPUT, L_BITS, params.gamma)
    phase2 = run_phase2(network, graph, phase1.values, L_BITS, scheme, graph.nodes(), 1, 1)
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
    return phase1, phase2, result


class TestDC2:
    def test_equality_claims_alone_put_a_pair_in_dispute(self):
        # Node 3 is honest through Phases 1 and 2, so every Phase 1 claim
        # agrees; in DC1 it claims a different equality-check vector on its
        # link to 4 than 4 claims to have received.  DC2 must dispute {3, 4}.
        phase1, phase2, result = _three_phases(3, EqualitySendLiar(head=4))
        assert not phase2.mismatch_announced
        claims = result.claims
        for tree_index, tree in enumerate(phase1.trees):
            if tree.parents.get(4) == 3:
                assert (
                    claims[3]["phase1_sent"][(tree_index, 4)]
                    == claims[4]["phase1_received"][tree_index]
                )
        assert claims[3]["equality_sent"][4] != claims[4]["equality_received"][3]
        assert result.new_disputes == (frozenset({3, 4}),)
        assert result.output_bits == INPUT


class TestDC3:
    def test_a_false_flag_told_truthfully_identifies_its_node(self):
        # Node 3 announces MISMATCH although every vector it received checks
        # out, then claims exactly what it received.  No pair of claims
        # conflicts, so only DC3's flag check (the announced flag must be the
        # one the claimed receptions imply) can name node 3.
        _phase1, phase2, result = _three_phases(3, FalseFlagStrategy())
        assert phase2.announced_flags[3] and phase2.mismatch_announced
        assert not any(flag for node, flag in phase2.announced_flags.items() if node != 3)
        assert result.new_disputes == ()
        assert result.identified_faulty == (3,)
        assert result.output_bits == INPUT

    def test_a_corrupted_forward_told_truthfully_identifies_its_node(self):
        # Node 3 has a Phase 1 child and forwards it a flipped symbol, then
        # claims the flipped symbol as sent: sender and receiver agree, so DC2
        # sees no dispute.  Its equality-check sends and flag follow from what
        # it received, so only DC3's forwarding check (a claimed forward must
        # equal the claimed reception) can name node 3.
        phase1, _phase2, result = _three_phases(3, Phase1CorruptingRelayStrategy())
        forwards = [
            (tree_index, child)
            for tree_index, tree in enumerate(phase1.trees)
            for child in tree.children_of(3)
        ]
        assert forwards
        claims = result.claims[3]
        for tree_index, child in forwards:
            assert claims["phase1_sent"][(tree_index, child)] != claims["phase1_received"][tree_index]
            assert (
                claims["phase1_sent"][(tree_index, child)]
                == result.claims[child]["phase1_received"][tree_index]
            )
        assert result.new_disputes == ()
        assert result.identified_faulty == (3,)
        assert result.output_bits == INPUT


class TestDC4:
    def test_explaining_sets_have_at_most_f_nodes(self):
        # At f = 1 the disputes {1, 2} and {1, 3} are explained by {1} alone:
        # {2, 3} explains them too, but it has f + 1 nodes.
        state = DisputeState(1)
        state.add_disputes([frozenset({1, 2}), frozenset({1, 3})])
        assert state.explaining_sets([1, 2, 3, 4]) == [frozenset({1})]
        assert state.implied_faulty([1, 2, 3, 4]) == {1}

    def test_the_intersection_alone_identifies_a_node(self):
        # At f = 2 node 1 is in dispute with only f nodes, so the partner
        # count does not identify it; every explaining set of at most two
        # nodes holds 1 (it needs one of {4, 5} besides), so DC4 does.
        state = DisputeState(2)
        state.add_disputes([frozenset({1, 2}), frozenset({1, 3}), frozenset({4, 5})])
        nodes = [1, 2, 3, 4, 5, 6, 7]
        assert len(state.dispute_partners(1)) == 2
        assert state.explaining_sets(nodes) == [frozenset({1, 4}), frozenset({1, 5})]
        assert state.implied_faulty(nodes) == {1}


class TestSpecialCase2:
    @pytest.mark.parametrize(
        "node_count,max_faults,excluded,phase2_runs",
        [(5, 1, (5,), False), (7, 2, (6, 7), False), (7, 2, (7,), True)],
    )
    def test_phase2_is_skipped_from_exactly_f_exclusions(
        self, node_count, max_faults, excluded, phase2_runs
    ):
        nab = NetworkAwareBroadcast(complete_graph(node_count), 1, max_faults)
        for node in excluded:
            nab.dispute_state.mark_faulty(node)
        result = nab.run_instance(INPUT.to_bytes(4, "big"))
        phases = {timing.name for timing in result.phase_timings}
        assert "phase1_broadcast" in phases
        assert any(name.startswith("phase2_") for name in phases) is phase2_runs
        assert result.agreed_value() == INPUT


class TestSpecialCase1:
    def test_an_identified_faulty_source_yields_the_default_everywhere(self):
        nab = NetworkAwareBroadcast(complete_graph(5), 1, 1)
        nab.dispute_state.mark_faulty(1)
        result = nab.run_instance(INPUT.to_bytes(4, "big"))
        # Every node the fault model calls fault-free adopts the default.
        assert result.outputs == {node: DEFAULT_OUTPUT for node in range(1, 6)}
        assert result.parameters is None and result.phase1_depth is None
        assert result.bits_sent == 0
