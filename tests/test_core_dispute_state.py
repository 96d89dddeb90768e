"""Tests for the dispute state and instance-graph evolution."""

from __future__ import annotations

import pytest

from repro.core.dispute_state import DisputeState
from repro.exceptions import ProtocolError
from repro.graph.flow_cache import graph_signature
from repro.graph.generators import complete_graph, figure1a
from repro.types import node_pair


class TestDisputeRecording:
    def test_add_and_count(self):
        state = DisputeState(1)
        state.add_disputes([node_pair(2, 3)])
        state.add_disputes([node_pair(3, 2)])  # same pair
        assert len(state.disputes()) == 1
        assert node_pair(2, 3) in state.disputes()

    def test_add_disputes_batch(self):
        state = DisputeState(2)
        state.add_disputes([node_pair(1, 2), node_pair(3, 4)])
        assert len(state.disputes()) == 2

    def test_add_disputes_rejects_bad_pairs(self):
        state = DisputeState(1)
        with pytest.raises(ProtocolError):
            state.add_disputes([frozenset((1,))])

    def test_negative_fault_bound_rejected(self):
        with pytest.raises(ProtocolError):
            DisputeState(-1)

    def test_dispute_partners(self):
        state = DisputeState(2)
        state.add_disputes([node_pair(1, 2)])
        state.add_disputes([node_pair(1, 3)])
        assert state.dispute_partners(1) == {2, 3}
        assert state.dispute_partners(2) == {1}
        assert state.dispute_partners(4) == set()

    def test_snapshot_and_copy(self):
        state = DisputeState(1)
        state.add_disputes([node_pair(2, 3)])
        state.mark_faulty(4)
        clone = state.copy()
        clone.add_disputes([node_pair(1, 2)])
        assert state.disputes() == frozenset({node_pair(2, 3)})
        assert len(clone.disputes()) == 2
        assert state.to_jsonable()["known_faulty"] == [4]

    def test_repr(self):
        state = DisputeState(1)
        state.add_disputes([node_pair(2, 3)])
        assert "(2, 3)" in repr(state)


class TestFaultInference:
    def test_known_faulty_propagates(self):
        state = DisputeState(1)
        state.mark_faulty(3)
        assert state.implied_faulty([1, 2, 3, 4]) == {3}

    def test_node_in_dispute_with_more_than_f_nodes_is_faulty(self):
        state = DisputeState(1)
        state.add_disputes([node_pair(2, 1)])
        state.add_disputes([node_pair(2, 3)])
        assert 2 in state.implied_faulty([1, 2, 3, 4])

    def test_single_dispute_is_ambiguous(self):
        state = DisputeState(1)
        state.add_disputes([node_pair(2, 3)])
        assert state.implied_faulty([1, 2, 3, 4]) == set()

    def test_intersection_of_explaining_sets(self):
        # With f = 1 and disputes {2,3} and {2,4}, only {2} explains both.
        state = DisputeState(1)
        state.add_disputes([node_pair(2, 3)])
        state.add_disputes([node_pair(2, 4)])
        assert state.implied_faulty([1, 2, 3, 4]) == {2}

    def test_explaining_sets_enumeration(self):
        state = DisputeState(1)
        state.add_disputes([node_pair(2, 3)])
        explaining = state.explaining_sets([1, 2, 3, 4])
        assert frozenset({2}) in explaining
        assert frozenset({3}) in explaining
        assert frozenset() not in explaining

    def test_explaining_sets_without_disputes_include_empty_set(self):
        state = DisputeState(1)
        assert frozenset() in state.explaining_sets([1, 2, 3])

    def test_f2_requires_more_evidence(self):
        state = DisputeState(2)
        state.add_disputes([node_pair(2, 3)])
        state.add_disputes([node_pair(2, 4)])
        # With f = 2 the pair {3, 4} also explains everything, so node 2 is not
        # yet certainly faulty.
        assert state.implied_faulty([1, 2, 3, 4, 5, 6, 7]) == set()
        state.add_disputes([node_pair(2, 5)])
        assert state.implied_faulty([1, 2, 3, 4, 5, 6, 7]) == {2}


class TestInstanceGraph:
    def test_no_knowledge_returns_same_graph(self):
        state = DisputeState(1)
        graph = figure1a()
        assert graph_signature(state.instance_graph(graph)) == graph_signature(graph)

    def test_dispute_removes_links(self):
        state = DisputeState(1)
        state.add_disputes([node_pair(2, 3)])
        derived = state.instance_graph(figure1a())
        assert not derived.has_edge(2, 3)
        assert not derived.has_edge(3, 2)
        assert derived.has_node(2) and derived.has_node(3)

    def test_identified_faulty_removes_node(self):
        state = DisputeState(1)
        state.mark_faulty(4)
        derived = state.instance_graph(complete_graph(4))
        assert not derived.has_node(4)
        assert derived.node_count() == 3

    def test_excessive_disputes_remove_node(self):
        state = DisputeState(1)
        state.add_disputes([node_pair(3, 1)])
        state.add_disputes([node_pair(3, 2)])
        derived = state.instance_graph(complete_graph(4))
        assert not derived.has_node(3)
        # Links between the surviving disputed pairs are also dropped.
        assert derived.has_edge(1, 2)
