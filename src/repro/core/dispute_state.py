"""Accumulated dispute / fault knowledge and the instance-graph evolution ``G_k``.

Dispute control (Phase 3) produces two kinds of facts:

* a node pair ``{a, b}`` is *in dispute* — their claims about a message
  exchanged between them contradict each other, so at least one of the two is
  faulty (and fault-free pairs are never found in dispute);
* a node is *identified as faulty* — its claims are inconsistent with the
  deterministic algorithm, or every set of at most ``f`` nodes that explains
  all disputes contains it (step DC4), or it is in dispute with more than
  ``f`` distinct nodes.

All fault-free nodes learn these facts through Byzantine broadcast, so they
maintain identical copies of this state and derive identical instance graphs:
``G_{k+1}`` is ``G`` minus the identified-faulty nodes, minus every link
between a disputed pair.
"""

from __future__ import annotations

from itertools import combinations
from typing import Dict, FrozenSet, Iterable, List, Set

from repro.exceptions import ProtocolError
from repro.graph.network_graph import NetworkGraph
from repro.types import NodeId, NodePair, node_pair


class DisputeState:
    """Mutable record of disputes and identified-faulty nodes across instances."""

    def __init__(self, max_faults: int) -> None:
        if max_faults < 0:
            raise ProtocolError(f"max_faults must be non-negative, got {max_faults}")
        self.max_faults = max_faults
        self._disputes: Set[NodePair] = set()
        self._known_faulty: Set[NodeId] = set()

    # -------------------------------------------------------------- recording

    def add_disputes(self, pairs: Iterable[NodePair]) -> None:
        """Record a batch of disputed pairs."""
        for pair in pairs:
            pair = frozenset(pair)
            if len(pair) != 2:
                raise ProtocolError(f"a dispute involves exactly two nodes, got {set(pair)}")
            self._disputes.add(pair)

    def mark_faulty(self, node: NodeId) -> None:
        """Record that ``node`` has been identified as faulty (step DC3)."""
        self._known_faulty.add(node)

    # --------------------------------------------------------------- knowledge

    def disputes(self) -> FrozenSet[NodePair]:
        """All disputed pairs recorded so far."""
        return frozenset(self._disputes)

    def is_disputed(self, a: NodeId, b: NodeId) -> bool:
        """Whether the pair ``{a, b}`` has been found in dispute."""
        return node_pair(a, b) in self._disputes

    def dispute_partners(self, node: NodeId) -> Set[NodeId]:
        """Nodes that ``node`` has been found in dispute with."""
        partners: Set[NodeId] = set()
        for pair in self._disputes:
            if node in pair:
                (other,) = pair - {node}
                partners.add(other)
        return partners

    def explaining_sets(self, nodes: Iterable[NodeId]) -> List[FrozenSet[NodeId]]:
        """All sets of at most ``f`` nodes (from ``nodes``) covering every disputed pair.

        A set ``F`` *explains* the disputes if every disputed pair has at least
        one endpoint in ``F``; the adversary's actual faulty set is always one
        of them, so the intersection of all explaining sets contains only
        certainly-faulty nodes (step DC4).
        """
        universe = sorted(set(nodes))
        relevant = [pair for pair in self._disputes if pair <= set(universe)]
        explaining: List[FrozenSet[NodeId]] = []
        for size in range(0, self.max_faults + 1):
            for candidate in combinations(universe, size):
                candidate_set = frozenset(candidate)
                if all(pair & candidate_set for pair in relevant):
                    explaining.append(candidate_set)
        return explaining

    def implied_faulty(self, nodes: Iterable[NodeId]) -> Set[NodeId]:
        """Nodes that are certainly faulty given the recorded evidence.

        The result is the union of

        * nodes directly identified as faulty (DC3),
        * nodes in dispute with more than ``f`` distinct other nodes (a
          fault-free node can only be in dispute with faulty ones, of which
          there are at most ``f``),
        * the intersection of all explaining sets (DC4).
        """
        universe = sorted(set(nodes))
        certainly_faulty: Set[NodeId] = set(self._known_faulty) & set(universe)
        for node in universe:
            if len(self.dispute_partners(node) & set(universe)) > self.max_faults:
                certainly_faulty.add(node)
        explaining = self.explaining_sets(universe)
        if explaining:
            intersection: Set[NodeId] = set(explaining[0])
            for candidate in explaining[1:]:
                intersection &= candidate
            certainly_faulty |= intersection
        return certainly_faulty

    # ------------------------------------------------------------- derivation

    def instance_graph(self, graph: NetworkGraph) -> NetworkGraph:
        """Derive the instance graph ``G_k`` from the original network ``G``.

        Identified-faulty nodes (and their links) are removed, then every link
        between a disputed pair is removed.
        """
        faulty = self.implied_faulty(graph.nodes())
        return graph.remove_nodes(faulty).remove_links_between(self._disputes)

    # ----------------------------------------------------------- serialisation

    def to_jsonable(self) -> Dict[str, object]:
        """A JSON-safe rendering of the accumulated dispute knowledge.

        The layout is canonical (pairs sorted within and across, faulty ids
        sorted) so ``json.dumps(..., sort_keys=True)`` of the result is a pure
        function of the knowledge itself — the property the session service's
        write-ahead snapshots rely on.
        """
        return {
            "max_faults": self.max_faults,
            "disputes": sorted(sorted(pair) for pair in self._disputes),
            "known_faulty": sorted(self._known_faulty),
        }

    @classmethod
    def from_jsonable(cls, data: Dict[str, object]) -> "DisputeState":
        """Rebuild a state previously rendered by :meth:`to_jsonable`.

        Raises:
            ProtocolError: if the payload is malformed (a dispute without
                exactly two distinct nodes, or a negative ``max_faults``).
        """
        state = cls(int(data["max_faults"]))
        state.add_disputes(frozenset(pair) for pair in data["disputes"])
        for node in data["known_faulty"]:
            state.mark_faulty(node)
        return state

    def copy(self) -> "DisputeState":
        """An independent copy of this state."""
        clone = DisputeState(self.max_faults)
        clone._disputes = set(self._disputes)
        clone._known_faulty = set(self._known_faulty)
        return clone

    def __repr__(self) -> str:
        return (
            f"DisputeState(disputes={sorted(tuple(sorted(p)) for p in self._disputes)}, "
            f"known_faulty={sorted(self._known_faulty)})"
        )
