"""Fault model: which nodes are Byzantine and how they behave.

The paper's adversary controls up to ``f < n / 3`` nodes, knows the topology,
the algorithm and the source input, and can deviate arbitrarily — including
sending incorrect or inconsistent messages and omitting messages (a missing
message is interpreted as a default value by the recipient).  The set of
faulty nodes is fixed across the repeated NAB instances.

Protocols in this library consult the :class:`FaultModel` at every point where
a faulty node gets to choose what to do.  :class:`ByzantineStrategy` defines
those decision hooks with honest defaults (a "Byzantine" node running the
honest strategy is indistinguishable from a fault-free node); concrete attack
strategies in :mod:`repro.adversary.strategies` override the hooks they care
about.  Keeping the hooks protocol-level (rather than intercepting raw
messages) mirrors the structure of the paper's arguments, which reason about
what a faulty node may inject at each algorithm step.
"""

from __future__ import annotations

from typing import Any, Dict, FrozenSet, Iterable, List, Optional, Sequence

from repro.exceptions import ProtocolError
from repro.types import NodeId


class ByzantineStrategy:
    """Decision hooks for faulty nodes.  The base class behaves honestly.

    Every hook receives enough context to implement the attacks discussed in
    the paper (equivocation by the source, corruption of relayed symbols,
    false equality-check flags, lying during dispute control, corrupting the
    classical broadcast used as a sub-protocol).  Hooks must be deterministic
    functions of their arguments and any internal state seeded at
    construction, so experiments are reproducible.
    """

    #: Human-readable strategy name used in reports.
    name = "honest"

    # ------------------------------------------------------- Phase 1 hooks

    def phase1_source_symbol(
        self,
        instance: int,
        tree_index: int,
        child: NodeId,
        true_symbol: int,
    ) -> int:
        """Symbol the (faulty) source sends to ``child`` on tree ``tree_index``.

        Returning a different value per child implements source equivocation.
        """
        return true_symbol

    def phase1_forward_symbol(
        self,
        instance: int,
        node: NodeId,
        tree_index: int,
        child: NodeId,
        true_symbol: int,
    ) -> int:
        """Symbol a faulty relay forwards to ``child`` on tree ``tree_index``."""
        return true_symbol

    # ------------------------------------------------------- Phase 2 hooks

    def equality_check_vector(
        self,
        instance: int,
        node: NodeId,
        neighbor: NodeId,
        true_vector: Sequence[int],
    ) -> Sequence[int]:
        """Coded symbols a faulty node sends to ``neighbor`` during Equality Check."""
        return true_vector

    def equality_check_flag(self, instance: int, node: NodeId, true_flag: bool) -> bool:
        """The MISMATCH flag value a faulty node claims (True = MISMATCH)."""
        return true_flag

    # ----------------------------------------------- classical broadcast hooks

    def broadcast_value(
        self,
        instance: int,
        node: NodeId,
        receiver: NodeId,
        context: str,
        true_value: Any,
    ) -> Any:
        """Value a faulty node reports to ``receiver`` inside a classical BB round.

        ``context`` identifies the sub-protocol use ("flag", "dispute", ...) and
        the position inside it (e.g. the EIG label path), so strategies can
        target specific rounds.
        """
        return true_value

    def relay_value(
        self,
        instance: int,
        node: NodeId,
        path: Sequence[NodeId],
        receiver: NodeId,
        true_value: Any,
    ) -> Any:
        """Value a faulty intermediate node forwards along a disjoint-path relay."""
        return true_value

    # ------------------------------------------------------- Phase 3 hooks

    def dispute_claims(
        self,
        instance: int,
        node: NodeId,
        true_claims: Dict[str, Any],
    ) -> Dict[str, Any]:
        """Transcript claims a faulty node broadcasts during dispute control."""
        return true_claims

    # ----------------------------------------------------- observation hooks

    def observe_faulty_nodes(self, faulty: FrozenSet[NodeId]) -> None:
        """Called once when the strategy is bound to a fault model.

        The paper's adversary controls all its nodes jointly, so a strategy
        serving a coalition learns the full membership up front (e.g. to run a
        deterministic per-instance rotation over its members).  The base
        strategy ignores it.
        """

    def observe_instance(
        self,
        instance: int,
        graph: Any,
        instance_graph: Any,
        source: NodeId,
        max_faults: int,
        dispute_state: Any,
    ) -> None:
        """Called at the start of every NAB instance with the public state.

        ``dispute_state`` is a private copy of the fault-free nodes' agreed
        :class:`repro.core.dispute_state.DisputeState` — public knowledge the
        paper's adversary trivially has, which adaptive strategies use to
        retarget away from already-disputed edges.  Mutating the copy has no
        effect on the protocol.  The base strategy ignores the call.
        """


class FaultModel:
    """The set of Byzantine nodes together with their strategy.

    Args:
        faulty_nodes: Node identifiers controlled by the adversary.
        strategy: The :class:`ByzantineStrategy` those nodes follow.  Defaults
            to the honest strategy (useful as the "no visible misbehaviour"
            baseline).

    Raises:
        ProtocolError: if the same node is listed twice (guards against typos
            in experiment configuration).
    """

    def __init__(
        self,
        faulty_nodes: Iterable[NodeId] = (),
        strategy: Optional[ByzantineStrategy] = None,
    ) -> None:
        faulty_list = list(faulty_nodes)
        if len(faulty_list) != len(set(faulty_list)):
            raise ProtocolError("faulty node list contains duplicates")
        self._faulty: FrozenSet[NodeId] = frozenset(faulty_list)
        self.strategy = strategy if strategy is not None else ByzantineStrategy()
        self.strategy.observe_faulty_nodes(self._faulty)

    def fault_count(self) -> int:
        """Number of Byzantine nodes."""
        return len(self._faulty)

    def is_faulty(self, node: NodeId) -> bool:
        """Whether ``node`` is controlled by the adversary."""
        return node in self._faulty

    def fault_free(self, nodes: Iterable[NodeId]) -> List[NodeId]:
        """The fault-free subset of ``nodes``, sorted."""
        return sorted(node for node in nodes if node not in self._faulty)

    def validate_for(self, node_count: int, max_faults: int) -> None:
        """Check the model against the ``n >= 3f + 1`` resilience requirement.

        Raises:
            ProtocolError: if more nodes are faulty than ``max_faults`` or the
                resilience bound ``node_count >= 3 * max_faults + 1`` fails.
        """
        if self.fault_count() > max_faults:
            raise ProtocolError(
                f"{self.fault_count()} faulty nodes exceed the declared bound f={max_faults}"
            )
        if node_count < 3 * max_faults + 1:
            raise ProtocolError(
                f"n={node_count} violates n >= 3f + 1 for f={max_faults}"
            )

    def __repr__(self) -> str:
        return (
            f"FaultModel(faulty={sorted(self._faulty)}, strategy={self.strategy.name!r})"
        )
