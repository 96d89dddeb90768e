"""Exponential Information Gathering (EIG) Byzantine broadcast.

This is the classical ``f + 1``-round Byzantine broadcast of Pease, Shostak
and Lamport (as presented via EIG trees, e.g. Lynch's *Distributed
Algorithms*), correct for ``n >= 3f + 1`` on a complete communication graph.
The paper uses such an algorithm as ``Broadcast_Default``: its per-bit cost is
polynomial in ``n`` but independent of the bulk input size ``L``, so its cost
amortises away for large ``L``.

Communication between every ordered pair of participants travels over the
:class:`repro.classical.relay.DisjointPathRelay`, which emulates the complete
graph on an incomplete network with connectivity at least ``2f + 1``.

Byzantine participants may send arbitrary, per-receiver-inconsistent values at
every relaying step; the strategy hook
:meth:`repro.transport.faults.ByzantineStrategy.broadcast_value` decides what
they inject, keyed by the EIG label path so attacks can target specific
rounds.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Sequence, Tuple

from repro.exceptions import ProtocolError
from repro.classical.relay import DisjointPathRelay, majority_value
from repro.transport.network import SynchronousNetwork
from repro.types import NodeId

#: Value decided when a subtree has no strict majority.
EIG_DEFAULT = None

Label = Tuple[NodeId, ...]


class EIGBroadcast:
    """One Byzantine broadcast of a single value using EIG over a relay."""

    def __init__(
        self,
        network: SynchronousNetwork,
        participants: Sequence[NodeId],
        max_faults: int,
        relay: DisjointPathRelay,
        instance: int = 0,
    ) -> None:
        participant_list = sorted(set(participants))
        if len(participant_list) < 3 * max_faults + 1:
            raise ProtocolError(
                f"EIG requires n >= 3f + 1 participants; got n={len(participant_list)}, "
                f"f={max_faults}"
            )
        missing = [node for node in participant_list if not network.graph.has_node(node)]
        if missing:
            raise ProtocolError(f"participants {missing} are not nodes of the network")
        self.network = network
        self.participants = participant_list
        self.max_faults = max_faults
        self.relay = relay
        self.instance = instance

    # ------------------------------------------------------------------ rounds

    def broadcast(
        self,
        source: NodeId,
        value: Any,
        bit_size: int,
        phase: str,
        context: str = "eig",
    ) -> Dict[NodeId, Any]:
        """Broadcast ``value`` from ``source`` to every participant.

        Returns:
            Mapping from every *fault-free* participant to the value it
            decides.  (Faulty participants' outputs are unconstrained and thus
            not reported.)

        Raises:
            ProtocolError: if the source is not a participant.
        """
        if source not in self.participants:
            raise ProtocolError(f"source {source} is not a participant")
        trees = self._gather(
            {source: value}, {source: bit_size}, phase, context, {source: context}
        )
        return {
            node: self._resolve(tree, (source,)) for node, tree in trees.items()
        }

    def broadcast_all(
        self,
        values: Mapping[NodeId, Any],
        bit_size: int | Mapping[NodeId, int],
        phase: str,
        context: str = "eig",
    ) -> Dict[NodeId, Dict[NodeId, Any]]:
        """Run one broadcast per participant with *shared* relay rounds.

        Every origin's EIG tree is rooted at a distinct label ``(origin,)``,
        so the label spaces are disjoint and all ``n`` broadcasts march
        through the rounds together: in each relay round a relayer holds one
        value per (origin, label) pair and sends the whole batch to each
        receiver as one per-hop vector.  ``bit_size`` is one size for every
        origin or a size per origin (every relay of an origin's labels is
        charged that origin's size).  Decisions, hook arguments (including
        the ``...|origin=<o>|<label>`` context strings) and per-link bit
        totals equal ``{origin: broadcast(origin, ...)}`` with context
        ``f"{context}|origin={origin}"`` — strategies are keyed-stateless, so
        only message ordinals (hence jitter) can observe the sharing.

        Returns:
            ``outputs[receiver][origin]`` — the value each fault-free
            receiver decides for each origin's broadcast.
        """
        origins = self.participants
        sizes = bit_size if isinstance(bit_size, Mapping) else dict.fromkeys(origins, bit_size)
        trees = self._gather(
            {origin: values.get(origin) for origin in origins},
            sizes,
            phase,
            context,
            {origin: f"{context}|origin={origin}" for origin in origins},
        )
        return {
            node: {origin: self._resolve(tree, (origin,)) for origin in origins}
            for node, tree in trees.items()
        }

    def _gather(
        self,
        values: Mapping[NodeId, Any],
        bit_sizes: Mapping[NodeId, int],
        phase: str,
        context: str,
        origin_contexts: Mapping[NodeId, str],
    ) -> Dict[NodeId, Dict[Label, Any]]:
        """The ``f + 1`` information-gathering rounds for every origin in ``values``.

        Returns the EIG tree (label -> held value) of every *fault-free*
        participant.  A faulty sender's outgoing value for a label comes from
        the strategy's ``broadcast_value`` hook with the context
        ``f"{origin_contexts[origin]}|{label}"``.
        """
        fault_model = self.network.fault_model
        broadcast_value = fault_model.strategy.broadcast_value
        participants = self.participants
        # trees[i][label] = value participant i holds for the EIG label.
        trees: Dict[NodeId, Dict[Label, Any]] = {node: {} for node in participants}

        # Round 1: every origin sends its own value to every participant
        # (distinct senders, so there is nothing to batch).
        round1_phase = f"{phase}/round1"
        for origin, value in values.items():
            root_label: Label = (origin,)
            origin_context = origin_contexts[origin]
            origin_faulty = fault_model.is_faulty(origin)
            for receiver in participants:
                if receiver == origin:
                    trees[receiver][root_label] = value
                    continue
                outgoing = value
                if origin_faulty:
                    outgoing = broadcast_value(
                        self.instance, origin, receiver, f"{origin_context}|{root_label}", value
                    )
                trees[receiver][root_label] = self.relay.reliable_send(
                    origin, receiver, outgoing, bit_sizes.get(origin), round1_phase, origin_context
                )

        # Rounds 2 .. f+1: every relayer forwards what it holds for each
        # label of the previous round that does not contain it, one batch per
        # receiver (DisjointPathRelay.reliable_send_vector).  A faulty
        # relayer chooses each label's outgoing value per receiver first.
        labels: List[Label] = [(origin,) for origin in values]
        for round_index in range(2, self.max_faults + 2):
            round_phase = f"{phase}/round{round_index}"
            next_labels: List[Label] = []
            for relayer in participants:
                labels_to_relay = [label for label in labels if relayer not in label]
                if not labels_to_relay:
                    continue
                new_labels = [label + (relayer,) for label in labels_to_relay]
                next_labels.extend(new_labels)
                held_values = [
                    trees[relayer].get(label, EIG_DEFAULT) for label in labels_to_relay
                ]
                label_sizes = [bit_sizes.get(label[0]) for label in labels_to_relay]
                relayer_faulty = fault_model.is_faulty(relayer)
                for receiver in participants:
                    delivered = outgoing = held_values
                    if receiver != relayer:
                        if relayer_faulty:
                            outgoing = [
                                broadcast_value(
                                    self.instance,
                                    relayer,
                                    receiver,
                                    f"{origin_contexts[label[0]]}|{label}",
                                    held,
                                )
                                for label, held in zip(new_labels, held_values)
                            ]
                        delivered = self.relay.reliable_send_vector(
                            relayer, receiver, outgoing, label_sizes, round_phase, context
                        )
                    trees[receiver].update(zip(new_labels, delivered))
            labels = next_labels

        return {
            node: tree for node, tree in trees.items() if not fault_model.is_faulty(node)
        }

    def _resolve(self, tree: Dict[Label, Any], label: Label) -> Any:
        """Resolve the decision value of ``label`` by recursive strict majority."""
        if len(label) == self.max_faults + 1:
            return tree.get(label, EIG_DEFAULT)
        children = [
            self._resolve(tree, label + (node,))
            for node in self.participants
            if node not in label
        ]
        if not children:
            return tree.get(label, EIG_DEFAULT)
        return majority_value(children)


def broadcast_bit_cost(participant_count: int, max_faults: int) -> int:
    """Number of label relays performed by one EIG broadcast (a measure of overhead).

    This counts the point-to-point value transmissions at the EIG level (not
    the per-hop relay fan-out): round 1 contributes ``n - 1`` and each later
    round ``r`` contributes one relay per (label of length ``r - 1``, relayer
    not in label, receiver) triple.
    """
    total = participant_count - 1
    labels_previous = 1  # just (source,)
    nodes_available = participant_count - 1
    for _ in range(2, max_faults + 2):
        relays = labels_previous * nodes_available
        total += relays * (participant_count - 1)
        labels_previous = relays
        nodes_available -= 1
    return total
