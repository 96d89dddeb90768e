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

from typing import Any, Dict, List, Mapping, NamedTuple, Sequence, Tuple

from repro.exceptions import ProtocolError
from repro.classical.relay import DisjointPathRelay, majority_value
from repro.transport.network import SynchronousNetwork
from repro.types import NodeId

#: Value decided when a subtree has no strict majority.
EIG_DEFAULT = None

Label = Tuple[NodeId, ...]

#: Key of one EIG tree entry: (index of the stream, label within its tree).
Entry = Tuple[int, Label]


class Stream(NamedTuple):
    """One value being broadcast: the unit the gathering rounds are keyed by.

    Several streams may share an origin (the chunks of one source); their EIG
    trees have the same labels and are told apart by the stream's index.
    """

    origin: NodeId
    value: Any
    bit_size: int
    #: Prefix of the ``broadcast_value`` hook context: a faulty sender's hook
    #: sees ``f"{context}|{label}"``.
    context: str


class EIGBroadcast:
    """Byzantine broadcast of single values using EIG over a relay."""

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
        self._require_participant(source)
        trees = self._gather([Stream(source, value, bit_size, context)], phase, context)
        return {node: self._resolve(tree, 0, (source,)) for node, tree in trees.items()}

    def broadcast_many(
        self,
        source: NodeId,
        values: Sequence[Any],
        bit_sizes: Sequence[int],
        phase: str,
        context: str = "eig",
        contexts: Sequence[str] | None = None,
    ) -> Dict[NodeId, List[Any]]:
        """Broadcast several values of one source with *shared* relay rounds.

        One stream per value, all rooted at ``(source,)``: in every round a
        sender holds one value per (stream, label) pair and sends the whole
        batch to each receiver as one per-hop vector, so ``k`` values cost the
        messages of one.  ``bit_sizes[i]`` is charged for every relay of
        value ``i``; ``contexts[i]`` (default ``f"{context}|{i}"``) prefixes
        its hook contexts.  Decisions, hook arguments and per-link bit totals
        equal ``[broadcast(source, values[i], bit_sizes[i], phase,
        contexts[i]) for i in ...]`` — strategies are keyed-stateless, so only
        message ordinals (hence jitter and per-attempt link-fault plans) can
        observe the sharing.

        Returns:
            ``outputs[receiver][i]`` — the value each fault-free receiver
            decides for ``values[i]``.

        Raises:
            ProtocolError: if the source is not a participant, there is no
                value, or the sizes or contexts do not match the values.
        """
        self._require_participant(source)
        if contexts is None:
            contexts = [f"{context}|{index}" for index in range(len(values))]
        if not values or not len(values) == len(bit_sizes) == len(contexts):
            raise ProtocolError(
                f"broadcast_many needs one bit size and one context per value (at least "
                f"one); got {len(values)} values, {len(bit_sizes)} sizes, "
                f"{len(contexts)} contexts"
            )
        streams = [
            Stream(source, value, bit_size, stream_context)
            for value, bit_size, stream_context in zip(values, bit_sizes, contexts)
        ]
        trees = self._gather(streams, phase, context)
        root: Label = (source,)
        return {
            node: [self._resolve(tree, index, root) for index in range(len(streams))]
            for node, tree in trees.items()
        }

    def broadcast_all(
        self,
        values: Mapping[NodeId, Any],
        bit_size: int | Mapping[NodeId, int],
        phase: str,
        context: str = "eig",
    ) -> Dict[NodeId, Dict[NodeId, Any]]:
        """Run one broadcast per participant with *shared* relay rounds.

        One stream per origin, rooted at the distinct label ``(origin,)``:
        all ``n`` broadcasts march through the rounds together, a sender's
        whole batch going to each receiver as one per-hop vector.
        ``bit_size`` is one size for every origin or a size per origin (every
        relay of an origin's labels is charged that origin's size).
        Decisions, hook arguments (including the
        ``...|origin=<o>|<label>`` context strings) and per-link bit totals
        equal ``{origin: broadcast(origin, ...)}`` with context
        ``f"{context}|origin={origin}"`` — strategies are keyed-stateless, so
        only message ordinals (hence jitter) can observe the sharing.

        Returns:
            ``outputs[receiver][origin]`` — the value each fault-free
            receiver decides for each origin's broadcast.
        """
        origins = self.participants
        sizes = bit_size if isinstance(bit_size, Mapping) else dict.fromkeys(origins, bit_size)
        streams = [
            Stream(origin, values.get(origin), sizes.get(origin), f"{context}|origin={origin}")
            for origin in origins
        ]
        trees = self._gather(streams, phase, context)
        return {
            node: {
                origin: self._resolve(tree, index, (origin,))
                for index, origin in enumerate(origins)
            }
            for node, tree in trees.items()
        }

    def _require_participant(self, source: NodeId) -> None:
        if source not in self.participants:
            raise ProtocolError(f"source {source} is not a participant")

    def _gather(
        self, streams: Sequence[Stream], phase: str, context: str
    ) -> Dict[NodeId, Dict[Entry, Any]]:
        """The ``f + 1`` information-gathering rounds of every stream at once.

        The one round loop under :meth:`broadcast`, :meth:`broadcast_many` and
        :meth:`broadcast_all`.  In round ``r`` every sender forwards what it
        holds for each (stream, label of length ``r - 1``) that does not
        contain it — in round 1 an origin's own values — one batch per
        receiver through :meth:`DisjointPathRelay.reliable_send_vector`.  A
        faulty sender first chooses each outgoing value per receiver through
        the strategy's ``broadcast_value`` hook, with the context
        ``f"{stream.context}|{label}"``; ``context`` only tags the messages.

        Returns the EIG tree (``(stream index, label) -> held value``) of
        every *fault-free* participant.
        """
        fault_model = self.network.fault_model
        broadcast_value = fault_model.strategy.broadcast_value
        send_vector = self.relay.reliable_send_vector
        participants = self.participants
        trees: Dict[NodeId, Dict[Entry, Any]] = {node: {} for node in participants}

        # What each sender forwards this round: the entries it sends and the
        # value it holds for each.  Round 1 is the origins sending their own
        # values (streams grouped by origin, in first-appearance order).
        held: Dict[NodeId, Tuple[List[Entry], List[Any]]] = {}
        for index, stream in enumerate(streams):
            entries, values = held.setdefault(stream.origin, ([], []))
            entries.append((index, (stream.origin,)))
            values.append(stream.value)
        received: List[Entry] = []

        for round_index in range(1, self.max_faults + 2):
            if round_index > 1:
                # Every relayer forwards, under the label extended by itself,
                # each entry of the previous round that does not contain it.
                held = {}
                for relayer in participants:
                    tree = trees[relayer]
                    relayed = [entry for entry in received if relayer not in entry[1]]
                    if relayed:
                        held[relayer] = (
                            [(index, label + (relayer,)) for index, label in relayed],
                            [tree.get(entry, EIG_DEFAULT) for entry in relayed],
                        )
                received = []
            round_phase = f"{phase}/round{round_index}"
            for sender, (entries, held_values) in held.items():
                received.extend(entries)
                sizes = [streams[index].bit_size for index, _label in entries]
                sender_faulty = fault_model.is_faulty(sender)
                for receiver in participants:
                    delivered = outgoing = held_values
                    if receiver != sender:
                        if sender_faulty:
                            outgoing = [
                                broadcast_value(
                                    self.instance,
                                    sender,
                                    receiver,
                                    f"{streams[index].context}|{label}",
                                    value,
                                )
                                for (index, label), value in zip(entries, held_values)
                            ]
                        delivered = send_vector(
                            sender, receiver, outgoing, sizes, round_phase, context
                        )
                    trees[receiver].update(zip(entries, delivered))

        return {
            node: tree for node, tree in trees.items() if not fault_model.is_faulty(node)
        }

    def _resolve(self, tree: Dict[Entry, Any], stream: int, label: Label) -> Any:
        """Resolve the decision value of ``label`` by recursive strict majority."""
        if len(label) == self.max_faults + 1:
            return tree.get((stream, label), EIG_DEFAULT)
        children = [
            self._resolve(tree, stream, label + (node,))
            for node in self.participants
            if node not in label
        ]
        if not children:
            return tree.get((stream, label), EIG_DEFAULT)
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
