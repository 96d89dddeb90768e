"""Reliable point-to-point channels over an incomplete network.

Appendix D of the paper: in a network with vertex connectivity at least
``2f + 1`` and at most ``f`` faulty nodes, reliable end-to-end communication
from any node ``i`` to any node ``j`` is achieved by sending the same copy of
the data along ``2f + 1`` vertex-disjoint paths and taking the majority at the
receiver.  At most ``f`` of the paths contain a faulty intermediate node, so
at least ``f + 1`` copies arrive unaltered and the majority is correct
whenever the *sender* is fault-free.  (A faulty sender can, of course, inject
whatever it wants — that is the classical BB algorithm's problem, not the
channel's.)

The relay charges every hop of every path to the accountant, so the
polynomial-in-``n`` overhead the paper attributes to ``Broadcast_Default`` is
measured rather than assumed.

Performance notes:
    Deriving the disjoint paths is one node-split max-flow, decomposed, per
    ordered node pair; the same solve decides whether ``2f + 1`` paths exist
    at all.  Every :class:`DisjointPathRelay` used to recompute them from
    scratch because its cache died with the object (NAB builds a fresh relay
    per instance).  The paths are a pure function of the graph, so they are
    now memoised process-wide in an LRU keyed on ``(graph_signature, sender,
    receiver, path_count)`` — the canonical-signature contract of
    :mod:`repro.graph.flow_cache`, registered as ``relay_paths`` (the engine
    runner clears it between topologies through ``clear_scope``).  Each relay
    keeps a small per-object first-level dict so hot pairs skip even the
    signature hashing.  :func:`relay_path_cache_stats` exposes its counters.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Sequence
from typing import Any, Dict, List, Tuple

from repro.exceptions import InfeasibleError, ProtocolError
from repro.graph.connectivity import vertex_disjoint_paths
from repro.graph.flow_cache import GraphSignature, MinCutCache, graph_signature
from repro.graph.network_graph import NetworkGraph
from repro.transport.network import SynchronousNetwork
from repro.types import NodeId

#: Payload delivered when a majority cannot be established.
DEFAULT_VALUE = None

#: Types for which equal values always have equal ``repr`` strings, so the
#: all-identical fast path of :func:`majority_value` agrees with its keyed
#: slow path.
_CANONICAL_REPR_TYPES = frozenset((bool, int, bytes, str, type(None)))

#: Process-wide memo of vertex-disjoint relay paths.  Values are stored as
#: tuples of node tuples; lookups hand out fresh lists, so cached paths can
#: never be mutated through a caller.
_PATH_CACHE = MinCutCache(max_entries=4096, name="relay_paths")


def relay_path_cache_stats() -> Dict[str, object]:
    """Hit/miss counters of the shared path cache (``MinCutCache.stats`` shape).

    The ``lifetime_*`` counters survive clears, so a sweep that clears
    between topologies can still report whole-run efficacy.
    """
    return _PATH_CACHE.stats()


class DisjointPathRelay:
    """Reliable unicast channels built from ``2f + 1`` vertex-disjoint paths."""

    def __init__(
        self,
        network: SynchronousNetwork,
        max_faults: int,
        instance: int = 0,
    ) -> None:
        if max_faults < 0:
            raise ProtocolError(f"max_faults must be non-negative, got {max_faults}")
        self.network = network
        self.max_faults = max_faults
        self.instance = instance
        self.path_count = 2 * max_faults + 1
        self._path_cache: Dict[Tuple[NodeId, NodeId], List[List[NodeId]]] = {}
        self._graph_signature: GraphSignature | None = None

    # ------------------------------------------------------------------ paths

    def paths_between(self, sender: NodeId, receiver: NodeId) -> List[List[NodeId]]:
        """The ``2f + 1`` vertex-disjoint paths used for this ordered pair (cached).

        Consults the per-relay dict first, then the process-wide LRU shared by
        every relay over a structurally identical graph (the graph signature
        is computed once per relay, so the underlying graph must not be
        mutated during the relay's lifetime — NAB always hands the relay a
        frozen graph).

        Raises:
            ProtocolError: if the network does not contain enough disjoint
                paths (i.e. its connectivity is below ``2f + 1``).
        """
        key = (sender, receiver)
        paths = self._path_cache.get(key)
        if paths is None:
            graph: NetworkGraph = self.network.graph
            if self._graph_signature is None:
                self._graph_signature = graph_signature(graph)
            shared_key = (
                "relay-paths",
                self._graph_signature,
                sender,
                receiver,
                self.path_count,
            )
            cached = _PATH_CACHE.lookup(shared_key)
            if cached is None:
                try:
                    fresh = vertex_disjoint_paths(graph, sender, receiver, self.path_count)
                except InfeasibleError:
                    raise ProtocolError(
                        f"network connectivity between {sender} and {receiver} is below "
                        f"2f + 1 = {self.path_count}; reliable relay impossible"
                    ) from None
                cached = tuple(tuple(path) for path in fresh)
                _PATH_CACHE.store(shared_key, cached)
            paths = [list(path) for path in cached]
            self._path_cache[key] = paths
        return paths

    # ------------------------------------------------------------------- send

    def reliable_send_vector(
        self,
        sender: NodeId,
        receiver: NodeId,
        values: Sequence[Any],
        bit_size: int | Sequence[int],
        phase: str,
        context: str = "relay",
    ) -> List[Any]:
        """Relay a whole round's values for one ordered pair as per-hop vectors.

        The relay primitive under every EIG round: each hop of each disjoint
        path carries the tuple of values as *one* message, whatever the path
        contains.  A faulty intermediate node corrupts the tuple value by
        value through the strategy's ``relay_value`` hook — the same calls,
        with the same arguments, a loop of :meth:`reliable_send` would make —
        and the receiver takes the strict majority over the path copies per
        value (skipped when no hook ran: every copy is then the sent object).
        ``bit_size`` is one size for every value or one size per value; each
        link is charged their sum, exactly the bits the per-value sends would
        charge, so the accountant's and the scheduled network's clocks are
        partition-independent.  Only per-message ordinals (jitter, per-attempt
        link-fault plans) can observe the batching.

        Raises:
            ProtocolError: if ``values`` is empty, ``bit_size`` is neither an
                integer nor a sequence (a string is not one), the sizes do
                not match the values, or a size is not a positive integer.
        """
        values = list(values)
        if not values:
            raise ProtocolError("reliable_send_vector requires at least one value")
        if isinstance(bit_size, int):
            sizes = [bit_size] * len(values)
        elif isinstance(bit_size, str) or not isinstance(bit_size, Sequence):
            raise ProtocolError(
                f"bit_size must be a positive integer or a sequence of them, got {bit_size!r}"
            )
        elif len(bit_size) != len(values):
            raise ProtocolError(f"expected {len(values)} bit sizes, got {len(bit_size)}")
        else:
            sizes = bit_size
        for size in sizes:
            if not isinstance(size, int) or isinstance(size, bool) or size <= 0:
                raise ProtocolError(f"bits must be a positive integer, got {size!r}")
        if sender == receiver:
            return values
        total_bits = sum(sizes)
        network = self.network
        is_faulty = network.fault_model.is_faulty
        relay_value = network.fault_model.strategy.relay_value
        kind = f"{context}:hop"
        sent = tuple(values)
        copies: List[Tuple[Any, ...]] = []
        hooked = False
        for path in self.paths_between(sender, receiver):
            current = sent
            for hop_index in range(len(path) - 1):
                hop_sender = path[hop_index]
                if hop_index > 0 and is_faulty(hop_sender):
                    hooked = True
                    current = tuple(
                        relay_value(self.instance, hop_sender, path, receiver, value)
                        for value in current
                    )
                network.send(
                    hop_sender, path[hop_index + 1], current, total_bits, phase, kind
                )
            copies.append(current)
        if not hooked:
            return values
        return [majority_value(column) for column in zip(*copies)]

    def reliable_send(
        self,
        sender: NodeId,
        receiver: NodeId,
        value: Any,
        bit_size: int,
        phase: str,
        context: str = "relay",
    ) -> Any:
        """Send ``value`` from ``sender`` to ``receiver`` over disjoint paths.

        Returns the value the receiver accepts (majority over path copies).
        Faulty intermediate nodes may corrupt the copy travelling through them
        (via the strategy's ``relay_value`` hook); when the sender is
        fault-free the majority is guaranteed to equal ``value``.
        """
        if sender == receiver:
            return value
        fault_model = self.network.fault_model
        strategy = fault_model.strategy
        copies: List[Any] = []
        for path in self.paths_between(sender, receiver):
            current_value = value
            for hop_index in range(len(path) - 1):
                hop_sender = path[hop_index]
                hop_receiver = path[hop_index + 1]
                if hop_index > 0 and fault_model.is_faulty(hop_sender):
                    current_value = strategy.relay_value(
                        self.instance, hop_sender, path, receiver, current_value
                    )
                self.network.send(
                    hop_sender,
                    hop_receiver,
                    current_value,
                    bit_size,
                    phase,
                    kind=f"{context}:hop",
                )
            copies.append(current_value)
        return majority_value(copies)


def majority_value(copies: Sequence[Any]) -> Any:
    """Strict majority of ``copies``; :data:`DEFAULT_VALUE` when there is none.

    Values are compared by equality after a canonical ``repr``-based key so
    that unhashable payloads (lists, dicts) can participate.  Two common
    cases skip the keying.  Every copy is the *same object* (the paths
    forwarded one claims dict untouched): identical objects have identical
    ``repr``, so the answer is exact for any payload type.  Every path
    delivered an equal scalar: resolved by direct same-type equality, which
    matches the repr keying exactly for types whose repr is canonical
    (``1 == True`` but their reprs differ, so mixed types always take the
    keyed path).
    """
    if not copies:
        return DEFAULT_VALUE
    first = copies[0]
    for copy in copies:  # a plain loop: this runs once per relayed value
        if copy is not first:
            break
    else:
        return first
    first_type = type(first)
    if first_type in _CANONICAL_REPR_TYPES and all(
        type(copy) is first_type and copy == first for copy in copies[1:]
    ):
        return first
    keyed: Dict[str, Any] = {}
    counts: Counter = Counter()
    for copy in copies:
        key = repr(copy)
        keyed[key] = copy
        counts[key] += 1
    best_key, best_count = counts.most_common(1)[0]
    if best_count * 2 > len(copies):
        return keyed[best_key]
    return DEFAULT_VALUE
