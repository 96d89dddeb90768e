"""``Broadcast_Default`` — the classical BB facade used by NAB's phases 2.2 and 3.

The paper refers to "a previously proposed Byzantine broadcast algorithm, such
as [19]/[6]" whenever full-strength (but low-throughput) Byzantine broadcast of
small values is needed: agreeing on the 1-bit equality-check flags and
disseminating dispute-control transcripts.  This facade wires the EIG
broadcast to the disjoint-path relay for a given participant set and exposes
the two call patterns NAB needs, plus the one the chunked baseline needs:

* broadcast of one value from one source (:meth:`BroadcastDefault.broadcast`);
* simultaneous broadcast of one value from *every* participant
  (:meth:`BroadcastDefault.broadcast_from_all`), which is how step 2.2 agrees
  on every node's flag;
* simultaneous broadcast of *several* values from one source
  (:meth:`BroadcastDefault.broadcast_many`), which is how the capacity-oblivious
  ``eig`` baseline streams a payload's chunks.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Sequence

from repro.classical.eig import EIGBroadcast
from repro.classical.relay import DisjointPathRelay
from repro.transport.network import SynchronousNetwork
from repro.types import NodeId


class BroadcastDefault:
    """Classical Byzantine broadcast among a participant set over an incomplete network."""

    def __init__(
        self,
        network: SynchronousNetwork,
        participants: Sequence[NodeId],
        max_faults: int,
        instance: int = 0,
        relay_max_faults: int | None = None,
    ) -> None:
        """Create a broadcaster for a participant set.

        Args:
            network: The transport (over the *full* network graph ``G``).
            participants: The nodes taking part in the broadcast (``V_k``).
            max_faults: Bound on faulty nodes *among the participants*; EIG
                runs ``max_faults + 1`` rounds and needs
                ``len(participants) >= 3 * max_faults + 1``.
            instance: Instance number forwarded to Byzantine hooks.
            relay_max_faults: Bound on faulty nodes anywhere in the network
                (defaults to ``max_faults``).  The disjoint-path relay uses
                ``2 * relay_max_faults + 1`` paths because excluded faulty
                nodes may still sit on relay paths even when they are no
                longer participants.
        """
        self.network = network
        self.participants = sorted(set(participants))
        self.max_faults = max_faults
        self.instance = instance
        relay_bound = max_faults if relay_max_faults is None else relay_max_faults
        self.relay = DisjointPathRelay(network, relay_bound, instance)
        self._eig = EIGBroadcast(
            network, self.participants, max_faults, self.relay, instance
        )

    def broadcast(
        self,
        source: NodeId,
        value: Any,
        bit_size: int,
        phase: str,
        context: str = "broadcast_default",
    ) -> Dict[NodeId, Any]:
        """Byzantine broadcast of ``value`` from ``source`` to all participants.

        Returns the decided value of every fault-free participant.  Agreement
        and (for a fault-free source) validity hold whenever
        ``n >= 3f + 1`` and the network connectivity is at least ``2f + 1``.
        """
        return self._eig.broadcast(source, value, bit_size, phase, context)

    def broadcast_many(
        self,
        source: NodeId,
        values: Sequence[Any],
        bit_sizes: Sequence[int],
        phase: str,
        context: str = "broadcast_default_many",
        contexts: Sequence[str] | None = None,
    ) -> Dict[NodeId, List[Any]]:
        """Byzantine broadcast of several values from ``source`` in shared rounds.

        Returns ``outputs[receiver][i]``, the value fault-free ``receiver``
        decided for ``values[i]`` — what one :meth:`broadcast` per value (of
        size ``bit_sizes[i]``, with context ``contexts[i]``, by default
        ``f"{context}|{i}"``) decides, for the messages of a single one
        (:meth:`EIGBroadcast.broadcast_many`).
        """
        return self._eig.broadcast_many(source, values, bit_sizes, phase, context, contexts)

    def broadcast_from_all(
        self,
        values: Mapping[NodeId, Any],
        bit_size: int | Mapping[NodeId, int],
        phase: str,
        context: str = "broadcast_default_all",
    ) -> Dict[NodeId, Dict[NodeId, Any]]:
        """Run one broadcast per participant (each broadcasting its own value).

        Args:
            values: The value each participant wants to broadcast.  Faulty
                participants' entries are the values they would use if they
                followed the protocol; their strategy hooks may deviate.
            bit_size: Size of every origin's value, or one size per origin
                (DC1's claims differ in size from node to node).

        Returns:
            ``outputs[receiver][origin]`` — the value fault-free ``receiver``
            decided for the broadcast originated by ``origin``.  By agreement,
            all fault-free receivers hold identical vectors.

        All broadcasts share their relay rounds
        (:meth:`EIGBroadcast.broadcast_all`): a relayer forwards every
        origin's round labels to a receiver as one per-hop vector, so the
        n-origin agreements of step 2.2 and DC1 cost one message per
        (relayer, receiver, hop) per round instead of one per origin and
        label — identical decisions, hook invocations and per-link bit totals.
        """
        return self._eig.broadcast_all(values, bit_size, phase, context=context)
