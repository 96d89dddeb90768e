"""Synchronous message delivery with per-phase link-usage accounting.

:class:`SynchronousNetwork` is the thin runtime every protocol in the library
is written against.  It owns

* the :class:`repro.graph.NetworkGraph` describing which directed links exist
  and their capacities,
* a :class:`repro.transport.accounting.TimeAccountant` that attributes the
  bits of every transmission to a named protocol phase, and
* the :class:`repro.transport.faults.FaultModel` describing which nodes are
  Byzantine (protocols consult it to decide which strategy hook to invoke).

Delivery is synchronous and immediate: :meth:`SynchronousNetwork.send` charges
the link and returns the delivered :class:`Message`.  Batch helpers
(:meth:`send_round`) keep per-round bookkeeping readable in the protocol code.
The transport never alters payloads — Byzantine behaviour is decided by the
protocols via the strategy hooks *before* handing a payload to the transport,
mirroring how the paper reasons about what faulty nodes inject at each step.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Any, Callable, Dict, Iterable, List, Tuple

from repro.exceptions import GraphError, ProtocolError
from repro.graph.network_graph import NetworkGraph
from repro.transport.accounting import TimeAccountant
from repro.transport.faults import FaultModel
from repro.transport.message import Message
from repro.types import NodeId


#: Builds the transport a protocol instance runs on.  The default everywhere
#: is ``SynchronousNetwork`` itself; injecting a factory (e.g. for
#: :class:`repro.transport.scheduled.ScheduledNetwork` with a link model) is
#: how callers swap delivery semantics without touching protocol logic.
NetworkFactory = Callable[[NetworkGraph, FaultModel], "SynchronousNetwork"]


class SynchronousNetwork:
    """Message transport over a capacitated directed graph."""

    def __init__(self, graph: NetworkGraph, fault_model: FaultModel | None = None) -> None:
        self.graph = graph
        self.fault_model = fault_model if fault_model is not None else FaultModel()
        self.accountant = TimeAccountant(graph)
        self._delivered: List[Message] = []

    # ---------------------------------------------------------------- queries

    def nodes(self) -> List[NodeId]:
        """All nodes of the underlying graph, sorted."""
        return self.graph.nodes()

    def fault_free_nodes(self) -> List[NodeId]:
        """All nodes not controlled by the adversary, sorted."""
        return self.fault_model.fault_free(self.graph.nodes())

    def has_link(self, tail: NodeId, head: NodeId) -> bool:
        """Whether the directed link exists."""
        return self.graph.has_edge(tail, head)

    def link_capacity(self, tail: NodeId, head: NodeId) -> int:
        """Capacity of the directed link (raises if absent)."""
        return self.graph.capacity(tail, head)

    def delivered_messages(self) -> List[Message]:
        """Every message delivered so far (in delivery order)."""
        return list(self._delivered)

    def messages_received_by(self, node: NodeId, phase: str | None = None) -> List[Message]:
        """Messages delivered to ``node``, optionally filtered by phase."""
        return [
            message
            for message in self._delivered
            if message.receiver == node and (phase is None or message.phase == phase)
        ]

    # ------------------------------------------------------------------- send

    def send(
        self,
        sender: NodeId,
        receiver: NodeId,
        payload: Any,
        bit_size: int,
        phase: str,
        kind: str = "data",
    ) -> Message:
        """Send ``payload`` over the directed link ``(sender, receiver)``.

        The link is charged ``bit_size`` bits in phase ``phase`` and the
        message is delivered immediately (zero propagation delay, as in the
        paper's base model).

        Raises:
            GraphError: if the directed link does not exist.
            ProtocolError: if ``bit_size`` is not a positive integer, or
                ``sender`` and ``receiver`` are the same node.
        """
        if not self.graph.has_edge(sender, receiver):
            raise GraphError(f"no link from {sender} to {receiver}")
        # The constructor is the one place the size (and the self-send) is
        # checked, so the ledger below is charged without re-validating.
        message = Message(sender, receiver, phase, kind, payload, bit_size)
        link_bits = self.accountant.link_ledger(phase)
        link = (sender, receiver)
        link_bits[link] = link_bits.get(link, 0) + bit_size
        self._delivered.append(message)
        return message

    def send_vector(
        self,
        sender: NodeId,
        receiver: NodeId,
        symbols: Iterable[Any],
        bits_each: int,
        phase: str,
        kind: str = "data",
    ) -> Message:
        """Send a whole per-edge symbol vector as *one* transmission.

        Batching contract: the payload is the tuple of symbols, the link is
        charged ``len(symbols) * bits_each`` bits in one accounting record,
        and exactly one :class:`Message` is created.  Per-link bit totals —
        and therefore every elapsed-time quantity the accountant derives —
        are identical to sending the symbols one by one; what changes is only
        the constant per-message overhead (object construction, ledger
        updates, scheduler bookkeeping), which used to dominate symbol-dense
        phases.  Phase 1 hands each edge its full cross-tree symbol vector
        through this entry point, and the equality check its coded vector.

        Raises:
            GraphError: if the directed link does not exist.
            ProtocolError: if the vector is empty or the total size is not a
                positive integer (checked by :meth:`send`).
        """
        payload = tuple(symbols)
        if not payload:
            raise ProtocolError("send_vector requires at least one symbol")
        return self.send(
            sender, receiver, payload, bits_each * len(payload), phase, kind
        )

    def send_round(
        self,
        transmissions: Iterable[Tuple[NodeId, NodeId, Any, int]],
        phase: str,
        kind: str = "data",
    ) -> Dict[NodeId, List[Message]]:
        """Send a batch of transmissions and return the per-receiver inboxes.

        Args:
            transmissions: Iterable of ``(sender, receiver, payload, bit_size)``.
            phase: Phase name the usage is charged to.
            kind: Message kind tag applied to every message of the round.

        Returns:
            Mapping from receiver to the list of messages it received this
            round, in transmission order.
        """
        inboxes: Dict[NodeId, List[Message]] = {}
        for sender, receiver, payload, bit_size in transmissions:
            message = self.send(sender, receiver, payload, bit_size, phase, kind)
            inboxes.setdefault(receiver, []).append(message)
        return inboxes

    # ------------------------------------------------------------- accounting

    def elapsed_time(self):
        """Total elapsed time across all phases so far (exact Fraction)."""
        return self.accountant.total_elapsed()

    def total_bits(self) -> int:
        """Total bits sent across all phases so far."""
        return self.accountant.total_bits()

    def result_accounting(self) -> Dict[str, object]:
        """The ``elapsed`` / ``bits_sent`` / ``phase_timings`` / ``link_bits`` of a result record.

        Keyword arguments for :class:`repro.types.BroadcastResult` and
        ``InstanceResult``.  The totals are summed from the per-phase
        timings, so each phase's ``max_e b_e / z_e`` is computed once.
        """
        timings = self.accountant.phase_timings()
        return {
            "elapsed": sum((timing.time_units for timing in timings), Fraction(0)),
            "bits_sent": sum(timing.bits_sent for timing in timings),
            "phase_timings": timings,
            "link_bits": self.accountant.total_link_bits(),
        }
