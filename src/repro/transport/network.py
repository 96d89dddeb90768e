"""The one transport: synchronous delivery over capacitated links.

:class:`SynchronousNetwork` is the runtime every protocol in the library is
written against.  It owns

* the :class:`repro.graph.NetworkGraph` describing which directed links exist
  and their capacities;
* a :class:`repro.transport.accounting.TimeAccountant`, the analytical ledger:
  the bits of every transmission are charged to a named phase, and a phase
  costs ``max_e b_e / z_e`` plus any fixed overhead charged to it;
* the :class:`repro.transport.faults.FaultModel` describing which nodes are
  Byzantine (protocols consult it to decide which strategy hook to invoke);
* one ordered *wire log*: every transmission that occupied a link, in send
  order.  An item's index is its wire ordinal, the jitter key.

Delivery is eager: :meth:`SynchronousNetwork.send` checks the link, charges
the ledger, logs the message and returns it.  The transport never alters
payloads — Byzantine behaviour is decided by the protocols via the strategy
hooks *before* a payload reaches the transport.

Two optional models describe a medium the paper abstracts away:

* A :class:`repro.transport.links.LinkModel` adds propagation latency and
  deterministic jitter.  The clock is then a replay of the wire log: each
  named phase is one synchronous round (messages of one name share a round
  whatever the send interleaving; rounds run in first-use order and a phase
  change is a barrier), each link a FIFO draining ``bits / capacity`` per
  item in send order, and the model delays delivery, not the drain.  With
  zero delay the replay ends exactly at the accountant's total (the scheduler
  contract), so the replay runs only when the model adds delay.
  :meth:`~SynchronousNetwork.phase_segments` and
  :meth:`~SynchronousNetwork.delivery_timeline` expose the measured timeline
  on demand.
* A :class:`repro.transport.link_faults.LinkFaultPlan` decides the fate of
  every wire attempt, and sends go through ARQ: a dropped or corrupted
  attempt drains the link, waits out a backed-off timeout (fixed overhead on
  the phase) and is sent again; a duplicated attempt is delivered once but
  drains the link twice; after :data:`ARQ_MAX_ATTEMPTS` failures the message
  is a :class:`DeadLetter`, an omission the protocols treat as a missing
  value.  Acknowledgements cost nothing, so only actual losses cost time.
  A clean plan sends exactly as no plan does.

Every wire copy, wasted or delivered, is one ledger charge and one log item,
so the two clocks agree at zero delay under any fault activity.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable, Dict, Iterable, List, Tuple

from repro.exceptions import GraphError, ProtocolError
from repro.graph.network_graph import NetworkGraph
from repro.transport.accounting import TimeAccountant
from repro.transport.faults import FaultModel
from repro.transport.link_faults import CORRUPT, DELIVER, DUPLICATE, LinkFaultPlan
from repro.transport.links import LinkModel
from repro.transport.message import Message
from repro.types import Edge, NodeId


#: Builds the transport a protocol instance runs on.  The default everywhere
#: is ``SynchronousNetwork`` itself; a factory that passes a link model or a
#: fault plan (the engine's :class:`repro.engine.protocol.ReliabilityCollector`)
#: swaps delivery semantics without touching protocol logic.
NetworkFactory = Callable[[NetworkGraph, FaultModel], "SynchronousNetwork"]

#: ARQ retransmission timeout (in the paper's abstract time units) and
#: exponential-backoff base: failed attempt ``i`` (0-based) waits
#: ``ARQ_TIMEOUT * ARQ_BACKOFF**i``.  One timeout is one failed sub-round.
ARQ_TIMEOUT = Fraction(1)
ARQ_BACKOFF = Fraction(2)

#: A message losing this many consecutive attempts has its link declared dead
#: (the send surfaces as an omission).  At a 10% loss rate the chance of
#: exhausting 8 attempts is 1e-8 per message, so grids stay loss-free in
#: practice while the degradation path remains reachable.
ARQ_MAX_ATTEMPTS = 8

_INSTANT = LinkModel()


@dataclass(frozen=True)
class PhaseSegment:
    """Measured extent of one synchronous round (one named phase)."""

    phase: str
    start: Fraction
    end: Fraction


@dataclass(frozen=True)
class DeliveryTiming:
    """Measured timing of one wire item.

    Attributes:
        phase: Accounting phase of the transmission.
        link: The directed link ``(sender, receiver)``.
        bits: Message size.
        departure: When the link started draining the item.
        arrival: When the item was fully delivered (drain + propagation).
        sequence: The item's wire ordinal (its index in the wire log), also
            the jitter key, so jittered runs are reproducible run to run.
    """

    phase: str
    link: Edge
    bits: int
    departure: Fraction
    arrival: Fraction
    sequence: int


@dataclass(frozen=True)
class DeadLetter:
    """A message abandoned after :data:`ARQ_MAX_ATTEMPTS` failed attempts.

    Attributes:
        edge: The directed link the message could not cross.
        phase: Accounting phase of the attempted transmission.
        kind: Message kind tag.
        bits: Message size (each failed attempt drained this many bits).
        attempts: How many wire attempts were made before giving up.
    """

    edge: Edge
    phase: str
    kind: str
    bits: int
    attempts: int


class SynchronousNetwork:
    """Message transport over a capacitated directed graph.

    Args:
        graph: The network.
        fault_model: Which nodes are Byzantine; defaults to none.
        link_model: Propagation delay on top of the capacity drain; defaults
            to none (the paper's base model).
        fault_plan: Per-attempt link faults, recovered by ARQ; defaults to
            none (reliable links).
    """

    def __init__(
        self,
        graph: NetworkGraph,
        fault_model: FaultModel | None = None,
        link_model: LinkModel | None = None,
        fault_plan: LinkFaultPlan | None = None,
    ) -> None:
        self.graph = graph
        self.fault_model = fault_model if fault_model is not None else FaultModel()
        self.accountant = TimeAccountant(graph)
        self.link_model = link_model if link_model is not None else _INSTANT
        self.fault_plan = fault_plan
        #: Every wire transmission in send order, ARQ's wasted copies included.
        self._wire: List[Message] = []
        #: Wire ordinal -> fault decision, for the copies that were not delivered.
        self._wasted: Dict[int, str] = {}
        #: Whether the clock is the replay rather than the accountant's total.
        self._delayed = link_model is not None and link_model.adds_delay
        #: Whether sends go through ARQ; a plan's rates never change.
        self._lossy = fault_plan is not None and not fault_plan.is_clean
        #: Per-edge count of wire attempts: the fault plan's ordinal stream.
        self._edge_attempts: Dict[Edge, int] = {}
        self._dead_letters: List[DeadLetter] = []
        self._timeout_time: Fraction | int = 0

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
        message is delivered immediately.  Under a lossy fault plan a message
        whose link is declared dead is returned (so callers keep a uniform
        interface) but never delivered: it is absent from
        :meth:`delivered_messages` and recorded in :meth:`dead_letters`.

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
        if self._lossy:
            return self._send_arq(message)
        link_bits = self.accountant.link_ledger(phase)
        link = (sender, receiver)
        link_bits[link] = link_bits.get(link, 0) + bit_size
        self._wire.append(message)
        return message

    def _send_arq(self, message: Message) -> Message:
        """Deliver ``message`` through ARQ over the fault plan.

        Every attempt drains the link: one ledger charge and one wire item,
        delivered or not.  A failed attempt also waits out its backed-off
        timeout before the next one.
        """
        edge = (message.sender, message.receiver)
        phase, bits = message.phase, message.bit_size
        link_bits = self.accountant.link_ledger(phase)
        wire = self._wire
        for attempt in range(ARQ_MAX_ATTEMPTS):
            ordinal = self._edge_attempts.get(edge, 0)
            self._edge_attempts[edge] = ordinal + 1
            decision = self.fault_plan.decide(edge, ordinal)
            link_bits[edge] = link_bits.get(edge, 0) + bits
            if decision in (DELIVER, DUPLICATE):
                wire.append(message)
                if decision == DUPLICATE:
                    # The network replays the attempt: the redundant copy
                    # drains the link too, but the receiver deduplicates it.
                    link_bits[edge] += bits
                    self._wasted[len(wire)] = decision
                    wire.append(message)
                return message
            # DROP or CORRUPT: the attempt was not (acceptably) received, so
            # the sender waits out the backed-off timeout and retransmits.
            self._wasted[len(wire)] = decision
            wire.append(message)
            wait = ARQ_TIMEOUT * ARQ_BACKOFF**attempt
            self.accountant.add_fixed_overhead(phase, wait)
            self._timeout_time += wait
        # The link is dead for this message: an omission, not an exception —
        # a lossy link must degrade the run, not abort it.
        self._dead_letters.append(
            DeadLetter(edge, phase, message.kind, bits, ARQ_MAX_ATTEMPTS)
        )
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
        are identical to sending the symbols one by one, and a vector is one
        FIFO item draining the same total; only *jitter* (keyed by wire
        ordinal) can observe the batching.  Phase 1 hands each edge its full
        cross-tree symbol vector through this entry point, and the equality
        check its coded vector.

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

    # ----------------------------------------------------------------- queries

    def delivered_messages(self) -> List[Message]:
        """Every message delivered so far, in delivery order."""
        wasted = self._wasted
        return [message for ordinal, message in enumerate(self._wire) if ordinal not in wasted]

    def dead_letters(self) -> List[DeadLetter]:
        """Messages abandoned after the retry budget, in send order."""
        return list(self._dead_letters)

    def reliability_stats(self) -> Dict[str, object]:
        """JSON-safe ARQ overhead counters for this network's lifetime.

        Keys:
            ``retransmit_bits``: bits drained by non-delivering copies
                (lost, corrupted and duplicated attempts) — pure overhead
                over the fault-free run.
            ``retransmissions``: how many times a timeout fired and the
                message was sent again.
            ``duplicated_messages``: deliveries the network replayed.
            ``corrupted_attempts``: attempts rejected by the receiver's
                checksum (a subset of the failed attempts).
            ``dropped_messages``: sends abandoned as dead letters (omissions).
            ``timeout_time``: total backoff time charged, as a ``"p/q"``
                string.
        """
        decisions = list(self._wasted.values())
        duplicated = decisions.count(DUPLICATE)
        # Every failed attempt but a dead letter's last one is followed by a
        # retransmission.
        failed = len(decisions) - duplicated
        return {
            "retransmit_bits": sum(self._wire[ordinal].bit_size for ordinal in self._wasted),
            "retransmissions": failed - len(self._dead_letters),
            "duplicated_messages": duplicated,
            "corrupted_attempts": decisions.count(CORRUPT),
            "dropped_messages": len(self._dead_letters),
            "timeout_time": str(self._timeout_time),
        }

    # ------------------------------------------------------------- accounting

    def result_accounting(self) -> Dict[str, object]:
        """The ``elapsed`` / ``bits_sent`` / ``phase_timings`` / ``link_bits`` of one instance.

        Keyword arguments for ``InstanceResult``, and the per-instance
        accounting :func:`repro.types.fold_instances` sums.  ``elapsed`` is
        the replay's end when the link model adds delay, and otherwise the
        sum of the per-phase timings, so each phase's ``max_e b_e / z_e`` is
        computed once.
        """
        timings = self.accountant.phase_timings()
        if self._delayed:
            elapsed = self._replay()[2]
        else:
            elapsed = sum((timing.time_units for timing in timings), Fraction(0))
        return {
            "elapsed": elapsed,
            "bits_sent": sum(timing.bits_sent for timing in timings),
            "phase_timings": timings,
            "link_bits": self.accountant.total_link_bits(),
        }

    def _replay(self) -> Tuple[List[PhaseSegment], List[DeliveryTiming], Fraction]:
        """Replay the wire log round by round on the measured clock.

        Round ``k + 1`` starts at the instant round ``k``'s last delivery
        lands, plus the fixed overhead charged to round ``k``; within a round
        each link drains its FIFO at link capacity and the link model adds
        per-item propagation delay.  Rounds and their overhead come from the
        accountant, so a phase charged only overhead is a round too.  The
        delivery timeline is ordered by ``(arrival, wire ordinal)`` — exactly
        what an event queue would produce.
        """
        rounds: Dict[str, List[Tuple[int, Message]]] = {}
        for ordinal, message in enumerate(self._wire):
            rounds.setdefault(message.phase, []).append((ordinal, message))
        capacity, delay = self.graph.capacity, self.link_model.delay
        timeline: List[DeliveryTiming] = []
        segments: List[PhaseSegment] = []
        start = Fraction(0)
        for phase in self.accountant.phase_names():
            end = start
            busy: Dict[Edge, Fraction] = {}
            for ordinal, message in rounds.get(phase, ()):
                edge = (message.sender, message.receiver)
                departure = busy.get(edge, start)
                drained = departure + Fraction(message.bit_size, capacity(*edge))
                busy[edge] = drained
                arrival = drained + delay(edge, ordinal)
                if arrival > end:
                    end = arrival
                timeline.append(
                    DeliveryTiming(phase, edge, message.bit_size, departure, arrival, ordinal)
                )
            end += self.accountant.phase_fixed_overhead(phase)
            segments.append(PhaseSegment(phase, start, end))
            start = end
        # The list is built in wire order, so the stable sort yields the
        # (arrival, wire ordinal) order.
        timeline.sort(key=lambda timing: timing.arrival)
        return segments, timeline, start

    def phase_segments(self) -> List[PhaseSegment]:
        """Measured ``(phase, start, end)`` per synchronous round, in order."""
        return self._replay()[0]

    def delivery_timeline(self) -> List[DeliveryTiming]:
        """Per-item measured timings, ordered by ``(arrival, wire ordinal)``."""
        return self._replay()[1]
