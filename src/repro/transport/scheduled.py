"""Measured-clock transport: :class:`ScheduledNetwork`.

``ScheduledNetwork`` exposes exactly the same ``send`` / ``send_round`` API as
:class:`repro.transport.network.SynchronousNetwork` — protocols port by
swapping the constructor — but instead of treating delivery as free it replays
every transmission on an exact clock:

* each named accounting phase is one synchronous round: all of a phase's
  messages enter the network when the round starts, and the next phase begins
  only once every one of them has been delivered (a barrier);
* within a round, each directed link is a FIFO that drains
  ``bit_size / capacity`` time units per message in send order (finite link
  capacity is the paper's base model);
* an optional :class:`repro.transport.links.LinkModel` adds propagation
  latency and deterministic jitter between a message's drain and its
  delivery.

Phase identity follows the *name*, exactly as in
:class:`~repro.transport.accounting.TimeAccountant`: protocols that interleave
sends of two phase names (e.g. the per-origin flag sub-broadcasts alternating
``round1``/``round2``) mean those rounds to run in parallel across origins, so
the messages of one name always share one round no matter the send order.
Rounds execute in first-use order.

The inherited accountant keeps recording every transmission and stays the
*analytical oracle*: with a zero-latency link model the measured event clock
equals ``accountant.total_elapsed()`` exactly (both are
:class:`fractions.Fraction` values) — the scheduler contract the transport
tests pin down.  With latency or jitter the measured clock is strictly
larger; that gap is what the latency experiments report.

Payload delivery remains eager (the returned :class:`Message` is usable
immediately and ``messages_received_by`` sees it): node computation is
instantaneous in the paper's model, so the event clock tracks only *wire*
time.  The scheduler adds the measured timeline — when each message actually
arrives — without perturbing protocol semantics.

Batched vectors (``send_vector``) are one FIFO item: a vector of ``k``
symbols of ``b`` bits drains ``k * b / capacity`` on its link, exactly the
total its per-symbol sends would have drained back to back, so the
zero-latency equality with the accountant and the per-phase completion time
under uniform/per-link latency are unchanged by batching.  Only *jitter* can
observe the difference (its key is the per-message ordinal, and a batch is
one message).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Dict, List, Tuple

from repro.graph.network_graph import NetworkGraph
from repro.transport.faults import FaultModel
from repro.transport.links import LinkModel
from repro.transport.message import Message
from repro.transport.network import SynchronousNetwork
from repro.types import Edge, NodeId


@dataclass(frozen=True)
class PhaseSegment:
    """Measured wall-clock extent of one synchronous round (one named phase)."""

    phase: str
    start: Fraction
    end: Fraction

    @property
    def duration(self) -> Fraction:
        return self.end - self.start


@dataclass(frozen=True)
class DeliveryTiming:
    """Measured timing of one message on the wire.

    Attributes:
        phase: Accounting phase of the transmission.
        link: The directed link ``(sender, receiver)``.
        bits: Message size.
        departure: When the link started draining the message.
        arrival: When the message was fully delivered (drain + propagation).
        sequence: Per-network message ordinal (0-based send order).  Also the
            jitter key, so jittered runs are reproducible run to run.
    """

    phase: str
    link: Edge
    bits: int
    departure: Fraction
    arrival: Fraction
    sequence: int


class ScheduledNetwork(SynchronousNetwork):
    """Message transport whose clock replays every round's link FIFOs."""

    def __init__(
        self,
        graph: NetworkGraph,
        fault_model: FaultModel | None = None,
        link_model: LinkModel | None = None,
    ) -> None:
        super().__init__(graph, fault_model)
        self.link_model = link_model if link_model is not None else LinkModel()
        #: Per phase, the messages of its round in send order.  Round order
        #: and fixed overhead come from the accountant (the single ledger),
        #: so charges made directly on it are always reflected here.
        self._phase_messages: Dict[str, List[Tuple[Edge, int, int]]] = {}
        #: Per-network wire ordinal: one per transmission that occupies a
        #: link, in scheduling order.  Equals ``len(self._delivered) - 1`` as
        #: long as every wire transmission delivers exactly one message —
        #: subclasses that put *extra* copies on the wire (retransmissions,
        #: duplicates) consume ordinals of their own via
        #: :meth:`_next_wire_ordinal`, keeping jitter keys unique.
        self._wire_sequence = 0
        self._replayed_key: object = None
        self._replay_cache: Tuple[List[PhaseSegment], List[DeliveryTiming], Fraction] = (
            [],
            [],
            Fraction(0),
        )

    # -------------------------------------------------------------------- send

    def send(
        self,
        sender: NodeId,
        receiver: NodeId,
        payload: Any,
        bit_size: int,
        phase: str,
        kind: str = "data",
    ) -> Message:
        """Send ``payload``, logging its transmission on the event clock.

        See :meth:`SynchronousNetwork.send` for the protocol-facing contract;
        the differences are purely temporal and observable through
        :meth:`elapsed_time`, :meth:`phase_segments` and
        :meth:`delivery_timeline`.
        """
        message = super().send(sender, receiver, payload, bit_size, phase, kind)
        # The per-network wire ordinal (not Message.sequence, which is
        # process global) keys the deterministic jitter, so two identical
        # runs see identical delays.
        self._log_wire_item(phase, (sender, receiver), bit_size)
        return message

    def _next_wire_ordinal(self) -> int:
        """Allocate the next per-network wire ordinal (the jitter key)."""
        ordinal = self._wire_sequence
        self._wire_sequence += 1
        return ordinal

    def _log_wire_item(self, phase: str, edge: Edge, bits: int) -> int:
        """Append one wire transmission to its round's FIFO; returns its ordinal.

        Every call must be paired with exactly one accountant charge of the
        same ``(phase, edge, bits)`` so the measured and analytical clocks
        keep agreeing at zero latency.  :meth:`send` pairs it with the
        inherited delivery; the ARQ subclass pairs it with the ledger charges
        of retransmitted and duplicated copies.
        """
        ordinal = self._next_wire_ordinal()
        self._phase_messages.setdefault(phase, []).append((edge, bits, ordinal))
        return ordinal

    def charge_fixed_overhead(self, phase: str, time_units: Fraction | int) -> None:
        """Charge link-independent time to ``phase`` on both clocks.

        Convenience alias for ``self.accountant.add_fixed_overhead`` — the
        replay reads overhead straight from the accountant's ledger, so
        charging the accountant directly is equally safe.
        """
        self.accountant.add_fixed_overhead(phase, time_units)

    # ------------------------------------------------------------- measurement

    def _replay(self) -> Tuple[List[PhaseSegment], List[DeliveryTiming], Fraction]:
        """Replay every logged round on the measured clock (memoised).

        Round ``k + 1`` starts at the instant round ``k``'s last delivery
        lands; within a round each link drains its FIFO at link capacity and
        the link model adds per-message propagation delay.  The delivery
        timeline is ordered deterministically by ``(arrival, scheduling
        order)`` — exactly what an event queue would produce.
        """
        # Wire transmissions grow the ordinal counter, positive overhead
        # charges grow the total, and a zero-valued charge can still register
        # a new phase — the triple keys the memo soundly.
        key = (
            self._wire_sequence,
            len(self.accountant.phase_names()),
            self.accountant.total_fixed_overhead(),
        )
        if key == self._replayed_key:
            return self._replay_cache
        timeline: List[DeliveryTiming] = []
        segments: List[PhaseSegment] = []
        start = Fraction(0)
        for phase in self.accountant.phase_names():
            end = start
            busy: Dict[Edge, Fraction] = {}
            for edge, bits, sequence in self._phase_messages.get(phase, ()):
                departure = busy.get(edge, start)
                drained = departure + Fraction(bits, self.graph.capacity(*edge))
                busy[edge] = drained
                arrival = drained + self.link_model.delay(edge, sequence)
                if arrival > end:
                    end = arrival
                timeline.append(
                    DeliveryTiming(
                        phase=phase,
                        link=edge,
                        bits=bits,
                        departure=departure,
                        arrival=arrival,
                        sequence=sequence,
                    )
                )
            end += self.accountant.phase_fixed_overhead(phase)
            segments.append(PhaseSegment(phase=phase, start=start, end=end))
            start = end
        # The list is built in scheduling order, so the stable sort yields the
        # (arrival, scheduling order) order an event queue would produce.
        timeline.sort(key=lambda timing: timing.arrival)
        self._replay_cache = (segments, timeline, start)
        self._replayed_key = key
        return self._replay_cache

    def elapsed_time(self) -> Fraction:
        """Measured duration: when the last round's last delivery lands."""
        return self._replay()[2]

    def result_accounting(self) -> Dict[str, object]:
        """As the parent's, with ``elapsed`` read off the measured clock."""
        accounting = super().result_accounting()
        accounting["elapsed"] = self.elapsed_time()
        return accounting

    def phase_segments(self) -> List[PhaseSegment]:
        """Measured ``(phase, start, end)`` per synchronous round, in order."""
        return list(self._replay()[0])

    def delivery_timeline(self) -> List[DeliveryTiming]:
        """Per-message measured timings, ordered by ``(arrival, sequence)``."""
        return list(self._replay()[1])
