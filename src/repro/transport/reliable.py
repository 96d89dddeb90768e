"""ARQ reliable delivery over unreliable links: :class:`ReliableNetwork`.

:class:`ReliableNetwork` extends :class:`repro.transport.scheduled.
ScheduledNetwork` with the classic automatic-repeat-request discipline over a
seeded :class:`repro.transport.link_faults.LinkFaultPlan`:

* every wire attempt on a link consults the fault plan (deterministically, via
  the per-edge attempt ordinal);
* a **dropped** or **corrupted** attempt still drains the link (the bits were
  transmitted) but is not delivered; the sender's retransmission timeout fires
  and the message is sent again, with exponential backoff — attempt ``i``
  (0-based) waits ``timeout * backoff**i`` before retransmitting, charged to
  the phase as fixed overhead on *both* clocks (the sub-round the paper-level
  model sees);
* a **duplicated** attempt is delivered once (the receiver deduplicates by
  sequence number) but the redundant copy drains the link too;
* acknowledgements are modeled as instantaneous control signals and cost
  nothing — only timeouts (i.e. actual losses) cost time, which is what makes
  the zero-loss overhead exactly zero;
* after :attr:`max_attempts` consecutive losses the link is declared **dead**
  for that message: the send is abandoned and surfaces as an *omission* — the
  message is recorded as a dead letter and never delivered.  The paper's
  protocols already treat a missing message as a default value, so agreement
  and validity continue to hold as long as the affected links stay within the
  adversary's ``f`` budget.

With a clean fault plan (every rate zero) ``send`` short-circuits to the
inherited path, so clocks, ledgers, jitter ordinals and delivered messages are
**bit-identical** to a plain :class:`ScheduledNetwork` — the zero-fault
contract the engine's byte-identity guarantees rest on.

The overhead is measurable: :meth:`reliability_stats` reports retransmitted
bits, retransmission/duplicate/drop counts and the total timeout time, and the
engine copies those counters into every cell's ``RunRecord`` metadata.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Dict, List

from repro.exceptions import GraphError, ProtocolError, SchedulerError
from repro.graph.network_graph import NetworkGraph
from repro.transport.faults import FaultModel
from repro.transport.link_faults import CORRUPT, DELIVER, DROP, DUPLICATE, LinkFaultPlan
from repro.transport.links import LinkModel
from repro.transport.message import Message
from repro.transport.scheduled import ScheduledNetwork
from repro.types import Edge, NodeId

#: Default retransmission timeout (in the paper's abstract time units) and
#: exponential-backoff base.  One timeout is the cost of one failed sub-round.
DEFAULT_TIMEOUT = Fraction(1)
DEFAULT_BACKOFF = Fraction(2)

#: Default retry budget: a message losing this many consecutive attempts has
#: its link declared dead (the send surfaces as an omission).  At a 10% loss
#: rate the chance of exhausting 8 attempts is 1e-8 per message, so grids stay
#: loss-free in practice while the degradation path remains reachable.
DEFAULT_MAX_ATTEMPTS = 8


@dataclass(frozen=True)
class DeadLetter:
    """A message abandoned after the retry budget was exhausted.

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


class ReliableNetwork(ScheduledNetwork):
    """Scheduled transport with ARQ retransmission over a link-fault plan."""

    def __init__(
        self,
        graph: NetworkGraph,
        fault_model: FaultModel | None = None,
        link_model: LinkModel | None = None,
        fault_plan: LinkFaultPlan | None = None,
        timeout: Fraction | int = DEFAULT_TIMEOUT,
        backoff: Fraction | int = DEFAULT_BACKOFF,
        max_attempts: int = DEFAULT_MAX_ATTEMPTS,
    ) -> None:
        super().__init__(graph, fault_model, link_model)
        self.fault_plan = fault_plan if fault_plan is not None else LinkFaultPlan()
        self.timeout = Fraction(timeout)
        self.backoff = Fraction(backoff)
        self.max_attempts = int(max_attempts)
        if self.timeout < 0:
            raise SchedulerError(f"timeout must be non-negative, got {self.timeout}")
        if self.backoff < 1:
            raise SchedulerError(f"backoff base must be >= 1, got {self.backoff}")
        if self.max_attempts < 1:
            raise SchedulerError(
                f"max_attempts must be >= 1, got {self.max_attempts}"
            )
        #: Per-edge count of wire attempts so far — the fault plan's ordinal
        #: stream, independent of message identity so retransmissions see
        #: fresh decisions.
        self._edge_attempts: Dict[Edge, int] = {}
        self._dead_letters: List[DeadLetter] = []
        self._retransmit_bits = 0
        self._retransmissions = 0
        self._duplicated_messages = 0
        self._corrupted_attempts = 0
        self._timeout_time = Fraction(0)

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
        """Send ``payload`` reliably, retransmitting on loss.

        See :meth:`SynchronousNetwork.send` for the protocol-facing contract.
        On a clean fault plan this is byte-identical to the scheduled parent.
        A message whose link is declared dead is returned (so callers keep a
        uniform interface) but never delivered: it is absent from
        :meth:`delivered_messages`/:meth:`messages_received_by` and recorded
        in :meth:`dead_letters` instead.
        """
        if self.fault_plan.is_clean:
            return super().send(sender, receiver, payload, bit_size, phase, kind)
        # Validate up front: failed attempts charge the wire before the
        # delivering parent call would have run its own checks.
        if not self.graph.has_edge(sender, receiver):
            raise GraphError(f"no link from {sender} to {receiver}")
        if not isinstance(bit_size, int) or isinstance(bit_size, bool) or bit_size <= 0:
            raise ProtocolError(f"bits must be a positive integer, got {bit_size!r}")
        edge = (sender, receiver)
        for attempt in range(self.max_attempts):
            ordinal = self._edge_attempts.get(edge, 0)
            self._edge_attempts[edge] = ordinal + 1
            decision = self.fault_plan.decide(edge, ordinal)
            if decision in (DELIVER, DUPLICATE):
                message = super().send(sender, receiver, payload, bit_size, phase, kind)
                if decision == DUPLICATE:
                    # The network replays the attempt: the redundant copy
                    # drains the link (ledger + FIFO item + its own jitter
                    # ordinal) but the receiver deduplicates, so exactly one
                    # message is delivered.
                    self._charge_wire_copy(phase, edge, bit_size)
                    self._duplicated_messages += 1
                return message
            # DROP or CORRUPT: the attempt drained the link but was not
            # (acceptably) received — charge the wasted copy, wait out the
            # backed-off timeout, and retransmit.
            self._charge_wire_copy(phase, edge, bit_size)
            if decision == CORRUPT:
                self._corrupted_attempts += 1
            wait = self.timeout * self.backoff ** attempt
            if wait > 0:
                self.accountant.add_fixed_overhead(phase, wait)
                self._timeout_time += wait
            if attempt + 1 < self.max_attempts:
                self._retransmissions += 1
        # Retry budget exhausted: the link is dead for this message.  The
        # send surfaces as an omission (the paper's protocols substitute a
        # default value for missing messages), not as an exception — a lossy
        # link must degrade the run, not abort it.
        self._dead_letters.append(
            DeadLetter(
                edge=edge,
                phase=phase,
                kind=kind,
                bits=bit_size,
                attempts=self.max_attempts,
            )
        )
        return Message(
            sender=sender,
            receiver=receiver,
            phase=phase,
            kind=kind,
            payload=payload,
            bit_size=bit_size,
        )

    def _charge_wire_copy(self, phase: str, edge: Edge, bits: int) -> None:
        """Charge one non-delivering wire copy to both clocks.

        The copy appears in the accountant's ledger (analytical clock, per-link
        bit totals) and in the round's FIFO (measured clock, jitter ordinal),
        exactly like a delivered message — it just never reaches the inbox.
        """
        link_bits = self.accountant.link_ledger(phase)
        link_bits[edge] = link_bits.get(edge, 0) + bits
        self._log_wire_item(phase, edge, bits)
        self._retransmit_bits += bits

    # -------------------------------------------------------------- accounting

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
        return {
            "retransmit_bits": self._retransmit_bits,
            "retransmissions": self._retransmissions,
            "duplicated_messages": self._duplicated_messages,
            "corrupted_attempts": self._corrupted_attempts,
            "dropped_messages": len(self._dead_letters),
            "timeout_time": str(self._timeout_time),
        }


def accumulate_reliability_stats(
    totals: Dict[str, object], stats: Dict[str, object]
) -> None:
    """Fold one network's :meth:`ReliableNetwork.reliability_stats` into ``totals``.

    The single aggregation rule shared by every consumer (the engine runs one
    network per protocol instance), so per-cell overhead accounting can never
    diverge between protocols.
    """
    for key, value in stats.items():
        if key == "timeout_time":
            current = Fraction(str(totals.get(key, "0")))
            totals[key] = str(current + Fraction(str(value)))
        else:
            totals[key] = int(totals.get(key, 0)) + int(value)
