"""Typed messages with explicit bit-size accounting.

Every transmission in the simulator carries an explicit ``bit_size`` so that
the :class:`repro.transport.accounting.TimeAccountant` can convert link usage
into elapsed time exactly as the paper's capacity model prescribes.  The
payload itself is opaque to the transport layer; protocols put whatever
structured data they need in it (symbols, flags, transcript claims, ...).
"""

from __future__ import annotations

from itertools import count
from operator import itemgetter
from typing import Any

from repro.exceptions import ProtocolError
from repro.types import NodeId

_SEQUENCE = count()


class Message(tuple):
    """One unit of communication over a directed link.

    An immutable value backed by a tuple: validated once, in the constructor,
    and read through the attributes below.  One is built per hop of every
    relay path, so construction is the simulator's per-message floor.

    Attributes:
        sender: Node that transmits the message.
        receiver: Node that receives the message.
        phase: Name of the protocol phase the transmission belongs to; used to
            attribute link usage to phases for time accounting.
        kind: Free-form message type tag (e.g. ``"phase1_symbol"``,
            ``"equality_coded"``, ``"eig_relay"``).
        payload: Protocol-defined content.
        bit_size: Number of bits this message occupies on the link.  Must be
            positive; the transport charges exactly this amount to the link.
        sequence: Monotonically increasing identifier, assigned automatically,
            used only to keep delivery order deterministic.

    Raises:
        ProtocolError: if ``bit_size`` is not a positive (non-``bool``)
            integer, or ``sender`` and ``receiver`` are the same node.
    """

    __slots__ = ()

    def __new__(
        cls,
        sender: NodeId,
        receiver: NodeId,
        phase: str,
        kind: str,
        payload: Any,
        bit_size: int,
    ) -> "Message":
        if not isinstance(bit_size, int) or isinstance(bit_size, bool) or bit_size <= 0:
            raise ProtocolError(f"bit_size must be a positive integer, got {bit_size!r}")
        if sender == receiver:
            raise ProtocolError("a node does not send messages to itself over the network")
        return tuple.__new__(
            cls, (sender, receiver, phase, kind, payload, bit_size, next(_SEQUENCE))
        )

    sender = property(itemgetter(0))
    receiver = property(itemgetter(1))
    phase = property(itemgetter(2))
    kind = property(itemgetter(3))
    payload = property(itemgetter(4))
    bit_size = property(itemgetter(5))
    sequence = property(itemgetter(6))

    def __repr__(self) -> str:
        return (
            f"Message(sender={self.sender!r}, receiver={self.receiver!r}, "
            f"phase={self.phase!r}, kind={self.kind!r}, payload={self.payload!r}, "
            f"bit_size={self.bit_size!r}, sequence={self.sequence!r})"
        )

    def __reduce__(self):
        # Copies and pickles keep their sequence; the default tuple reduction
        # would call __new__ with one argument.
        return (tuple.__new__, (type(self), tuple(self)))

    def replace_payload(self, payload: Any, bit_size: int | None = None) -> "Message":
        """Return a copy with a different payload (used by Byzantine interception)."""
        return Message(
            self.sender,
            self.receiver,
            self.phase,
            self.kind,
            payload,
            self.bit_size if bit_size is None else bit_size,
        )
