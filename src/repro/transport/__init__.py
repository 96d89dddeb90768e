"""Synchronous point-to-point network simulation substrate.

The paper's system model is a synchronous network of directed links, where a
link of capacity ``z_e`` can carry up to ``z_e * tau`` bits in ``tau`` time
units and propagation delays are zero.  The simulator here enforces exactly
that model, and can add the delays and losses of a real medium:

* :class:`repro.transport.message.Message` — a typed unit of communication
  with an explicit bit size.
* :class:`repro.transport.accounting.TimeAccountant` — the analytical ledger:
  converts the bits sent on each link during a protocol phase into the
  elapsed time of that phase (``max_e bits_e / z_e``) and accumulates totals
  across phases.
* :class:`repro.transport.network.SynchronousNetwork` — the one transport:
  message delivery over the links of a :class:`repro.graph.NetworkGraph`,
  charged to the accountant and kept in one ordered wire log.  Given a
  :class:`repro.transport.links.LinkModel` that adds delay, its clock is a
  replay of that log (per-round link FIFOs draining at capacity, plus
  propagation delay); given a lossy
  :class:`repro.transport.link_faults.LinkFaultPlan`, sends go through ARQ
  retransmission (timeout, exponential backoff, bounded retries, dead link =
  omission).
* :class:`repro.transport.faults.FaultModel` — which nodes are Byzantine and
  which :class:`repro.transport.faults.ByzantineStrategy` drives their
  behaviour.  The strategy interface is defined here (with honest defaults);
  concrete attacks live in :mod:`repro.adversary`.
* :mod:`repro.transport.links` and :mod:`repro.transport.link_faults` — the
  named link models and fault plans experiment specs reference.
"""

from repro.transport.accounting import TimeAccountant
from repro.transport.faults import ByzantineStrategy, FaultModel
from repro.transport.message import Message
from repro.transport.network import (
    DeadLetter,
    DeliveryTiming,
    NetworkFactory,
    PhaseSegment,
    SynchronousNetwork,
)

__all__ = [
    "Message",
    "TimeAccountant",
    "SynchronousNetwork",
    "DeadLetter",
    "NetworkFactory",
    "PhaseSegment",
    "DeliveryTiming",
    "FaultModel",
    "ByzantineStrategy",
]
