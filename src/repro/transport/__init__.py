"""Synchronous point-to-point network simulation substrate.

The paper's system model is a synchronous network of directed links, where a
link of capacity ``z_e`` can carry up to ``z_e * tau`` bits in ``tau`` time
units and propagation delays are (by default) zero.  The simulator here
enforces exactly that model:

* :class:`repro.transport.message.Message` — a typed unit of communication
  with an explicit bit size.
* :class:`repro.transport.accounting.TimeAccountant` — converts the bits sent
  on each link during a protocol phase into the elapsed time of that phase
  (``max_e bits_e / z_e``) and accumulates totals across phases and instances.
* :class:`repro.transport.network.SynchronousNetwork` — message delivery over
  the links of a :class:`repro.graph.NetworkGraph` with per-phase usage
  tracking.
* :class:`repro.transport.faults.FaultModel` — which nodes are Byzantine and
  which :class:`repro.transport.faults.ByzantineStrategy` drives their
  behaviour.  The strategy interface is defined here (with honest defaults);
  concrete attacks live in :mod:`repro.adversary`.
* :class:`repro.transport.scheduled.ScheduledNetwork` — the same send API
  on a measured clock: each phase is a synchronous round, each link a FIFO
  draining at capacity, plus the optional propagation latency/jitter of a
  :class:`repro.transport.links.LinkModel`; the clock equals the
  accountant's analytical total exactly in the zero-latency case.
* :class:`repro.transport.reliable.ReliableNetwork` — ARQ retransmission
  (timeout, exponential backoff, bounded retries, dead-link = omission) over a
  seeded :class:`repro.transport.link_faults.LinkFaultPlan`; bit-identical to
  ``ScheduledNetwork`` when the plan is clean.
* :mod:`repro.transport.links` and :mod:`repro.transport.link_faults` — the
  named link models and fault plans experiment specs reference.
"""

from repro.transport.accounting import TimeAccountant
from repro.transport.faults import ByzantineStrategy, FaultModel
from repro.transport.message import Message
from repro.transport.network import NetworkFactory, SynchronousNetwork
from repro.transport.reliable import DeadLetter, ReliableNetwork
from repro.transport.scheduled import DeliveryTiming, PhaseSegment, ScheduledNetwork

__all__ = [
    "Message",
    "TimeAccountant",
    "SynchronousNetwork",
    "ScheduledNetwork",
    "ReliableNetwork",
    "DeadLetter",
    "NetworkFactory",
    "PhaseSegment",
    "DeliveryTiming",
    "FaultModel",
    "ByzantineStrategy",
]
