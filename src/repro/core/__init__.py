"""NAB — the Network-Aware Byzantine broadcast algorithm (the paper's contribution).

Each NAB instance broadcasts one ``L``-bit value from the source (node 1 by
convention) to every other node in three phases:

1. **Unreliable broadcast** (:mod:`repro.core.phase1_broadcast`): the value is
   split into ``gamma_k`` symbols shipped down ``gamma_k`` capacity-disjoint
   spanning arborescences of the instance graph ``G_k`` — time
   ``L / gamma_k``, no fault tolerance.
2. **Failure detection** (:mod:`repro.core.phase2_equality`): the Equality
   Check of Section 3 (time ``L / rho_k``) followed by classical Byzantine
   broadcast of every node's 1-bit MISMATCH flag.
3. **Dispute control** (:mod:`repro.core.phase3_dispute`): run only when some
   node announced MISMATCH; every node broadcasts its full instance
   transcript, which yields a correct output for the instance and identifies
   a new faulty node or a new node pair in dispute.  The accumulated
   dispute/fault knowledge (:mod:`repro.core.dispute_state`) shrinks the graph
   used by later instances.

:class:`repro.core.nab.NetworkAwareBroadcast` is the public entry point: it
runs one instance (an :class:`InstanceResult`) or a sequence of instances
folded into a :class:`repro.types.RunRecord`, sequentially or overlapped per
the Figure 3 pipeline (:mod:`repro.core.pipeline`).
"""

from repro.core.dispute_state import DisputeState
from repro.core.instance import InstanceResult, NABInstance
from repro.core.nab import NetworkAwareBroadcast
from repro.core.parameters import InstanceParameters, compute_instance_parameters

__all__ = [
    "DisputeState",
    "InstanceParameters",
    "compute_instance_parameters",
    "NABInstance",
    "InstanceResult",
    "NetworkAwareBroadcast",
]
