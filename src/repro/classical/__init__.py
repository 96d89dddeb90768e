"""Classical Byzantine-broadcast substrate ("Broadcast_Default" in the paper).

NAB uses a previously proposed Byzantine broadcast algorithm as a black box in
two places: to agree on the 1-bit equality-check flags (step 2.2) and to
disseminate transcripts during dispute control (Phase 3).  The paper only
requires that this sub-protocol be correct and have cost polynomial in ``n``
(independent of the large input size ``L`` for the 1-bit case); its
(in)efficiency is exactly what the amortisation argument hides.

This package provides:

* :class:`repro.classical.relay.DisjointPathRelay` — reliable node-to-node
  communication over an incomplete network by sending each value along
  ``2f + 1`` vertex-disjoint paths and taking the majority at the receiver
  (Appendix D's complete-graph emulation).
* :class:`repro.classical.eig.EIGBroadcast` — the Exponential Information
  Gathering Byzantine broadcast (Pease–Shostak–Lamport style, ``f + 1``
  rounds, correct for ``n >= 3f + 1``) running on top of the relay.
* :class:`repro.classical.broadcast_default.BroadcastDefault` — the facade NAB
  phases call.
* :func:`repro.classical.flooding.classical_flooding_run` /
  :func:`~repro.classical.flooding.eig_chunked_run` — the capacity-oblivious
  baselines (the entire ``L``-bit input, or its chunks, broadcast with the
  classical algorithm) the engine registers as ``classical-flooding`` and
  ``eig`` beside NAB.
"""

from repro.classical.broadcast_default import BroadcastDefault
from repro.classical.eig import EIGBroadcast
from repro.classical.flooding import (
    classical_chunked_broadcast,
    classical_flooding_run,
    classical_full_value_broadcast,
    eig_chunked_run,
)
from repro.classical.relay import (
    DisjointPathRelay,
    clear_relay_path_cache,
    relay_path_cache_stats,
)

__all__ = [
    "DisjointPathRelay",
    "clear_relay_path_cache",
    "relay_path_cache_stats",
    "EIGBroadcast",
    "BroadcastDefault",
    "classical_full_value_broadcast",
    "classical_chunked_broadcast",
    "classical_flooding_run",
    "eig_chunked_run",
]
