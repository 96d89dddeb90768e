"""repro — a reproduction of Network-Aware Byzantine Broadcast (Liang & Vaidya, PODC 2012).

The library implements the paper's NAB algorithm and every substrate it
depends on: exact ``GF(2^m)`` arithmetic, capacitated-graph algorithms
(max-flow / min-cut / arborescence packing), a synchronous point-to-point
network simulator with per-link capacity accounting, a classical Byzantine
broadcast used as a sub-protocol, the local-linear-coding Equality Check,
dispute control, and the capacity / throughput analysis of the paper's
theorems.

Quickstart::

    from repro import NetworkAwareBroadcast, FaultModel
    from repro.graph.generators import complete_graph

    nab = NetworkAwareBroadcast(complete_graph(4, capacity=2), source=1, max_faults=1)
    result = nab.run_instance(b"hello world!")
    print(hex(result.agreed_value()), result.elapsed)

See ``examples/`` for adversarial scenarios and the capacity analysis;
``tests/test_paper_claims.py`` pins the paper's figures and theorem-level
claims as exact rationals.
"""

from repro.capacity.bounds import CapacityAnalysis, analyse_network
from repro.core.instance import InstanceResult
from repro.core.nab import NetworkAwareBroadcast
from repro.exceptions import ReproError
from repro.graph.network_graph import NetworkGraph
from repro.transport.faults import ByzantineStrategy, FaultModel
from repro.types import RunRecord

__version__ = "1.0.0"

__all__ = [
    "NetworkAwareBroadcast",
    "InstanceResult",
    "RunRecord",
    "NetworkGraph",
    "FaultModel",
    "ByzantineStrategy",
    "CapacityAnalysis",
    "analyse_network",
    "ReproError",
    "__version__",
]
