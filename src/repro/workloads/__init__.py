"""Workload construction: named topologies, adversary strategies and inputs.

These helpers give the examples and benchmarks a single place to obtain
reproducible experiment pieces: a capacitated network, a Byzantine strategy
and a stream of inputs to broadcast.  A fully specified :class:`Scenario` is
built by :meth:`repro.engine.spec.Cell.scenario`.
"""

from repro.workloads.scenarios import (
    Scenario,
    input_stream,
    make_strategy,
    named_strategies,
)
from repro.workloads.topologies import named_topologies, topology

__all__ = [
    "topology",
    "named_topologies",
    "Scenario",
    "input_stream",
    "make_strategy",
    "named_strategies",
]
