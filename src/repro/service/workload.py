"""Deterministic session workload generation for benchmarks and chaos runs.

A workload is a pure function of its arguments: session ``i`` gets the
``i``-th topology/strategy of the given cycles, a stable human-readable id and
a SHA-256-derived private seed, so two processes generating the same workload
agree on every session byte for byte — the premise of the chaos harness's
"restart with the same arguments and resume" contract.

Seeds and faulty sets follow the experiment grid's rules
(:func:`repro.engine.spec.cell_seed` of the session id,
:func:`repro.engine.spec.faulty_placement`).
"""

from __future__ import annotations

from typing import List, Sequence

from repro.engine.spec import FAULT_FREE, cell_seed, faulty_placement
from repro.exceptions import ConfigurationError
from repro.service.session import SessionSpec
from repro.types import NodeId
from repro.workloads.scenarios import named_strategies
from repro.workloads.topologies import topology


def generate_sessions(
    count: int,
    topologies: Sequence[str] = ("k7-unit",),
    strategies: Sequence[str] = (FAULT_FREE,),
    payload_bytes: int = 2,
    instances: int = 1,
    max_faults: int = 1,
    seed: int = 0,
    service: str = "service",
    source: NodeId = 1,
) -> List[SessionSpec]:
    """``count`` deterministic sessions cycling the topology/strategy axes.

    Session ``i`` uses ``topologies[i % len]`` and ``strategies[i % len]``;
    its id is ``{service}/{i:06d}/{topology}/{strategy}`` and its seed is
    derived from ``seed`` and that id, so disjoint workloads never share
    randomness and identical calls reproduce identical specs.

    Raises:
        ConfigurationError: if an axis is empty, a strategy or topology is
            unknown, or an adversarial strategy meets ``max_faults < 1``.
    """
    if count < 0:
        raise ConfigurationError(f"count must be non-negative, got {count}")
    if not topologies or not strategies:
        raise ConfigurationError("topologies and strategies must be non-empty")
    known = set(named_strategies()) | {FAULT_FREE}
    for name in strategies:
        if name not in known:
            raise ConfigurationError(
                f"unknown strategy {name!r}; available: {sorted(known)}"
            )
    nodes = {name: topology(name).nodes() for name in topologies}
    sessions: List[SessionSpec] = []
    for index in range(count):
        topology_name = topologies[index % len(topologies)]
        strategy = strategies[index % len(strategies)]
        faulty = faulty_placement(strategy, nodes[topology_name], source, max_faults)
        if faulty is None:
            raise ConfigurationError(
                f"strategy {strategy!r} needs max_faults >= 1, got {max_faults}"
            )
        session_id = f"{service}/{index:06d}/{topology_name}/{strategy}"
        sessions.append(
            SessionSpec(
                service=service,
                session_id=session_id,
                topology=topology_name,
                strategy=strategy,
                faulty_nodes=faulty,
                payload_bytes=payload_bytes,
                instances=instances,
                max_faults=max_faults,
                seed=cell_seed(seed, session_id),
                source=source,
            )
        )
    return sessions
