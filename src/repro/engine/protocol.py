"""The ``Protocol`` interface and name-keyed registry.

Every broadcast algorithm the experiment engine can sweep is wrapped in a
small adapter exposing one entry point::

    run(graph, source, inputs, fault_model, params) -> RunRecord

so sweeps, the parallel runner and the reporting layer never special-case a
protocol.  Adapters for NAB, the classical full-value flooding baseline and
the chunked direct-EIG baseline are registered at import time; external code
can register additional protocols with :func:`register_protocol`.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import replace
from typing import Dict, List, Mapping, Optional, Sequence

from repro.classical.flooding import (
    classical_flooding_run_record,
    eig_chunked_run_record,
)
from repro.core.nab import NetworkAwareBroadcast
from repro.exceptions import ConfigurationError
from repro.graph.network_graph import NetworkGraph
from repro.sched.faults import LinkFaultPlan, fault_plan
from repro.sched.links import LinkModel, link_model
from repro.transport.faults import FaultModel
from repro.transport.network import NetworkFactory
from repro.transport.reliable import ReliableNetwork, accumulate_reliability_stats
from repro.transport.scheduled import ScheduledNetwork
from repro.types import NodeId, RunRecord


class ReliabilityCollector:
    """A transport factory that builds ARQ networks and aggregates their stats.

    Protocols construct one network per instance through their
    ``network_factory`` hook; this callable keeps every network it built so
    the adapter can fold the per-network
    :meth:`~repro.transport.reliable.ReliableNetwork.reliability_stats` into
    one per-run total after the run (see :func:`attach_reliability_stats`).
    """

    def __init__(self, plan: LinkFaultPlan, model: Optional[LinkModel]) -> None:
        self.plan = plan
        self.model = model
        self.networks: List[ReliableNetwork] = []

    def __call__(self, graph: NetworkGraph, fault_model: FaultModel) -> ReliableNetwork:
        network = ReliableNetwork(
            graph, fault_model, link_model=self.model, fault_plan=self.plan
        )
        self.networks.append(network)
        return network

    def totals(self) -> Dict[str, object]:
        """Run-wide ARQ overhead: every constructed network's stats, summed."""
        totals: Dict[str, object] = {}
        for network in self.networks:
            accumulate_reliability_stats(totals, network.reliability_stats())
        return totals


def network_factory_from_params(params: Mapping[str, object]) -> Optional[NetworkFactory]:
    """Build the transport factory a ``params`` mapping asks for.

    When ``params`` carries a ``"link_model"`` name the run goes through
    :class:`ScheduledNetwork` with that named model (``"instant"`` included —
    the measured clock then equals the analytical one exactly, per the
    scheduler contract); a ``"fault_plan"`` name upgrades the transport to
    the ARQ :class:`~repro.transport.reliable.ReliableNetwork` over that plan
    (composable with ``"link_model"``).  Without either key the protocol
    keeps its default zero-delay transport.
    """
    model_name = params.get("link_model")
    model = link_model(str(model_name)) if model_name is not None else None
    plan_name = params.get("fault_plan")
    if plan_name is not None:
        return ReliabilityCollector(fault_plan(str(plan_name)), model)
    if model is None:
        return None
    return lambda graph, fault_model: ScheduledNetwork(
        graph, fault_model, link_model=model
    )


def attach_reliability_stats(
    record: RunRecord, factory: Optional[NetworkFactory]
) -> RunRecord:
    """Copy a run's aggregated ARQ overhead into ``record.metadata``.

    A no-op unless the run went through a :class:`ReliabilityCollector` with a
    *non-clean* fault plan: clean plans are bit-identical to the plain
    scheduled transport by contract, so their records must not change shape
    either (the zero-fault byte-identity guarantee).
    """
    if not isinstance(factory, ReliabilityCollector) or factory.plan.is_clean:
        return record
    metadata = dict(record.metadata)
    metadata["reliability"] = factory.totals()
    return replace(record, metadata=metadata)


def _check_execution(params: Mapping[str, object], protocol: "Protocol") -> bool:
    """Whether ``params`` asks for pipelined execution (validated).

    Raises:
        ConfigurationError: if pipelined execution is requested but the
            protocol does not declare :attr:`Protocol.supports_pipelined`, or
            a ``"snapshot"`` / ``"checkpoint"`` reaches a checkpoint-free run.
    """
    pipelined = params.get("execution", "sequential") == "pipelined"
    if pipelined and not protocol.supports_pipelined:
        raise ConfigurationError(
            f"protocol {protocol.name!r} does not support pipelined execution"
        )
    resumable = protocol.supports_checkpoints and not pipelined
    if not resumable and ("snapshot" in params or "checkpoint" in params):
        execution = "pipelined" if pipelined else "sequential"
        raise ConfigurationError(f"{protocol.name!r} is checkpoint-free in {execution} execution")
    return pipelined


class Protocol(ABC):
    """A broadcast protocol the engine can run on a scenario.

    Subclasses set :attr:`name` (the registry key, also stamped on every
    :class:`RunRecord` they produce) and implement :meth:`run`.
    """

    #: Registry key; must be unique among registered protocols.
    name: str = "abstract"

    #: Whether the protocol honours ``params["execution"] == "pipelined"``.
    #: The single source of truth consulted both by the adapters (rejecting
    #: pipelined params) and by grid expansion (skipping pipelined cells).
    supports_pipelined: bool = False

    #: Whether a sequential run honours ``params["snapshot"]`` (resume) and
    #: ``params["checkpoint"]`` (a per-instance hook); others reject both.
    supports_checkpoints: bool = False

    @abstractmethod
    def run(
        self,
        graph: NetworkGraph,
        source: NodeId,
        inputs: Sequence[bytes],
        fault_model: FaultModel,
        params: Mapping[str, object],
    ) -> RunRecord:
        """Broadcast every input value in order and summarise the run.

        Args:
            graph: The capacitated network.
            source: The broadcasting node.
            inputs: One byte-string value per instance.
            fault_model: Which nodes are Byzantine and their strategy.
            params: Protocol parameters; ``"max_faults"`` is always present,
                adapters may consume extras (``"coding_seed"``,
                ``"chunk_bytes"``, ``"execution"``, ``"link_model"``,
                ``"snapshot"``, ``"checkpoint"``, ...).
        """


class NABProtocol(Protocol):
    """The paper's Network-Aware Broadcast with amortised dispute control."""

    name = "nab"
    supports_pipelined = True
    supports_checkpoints = True

    def run(self, graph, source, inputs, fault_model, params):
        pipelined = _check_execution(params, self)
        factory = network_factory_from_params(params)
        nab = NetworkAwareBroadcast(
            graph,
            source,
            int(params["max_faults"]),
            fault_model=fault_model,
            coding_seed=int(params.get("coding_seed", 0)),
            network_factory=factory,
        )
        if pipelined:
            record = nab.run_pipelined_record(list(inputs))
        else:
            record = nab.run_record(
                list(inputs), params.get("snapshot"), params.get("checkpoint")
            )
        return attach_reliability_stats(record, factory)


class ClassicalFloodingProtocol(Protocol):
    """Capacity-oblivious baseline: full-value EIG flooding over disjoint paths."""

    name = "classical-flooding"

    def run(self, graph, source, inputs, fault_model, params):
        _check_execution(params, self)
        factory = network_factory_from_params(params)
        record = classical_flooding_run_record(
            graph,
            source,
            list(inputs),
            int(params["max_faults"]),
            fault_model,
            network_factory=factory,
        )
        return attach_reliability_stats(record, factory)


class EIGChunkedProtocol(Protocol):
    """Capacity-oblivious baseline: direct EIG on the payload's chunks, in shared rounds."""

    name = "eig"

    def run(self, graph, source, inputs, fault_model, params):
        _check_execution(params, self)
        factory = network_factory_from_params(params)
        record = eig_chunked_run_record(
            graph,
            source,
            list(inputs),
            int(params["max_faults"]),
            fault_model,
            chunk_bytes=int(params.get("chunk_bytes", 1)),
            network_factory=factory,
        )
        return attach_reliability_stats(record, factory)


_REGISTRY: Dict[str, Protocol] = {}


def register_protocol(protocol: Protocol, replace: bool = False) -> None:
    """Add a protocol to the registry under its :attr:`Protocol.name`.

    Raises:
        ConfigurationError: if the name is already taken and ``replace`` is
            not set, or the protocol has no usable name.
    """
    name = protocol.name
    if not name or name == Protocol.name:
        raise ConfigurationError("protocol must define a concrete registry name")
    if name in _REGISTRY and not replace:
        raise ConfigurationError(f"protocol {name!r} is already registered")
    _REGISTRY[name] = protocol


def get_protocol(name: str) -> Protocol:
    """Look up a registered protocol by name.

    Raises:
        ConfigurationError: if the name is unknown.
    """
    if name not in _REGISTRY:
        raise ConfigurationError(
            f"unknown protocol {name!r}; available: {', '.join(registered_protocols())}"
        )
    return _REGISTRY[name]


def registered_protocols() -> List[str]:
    """All registered protocol names, sorted."""
    return sorted(_REGISTRY)


register_protocol(NABProtocol())
register_protocol(ClassicalFloodingProtocol())
register_protocol(EIGChunkedProtocol())
