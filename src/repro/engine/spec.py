"""Declarative sweep grids: ``ExperimentSpec`` and its expansion into cells.

An :class:`ExperimentSpec` names the axes of a sweep — topologies × adversary
strategies × payload sizes × ``f`` × protocols — and :meth:`ExperimentSpec.expand`
cross-products them into concrete :class:`Cell`s.  Each cell carries a
deterministic seed derived from the spec's base seed and the cell identity, so
input streams and seeded adversary strategies are bit-for-bit reproducible no
matter which worker process executes the cell or in what order.

Infeasible grid points (too few nodes for ``n >= 3f + 1``, network
connectivity below ``2f + 1``, or an adversary at ``f = 0``) are filtered out
during expansion rather than failing at run time, so specs can list topology
and fault axes freely.  A cell's graph comes from :func:`warm_graph`.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.exceptions import ConfigurationError, ProtocolError
from repro.graph.connectivity import resilience_violation
from repro.graph.flow_cache import MinCutCache
from repro.graph.network_graph import NetworkGraph
from repro.sched.faults import named_fault_plans
from repro.sched.links import named_link_models
from repro.transport.faults import FaultModel
from repro.types import NodeId
from repro.workloads.scenarios import (
    Scenario,
    input_stream,
    make_strategy,
    named_strategies,
    strategy_attacks_source,
)
from repro.workloads.topologies import topology


def canonical_params(params: Mapping[str, object]) -> str:
    """Canonical JSON for a strategy-parameter mapping (sorted keys, no spaces).

    The canonical string is what cell ids embed and what persisted rows carry,
    so byte-identical parameters always produce byte-identical cell ids and
    derived seeds.
    """
    return json.dumps(params, sort_keys=True, separators=(",", ":"))

#: Strategy-axis value meaning "no Byzantine nodes at all".
FAULT_FREE = "fault-free"

#: Execution-axis values: run instances strictly one after another, or
#: overlapped per the Figure 3 pipeline (NAB only).
SEQUENTIAL = "sequential"
PIPELINED = "pipelined"
EXECUTIONS = (SEQUENTIAL, PIPELINED)


def _supports_pipelined(protocol_name: str) -> bool:
    """Whether the named protocol declares pipelined support.

    Unknown names expand normally (their cells record a per-cell lookup
    error at run time) but never get pipelined grid points.
    """
    from repro.engine.protocol import get_protocol

    try:
        return get_protocol(protocol_name).supports_pipelined
    except ConfigurationError:
        return False


def cell_seed(base_seed: int, cell_id: str) -> int:
    """A deterministic 64-bit seed for one cell, stable across processes.

    Derived from a cryptographic hash (not Python's randomised ``hash``) so
    resumed and parallel runs regenerate identical inputs.  Sessions derive
    theirs the same way, from the service seed and the session id.
    """
    digest = hashlib.sha256(f"{base_seed}|{cell_id}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def faulty_placement(
    strategy: str, nodes: Sequence[NodeId], source: NodeId, max_faults: int
) -> Optional[Tuple[NodeId, ...]]:
    """The default Byzantine set of a grid point or session, sorted.

    Source-attacking strategies corrupt the source plus the ``f - 1``
    highest-numbered other nodes, every other strategy the ``f``
    highest-numbered non-source nodes.  ``None`` for an adversary at
    ``f < 1``, where no node may be faulty.
    """
    if strategy == FAULT_FREE:
        return ()
    if max_faults < 1:
        return None
    others = sorted((node for node in nodes if node != source), reverse=True)
    if strategy_attacks_source(strategy):
        return tuple(sorted([source, *others[: max_faults - 1]]))
    return tuple(sorted(others[:max_faults]))


#: Warm topology contexts keyed ``(topology, source, max_faults)``: frozen,
#: precondition-checked graphs that workers keep across cells and sessions.
_TOPOLOGY_CONTEXTS = MinCutCache(max_entries=256, name="topology_contexts", scope="process")


def warm_graph(topology_name: str, source: NodeId, max_faults: int) -> NetworkGraph:
    """The frozen graph of a cell or session, built and checked on first use.

    Raises:
        ProtocolError: if ``source`` is not a node of the topology, or it
            fails :func:`repro.graph.connectivity.resilience_violation`.
    """
    key = (topology_name, source, max_faults)
    graph = _TOPOLOGY_CONTEXTS.lookup(key)
    if graph is not None:
        return graph
    graph = topology(topology_name)
    if not graph.has_node(source):
        raise ProtocolError(f"source {source} is not a node of {topology_name}")
    violation = resilience_violation(graph, max_faults)
    if violation is not None:
        raise ProtocolError(f"{topology_name}: {violation}")
    graph = graph if graph.is_frozen else graph.copy().freeze()
    _TOPOLOGY_CONTEXTS.store(key, graph)
    return graph


def topology_context_stats() -> Dict[str, object]:
    """``entries`` / ``hits`` / ``misses`` (and rates) of the warm contexts."""
    return _TOPOLOGY_CONTEXTS.stats()


def clear_topology_contexts() -> None:
    """Drop every warm context (memory hygiene / test isolation)."""
    _TOPOLOGY_CONTEXTS.clear()


@dataclass(frozen=True)
class Cell:
    """One concrete grid point of an experiment sweep.

    Cells are plain picklable values: the graph and strategy objects are
    (re)built inside whichever worker process executes the cell, via
    :meth:`scenario`.  A service session is a cell too.
    """

    spec_name: str
    cell_id: str
    topology: str
    strategy: str
    payload_bytes: int
    instances: int
    max_faults: int
    protocol: str
    source: NodeId
    seed: int
    faulty_nodes: Tuple[NodeId, ...]
    execution: str = SEQUENTIAL
    link_model: str = "instant"
    fault_plan: str = "none"
    #: Canonical-JSON strategy parameters (see :func:`canonical_params`), or
    #: the empty string for parameterless cells — the empty default keeps the
    #: ids/seeds of every pre-existing grid untouched.  May carry a
    #: ``"faulty_nodes"`` key overriding the default faulty-set placement
    #: (consumed here, not by the strategy factory), which is how
    #: search-found placements are committed in specs.
    strategy_params: str = ""
    #: Analytical-bounds-only cell: the runner computes gamma*/rho*/Eq. 6/
    #: Theorem 2 and skips protocol execution entirely (``record`` is null).
    #: The datacenter-scale grids use this — executing a broadcast protocol
    #: on a 1024-node fabric is neither needed nor affordable for charting
    #: the paper's bounds.
    bounds_only: bool = False

    def inputs(self) -> List[bytes]:
        """The cell's broadcast values, one per instance, derived from its seed."""
        return input_stream(random.Random(self.seed), self.instances, self.payload_bytes)

    def scenario(self) -> Scenario:
        """Build the fully specified scenario for this cell, on its warm graph."""
        if self.strategy == FAULT_FREE:
            name, fault_model = FAULT_FREE, FaultModel()
        else:
            params = json.loads(self.strategy_params) if self.strategy_params else {}
            params.pop("faulty_nodes", None)  # placement, consumed at expansion
            strategy = make_strategy(self.strategy, self.seed, params or None)
            name, fault_model = strategy.name, FaultModel(self.faulty_nodes, strategy)
        return Scenario(
            name=f"{name}/{self.topology}",
            graph=warm_graph(self.topology, self.source, self.max_faults),
            source=self.source,
            max_faults=self.max_faults,
            fault_model=fault_model,
            inputs=self.inputs(),
            seed=self.seed,
        )


@dataclass(frozen=True)
class ExperimentSpec:
    """A declarative sweep: the cross product of every listed axis.

    Attributes:
        name: Spec name, stamped on every persisted row.
        topologies: Named topologies (see :func:`repro.workloads.topology`).
        strategies: Adversary strategy names (see
            :func:`repro.workloads.named_strategies`) and/or
            :data:`FAULT_FREE`.
        payload_bytes: Per-instance value sizes in bytes.
        fault_counts: Values of the resilience parameter ``f``.
        protocols: Registered protocol names to run on every scenario.
        executions: Execution modes (:data:`SEQUENTIAL` and/or
            :data:`PIPELINED`); pipelined points are expanded only for
            pipeline-capable protocols.
        link_models: Named link models (see
            :func:`repro.sched.links.named_link_models`) the scheduled
            transport applies; ``"instant"`` is the paper's base model.
        fault_plans: Named link-fault plans (see
            :func:`repro.sched.faults.named_fault_plans`) the ARQ transport
            applies; ``"none"`` is the paper's reliable base model.
        instances: Number of broadcast instances per cell (``Q``).
        source: The broadcasting node (the paper uses node 1).
        base_seed: Root seed all per-cell seeds are derived from.
        description: Human-readable summary for ``--list``-style output.
        kernel_backend: Optional GF kernel backend name forced for every
            field the spec's cells build (see :mod:`repro.gf.backends`).
            Empty string (the default) keeps per-field auto-selection; the
            ``REPRO_GF_BACKEND`` environment variable, when set, wins over
            the spec value.  All backends compute identical values, so this
            axis never appears in cell ids — results stay byte-identical
            whichever backend executes them.
    """

    name: str
    topologies: Tuple[str, ...]
    strategies: Tuple[str, ...]
    payload_bytes: Tuple[int, ...]
    fault_counts: Tuple[int, ...]
    protocols: Tuple[str, ...]
    executions: Tuple[str, ...] = (SEQUENTIAL,)
    link_models: Tuple[str, ...] = ("instant",)
    fault_plans: Tuple[str, ...] = ("none",)
    instances: int = 3
    source: NodeId = 1
    base_seed: int = 0
    description: str = ""
    kernel_backend: str = ""
    #: Per-strategy parameter mappings, keyed by strategy name.  Parameters
    #: are validated at expansion, serialised canonically onto each cell
    #: (``Cell.strategy_params``) and appended to the cell id as ``|sp=...``
    #: — so parameterless grids keep their historical ids and seeds.  A
    #: ``"faulty_nodes"`` entry overrides the default faulty-set placement.
    strategy_params: Mapping[str, Mapping[str, object]] = field(default_factory=dict)
    #: When true, every expanded cell is analytical-bounds-only (see
    #: :attr:`Cell.bounds_only`); cell ids gain a ``|bounds`` suffix so the
    #: ids (and derived seeds) of ordinary grids are untouched.
    bounds_only: bool = False

    def expand(self) -> List[Cell]:
        """Cross-product every axis into concrete cells, in deterministic order.

        Infeasible combinations (``n < 3f + 1``, connectivity below
        ``2f + 1``, or an adversarial strategy at ``f = 0``) are skipped.
        Unknown strategy names raise immediately so typos do not silently
        shrink the grid.
        """
        known = set(named_strategies()) | {FAULT_FREE}
        for strategy in self.strategies:
            if strategy not in known:
                raise ConfigurationError(
                    f"spec {self.name!r} references unknown strategy {strategy!r}"
                )
        for strategy, params in self.strategy_params.items():
            if strategy == FAULT_FREE or strategy not in known:
                raise ConfigurationError(
                    f"spec {self.name!r} has strategy_params for "
                    f"{strategy!r}, which is not a parametrisable strategy"
                )
            probe = dict(params)
            override = probe.pop("faulty_nodes", None)
            if override is not None:
                nodes = list(override)
                if not nodes or any(
                    isinstance(node, bool) or not isinstance(node, int)
                    for node in nodes
                ) or len(nodes) != len(set(nodes)):
                    raise ConfigurationError(
                        f"spec {self.name!r}: faulty_nodes override for "
                        f"{strategy!r} must be distinct node ids, got {override!r}"
                    )
                if strategy in self.strategies and any(
                    len(nodes) > f for f in self.fault_counts
                ):
                    raise ConfigurationError(
                        f"spec {self.name!r}: faulty_nodes override for "
                        f"{strategy!r} exceeds a listed fault count"
                    )
            # Instantiating validates the parameter names and values.
            make_strategy(strategy, 0, probe)
        for execution in self.executions:
            if execution not in EXECUTIONS:
                raise ConfigurationError(
                    f"spec {self.name!r} references unknown execution {execution!r}; "
                    f"available: {', '.join(EXECUTIONS)}"
                )
        known_models = set(named_link_models())
        for model in self.link_models:
            if model not in known_models:
                raise ConfigurationError(
                    f"spec {self.name!r} references unknown link model {model!r}; "
                    f"available: {', '.join(sorted(known_models))}"
                )
        if self.kernel_backend:
            from repro.gf.backends import available_backend_names

            if self.kernel_backend not in available_backend_names():
                raise ConfigurationError(
                    f"spec {self.name!r} references unknown or unavailable GF "
                    f"kernel backend {self.kernel_backend!r}; available: "
                    f"{', '.join(available_backend_names())}"
                )
        known_plans = set(named_fault_plans())
        for plan in self.fault_plans:
            if plan not in known_plans:
                raise ConfigurationError(
                    f"spec {self.name!r} references unknown fault plan {plan!r}; "
                    f"available: {', '.join(sorted(known_plans))}"
                )
        cells: List[Cell] = []
        for topology_name in self.topologies:
            graph = topology(topology_name)
            nodes = graph.nodes()
            for max_faults in self.fault_counts:
                if resilience_violation(graph, max_faults) is not None:
                    continue
                for strategy in self.strategies:
                    faulty = faulty_placement(strategy, nodes, self.source, max_faults)
                    if faulty is None:
                        continue
                    override = self.strategy_params.get(strategy, {}).get("faulty_nodes")
                    if override is not None:
                        faulty = tuple(sorted(override))
                    if not set(faulty) <= set(nodes):
                        raise ConfigurationError(
                            f"spec {self.name!r}: faulty_nodes {sorted(faulty)} "
                            f"are not all nodes of topology {topology_name!r}"
                        )
                    params = (
                        {}
                        if strategy == FAULT_FREE
                        else self.strategy_params.get(strategy, {})
                    )
                    params_json = canonical_params(params) if params else ""
                    for payload in self.payload_bytes:
                        for protocol in self.protocols:
                            for execution in self.executions:
                                if execution == PIPELINED and not _supports_pipelined(
                                    protocol
                                ):
                                    continue
                                for model in self.link_models:
                                    for plan in self.fault_plans:
                                        cell_id = (
                                            f"{protocol}|{topology_name}|{strategy}"
                                            f"|f={max_faults}|L={payload}"
                                            f"|Q={self.instances}"
                                            f"|src={self.source}"
                                        )
                                        # Non-default axis values are appended
                                        # so default-grid cell ids (and hence
                                        # their derived seeds and any
                                        # previously persisted results) stay
                                        # exactly as they were before these
                                        # axes existed.
                                        if execution != SEQUENTIAL:
                                            cell_id += f"|exec={execution}"
                                        if model != "instant":
                                            cell_id += f"|lm={model}"
                                        if plan != "none":
                                            cell_id += f"|fp={plan}"
                                        if params_json:
                                            cell_id += f"|sp={params_json}"
                                        if self.bounds_only:
                                            cell_id += "|bounds"
                                        cells.append(
                                            Cell(
                                                spec_name=self.name,
                                                cell_id=cell_id,
                                                topology=topology_name,
                                                strategy=strategy,
                                                payload_bytes=payload,
                                                instances=self.instances,
                                                max_faults=max_faults,
                                                protocol=protocol,
                                                source=self.source,
                                                seed=cell_seed(
                                                    self.base_seed, cell_id
                                                ),
                                                faulty_nodes=faulty,
                                                execution=execution,
                                                link_model=model,
                                                fault_plan=plan,
                                                strategy_params=params_json,
                                                bounds_only=self.bounds_only,
                                            )
                                        )
        return cells
