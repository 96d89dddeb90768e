"""The layer seams the traced run records, by public dotted name.

Every entry names callables of ``src/repro`` as ``"module:qualname"``; the
tracer (:mod:`tracer`) rebinds each to a timing wrapper for the traced batch
only.  A target that no longer resolves is reported under ``layers.missing``
and skipped, so a refactor of ``src/`` can never break the end-to-end run.

The metric names derived from this file are part of ``BENCHMARK.json``
(43 seams x 2 stats + 19 counters + 13 shares + ``layers.missing`` = 119 of
the 128 allowed): add none without dropping one.
"""

from __future__ import annotations

from typing import NamedTuple, Tuple


class Seam(NamedTuple):
    """One traced boundary: ``<layer>.<what>`` and the callables behind it.

    A target ending in ``.*`` means every public method the named base class
    declares, on the base class and on every subclass that overrides it.
    """

    name: str
    layer: str
    targets: Tuple[str, ...]


#: Modules imported before targets are resolved, so every strategy subclass
#: and every namespace holding a re-exported function exists to be rebound.
PRELOAD = ("repro.workloads.scenarios", "repro.engine", "repro.service")

SEAMS: Tuple[Seam, ...] = (
    # gf -> ops_per_s / cpu_ms_per_op on mid_field and fft_field.
    Seam("gf.vecmat", "gf", ("repro.gf.matrix:GFMatrix.vecmat",)),
    Seam("gf.matrix_random", "gf", ("repro.gf.matrix:GFMatrix.random",)),
    Seam(
        "gf.symbols",
        "gf",
        ("repro.gf.symbols:bits_to_symbols", "repro.gf.symbols:symbols_to_bits"),
    ),
    # coding -> the *_field workloads through gf.vecmat.
    Seam(
        "coding.generate_scheme",
        "coding",
        ("repro.coding.coding_matrix:generate_coding_scheme",),
    ),
    Seam("coding.encode_on_edges", "coding", ("repro.coding.coding_matrix:encode_on_edges",)),
    Seam("coding.equality_check", "coding", ("repro.coding.equality_check:run_equality_check",)),
    # core -> svc_small, svc_disputes, sweep_matrix.
    Seam("core.run_instance", "core", ("repro.core.nab:NetworkAwareBroadcast.run_instance",)),
    Seam(
        "core.instance_parameters",
        "core",
        ("repro.core.parameters:compute_instance_parameters",),
    ),
    Seam("core.phase1", "core", ("repro.core.phase1_broadcast:run_phase1",)),
    Seam("core.phase2", "core", ("repro.core.phase2_equality:run_phase2",)),
    Seam("core.phase3", "core", ("repro.core.phase3_dispute:run_phase3",)),
    Seam("core.instance_graph", "core", ("repro.core.dispute_state:DisputeState.instance_graph",)),
    Seam("core.snapshot_state", "core", ("repro.core.nab:NetworkAwareBroadcast.snapshot_state",)),
    # classical -> svc_small, svc_disputes, sweep_matrix; flat elsewhere.
    Seam("classical.broadcast_all", "classical", ("repro.classical.eig:EIGBroadcast.broadcast_all",)),
    Seam("classical.broadcast", "classical", ("repro.classical.eig:EIGBroadcast.broadcast",)),
    Seam(
        "classical.reliable_send",
        "classical",
        ("repro.classical.relay:DisjointPathRelay.reliable_send",),
    ),
    Seam(
        "classical.reliable_send_vector",
        "classical",
        ("repro.classical.relay:DisjointPathRelay.reliable_send_vector",),
    ),
    Seam("classical.majority_value", "classical", ("repro.classical.relay:majority_value",)),
    # transport -> svc_small, svc_disputes, sweep_matrix.
    Seam("transport.send", "transport", ("repro.transport.network:SynchronousNetwork.send",)),
    Seam(
        "transport.send_vector",
        "transport",
        ("repro.transport.network:SynchronousNetwork.send_vector",),
    ),
    Seam(
        "transport.send_round",
        "transport",
        ("repro.transport.network:SynchronousNetwork.send_round",),
    ),
    Seam(
        "transport.elapsed",
        "transport",
        (
            "repro.transport.accounting:TimeAccountant.total_elapsed",
            "repro.transport.accounting:TimeAccountant.phase_timings",
        ),
    ),
    # graph -> graph_bounds; setup_s everywhere else.
    Seam("graph.gomory_hu", "graph", ("repro.graph.gomory_hu:cached_gomory_hu",)),
    Seam("graph.broadcast_mincut", "graph", ("repro.graph.mincut:broadcast_mincut",)),
    Seam(
        "graph.min_pairwise_mincut",
        "graph",
        ("repro.graph.undirected:UndirectedView.min_pairwise_mincut",),
    ),
    Seam(
        "graph.max_flow",
        "graph",
        ("repro.graph.maxflow:max_flow_value", "repro.graph.maxflow:all_max_flow_values"),
    ),
    Seam("graph.pack_arborescences", "graph", ("repro.graph.spanning_trees:pack_arborescences",)),
    Seam(
        "graph.connectivity",
        "graph",
        ("repro.graph.connectivity:meets_connectivity_requirement",),
    ),
    # capacity -> graph_bounds; setup_s of sweep_matrix.
    Seam("capacity.analyse_network", "capacity", ("repro.capacity.bounds:analyse_network",)),
    Seam("capacity.gamma_star", "capacity", ("repro.capacity.gamma_star:gamma_star",)),
    Seam("capacity.rho_star", "capacity", ("repro.capacity.rho_star:rho_star",)),
    # adversary / workloads -> svc_disputes, sweep_matrix.
    Seam("adversary.hooks", "adversary", ("repro.transport.faults:ByzantineStrategy.*",)),
    Seam("workloads.make_strategy", "workloads", ("repro.workloads.scenarios:make_strategy",)),
    Seam("workloads.input_stream", "workloads", ("repro.workloads.scenarios:input_stream",)),
    # engine -> sweep_matrix.
    Seam("engine.expand", "engine", ("repro.engine.spec:ExperimentSpec.expand",)),
    Seam("engine.run_cell", "engine", ("repro.engine.runner:run_cell",)),
    Seam("engine.dump_row", "engine", ("repro.engine.runner:dump_row",)),
    # service -> svc_small, svc_disputes.
    Seam("service.run_session", "service", ("repro.service.session:run_session",)),
    Seam("service.session_row", "service", ("repro.service.session:session_row",)),
    Seam("service.snapshot_row", "service", ("repro.service.session:snapshot_row",)),
    Seam("service.wal_append", "service", ("repro.service.wal:WriteAheadLog.append",)),
    Seam("service.write_rows", "service", ("repro.service.wal:write_rows_atomically",)),
    Seam("service.warm_graph", "service", ("repro.service.session:warm_graph",)),
)

#: Layers in report order; each gets a ``<layer>.share`` metric.
LAYERS: Tuple[str, ...] = (
    "gf",
    "coding",
    "core",
    "classical",
    "transport",
    "graph",
    "capacity",
    "adversary",
    "workloads",
    "engine",
    "service",
)

#: The seam whose per-call durations are reported as a latency distribution.
LATENCY_SEAM = "service.run_session"

#: Callables counted but not timed (no span, no stack frame): one Dinic solve
#: is too small to time without distorting ``graph_bounds``.
COUNT_ONLY = {"graph.dinic_solves_per_op": "repro.graph.maxflow:_DinicSolver.max_flow"}

#: ``<metric>: stats function`` — hits / (hits + misses) over the traced batch.
HIT_RATIOS = {
    "gf.kernel_cache.hit_ratio": "repro.gf.field:kernel_cache_stats",
    "coding.verification_cache.hit_ratio": "repro.coding.verification:verification_cache_stats",
    "core.parameter_cache.hit_ratio": "repro.core.parameters:instance_parameter_cache_stats",
    "classical.relay_path_cache.hit_ratio": "repro.classical.relay:relay_path_cache_stats",
    "graph.mincut_cache.hit_ratio": "repro.graph.flow_cache:cache_stats",
    "service.topology_context.hit_ratio": "repro.service.session:topology_context_stats",
}

#: ``(metric, stats function, key)`` — growth of one counter over the batch.
STAT_DELTAS = (
    (
        "graph.gomory_hu.repairs_per_op",
        "repro.graph.gomory_hu:incremental_repair_stats",
        "lifetime_pairs",
    ),
)

#: Counters the harness computes itself (rows, files, sibling runs).
HARNESS_COUNTERS: Tuple[Tuple[str, str], ...] = (
    ("core.phase3_runs_per_op", "count"),
    ("transport.messages_per_op", "count"),
    ("transport.bits_per_op", "bits"),
    ("engine.runner.parallel_efficiency", "ratio"),
    ("engine.out_bytes_per_op", "bytes"),
    ("service.run_session.p50_ms", "ms"),
    ("service.run_session.p99_ms", "ms"),
    ("service.run_session.samples", "count"),
    ("service.snapshots_per_op", "count"),
    ("service.out_bytes_per_op", "bytes"),
    ("service.pool.parallel_efficiency", "ratio"),
)


def per_layer_metrics() -> Tuple[Tuple[str, str, str], ...]:
    """Every per-layer metric as ``(name, unit, better)``, in report order."""
    metrics = []
    for seam in SEAMS:
        metrics.append((f"{seam.name}.self_ms_per_op", "ms", "lower"))
        metrics.append((f"{seam.name}.calls_per_op", "count", "lower"))
    for name in COUNT_ONLY:
        metrics.append((name, "count", "lower"))
    for name in HIT_RATIOS:
        metrics.append((name, "ratio", "higher"))
    for name, _target, _key in STAT_DELTAS:
        metrics.append((name, "count", "lower"))
    for name, unit in HARNESS_COUNTERS:
        higher = name.endswith(("parallel_efficiency", ".samples"))
        metrics.append((name, unit, "higher" if higher else "lower"))
    for layer in LAYERS:
        metrics.append((f"{layer}.share", "ratio", "lower"))
    metrics.append(("untraced_share", "ratio", "lower"))
    metrics.append(("trace.overhead_share", "ratio", "lower"))
    metrics.append(("layers.missing", "count", "lower"))
    return tuple(metrics)
