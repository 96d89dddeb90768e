"""The unified experiment engine: one protocol interface, declarative sweeps,
a parallel runner with persisted results, and reporting.

Three layers:

* :mod:`repro.engine.protocol` — the :class:`Protocol` ABC
  (``run(graph, source, inputs, fault_model, params) -> RunRecord``) and the
  name-keyed registry with adapters for NAB, classical full-value flooding
  and chunked direct EIG.
* :mod:`repro.engine.spec` — :class:`ExperimentSpec` cross-products
  topologies × adversary strategies × payload sizes × ``f`` × protocols into
  concrete cells with deterministic per-cell seeds.
* :mod:`repro.engine.runner` / :mod:`repro.engine.report` — cells as tasks
  of the supervised pool and rows of the journal in :mod:`repro.exec` (crashed
  workers are replaced, cells that keep killing them quarantined, one JSONL
  row streamed per cell, completed cells skipped on resume), and a reporting
  layer that renders measured throughput against the Eq. 6 / Theorem 2
  bounds.

Run a named spec from the command line::

    python -m repro.engine --spec nab_vs_classical --workers 4
"""

from repro.engine.protocol import (
    Protocol,
    ReliabilityCollector,
    attach_reliability_stats,
    get_protocol,
    network_factory_from_params,
    register_protocol,
    registered_protocols,
)
from repro.engine.report import render_comparison, summarize_rows
from repro.engine.runner import (
    ROW_SCHEMA_VERSION,
    RunSummary,
    dump_row,
    run_cell,
    run_spec,
)
from repro.engine.spec import (
    EXECUTIONS,
    FAULT_FREE,
    PIPELINED,
    SEQUENTIAL,
    Cell,
    ExperimentSpec,
    cell_seed,
)
from repro.engine.specs import get_spec, named_specs, register_spec
from repro.types import RunRecord

__all__ = [
    "Protocol",
    "register_protocol",
    "get_protocol",
    "registered_protocols",
    "RunRecord",
    "ExperimentSpec",
    "Cell",
    "FAULT_FREE",
    "SEQUENTIAL",
    "PIPELINED",
    "EXECUTIONS",
    "network_factory_from_params",
    "ReliabilityCollector",
    "attach_reliability_stats",
    "cell_seed",
    "run_spec",
    "run_cell",
    "RunSummary",
    "ROW_SCHEMA_VERSION",
    "dump_row",
    "render_comparison",
    "summarize_rows",
    "get_spec",
    "named_specs",
    "register_spec",
]
