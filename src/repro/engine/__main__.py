"""Command-line entry point: ``python -m repro.engine --spec <name> --workers N``.

Runs (or resumes) a named experiment spec, persists one JSONL row per cell,
and prints the protocol-comparison table next to the paper's analytical
bounds.  Rerunning the same command skips every already-completed cell.

Examples::

    python -m repro.engine --list-specs
    python -m repro.engine --spec nab_vs_classical --workers 4
    python -m repro.engine --spec datacenter_scale

The ``datacenter_scale`` spec charts gamma*, rho*, the Eq. 6 throughput and
the Theorem 2 capacity bound on 64-1024-node fat-tree / torus /
ring-of-rings / Octopus-pod fabrics.  Its cells are *bounds-only* — no
broadcast protocol executes; each row's ``bounds`` field is the deliverable
and its ``record`` is null (rendered as ``bounds`` in the comparison table).
The global min-cut contraction is what makes these grids affordable: one
maximum-adjacency contraction per distinct graph instead of per-pair Dinic
runs.  ``datacenter_scale_f1`` adds the ``f = 1`` sweep on the smallest
feasible member of each family.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from typing import Dict

from repro.engine.report import render_comparison, summarize_rows
from repro.engine.runner import run_spec
from repro.engine.specs import get_spec, named_specs
from repro.exceptions import ConfigurationError


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.engine",
        description="Run a named experiment sweep with persisted, resumable results.",
    )
    parser.add_argument("--spec", help="name of the experiment spec to run")
    parser.add_argument(
        "--workers", type=int, default=1,
        help="worker processes (1 = serial, default)",
    )
    parser.add_argument(
        "--out", default=None,
        help="output JSONL path (default: results/<spec>.jsonl)",
    )
    parser.add_argument(
        "--limit", type=int, default=None,
        help="run at most N pending cells, then stop (for partial runs)",
    )
    parser.add_argument(
        "--fresh", action="store_true",
        help="ignore existing results and recompute every cell",
    )
    parser.add_argument(
        "--profile", action="store_true",
        help="cProfile every computed cell and dump the top-25 cumulative "
             "report to <out>.profile.txt next to the JSONL (forces serial "
             "execution)",
    )
    parser.add_argument(
        "--max-cell-retries", type=int, default=2,
        help="with --workers > 1: how many times a cell whose worker process "
             "died (OOM kill, SIGKILL) is retried on a respawned worker "
             "before being quarantined to <out>.quarantine.jsonl "
             "(default: 2)",
    )
    parser.add_argument(
        "--list", "--list-specs", dest="list_specs", action="store_true",
        help="list available specs and exit",
    )
    parser.add_argument(
        "--list-strategies", dest="list_strategies", action="store_true",
        help="list registered adversary strategies (usable in spec strategy "
             "axes and as search components) and exit",
    )
    return parser


def _list_specs() -> int:
    for name in named_specs():
        spec = get_spec(name)
        grid = len(spec.expand())
        print(f"{name}  ({grid} cells)")
        if spec.description:
            print(f"    {spec.description}")
    return 0


def _list_strategies() -> int:
    from repro.workloads import make_strategy, named_strategies

    for name in named_strategies():
        strategy = make_strategy(name, seed=0)
        doc = (type(strategy).__doc__ or "").strip().splitlines()
        print(name)
        if doc:
            print(f"    {doc[0]}")
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.list_specs:
        return _list_specs()
    if args.list_strategies:
        return _list_strategies()
    if not args.spec:
        print("error: --spec is required (use --list-specs to see available specs)",
              file=sys.stderr)
        return 2

    try:
        spec = get_spec(args.spec)
    except ConfigurationError:
        print(
            f"error: unknown spec {args.spec!r}; registered specs are:",
            file=sys.stderr,
        )
        for name in named_specs():
            print(f"  {name}", file=sys.stderr)
        return 2
    out_path = args.out or os.path.join("results", f"{spec.name}.jsonl")

    def _progress(row: Dict[str, object]) -> None:
        status = "error" if row.get("error") else "ok"
        print(f"  [{status}] {row['cell_id']}", flush=True)

    if args.profile and args.workers > 1:
        print("profiling forces serial execution; ignoring --workers", file=sys.stderr)

    started = time.perf_counter()
    summary = run_spec(
        spec,
        out_path=out_path,
        workers=args.workers,
        limit=args.limit,
        resume=not args.fresh,
        progress=_progress,
        profile=args.profile,
        max_cell_retries=args.max_cell_retries,
    )
    elapsed = time.perf_counter() - started

    print()
    resumed = f"{summary.skipped_cells} resumed"
    if summary.discarded_rows:
        # Covers truncated/corrupt lines, rows from another grid/seed, and
        # errored rows deliberately recomputed.
        resumed += f" ({summary.discarded_rows} line(s) not reused)"
    print(
        f"spec {summary.spec_name}: {summary.computed_cells} cell(s) computed, "
        f"{resumed}, {summary.total_cells} in grid "
        f"({elapsed:.2f}s wall)"
    )
    print(f"results: {summary.out_path}")
    if summary.profile_path:
        print(f"profiles: {summary.profile_path}")
    if summary.retried_cells or summary.quarantined_cells:
        # Degraded sweeps must be loud: these cells hit worker crashes.
        line = f"worker crashes: {summary.retried_cells} cell(s) retried"
        if summary.quarantined_cells:
            line += (
                f", {summary.quarantined_cells} quarantined"
                f" -> {summary.quarantine_path}"
            )
        print(line)
    if summary.stale_quarantined_cells:
        # A prior run's quarantine is still unresolved even though this run
        # retried nothing — without this line a stale quarantine file would
        # be silently ignored.
        print(
            f"stale quarantine: {summary.stale_quarantined_cells} cell(s) from a "
            f"prior run still unresolved -> {summary.quarantine_path}"
        )
    counters = summarize_rows(summary.rows)
    print(
        f"errors: {counters['errors']}  spec violations: {counters['spec_violations']}  "
        f"dispute-control executions: {counters['dispute_control_executions']}"
    )
    if counters["retransmit_bits"] or counters["dropped_messages"]:
        print(
            f"link faults: {counters['retransmit_bits']} retransmitted bit(s), "
            f"{counters['dropped_messages']} message(s) dropped after retries"
        )
    print()
    print(render_comparison(summary.rows))
    return 0


if __name__ == "__main__":
    sys.exit(main())
