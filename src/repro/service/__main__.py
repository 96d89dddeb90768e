"""Command-line entry point: ``python -m repro.service``.

Run a deterministic session workload through the crash-tolerant service::

    python -m repro.service --out results/sessions.jsonl \
        --sessions 200 --topologies k7-unit --workers 4

Rerunning the same command resumes: completed sessions are reused, sessions
that were mid-flight when the previous driver died are restored from their
latest write-ahead-log checkpoint, and the compacted output is byte-identical
to an uninterrupted run.

Health check (reads ``<out>.status.json`` and the quarantine file)::

    python -m repro.service --status --out results/sessions.jsonl

Exit code 0 means healthy; 1 means degraded (quarantined or stale-quarantined
sessions); 2 means the status file is missing or unreadable.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from repro.engine.spec import FAULT_FREE
from repro.exceptions import ConfigurationError
from repro.exec import quarantine_path_for
from repro.service.service import BroadcastSessionService, ServiceConfig, status_path_for
from repro.service.workload import generate_sessions


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.service",
        description="Run or inspect the crash-tolerant broadcast session service.",
    )
    parser.add_argument(
        "--status", action="store_true",
        help="print the service health summary from <out>.status.json and exit",
    )
    parser.add_argument(
        "--out", default=os.path.join("results", "sessions.jsonl"),
        help="sessions JSONL path (default: results/sessions.jsonl); the WAL, "
             "quarantine and status files live next to it",
    )
    parser.add_argument("--name", default="service", help="service name (default: service)")
    parser.add_argument(
        "--sessions", type=int, default=100,
        help="number of sessions in the workload (default: 100)",
    )
    parser.add_argument(
        "--topologies", default="k7-unit",
        help="comma-separated topology cycle (default: k7-unit)",
    )
    parser.add_argument(
        "--strategies", default=FAULT_FREE,
        help=f"comma-separated strategy cycle (default: {FAULT_FREE})",
    )
    parser.add_argument(
        "--payload-bytes", type=int, default=2,
        help="bytes per broadcast value (default: 2)",
    )
    parser.add_argument(
        "--instances", type=int, default=1,
        help="NAB instances per session (default: 1)",
    )
    parser.add_argument(
        "--max-faults", type=int, default=1,
        help="resilience parameter f (default: 1)",
    )
    parser.add_argument("--seed", type=int, default=0, help="workload seed (default: 0)")
    parser.add_argument(
        "--workers", type=int, default=1,
        help="worker processes pulling from one admitted queue "
             "(1 = serial in-process, default)",
    )
    parser.add_argument(
        "--checkpoint-every", type=int, default=1,
        help="instances between WAL checkpoints within a session (default: 1)",
    )
    parser.add_argument(
        "--fsync-every", type=int, default=1,
        help="WAL fsync cadence in checkpoints (default: 1)",
    )
    parser.add_argument(
        "--max-session-retries", type=int, default=2,
        help="crash retries per session before quarantine (default: 2)",
    )
    parser.add_argument(
        "--retry-backoff", type=float, default=0.5,
        help="base seconds of the crash-retry exponential backoff (default: 0.5)",
    )
    parser.add_argument(
        "--shed-soft-limit", type=int, default=None,
        help="level of admitted, unfinished sessions where deterministic load "
             "shedding starts (default: shedding disabled)",
    )
    parser.add_argument(
        "--shed-hard-limit", type=int, default=1 << 30,
        help="level of admitted, unfinished sessions where the dispatcher "
             "stops admitting until one finishes (backpressure)",
    )
    parser.add_argument(
        "--fresh", action="store_true",
        help="ignore existing results, WAL and quarantine file; recompute "
             "every session",
    )
    return parser


def _print_status(out_path: str) -> int:
    status_path = status_path_for(out_path)
    try:
        with open(status_path, "r", encoding="utf-8") as handle:
            status = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: cannot read {status_path}: {exc}", file=sys.stderr)
        return 2
    metrics = status.get("metrics", {})
    sessions = metrics.get("sessions", {})
    throughput = metrics.get("throughput", {})
    latency = metrics.get("latency", {})
    degradation = metrics.get("degradation", {})
    print(f"service: {status.get('service')}  ({status.get('out_path')})")
    print(
        f"sessions: {status.get('settled_sessions')}/{status.get('total_sessions')} settled"
        f"  completed={sessions.get('completed')}  failed={sessions.get('failed')}"
        f"  shed={sessions.get('shed')}  quarantined={sessions.get('quarantined')}"
    )
    print(
        f"resume: {sessions.get('resumed_from_output')} from output,"
        f" {sessions.get('restored_from_snapshot')} from snapshots,"
        f" {metrics.get('snapshots', {}).get('written')} snapshot(s) written"
    )
    rate = throughput.get("sessions_per_minute")
    rate_text = f"{rate:.0f}/min" if isinstance(rate, (int, float)) else "n/a"
    mean = latency.get("mean_seconds")
    mean_text = f"{mean * 1000:.1f}ms" if isinstance(mean, (int, float)) else "n/a"
    print(
        f"throughput: {rate_text}  mean latency: {mean_text}"
        f"  backpressure waits: {degradation.get('backpressure_waits')}"
    )
    degraded = bool(sessions.get("quarantined")) or bool(
        status.get("stale_quarantined_sessions")
    )
    quarantine = quarantine_path_for(out_path)
    if status.get("stale_quarantined_sessions"):
        print(
            f"STALE QUARANTINE: {status['stale_quarantined_sessions']} session(s) "
            f"from a prior run still unresolved -> {quarantine}"
        )
    elif sessions.get("quarantined"):
        print(f"QUARANTINE: {sessions['quarantined']} session(s) -> {quarantine}")
    elif os.path.exists(quarantine):
        print(f"QUARANTINE file present -> {quarantine}")
        degraded = True
    print("health: " + ("DEGRADED" if degraded else "ok"))
    return 1 if degraded else 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.status:
        return _print_status(args.out)

    try:
        sessions = generate_sessions(
            count=args.sessions,
            topologies=tuple(name for name in args.topologies.split(",") if name),
            strategies=tuple(name for name in args.strategies.split(",") if name),
            payload_bytes=args.payload_bytes,
            instances=args.instances,
            max_faults=args.max_faults,
            seed=args.seed,
            service=args.name,
        )
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    config = ServiceConfig(
        name=args.name,
        out_path=args.out,
        workers=args.workers,
        checkpoint_every=args.checkpoint_every,
        fsync_every=args.fsync_every,
        max_session_retries=args.max_session_retries,
        retry_backoff=args.retry_backoff,
        admission_seed=args.seed,
        shed_soft_limit=args.shed_soft_limit,
        shed_hard_limit=args.shed_hard_limit,
    )
    summary = BroadcastSessionService(config).run(sessions, resume=not args.fresh)

    resumed = f"{summary.skipped_sessions} resumed"
    if summary.discarded_rows:
        resumed += f" ({summary.discarded_rows} line(s) not reused)"
    restored = summary.metrics.sessions_restored
    print(
        f"service {summary.service}: {summary.computed_sessions} session(s) computed, "
        f"{resumed}, {restored} restored mid-flight, "
        f"{summary.total_sessions} submitted "
        f"({summary.metrics.wall_seconds:.2f}s wall)"
    )
    print(f"results: {summary.out_path}")
    if summary.shed_sessions:
        print(f"load shedding: {summary.shed_sessions} session(s) shed")
    if summary.retried_sessions or summary.quarantined_sessions:
        line = f"worker crashes: {summary.retried_sessions} session(s) retried"
        if summary.quarantined_sessions:
            line += (
                f", {summary.quarantined_sessions} quarantined"
                f" -> {summary.quarantine_path}"
            )
        print(line)
    if summary.stale_quarantined_sessions:
        print(
            f"stale quarantine: {summary.stale_quarantined_sessions} session(s) "
            f"from a prior run still unresolved -> {summary.quarantine_path}"
        )
    rate = summary.metrics.sessions_per_minute()
    if rate is not None:
        print(f"throughput: {rate:.0f} sessions/minute")
    if summary.status_path:
        print(f"status: {summary.status_path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
