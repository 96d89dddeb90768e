"""The service's ops surface: counters, gauges and cache statistics.

Everything an operator needs to judge a long-running deployment at a glance:
admission and completion counters, retry/quarantine tallies, snapshot and
restore counts, backpressure waits, per-session latency aggregates, and the
statistics of every registered cache (topology contexts, structure caches, GF
kernel operand caches with their byte budgets).

:meth:`ServiceMetrics.to_jsonable` is the schema persisted to
``<out>.status.json`` and printed by ``python -m repro.service --status``;
it is *operational* data — wall-clock rates live here, never in the
canonical session rows, which must stay byte-deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.graph.flow_cache import all_cache_stats


def rss_bytes() -> Optional[int]:
    """This process's resident set size, or ``None`` where unreadable."""
    try:
        with open("/proc/self/status", "r", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("VmRSS:"):
                    return int(line.split()[1]) * 1024
    except (OSError, ValueError, IndexError):
        pass
    return None


def process_cache_sample() -> Dict[str, object]:
    """One process's memory and warm-cache sample (worker or serial driver).

    Every registered cache family reports under its own name; ``kernels``
    carries each budgeted cache's ``budget_bytes`` alongside its occupancy —
    the numbers the flat-memory regression pins.
    """
    return {**all_cache_stats(), "rss_bytes": rss_bytes()}


@dataclass
class ServiceMetrics:
    """Mutable counters of one service run (single-threaded: the supervisor).

    Attributes:
        sessions_submitted: Sessions offered to the service.
        sessions_resumed_from_output: Completed rows reused from a prior run.
        sessions_restored: Sessions resumed mid-flight from a WAL snapshot.
        sessions_completed: Sessions that produced a row this run.
        sessions_failed: Completed rows whose ``error`` field is set.
        sessions_shed: Sessions refused by deterministic load shedding.
        sessions_retried: Distinct sessions retried after a worker death.
        sessions_quarantined: Sessions abandoned after the retry budget.
        snapshots_written: WAL snapshot rows appended.
        backpressure_waits: Times the dispatcher stopped offering (hard
            limit reached or the admitted queue full) behind unfinished work.
        instances_executed: NAB instances run across all sessions this run.
        wall_seconds: Wall-clock duration of the run's execution phase.
        latency_seconds_total / latency_seconds_max / latency_count:
            Per-session wall latency aggregate (submission to row).
        cache_stats: :func:`process_cache_sample` at the end of the run; in
            pooled mode the warm caches live in the workers, whose samples
            (reported at shutdown) are attached under ``"workers"``.
    """

    sessions_submitted: int = 0
    sessions_resumed_from_output: int = 0
    sessions_restored: int = 0
    sessions_completed: int = 0
    sessions_failed: int = 0
    sessions_shed: int = 0
    sessions_retried: int = 0
    sessions_quarantined: int = 0
    snapshots_written: int = 0
    backpressure_waits: int = 0
    instances_executed: int = 0
    wall_seconds: float = 0.0
    latency_seconds_total: float = 0.0
    latency_seconds_max: float = 0.0
    latency_count: int = 0
    cache_stats: Dict[str, object] = field(default_factory=dict)

    def record_latency(self, seconds: float) -> None:
        """Fold one session's submission-to-completion latency in."""
        self.latency_seconds_total += seconds
        self.latency_count += 1
        if seconds > self.latency_seconds_max:
            self.latency_seconds_max = seconds

    def sessions_per_minute(self) -> Optional[float]:
        """Completed-session throughput, ``None`` before any wall time."""
        if self.wall_seconds <= 0:
            return None
        return self.sessions_completed * 60.0 / self.wall_seconds

    def mean_latency_seconds(self) -> Optional[float]:
        """Mean per-session latency, ``None`` before any completion."""
        if not self.latency_count:
            return None
        return self.latency_seconds_total / self.latency_count

    def to_jsonable(self) -> Dict[str, object]:
        """The ops-metrics schema written to ``<out>.status.json``."""
        return {
            "sessions": {
                "submitted": self.sessions_submitted,
                "resumed_from_output": self.sessions_resumed_from_output,
                "restored_from_snapshot": self.sessions_restored,
                "completed": self.sessions_completed,
                "failed": self.sessions_failed,
                "shed": self.sessions_shed,
                "retried": self.sessions_retried,
                "quarantined": self.sessions_quarantined,
            },
            "snapshots": {"written": self.snapshots_written},
            "degradation": {"backpressure_waits": self.backpressure_waits},
            "throughput": {
                "instances_executed": self.instances_executed,
                "wall_seconds": self.wall_seconds,
                "sessions_per_minute": self.sessions_per_minute(),
            },
            "latency": {
                "count": self.latency_count,
                "mean_seconds": self.mean_latency_seconds(),
                "max_seconds": self.latency_seconds_max,
            },
            "caches": self.cache_stats,
        }
