"""The long-running broadcast session service (ROADMAP open item 3).

One sweep at a time (:mod:`repro.engine`) is the experiment posture; a
production deployment serves *thousands of concurrent NAB sessions* from one
long-lived process.  This package is that service layer:

* :mod:`repro.service.session` — one session = one :class:`SessionSpec`, a
  sequential ``nab`` cell run through the engine's one path and checkpointed
  after every instance.  Sessions are pure functions of their spec, so a
  checkpoint plus the spec determines the rest of the run exactly.
* :mod:`repro.service.wal` — the crash-safe write-ahead log those checkpoints
  land in (append + fsync cadence; rewritten through the one atomic writer of
  :mod:`repro.exec`).
* :mod:`repro.service.pool` — sessions as tasks of the supervised pool
  (:func:`repro.exec.run_tasks`): persistent workers keeping their warm graphs
  and caches, checkpoints streamed as events so a crash retry resumes
  mid-flight, deterministic load shedding, retry with backoff, quarantine.
* :mod:`repro.service.service` — the orchestrator: resume from the output
  file (:class:`repro.exec.Journal`) and the WAL, run the pool, settle.  A
  SIGKILLed worker or driver resumes every session mid-flight and the
  completed output file is byte-identical to an uninterrupted run.
* :mod:`repro.service.metrics` — the ops surface: throughput/latency
  counters, backpressure, cache statistics, snapshot/restore counts, exported
  as ``<out>.status.json`` and via ``python -m repro.service --status``.
* :mod:`repro.service.workload` — deterministic session workload generation
  (mixed topologies and adversaries) for benchmarks and the chaos harness.
"""

from repro.service.metrics import ServiceMetrics
from repro.service.service import BroadcastSessionService, ServiceConfig, ServiceSummary
from repro.service.session import SessionSpec, run_session
from repro.service.wal import WriteAheadLog, load_wal
from repro.service.workload import generate_sessions

__all__ = [
    "BroadcastSessionService",
    "ServiceConfig",
    "ServiceMetrics",
    "ServiceSummary",
    "SessionSpec",
    "WriteAheadLog",
    "generate_sessions",
    "load_wal",
    "run_session",
]
