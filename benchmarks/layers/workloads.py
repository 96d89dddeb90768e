"""The six reference workloads: generation, execution, output checking.

Each workload generates batch ``b`` from ``sha256(seed | workload | b)``, runs
it through one public batch entry point of ``src/repro`` and checks every
persisted row.  Sizes are cut from the issue's to fit the driver's time cap
(136 runs in 3420 s); see README.md for the measured batch times.

``repro`` is imported inside functions: importing this module must stay cheap
and must work where ``src/`` is absent (the manifest is read from it).
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import os
import random
from fractions import Fraction
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

#: The pool size every pooled workload asks for: the host has 2 cores.
MAX_WORKERS = min(2, os.cpu_count() or 1)

#: The f=2 adversary cycle of ``svc_disputes`` (one session each per cycle).
DISPUTE_STRATEGIES = (
    "equality-garbage",
    "dispute-liar",
    "chaos",
    "false-flag",
    "phase1-relay",
    "crash",
    "adaptive-dodger",
    "colluding-rotator",
)


def batch_seed(seed: int, workload: str, batch: int) -> int:
    """The 64-bit seed of one batch: batches never repeat inputs."""
    digest = hashlib.sha256(f"{seed}|{workload}|{batch}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


class Checked(NamedTuple):
    """Outcome of checking one batch's persisted rows."""

    attempted: int
    failures: List[str]
    #: Per NAB op: throughput / Theorem 2 bound (``achieved_fraction`` for
    #: ``graph_bounds``), exact.
    fractions: List[Fraction]
    phase3_runs: int
    bits_sent: int
    snapshots: int


@functools.lru_cache(maxsize=None)
def theorem2_bound(topology_name: str, source: int, max_faults: int) -> Fraction:
    """``min(gamma*, 2 rho*)`` of a named topology (checking only, untimed)."""
    from repro.capacity.bounds import analyse_network
    from repro.workloads.topologies import topology

    return analyse_network(topology(topology_name), source, max_faults).capacity_upper_bound


def _record_failure(record: Optional[dict], upper: Fraction) -> Optional[str]:
    """Why a protocol record breaks the paper's claims, or ``None``."""
    if record is None:
        return "no record"
    if record.get("agreement_ok") is False:
        return "agreement violated"
    if record.get("validity_ok") is False:
        return "validity violated"
    throughput = record.get("throughput")
    if throughput is not None and Fraction(throughput) > upper:
        return f"throughput {throughput} above the Theorem 2 bound {upper}"
    return None


def _parse_rows(data: bytes) -> List[dict]:
    return [json.loads(line) for line in data.decode("utf-8").splitlines() if line.strip()]


class Workload:
    """One named workload; subclasses bind it to an entry point."""

    name: str
    why: str
    workers: int = 1
    #: Fresh interpreters the measuring time is split over.  Three sample
    #: set-up three times and spread the timed batches over more wall time
    #: than one contiguous window, so one burst of host interference cannot
    #: cover them all; one where set-up alone takes 6-7 s (the time cap).
    interpreters: int = 3

    def generate(self, seed: int, batch: int, smoke: bool):
        """The inputs of batch ``batch`` (a pure function of the arguments)."""
        raise NotImplementedError

    def execute(self, inputs, out_path: str, workers: int, timed: Callable) -> Dict[str, int]:
        """Run one batch through the entry point, persisting rows to
        ``out_path``.  ``timed(f)`` returns ``f`` wrapped in the caller's
        stopwatch (and root span): only calls made through it are measured."""
        raise NotImplementedError

    def check(self, inputs, data: bytes, info: Dict[str, int]) -> Checked:
        """Apply the ``failed_ops_share`` rules to the persisted rows."""
        raise NotImplementedError


class ServiceWorkload(Workload):
    """Sessions through ``BroadcastSessionService.run``."""

    def __init__(
        self,
        name: str,
        why: str,
        workers: int,
        sessions: Dict[str, object],
        smoke_sessions: Dict[str, object],
        config: Dict[str, object],
        interpreters: int = 3,
    ) -> None:
        self.name, self.why, self.workers, self.interpreters = name, why, workers, interpreters
        self._sessions, self._smoke_sessions, self._config = sessions, smoke_sessions, config

    def generate(self, seed: int, batch: int, smoke: bool):
        from repro.service.workload import generate_sessions

        return generate_sessions(
            seed=batch_seed(seed, self.name, batch),
            service=f"{self.name}-b{batch}",
            **(self._smoke_sessions if smoke else self._sessions),
        )

    def execute(self, inputs, out_path, workers, timed):
        from repro.service import service as service_module

        config = service_module.ServiceConfig(
            name=inputs[0].service, out_path=out_path, workers=workers, **self._config
        )
        runner = service_module.BroadcastSessionService(config)
        summary = timed(runner.run)(inputs, resume=False)
        return {"snapshots": summary.metrics.snapshots_written}

    def check(self, inputs, data, info):
        rows = {row.get("session_id"): row for row in _parse_rows(data)}
        failures: List[str] = []
        fractions: List[Fraction] = []
        phase3 = bits = 0
        for spec in inputs:
            row = rows.get(spec.session_id)
            if row is None:
                failures.append(f"{spec.session_id}: quarantined, shed or missing")
                continue
            upper = theorem2_bound(spec.topology, spec.source, spec.max_faults)
            reason = row.get("error") or _record_failure(row.get("record"), upper)
            if reason:
                failures.append(f"{spec.session_id}: {reason}")
                continue
            record = row["record"]
            phase3 += record["dispute_control_executions"]
            bits += record["bits_sent"]
            if record.get("throughput") is not None:
                fractions.append(Fraction(record["throughput"]) / upper)
        return Checked(len(inputs), failures, fractions, phase3, bits, info["snapshots"])


class SweepWorkload(Workload):
    """A registered spec through ``run_spec``, workers cold every batch."""

    def __init__(self, name: str, why: str, workers: int, spec: str, smoke_spec: str) -> None:
        self.name, self.why, self.workers = name, why, workers
        self._spec, self._smoke_spec = spec, smoke_spec

    def generate(self, seed: int, batch: int, smoke: bool):
        from repro.engine.specs import get_spec

        spec = get_spec(self._smoke_spec if smoke else self._spec)
        return dataclasses.replace(spec, base_seed=batch_seed(seed, self.name, batch))

    def execute(self, inputs, out_path, workers, timed):
        from repro.engine import runner

        summary = timed(runner.run_spec)(inputs, out_path, workers=workers, resume=False)
        return {"total": summary.total_cells}

    def check(self, inputs, data, info):
        rows = _parse_rows(data)
        failures = [f"{info['total'] - len(rows)} cell(s) quarantined or missing"] * (
            info["total"] - len(rows)
        )
        fractions: List[Fraction] = []
        phase3 = bits = 0
        for row in rows:
            reason = row.get("error")
            if not reason and not row.get("bounds"):
                reason = "no bounds"
            if not reason:
                upper = Fraction(row["bounds"]["capacity_upper_bound"])
                reason = _record_failure(row.get("record"), upper)
            if reason:
                failures.append(f"{row.get('cell_id')}: {reason}")
                continue
            record = row["record"]
            phase3 += record["dispute_control_executions"]
            bits += record["bits_sent"]
            if row["protocol"] == "nab" and record.get("throughput") is not None:
                fractions.append(Fraction(record["throughput"]) / upper)
        return Checked(info["total"], failures, fractions, phase3, bits, 0)


class BoundsWorkload(Workload):
    """Cold ``analyse_network`` runs on datacenter fabrics; no protocol code."""

    def __init__(
        self,
        name: str,
        why: str,
        ops: Sequence[Tuple[str, int, int, int]],
        smoke_ops: Sequence[Tuple[str, int, int, int]],
    ) -> None:
        self.name, self.why, self.interpreters = name, why, 1
        self._ops, self._smoke_ops = tuple(ops), tuple(smoke_ops)

    def generate(self, seed: int, batch: int, smoke: bool):
        # The fabrics are the input; the seed only orders them.  Every op
        # starts from cleared caches, so order cannot flatter any of them.
        ops = list(self._smoke_ops if smoke else self._ops)
        random.Random(batch_seed(seed, self.name, batch)).shuffle(ops)
        return ops

    def execute(self, inputs, out_path, workers, timed):
        from repro.capacity import bounds
        from repro.graph.flow_cache import clear_mincut_cache
        from repro.graph.gomory_hu import clear_gomory_hu_cache
        from repro.graph.spanning_trees import clear_pack_cache
        from repro.workloads.topologies import topology

        with open(out_path, "w", encoding="utf-8") as handle:
            for name, max_faults, _gamma, _rho in inputs:
                clear_mincut_cache()
                clear_gomory_hu_cache()
                clear_pack_cache()
                graph = topology(name)
                # Looked up at call time so the traced run sees the wrapper.
                analysis = timed(bounds.analyse_network)(graph, 1, max_faults)
                row = {
                    "topology": name,
                    "max_faults": max_faults,
                    "gamma_star": analysis.gamma_star,
                    "rho_star": analysis.rho_star,
                    "nab_lower_bound": str(analysis.nab_lower_bound),
                    "capacity_upper_bound": str(analysis.capacity_upper_bound),
                    "achieved_fraction": str(analysis.achieved_fraction),
                }
                handle.write(json.dumps(row, sort_keys=True, separators=(",", ":")) + "\n")
        return {}

    def check(self, inputs, data, info):
        rows = _parse_rows(data)
        failures: List[str] = []
        fractions: List[Fraction] = []
        for index, (name, max_faults, gamma, rho) in enumerate(inputs):
            row = rows[index] if index < len(rows) else None
            if row is None or (row["topology"], row["max_faults"]) != (name, max_faults):
                failures.append(f"{name} f={max_faults}: row missing")
            elif (row["gamma_star"], row["rho_star"]) != (gamma, rho):
                failures.append(
                    f"{name} f={max_faults}: gamma*/rho* = "
                    f"{row['gamma_star']}/{row['rho_star']}, expected {gamma}/{rho}"
                )
            else:
                fractions.append(Fraction(row["achieved_fraction"]))
        return Checked(len(inputs), failures, fractions, 0, 0, 0)


WORKLOADS: Tuple[Workload, ...] = (
    ServiceWorkload(
        "svc_small",
        "2 B fault-free k7-unit sessions: pool/pipe, flag broadcast and per-message "
        "transport cost dominate; big-field gf kernels do nothing",
        workers=MAX_WORKERS,
        sessions=dict(count=400, topologies=("k7-unit",), payload_bytes=2, instances=1, max_faults=1),
        smoke_sessions=dict(count=8, topologies=("k7-unit",), payload_bytes=2, instances=1, max_faults=1),
        config=dict(fsync_every=64),
    ),
    ServiceWorkload(
        "svc_disputes",
        "f=2 adversaries on k7-unit, 8 B x 8 instances: Phase 3, EIG over dirty paths, "
        "dispute-state growth and the only snapshot rows through pipe and WAL",
        workers=MAX_WORKERS,
        sessions=dict(
            count=8,
            topologies=("k7-unit",),
            strategies=DISPUTE_STRATEGIES,
            payload_bytes=8,
            instances=8,
            max_faults=2,
        ),
        smoke_sessions=dict(
            count=2,
            topologies=("k7-unit",),
            strategies=DISPUTE_STRATEGIES[:2],
            payload_bytes=8,
            instances=2,
            max_faults=2,
        ),
        config=dict(checkpoint_every=1),
    ),
    ServiceWorkload(
        "mid_field",
        "4 KB x 2 fault-free on k7-fast (degree 2185, windowed backend), serial path: "
        "GFMatrix.vecmat on the stacked kernels is nearly all the time",
        workers=1,
        sessions=dict(count=2, topologies=("k7-fast",), payload_bytes=4096, instances=2, max_faults=1),
        smoke_sessions=dict(count=1, topologies=("k7-fast",), payload_bytes=512, instances=1, max_faults=1),
        # No mid-session checkpoint: a snapshot row holds the instance outputs
        # as JSON integers, and CPython refuses to print integers beyond 4300
        # digits (~1.7 KB payloads), which turns the session into an error row.
        config=dict(checkpoint_every=2),
    ),
    ServiceWorkload(
        "fft_field",
        "64 KB x 1 fault-free on k4-hbd (degree 4096, numpy FFT backend), serial path: "
        "the gf layer through its other backend, so a crossover change shows as one up, one down",
        workers=1,
        sessions=dict(count=1, topologies=("k4-hbd",), payload_bytes=65536, instances=1, max_faults=1),
        smoke_sessions=dict(count=1, topologies=("k4-fast",), payload_bytes=4096, instances=1, max_faults=1),
        config={},
        interpreters=1,
    ),
    SweepWorkload(
        "sweep_matrix",
        "protocol_matrix (216 cells, all three protocols) through run_spec with 2 cold workers: "
        "engine supervisor, spec expansion, cache clears, JSONL compaction",
        workers=MAX_WORKERS,
        spec="protocol_matrix",
        smoke_spec="nab_vs_classical_quick",
    ),
    BoundsWorkload(
        "graph_bounds",
        "cold analyse_network on torus/ring-of-rings/fat-tree fabrics at f=0 and torus-8x8 at f=1: "
        "graph + capacity do all the work, no protocol or GF code runs",
        # (topology, f, gamma*, rho*): the expected values are the checked output.
        ops=(
            ("torus-16x16", 0, 8, 8),
            ("ring-rings-16x16", 0, 16, 16),
            ("fat-tree-16", 0, 32, 32),
            ("torus-8x8", 1, 6, 6),
        ),
        smoke_ops=(("torus-8x8", 0, 8, 8),),
    ),
)


def workload(name: str) -> Workload:
    """Look a workload up by name."""
    for candidate in WORKLOADS:
        if candidate.name == name:
            return candidate
    raise KeyError(name)
