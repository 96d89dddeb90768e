"""Pipelined multi-instance NAB execution on the discrete-event kernel.

The paper's throughput claims rest on pipelining (Appendix D / Figure 3):
under per-hop propagation a Phase 1 symbol cannot be forwarded before it has
been fully received, so a naive sequential execution pays the broadcast depth
``D`` on *every* instance, while the pipelined execution divides time into
rounds of ``L/gamma + L/rho + overhead`` and lets instance ``q + 1`` enter the
network while instance ``q`` is still propagating — after a fill-in latency of
``D - 1`` rounds one instance completes per round.

:func:`run_pipelined` turns that picture into a measured execution.  Each
instance still runs through the real three-phase machinery (so outputs, bits,
dispute-state evolution and spec flags are identical to the sequential path),
and the *timing* is obtained by simulating the Figure 3 dependency structure
with :func:`repro.sched.simulate_tasks`:

* stage task ``(q, h)`` — instance ``q``'s round at hop depth ``h`` — lasts
  one full round of that instance (its measured Phase 1 time plus its measured
  equality/flag time) and depends on ``(q, h - 1)`` (its own data must reach
  hop ``h - 1`` first) and ``(q - 1, h)`` (the hop-``h`` links are busy with
  the previous instance until then);
* dispute control is a global barrier: when instance ``q`` runs Phase 3, a
  stall task is inserted that every later instance must wait for, since
  dispute control occupies the whole network.

In the fault-free steady state all rounds are equal and the simulated
makespan collapses to exactly ``(Q + D - 1)`` rounds — the
:func:`repro.capacity.pipelining.pipelined_schedule` total, Fraction-exact —
while the sequential comparator (same propagation model, no overlap) pays
``Q * (D * s1 + s2)``.  Both timelines come out of the same event kernel, so
the measured speedup is an executed quantity, not a formula.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from repro.capacity.pipelining import PipelineSchedule, pipelined_schedule
from repro.core.instance import InstanceResult, summarize_instances
from repro.exceptions import ProtocolError
from repro.sched.kernel import Task, TaskTimeline, simulate_tasks
from repro.types import NodeId, RunRecord, broadcast_spec_flags

#: Accounting phase names whose durations form the two pipeline stages.
_PHASE1 = "phase1_broadcast"
_PHASE3 = "phase3_dispute_control"


@dataclass(frozen=True)
class StageTiming:
    """Measured extent of one pipeline stage (instance ``q`` at hop ``h``)."""

    instance: int
    hop: int
    start: Fraction
    end: Fraction


@dataclass(frozen=True)
class _InstanceStages:
    """Per-instance stage durations extracted from an executed instance."""

    phase1: Fraction
    remainder: Fraction
    dispute: Fraction
    depth: int

    @property
    def round_length(self) -> Fraction:
        return self.phase1 + self.remainder


@dataclass(frozen=True)
class PipelinedNABResult:
    """Aggregate result of running ``Q`` NAB instances pipelined.

    Attributes:
        instances: Per-instance results (identical to the sequential path).
        total_elapsed: Measured pipelined completion time (event-simulated).
        sequential_elapsed: Measured completion of the unpipelined execution
            under the same per-hop propagation model (the comparator).
        total_bits: Bits sent on all links (pipelining reorders, never adds).
        throughput: ``Q * L / total_elapsed`` in bits per time unit.
        dispute_control_executions: How many instances ran Phase 3.
        depth: Steady-state broadcast depth ``D`` (last instance's packing).
        round_length: Steady-state round duration (last instance's round).
        round_overhead: ``round_length - L/gamma - L/rho`` of the steady
            state — the per-round cost beyond the two ideal terms (flag
            broadcasts, ceil rounding, capacity shares); ``None`` when the
            run never reached a homogeneous steady state.
        analytic: The Figure 3 closed form evaluated at the steady-state
            parameters (``None`` when the run was not homogeneous); in a
            fault-free run ``analytic.total_time == total_elapsed`` exactly.
        stage_timeline: Measured ``(instance, hop, start, end)`` stages in
            completion order — the event timeline experiments persist.
    """

    instances: Tuple[InstanceResult, ...]
    total_elapsed: Fraction
    sequential_elapsed: Fraction
    total_bits: int
    throughput: Optional[Fraction]
    dispute_control_executions: int
    depth: int
    round_length: Fraction
    round_overhead: Optional[Fraction]
    analytic: Optional[PipelineSchedule]
    stage_timeline: Tuple[StageTiming, ...]

    @property
    def speedup(self) -> Optional[Fraction]:
        """Measured sequential / pipelined completion ratio (``None`` if degenerate)."""
        if self.total_elapsed <= 0:
            return None
        return self.sequential_elapsed / self.total_elapsed

    def outputs_per_instance(self) -> List[Dict[NodeId, int]]:
        """The fault-free outputs of every instance, in order."""
        return [dict(result.outputs) for result in self.instances]

    def as_run_record(self, inputs: Sequence[bytes], source_faulty: bool) -> RunRecord:
        """Summarise the pipelined run in the shared :class:`RunRecord` shape.

        ``elapsed`` is the pipelined completion time; the measured event
        timeline, the sequential comparator and the analytic schedule land in
        ``metadata`` (JSON-safe, rationals as ``"p/q"`` strings).
        """
        outputs, link_totals, disputes, identified = summarize_instances(
            self.instances, inputs
        )
        agreement_ok, validity_ok = broadcast_spec_flags(outputs, inputs, source_faulty)
        speedup = self.speedup
        metadata: Dict[str, object] = {
            "algorithm": "nab",
            "execution": "pipelined",
            "disputes": sorted(disputes),
            "identified_faulty": sorted(identified),
            "mismatch_instances": sum(
                1 for result in self.instances if result.mismatch_announced
            ),
            "pipeline_depth": self.depth,
            "round_length": str(self.round_length),
            "round_overhead": (
                None if self.round_overhead is None else str(self.round_overhead)
            ),
            "sequential_elapsed": str(self.sequential_elapsed),
            "speedup": None if speedup is None else str(speedup),
            "analytic_total": (
                None if self.analytic is None else str(self.analytic.total_time)
            ),
            "matches_analytic": (
                None
                if self.analytic is None
                else self.analytic.total_time == self.total_elapsed
            ),
            "stage_timeline": [
                {
                    "instance": stage.instance,
                    "hop": stage.hop,
                    "start": str(stage.start),
                    "end": str(stage.end),
                }
                for stage in self.stage_timeline
            ],
        }
        return RunRecord(
            protocol="nab",
            instances=len(self.instances),
            payload_bits=sum(8 * len(value) for value in inputs),
            outputs=outputs,
            elapsed=self.total_elapsed,
            bits_sent=self.total_bits,
            link_bits=link_totals,
            dispute_control_executions=self.dispute_control_executions,
            agreement_ok=agreement_ok,
            validity_ok=validity_ok,
            metadata=metadata,
        )


def _stages_of(result: InstanceResult) -> _InstanceStages:
    """Split one executed instance into its pipeline stage durations.

    Phase 1 and Phase 3 durations come from the per-phase accounting; the
    remainder (equality check, flag broadcasts, and any propagation latency a
    scheduled transport measured on top) is everything else in ``elapsed``.
    """
    phase1 = Fraction(0)
    dispute = Fraction(0)
    for timing in result.phase_timings:
        if timing.name == _PHASE1:
            phase1 += timing.time_units
        elif timing.name == _PHASE3:
            dispute += timing.time_units
    remainder = result.elapsed - phase1 - dispute
    if remainder < 0:  # pragma: no cover - accounting is additive
        raise ProtocolError("instance elapsed is below its phase totals")
    return _InstanceStages(
        phase1=phase1,
        remainder=remainder,
        dispute=dispute,
        depth=result.phase1_depth if result.phase1_depth is not None else 1,
    )


def _pipeline_tasks(stages: Sequence[_InstanceStages], dispute_ran: Sequence[bool]) -> List[Task]:
    """The Figure 3 dependency graph over all instances' stage tasks."""
    tasks: List[Task] = []
    previous_barrier = None
    for q, stage in enumerate(stages):
        for hop in range(1, stage.depth + 1):
            deps: List[object] = []
            if hop > 1:
                deps.append(("stage", q, hop - 1))
            if q > 0:
                # The hop-h links are busy with the previous instance's round
                # (clamped to its depth when packings differ across instances).
                deps.append(("stage", q - 1, min(hop, stages[q - 1].depth)))
            if hop == 1 and previous_barrier is not None:
                deps.append(previous_barrier)
            tasks.append(
                Task(
                    name=("stage", q, hop),
                    duration=stage.round_length,
                    deps=tuple(deps),
                )
            )
        if dispute_ran[q]:
            # Dispute control occupies the whole network: later instances
            # stall until it completes, then the pipeline refills.
            tasks.append(
                Task(
                    name=("dc", q),
                    duration=stage.dispute,
                    deps=(("stage", q, stage.depth),),
                )
            )
            previous_barrier = ("dc", q)
    return tasks


def _sequential_tasks(
    stages: Sequence[_InstanceStages], dispute_ran: Sequence[bool]
) -> List[Task]:
    """The unpipelined comparator: per-hop propagation, no overlap at all."""
    tasks: List[Task] = []
    previous_tail = None
    for q, stage in enumerate(stages):
        for hop in range(1, stage.depth + 1):
            deps: List[object] = []
            if hop > 1:
                deps.append(("seq", q, hop - 1))
            elif previous_tail is not None:
                deps.append(previous_tail)
            tasks.append(
                Task(name=("seq", q, hop), duration=stage.phase1, deps=tuple(deps))
            )
        tail_duration = stage.remainder + (stage.dispute if dispute_ran[q] else Fraction(0))
        tasks.append(
            Task(
                name=("seq-tail", q),
                duration=tail_duration,
                deps=(("seq", q, stage.depth),),
            )
        )
        previous_tail = ("seq-tail", q)
    return tasks


def _steady_state(
    results: Sequence[InstanceResult],
    stages: Sequence[_InstanceStages],
    inputs: Sequence[bytes],
) -> Tuple[Optional[Fraction], Optional[PipelineSchedule]]:
    """The Figure 3 closed form, when the run is a homogeneous steady state.

    Requires every instance to share the payload length, the instance
    parameters (``gamma_k``/``rho_k``), the packing depth and the round
    length, with no dispute control — exactly the premises of the Figure 3
    round structure.  Returns ``(round_overhead, schedule)`` or
    ``(None, None)``.
    """
    if not results:
        return None, None
    if any(result.dispute_control_ran for result in results):
        return None, None
    first = results[0]
    if first.parameters is None:
        return None, None
    lengths = {len(value) for value in inputs}
    if len(lengths) != 1:
        return None, None
    gammas = {
        result.parameters.gamma for result in results if result.parameters is not None
    }
    rhos = {result.parameters.rho for result in results if result.parameters is not None}
    depths = {stage.depth for stage in stages}
    rounds = {stage.round_length for stage in stages}
    if len(gammas) != 1 or len(rhos) != 1 or len(depths) != 1 or len(rounds) != 1:
        return None, None
    if any(result.parameters is None for result in results):
        return None, None
    total_bits = 8 * lengths.pop()
    gamma = gammas.pop()
    rho = rhos.pop()
    overhead = rounds.pop() - Fraction(total_bits, gamma) - Fraction(total_bits, rho)
    schedule = pipelined_schedule(
        total_bits,
        gamma,
        rho,
        depths.pop(),
        len(results),
        flag_overhead=overhead,
    )
    return overhead, schedule


def run_pipelined(nab, values: Sequence[bytes]) -> PipelinedNABResult:
    """Run one NAB instance per value with Figure 3 pipelined timing.

    Args:
        nab: A :class:`repro.core.nab.NetworkAwareBroadcast` (any state —
            dispute carry-over across calls works exactly as for ``run``).
        values: One byte-string input per instance.

    Raises:
        ProtocolError: if no values are given.
    """
    run = nab.run(values)
    results = run.instances
    stages = [_stages_of(result) for result in results]
    dispute_ran = [result.dispute_control_ran for result in results]

    pipeline_timeline: TaskTimeline = simulate_tasks(_pipeline_tasks(stages, dispute_ran))
    sequential_timeline: TaskTimeline = simulate_tasks(
        _sequential_tasks(stages, dispute_ran)
    )
    total_elapsed = pipeline_timeline.makespan
    sequential_elapsed = sequential_timeline.makespan

    stage_timeline = tuple(
        StageTiming(instance=name[1], hop=name[2], start=timing.start, end=timing.end)
        for timing in pipeline_timeline.timings()
        for name in (timing.name,)
        if name[0] == "stage"
    )
    payload_bits = sum(8 * len(value) for value in values)
    throughput = Fraction(payload_bits) / total_elapsed if total_elapsed > 0 else None
    round_overhead, analytic = _steady_state(results, stages, values)
    return PipelinedNABResult(
        instances=results,
        total_elapsed=total_elapsed,
        sequential_elapsed=sequential_elapsed,
        total_bits=run.total_bits,
        throughput=throughput,
        dispute_control_executions=run.dispute_control_executions,
        depth=stages[-1].depth,
        round_length=stages[-1].round_length,
        round_overhead=round_overhead,
        analytic=analytic,
        stage_timeline=stage_timeline,
    )
