"""Pipelined multi-instance NAB execution on the discrete-event kernel.

The paper's throughput claims rest on pipelining (Appendix D / Figure 3):
under per-hop propagation a Phase 1 symbol cannot be forwarded before it has
been fully received, so a naive sequential execution pays the broadcast depth
``D`` on *every* instance, while the pipelined execution divides time into
rounds of ``L/gamma + L/rho + overhead`` and lets instance ``q + 1`` enter the
network while instance ``q`` is still propagating — after a fill-in latency of
``D - 1`` rounds one instance completes per round.

:meth:`repro.core.nab.NetworkAwareBroadcast.run_pipelined` turns that
picture into a measured execution.  Each instance still runs through the real
three-phase machinery (so outputs, bits, dispute-state evolution and spec
flags are identical to the sequential path), and :func:`pipelined_timing`
obtains the *timing* by simulating the Figure 3 dependency structure with
:func:`repro.sched.simulate_tasks`:

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
from repro.core.instance import InstanceResult
from repro.exceptions import ProtocolError
from repro.sched.kernel import Task, TaskTimeline, simulate_tasks

#: Accounting phase names whose durations form the two pipeline stages.
_PHASE1 = "phase1_broadcast"
_PHASE3 = "phase3_dispute_control"


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


def pipelined_timing(
    results: Sequence[InstanceResult], inputs: Sequence[bytes]
) -> Tuple[Fraction, Dict[str, object]]:
    """The Figure 3 pipelined completion time of executed instances.

    Args:
        results: The instances, in execution order (at least one).
        inputs: One byte-string input per instance.

    Returns:
        ``(makespan, metadata)``: the event-simulated pipelined completion
        time, and the JSON-safe record metadata (rationals as ``"p/q"``
        strings) — the steady-state ``pipeline_depth`` / ``round_length`` /
        ``round_overhead`` (the per-round cost beyond ``L/gamma + L/rho``), the
        unpipelined comparator ``sequential_elapsed`` and the ``speedup`` over
        it, the Figure 3 closed form ``analytic_total`` and whether the makespan
        ``matches_analytic`` (both ``None`` unless the run is a homogeneous
        steady state), and the measured ``stage_timeline``.
    """
    stages = [_stages_of(result) for result in results]
    dispute_ran = [result.dispute_control_ran for result in results]
    pipeline_timeline: TaskTimeline = simulate_tasks(_pipeline_tasks(stages, dispute_ran))
    makespan = pipeline_timeline.makespan
    sequential = simulate_tasks(_sequential_tasks(stages, dispute_ran)).makespan
    round_overhead, analytic = _steady_state(results, stages, inputs)
    return makespan, {
        "execution": "pipelined",
        "pipeline_depth": stages[-1].depth,
        "round_length": str(stages[-1].round_length),
        "round_overhead": None if round_overhead is None else str(round_overhead),
        "sequential_elapsed": str(sequential),
        "speedup": str(sequential / makespan) if makespan > 0 else None,
        "analytic_total": None if analytic is None else str(analytic.total_time),
        "matches_analytic": None if analytic is None else analytic.total_time == makespan,
        "stage_timeline": [
            {
                "instance": timing.name[1],
                "hop": timing.name[2],
                "start": str(timing.start),
                "end": str(timing.end),
            }
            for timing in pipeline_timeline.timings()
            if timing.name[0] == "stage"
        ],
    }
