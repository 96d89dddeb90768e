"""Pipelined multi-instance NAB execution: the Figure 3 clock as a recurrence.

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
obtains the *timing* from the Figure 3 dependency structure, evaluated as the
max-plus recurrence it is:

* stage ``(q, h)`` — instance ``q``'s round at hop depth ``h`` — lasts one
  full round of that instance (its measured Phase 1 time plus its measured
  equality/flag time) and starts once ``(q, h - 1)`` (its own data must reach
  hop ``h - 1`` first) and ``(q - 1, min(h, D_{q-1}))`` (the hop-``h`` links
  are busy with the previous instance until then) have ended;
* dispute control is a global barrier: when instance ``q`` runs Phase 3, it
  follows ``(q, D_q)`` and every later instance's first stage waits for it,
  since dispute control occupies the whole network.

In the fault-free steady state all rounds are equal and the makespan
collapses to exactly ``(Q + D - 1)`` rounds — the
:func:`repro.capacity.pipelining.pipelined_schedule` total, Fraction-exact —
while the sequential comparator (same propagation model, no overlap) pays
``Q * (D * s1 + s2)``.  Stages are listed in the order an event queue would
finish them; ``tests/_oracles/sched.py`` keeps that simulation as the
recurrence's reference.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from repro.capacity.pipelining import PipelineSchedule, pipelined_schedule
from repro.core.instance import InstanceResult
from repro.exceptions import ProtocolError

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
    link model's replayed clock measured on top) is everything else in
    ``elapsed``.
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


def _pipeline_clock(
    stages: Sequence[_InstanceStages], dispute_ran: Sequence[bool]
) -> Tuple[Fraction, Fraction, List[Tuple[int, int, Fraction, Fraction]]]:
    """The Figure 3 schedule by its recurrence.

    Returns the makespan, the unpipelined comparator (a running sum of
    ``D_q * phase1_q + remainder_q``, plus ``T_dc`` where dispute control ran)
    and every stage as ``(q, h, start, end)`` in finish order.
    """
    # Stages and dispute-control barriers in build order; hop 0 marks a barrier.
    names: List[Tuple[int, int]] = []
    starts: List[Fraction] = []
    ends: List[Fraction] = []
    deps: List[List[int]] = []
    where: Dict[Tuple[int, int], int] = {}

    def add(name: Tuple[int, int], duration: Fraction, after: List[int]) -> None:
        where[name] = len(names)
        names.append(name)
        deps.append(after)
        starts.append(max((ends[dep] for dep in after), default=Fraction(0)))
        ends.append(starts[-1] + duration)

    sequential = Fraction(0)
    barrier: List[int] = []
    for q, stage in enumerate(stages):
        for hop in range(1, stage.depth + 1):
            after = [where[q, hop - 1]] if hop > 1 else list(barrier)
            if q > 0:
                after.append(where[q - 1, min(hop, stages[q - 1].depth)])
            add((q, hop), stage.round_length, after)
        sequential += stage.depth * stage.phase1 + stage.remainder
        if dispute_ran[q]:
            sequential += stage.dispute
            add((q, 0), stage.dispute, [where[q, stage.depth]])
            barrier = [where[q, 0]]

    # An event queue finishes tasks by (end, scheduling order), and schedules
    # a task when its last dependency finishes: by that dependency's finish
    # rank, then build order.  Equal ends are ranked in rounds, because a
    # zero-length task ends with the dependency that starts it: each round
    # ranks the tasks whose dependencies are all ranked, and every task it
    # makes ready is scheduled after all of them.  ``rank`` is filled in
    # finish order.
    rank: Dict[int, int] = {}
    by_end = sorted(range(len(names)), key=ends.__getitem__)
    for _end, group in itertools.groupby(by_end, key=ends.__getitem__):
        waiting = list(group)
        while waiting:
            ready = [task for task in waiting if all(dep in rank for dep in deps[task])]
            ready.sort(key=lambda task: (max((rank[dep] for dep in deps[task]), default=-1), task))
            for task in ready:
                rank[task] = len(rank)
            waiting = [task for task in waiting if task not in rank]
    timeline = [(*names[task], starts[task], ends[task]) for task in rank if names[task][1]]
    return max(ends), sequential, timeline


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
    if any(result.dispute_control_ran or result.parameters is None for result in results):
        return None, None
    shapes = set()
    for value, result, stage in zip(inputs, results, stages):
        params = result.parameters
        shapes.add((len(value), params.gamma, params.rho, stage.depth, stage.round_length))
    if len(shapes) != 1:
        return None, None
    ((length, gamma, rho, depth, round_length),) = shapes
    total_bits = 8 * length
    overhead = round_length - Fraction(total_bits, gamma) - Fraction(total_bits, rho)
    return overhead, pipelined_schedule(
        total_bits, gamma, rho, depth, len(results), flag_overhead=overhead
    )


def pipelined_timing(
    results: Sequence[InstanceResult], inputs: Sequence[bytes]
) -> Tuple[Fraction, Dict[str, object]]:
    """The Figure 3 pipelined completion time of executed instances.

    Args:
        results: The instances, in execution order (at least one).
        inputs: One byte-string input per instance.

    Returns:
        ``(makespan, metadata)``: the pipelined completion time, and the
        JSON-safe record metadata (rationals as ``"p/q"`` strings) — the
        steady-state ``pipeline_depth`` / ``round_length`` /
        ``round_overhead`` (the per-round cost beyond ``L/gamma + L/rho``), the
        unpipelined comparator ``sequential_elapsed`` and the ``speedup`` over
        it, the Figure 3 closed form ``analytic_total`` and whether the makespan
        ``matches_analytic`` (both ``None`` unless the run is a homogeneous
        steady state), and the measured ``stage_timeline``.
    """
    stages = [_stages_of(result) for result in results]
    makespan, sequential, timeline = _pipeline_clock(
        stages, [result.dispute_control_ran for result in results]
    )
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
            {"instance": q, "hop": hop, "start": str(start), "end": str(end)}
            for q, hop, start, end in timeline
        ],
    }
