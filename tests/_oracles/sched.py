"""The frozen event kernel: the reference the pipelined clock is held to.

``repro.core.pipeline`` computes the Figure 3 schedule by its max-plus
recurrence.  Before that it event-simulated the task DAG below on this
kernel, and that simulation is the definition the recurrence must reproduce:
makespan, sequential comparator and the stage timeline *in finish order*
(``tests/test_pipelined_nab.py``).  ``EventQueue`` processes events by
``(time, scheduling order)``; ``simulate_tasks`` starts every task the
instant its last dependency finishes.  Kept verbatim from the retired ``sched`` package.
Don't optimise them.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, Callable, Dict, Hashable, List, Optional, Sequence, Tuple

from repro.exceptions import SchedulerError

if TYPE_CHECKING:
    from repro.core.pipeline import _InstanceStages


class EventQueue:
    """A deterministic priority queue of timed callbacks with an exact clock.

    The clock starts at ``start`` (0 by default) and only moves forward:
    events may be scheduled at any time ``>= now`` and are processed in
    ``(time, scheduling order)`` order.  Callbacks may schedule further events
    (at or after the current event's time).

    A non-zero ``start`` restores a clock mid-flight — the session service
    resumes a snapshotted run at the absolute time it stopped, and because the
    kernel is a pure function of the scheduled events, the resumed timeline
    equals the uninterrupted one shifted by nothing at all.

    Raises:
        SchedulerError: if ``start`` is negative.
    """

    def __init__(self, start: Fraction | int = 0) -> None:
        start = Fraction(start)
        if start < 0:
            raise SchedulerError(f"the clock cannot start at negative time {start}")
        self._heap: List[Tuple[Fraction, int, Optional[Callable[[], None]]]] = []
        self._sequence = itertools.count()
        self._now = start

    @property
    def now(self) -> Fraction:
        """The current simulation time (exact)."""
        return self._now

    def __len__(self) -> int:
        return len(self._heap)

    def schedule(self, time: Fraction | int, action: Callable[[], None] | None = None) -> None:
        """Schedule ``action`` (may be ``None`` for a pure clock marker) at ``time``.

        Raises:
            SchedulerError: if ``time`` is earlier than the current clock.
        """
        when = Fraction(time)
        if when < self._now:
            raise SchedulerError(
                f"cannot schedule an event at {when} before the current time {self._now}"
            )
        heapq.heappush(self._heap, (when, next(self._sequence), action))

    def schedule_after(
        self, delay: Fraction | int, action: Callable[[], None] | None = None
    ) -> None:
        """Schedule ``action`` ``delay`` time units after the current clock.

        Raises:
            SchedulerError: if ``delay`` is negative.
        """
        delay = Fraction(delay)
        if delay < 0:
            raise SchedulerError(f"delay must be non-negative, got {delay}")
        self.schedule(self._now + delay, action)

    def step(self) -> bool:
        """Process the next event (advancing the clock); ``False`` when empty."""
        if not self._heap:
            return False
        when, _, action = heapq.heappop(self._heap)
        self._now = when
        if action is not None:
            action()
        return True

    def run(self) -> Fraction:
        """Process every pending event and return the final clock value."""
        while self.step():
            pass
        return self._now


@dataclass(frozen=True)
class Task:
    """One unit of simulated work with an exact duration and dependencies.

    Attributes:
        name: Unique hashable task identifier.
        duration: Exact time the task occupies once started (``>= 0``).
        deps: Names of the tasks that must finish before this one starts.
    """

    name: Hashable
    duration: Fraction
    deps: Tuple[Hashable, ...] = ()


@dataclass(frozen=True)
class TaskTiming:
    """Start and end time of one simulated task."""

    name: Hashable
    start: Fraction
    end: Fraction


class TaskTimeline:
    """The result of simulating a task graph: per-task timings plus makespan."""

    def __init__(self, timings: Sequence[TaskTiming]) -> None:
        self._timings = {timing.name: timing for timing in timings}
        self._order = list(timings)

    def start(self, name: Hashable) -> Fraction:
        """When the named task started.

        Raises:
            SchedulerError: if the task is unknown.
        """
        return self._timing(name).start

    def end(self, name: Hashable) -> Fraction:
        """When the named task finished.

        Raises:
            SchedulerError: if the task is unknown.
        """
        return self._timing(name).end

    def _timing(self, name: Hashable) -> TaskTiming:
        if name not in self._timings:
            raise SchedulerError(f"unknown task {name!r}")
        return self._timings[name]

    @property
    def makespan(self) -> Fraction:
        """Completion time of the whole task graph (0 for an empty graph)."""
        if not self._order:
            return Fraction(0)
        return max(timing.end for timing in self._order)

    def timings(self) -> List[TaskTiming]:
        """Every task timing, in completion order (ties in start order)."""
        return list(self._order)

    def __len__(self) -> int:
        return len(self._order)


def simulate_tasks(tasks: Sequence[Task]) -> TaskTimeline:
    """Run a dependency graph of exact-duration tasks through the event queue.

    Every task starts the instant its last dependency finishes (tasks never
    queue for execution resources here — resource contention is expressed as
    explicit dependencies, e.g. "instance ``q`` cannot use the hop-``h`` links
    before instance ``q-1`` is done with them").

    Raises:
        SchedulerError: if task names collide, a dependency is unknown, a
            duration is negative, or the dependency graph has a cycle.
    """
    by_name: Dict[Hashable, Task] = {}
    for task in tasks:
        if task.name in by_name:
            raise SchedulerError(f"duplicate task name {task.name!r}")
        if Fraction(task.duration) < 0:
            raise SchedulerError(f"task {task.name!r} has negative duration")
        by_name[task.name] = task
    for task in tasks:
        for dep in task.deps:
            if dep not in by_name:
                raise SchedulerError(f"task {task.name!r} depends on unknown {dep!r}")

    queue = EventQueue()
    unfinished_deps = {task.name: len(set(task.deps)) for task in tasks}
    dependents: Dict[Hashable, List[Hashable]] = {task.name: [] for task in tasks}
    for task in tasks:
        for dep in set(task.deps):
            dependents[dep].append(task.name)
    started: Dict[Hashable, Fraction] = {}
    finished: List[TaskTiming] = []

    def _finish(name: Hashable) -> None:
        finished.append(TaskTiming(name=name, start=started[name], end=queue.now))
        for dependent in dependents[name]:
            unfinished_deps[dependent] -= 1
            if unfinished_deps[dependent] == 0:
                _start(dependent)

    def _start(name: Hashable) -> None:
        started[name] = queue.now
        queue.schedule_after(Fraction(by_name[name].duration), lambda: _finish(name))

    for task in tasks:
        if unfinished_deps[task.name] == 0:
            _start(task.name)
    queue.run()

    if len(finished) != len(tasks):
        stuck = sorted(repr(name) for name in by_name if name not in started)
        raise SchedulerError(
            f"task graph has a dependency cycle; never started: {', '.join(stuck)}"
        )
    return TaskTimeline(finished)


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
