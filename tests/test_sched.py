"""Tests for the frozen event kernel (the pipeline clock's oracle) and the link models."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles.sched import EventQueue, Task, simulate_tasks
from repro.exceptions import ConfigurationError, SchedulerError
from repro.transport.links import LinkModel, link_model, named_link_models


class TestEventQueue:
    def test_clock_starts_at_zero(self):
        queue = EventQueue()
        assert queue.now == 0
        assert len(queue) == 0

    def test_events_fire_in_time_order(self):
        queue = EventQueue()
        fired = []
        queue.schedule(Fraction(3), lambda: fired.append("late"))
        queue.schedule(Fraction(1), lambda: fired.append("early"))
        queue.schedule(Fraction(2), lambda: fired.append("middle"))
        assert queue.run() == Fraction(3)
        assert fired == ["early", "middle", "late"]

    def test_same_time_events_fire_in_schedule_order(self):
        queue = EventQueue()
        fired = []
        for tag in ("a", "b", "c"):
            queue.schedule(Fraction(1), lambda tag=tag: fired.append(tag))
        queue.run()
        assert fired == ["a", "b", "c"]

    def test_callbacks_may_schedule_more_events(self):
        queue = EventQueue()
        fired = []

        def chain():
            fired.append(queue.now)
            if queue.now < 3:
                queue.schedule_after(Fraction(1), chain)

        queue.schedule(Fraction(1), chain)
        assert queue.run() == Fraction(3)
        assert fired == [Fraction(1), Fraction(2), Fraction(3)]

    def test_scheduling_in_the_past_rejected(self):
        queue = EventQueue()
        queue.schedule(Fraction(5), None)
        queue.run()
        with pytest.raises(SchedulerError):
            queue.schedule(Fraction(4), None)
        with pytest.raises(SchedulerError):
            queue.schedule_after(Fraction(-1), None)

    def test_none_actions_advance_the_clock(self):
        queue = EventQueue()
        queue.schedule(Fraction(7, 2), None)
        assert queue.run() == Fraction(7, 2)


class TestSimulateTasks:
    def test_independent_tasks_run_in_parallel(self):
        timeline = simulate_tasks(
            [Task("a", Fraction(2)), Task("b", Fraction(5)), Task("c", Fraction(3))]
        )
        assert timeline.makespan == Fraction(5)
        assert timeline.start("a") == timeline.start("b") == Fraction(0)

    def test_dependencies_serialize(self):
        timeline = simulate_tasks(
            [
                Task("a", Fraction(2)),
                Task("b", Fraction(3), deps=("a",)),
                Task("c", Fraction(1), deps=("a", "b")),
            ]
        )
        assert timeline.start("b") == Fraction(2)
        assert timeline.start("c") == Fraction(5)
        assert timeline.makespan == Fraction(6)

    def test_figure3_pipeline_recurrence(self):
        # The canonical pipeline: (q, h) depends on (q, h-1) and (q-1, h),
        # every stage one round long => end(q, h) = (q + h) * round.
        round_length = Fraction(7, 3)
        instances, depth = 5, 4
        tasks = []
        for q in range(instances):
            for h in range(1, depth + 1):
                deps = []
                if h > 1:
                    deps.append((q, h - 1))
                if q > 0:
                    deps.append((q - 1, h))
                tasks.append(Task((q, h), round_length, tuple(deps)))
        timeline = simulate_tasks(tasks)
        for q in range(instances):
            for h in range(1, depth + 1):
                assert timeline.end((q, h)) == (q + h) * round_length
        assert timeline.makespan == (instances + depth - 1) * round_length

    def test_zero_duration_tasks_allowed(self):
        timeline = simulate_tasks([Task("a", Fraction(0)), Task("b", Fraction(0), ("a",))])
        assert timeline.makespan == Fraction(0)
        assert len(timeline) == 2

    def test_empty_graph(self):
        assert simulate_tasks([]).makespan == Fraction(0)

    def test_cycle_detected(self):
        with pytest.raises(SchedulerError, match="cycle"):
            simulate_tasks(
                [Task("a", Fraction(1), ("b",)), Task("b", Fraction(1), ("a",))]
            )

    def test_duplicate_and_unknown_names_rejected(self):
        with pytest.raises(SchedulerError, match="duplicate"):
            simulate_tasks([Task("a", Fraction(1)), Task("a", Fraction(2))])
        with pytest.raises(SchedulerError, match="unknown"):
            simulate_tasks([Task("a", Fraction(1), ("ghost",))])

    def test_negative_duration_rejected(self):
        with pytest.raises(SchedulerError, match="negative"):
            simulate_tasks([Task("a", Fraction(-1))])

    def test_unknown_task_lookup_rejected(self):
        timeline = simulate_tasks([Task("a", Fraction(1))])
        with pytest.raises(SchedulerError):
            timeline.end("ghost")

    @given(
        durations=st.lists(
            st.fractions(min_value=0, max_value=10), min_size=1, max_size=8
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_chain_makespan_is_sum_of_durations(self, durations):
        tasks = []
        for index, duration in enumerate(durations):
            deps = (index - 1,) if index else ()
            tasks.append(Task(index, duration, deps))
        timeline = simulate_tasks(tasks)
        assert timeline.makespan == sum(durations, Fraction(0))


class TestLinkModel:
    def test_instant_model(self):
        model = LinkModel()
        assert model.delay((1, 2), 0) == 0

    def test_uniform_latency(self):
        model = LinkModel(name="u", latency=Fraction(3, 2))
        assert model.delay((1, 2), 5) == Fraction(3, 2)

    def test_per_link_overrides(self):
        model = LinkModel(
            name="hetero",
            latency=Fraction(1),
            per_link={(1, 2): Fraction(10)},
        )
        assert model.delay((1, 2), 0) == Fraction(10)
        assert model.delay((2, 1), 0) == Fraction(1)

    def test_jitter_is_deterministic_and_bounded(self):
        model = LinkModel(name="j", latency=Fraction(1), jitter=Fraction(2), seed=3)
        seen = set()
        for sequence in range(40):
            delay = model.delay((1, 2), sequence)
            assert Fraction(1) <= delay <= Fraction(3)
            assert delay == model.delay((1, 2), sequence)
            seen.add(delay)
        # A 40-message sample hits more than one lattice point.
        assert len(seen) > 1

    def test_jitter_differs_across_links_and_seeds(self):
        model = LinkModel(name="j", jitter=Fraction(1), seed=3)
        other_seed = LinkModel(name="j", jitter=Fraction(1), seed=4)
        delays_a = [model.delay((1, 2), s) for s in range(20)]
        delays_b = [model.delay((2, 1), s) for s in range(20)]
        delays_c = [other_seed.delay((1, 2), s) for s in range(20)]
        assert delays_a != delays_b
        assert delays_a != delays_c

    def test_negative_parameters_rejected(self):
        with pytest.raises(SchedulerError):
            LinkModel(latency=Fraction(-1))
        with pytest.raises(SchedulerError):
            LinkModel(jitter=Fraction(-1))
        with pytest.raises(SchedulerError):
            LinkModel(per_link={(1, 2): Fraction(-1)})


class TestLinkModelRegistry:
    def test_named_models_instantiable(self):
        names = named_link_models()
        assert "instant" in names
        assert "unit-latency" in names
        for name in names:
            model = link_model(name)
            assert model.name == name

    def test_instant_is_instant(self):
        # Only "instant" adds no delay on any link of the 7-node families.
        edges = [(tail, head) for tail in range(1, 8) for head in range(1, 8) if tail != head]
        for name in named_link_models():
            model = link_model(name)
            delays = {model.delay(edge, sequence) for edge in edges for sequence in range(4)}
            assert (delays == {0}) == (name == "instant"), name

    def test_unknown_name_rejected(self):
        with pytest.raises(ConfigurationError):
            link_model("definitely-not-a-model")
