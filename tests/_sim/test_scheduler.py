"""Unit tests for the global event-heap scheduler (PR 6 tentpole)."""

from __future__ import annotations

import pytest

from repro._sim import Completion, Scheduler, SchedulerError, SimClock
from repro.errors import ReproError


class TestHeapOrdering:
    def test_events_run_in_timestamp_order(self):
        sched = Scheduler()
        order = []
        sched.schedule(3.0, lambda: order.append("c"))
        sched.schedule(1.0, lambda: order.append("a"))
        sched.schedule(2.0, lambda: order.append("b"))
        sched.run()
        assert order == ["a", "b", "c"]

    def test_ties_break_by_scheduling_order(self):
        sched = Scheduler()
        order = []
        for name in ["first", "second", "third"]:
            sched.schedule(5.0, lambda n=name: order.append(n))
        sched.run()
        assert order == ["first", "second", "third"]

    def test_events_scheduled_during_execution_interleave(self):
        sched = Scheduler()
        order = []

        def spawner():
            order.append("spawner")
            # Earlier than the pending t=2 event: must run before it.
            sched.schedule(1.5, lambda: order.append("child"))

        sched.schedule(1.0, spawner)
        sched.schedule(2.0, lambda: order.append("late"))
        sched.run()
        assert order == ["spawner", "child", "late"]

    def test_run_until_time_bound(self):
        sched = Scheduler()
        order = []
        sched.schedule(1.0, lambda: order.append(1))
        sched.schedule(2.0, lambda: order.append(2))
        sched.schedule(3.0, lambda: order.append(3))
        executed = sched.run(until=2.0)
        assert executed == 2
        assert order == [1, 2]
        assert sched.pending() == 1

    def test_cancelled_event_is_skipped_and_not_counted(self):
        sched = Scheduler()
        order = []
        victim = sched.schedule(1.0, lambda: order.append("victim"))
        sched.schedule(2.0, lambda: order.append("survivor"))
        victim.cancel()
        sched.run()
        assert order == ["survivor"]
        assert sched.events_processed == 1
        assert sched.events_scheduled == 2

    def test_negative_time_rejected(self):
        sched = Scheduler()
        with pytest.raises(SchedulerError):
            sched.schedule(-1.0, lambda: None)
        with pytest.raises(SchedulerError):
            sched.timer(SimClock(), -0.5)

    def test_scheduler_error_is_a_repro_error(self):
        assert issubclass(SchedulerError, ReproError)


class TestCompletion:
    def test_result_before_resolution_raises(self):
        completion = Completion("pending")
        with pytest.raises(SchedulerError):
            completion.result()

    def test_double_resolution_raises(self):
        completion = Completion("x")
        completion.resolve(1)
        with pytest.raises(SchedulerError):
            completion.resolve(2)

    def test_failure_reraises_from_result(self):
        completion = Completion("boom")
        completion.fail(ValueError("nope"))
        with pytest.raises(ValueError):
            completion.result()

    def test_waiters_run_in_attach_order(self):
        completion = Completion("w")
        order = []
        completion.add_waiter(lambda c: order.append("a"))
        completion.add_waiter(lambda c: order.append("b"))
        completion.resolve("v")
        assert order == ["a", "b"]

    def test_waiter_attached_after_done_runs_immediately(self):
        completion = Completion("late")
        completion.resolve(42)
        seen = []
        completion.add_waiter(lambda c: seen.append(c.value))
        assert seen == [42]


class TestTimersAndParking:
    def test_timer_advances_clock_to_due_time(self):
        sched = Scheduler()
        clock = SimClock()
        clock.advance(1.0)
        due = sched.run_until(sched.timer(clock, 0.5))
        assert due == pytest.approx(1.5)
        assert clock.now == pytest.approx(1.5)

    def test_timer_fires_clock_observers(self):
        sched = Scheduler()
        clock = SimClock()
        seen = []
        clock.subscribe(lambda old, new: seen.append(new))
        sched.run_until(sched.timer(clock, 2.0))
        assert seen and seen[-1] == pytest.approx(2.0)

    def test_run_until_deadlock_detected(self):
        sched = Scheduler()
        orphan = Completion("never")
        with pytest.raises(SchedulerError, match="deadlock"):
            sched.run_until(orphan)

    def test_run_until_refuses_to_nest(self):
        # An event handler that waits by draining the heap would run
        # other actors' events on its own stack: refused.  The same
        # wait as an activity's yield completes.
        sched = Scheduler()
        clock = SimClock()
        refused = []

        def handler():
            inner = sched.timer(clock, 1.0, label="inner")
            for wait in (sched.run_until, lambda c: sched.drive(iter([c])), sched.run):
                try:
                    wait(inner)
                except SchedulerError as exc:
                    refused.append(str(exc))

        sched.schedule(0.0, handler)
        sched.run()
        assert len(refused) == 3
        assert all("yielding the completion" in text for text in refused)

        def waiter():
            yield sched.timer(clock, 1.0, label="yielded")
            return "done"

        outer = Completion("outer")
        sched.schedule(
            clock.now,
            lambda: sched.start(waiter()).add_waiter(lambda c: outer.resolve(c.value)),
        )
        assert sched.run_until(outer) == "done"
        assert clock.now == pytest.approx(2.0)

    def test_drive_steps_at_once_without_a_spawn_event(self):
        sched = Scheduler()
        clock = SimClock()
        trace = []

        def activity():
            trace.append(("start", sched.events_scheduled))
            due = yield sched.timer(clock, 0.5)
            trace.append(("woke", due))
            return "out"

        assert sched.drive(activity()) == "out"
        assert trace == [("start", 0), ("woke", pytest.approx(0.5))]
        assert sched.events_scheduled == 1  # the timer; no spawn: event

    def test_drive_throws_a_failed_completion_into_the_activity(self):
        sched = Scheduler()
        failing = Completion("fails")
        sched.schedule(1.0, lambda: failing.fail(ValueError("boom")))

        def activity():
            try:
                yield failing
            except ValueError as exc:
                return f"caught: {exc}"

        assert sched.drive(activity()) == "caught: boom"


class TestActivities:
    def test_activity_parks_and_resumes_with_values(self):
        sched = Scheduler()
        clock = SimClock()

        def activity():
            first = yield sched.timer(clock, 1.0)
            second = yield sched.timer(clock, 2.0)
            return (first, second)

        done = sched.spawn(activity(), name="pair")
        sched.run()
        assert done.result() == (pytest.approx(1.0), pytest.approx(3.0))
        assert sched.activities_running == 0

    def test_failure_is_thrown_into_activity(self):
        sched = Scheduler()
        failing = Completion("doomed")

        def activity():
            try:
                yield failing
            except RuntimeError as exc:
                return f"caught: {exc}"

        done = sched.spawn(activity(), name="catcher")
        sched.schedule(1.0, lambda: failing.fail(RuntimeError("boom")))
        sched.run()
        assert done.result() == "caught: boom"

    def test_uncaught_activity_error_fails_the_handle(self):
        sched = Scheduler()

        def activity():
            yield sched.timer(SimClock(), 0.1)
            raise ValueError("exploded")

        done = sched.spawn(activity(), name="bomb")
        sched.run()
        with pytest.raises(ValueError):
            done.result()

    def test_yielding_non_completion_fails(self):
        sched = Scheduler()

        def activity():
            yield 42

        done = sched.spawn(activity(), name="bad")
        sched.run()
        with pytest.raises(SchedulerError, match="may only yield"):
            done.result()

    def test_two_activities_interleave_by_time(self):
        sched = Scheduler()
        a_clock, b_clock = SimClock(), SimClock()
        order = []

        def ticker(name, clock, period, ticks):
            for _ in range(ticks):
                yield sched.timer(clock, period)
                order.append((name, clock.now))

        sched.spawn(ticker("a", a_clock, 1.0, 3), name="a")
        sched.spawn(ticker("b", b_clock, 0.4, 3), name="b")
        sched.run()
        assert [name for name, _ in order] == ["b", "b", "a", "b", "a", "a"]

    def test_determinism_same_seed_same_event_sequence(self):
        def run_once():
            sched = Scheduler()
            clocks = [SimClock() for _ in range(4)]
            log = []

            def worker(index, clock):
                for step in range(3):
                    yield sched.timer(clock, 0.1 * (index + 1))
                    log.append((index, step, round(clock.now, 9)))

            for index, clock in enumerate(clocks):
                sched.spawn(worker(index, clock), name=f"w{index}")
            sched.run()
            return log, sched.events_processed

        first = run_once()
        second = run_once()
        assert first == second


class TestClockViews:
    def test_fleet_time_is_max_over_registered_clocks(self):
        sched = Scheduler()
        fast, slow = SimClock(), SimClock()
        sched.register_clock(fast)
        sched.register_clock(slow)
        fast.advance(5.0)
        slow.advance(2.0)
        assert sched.fleet_time() == pytest.approx(5.0)

    def test_register_clock_is_idempotent(self):
        sched = Scheduler()
        clock = SimClock()
        sched.register_clock(clock)
        sched.register_clock(clock)
        assert len(sched.clocks) == 1
