"""SLO engine: burn-rate eligibility, alert state machine, determinism."""

from __future__ import annotations

import pytest

from repro._sim.clock import SimClock
from repro._sim.scheduler import Scheduler
from repro.observability.slo import (
    STATE_FIRING,
    STATE_OK,
    STATE_PENDING,
    MonitoringSession,
    SloMonitor,
    SloSpec,
    fraction_probe,
    rate_probe,
)

pytestmark = pytest.mark.monitoring


def make_spec(value_fn, **overrides):
    defaults = dict(
        name="test.metric",
        value_probe=value_fn,
        objective=1.0,
        budget=0.01,
        short_window=1.0,
        long_window=4.0,
        burn_threshold=2.0,
        for_intervals=2,
        clear_intervals=2,
    )
    defaults.update(overrides)
    return SloSpec(**defaults)


def drive(monitor, times):
    for t in times:
        monitor.evaluate(t)


class TestStateMachine:
    def test_healthy_signal_never_leaves_ok(self):
        monitor = SloMonitor(Scheduler(), SimClock(), [make_spec(lambda: 0.5)])
        drive(monitor, [i * 0.25 for i in range(40)])
        alert = monitor.alert("test.metric")
        assert alert.state == STATE_OK
        assert alert.transitions == []

    def test_sustained_violation_walks_ok_pending_firing(self):
        monitor = SloMonitor(Scheduler(), SimClock(), [make_spec(lambda: 5.0)])
        monitor.evaluate(0.0)
        assert monitor.alert("test.metric").state == STATE_PENDING
        monitor.evaluate(0.25)
        assert monitor.alert("test.metric").state == STATE_FIRING
        states = [s for _, s in monitor.alert("test.metric").transitions]
        assert states == [STATE_PENDING, STATE_FIRING]

    def test_one_sample_blip_clears_from_pending(self):
        values = iter([5.0, 0.1, 0.1, 0.1])
        # Generous budget: a single violated sample burns at exactly the
        # threshold, and the next healthy sample halves the fraction.
        monitor = SloMonitor(
            Scheduler(), SimClock(), [make_spec(lambda: next(values), budget=0.5)]
        )
        monitor.evaluate(0.0)
        assert monitor.alert("test.metric").state == STATE_PENDING
        # The next healthy sample dilutes the short-window fraction below
        # the burn threshold: back to ok without ever firing.
        monitor.evaluate(0.25)
        alert = monitor.alert("test.metric")
        assert alert.state == STATE_OK
        assert alert.fired_count == 0

    def test_firing_resolves_after_clear_intervals_of_calm(self):
        values = iter([5.0] * 4 + [0.1] * 40)
        monitor = SloMonitor(
            Scheduler(),
            SimClock(),
            [make_spec(lambda: next(values), short_window=0.5)],
        )
        times = [i * 0.25 for i in range(44)]
        fired_at = resolved_at = None
        for t in times:
            monitor.evaluate(t)
            alert = monitor.alert("test.metric")
            if alert.state == STATE_FIRING and fired_at is None:
                fired_at = t
            if alert.resolved_count and resolved_at is None:
                resolved_at = t
        assert fired_at is not None
        assert resolved_at is not None and resolved_at > fired_at
        assert monitor.alert("test.metric").state == STATE_OK
        states = [s for _, s in monitor.alert("test.metric").transitions]
        assert states == [STATE_PENDING, STATE_FIRING, "resolved"]

    def test_none_probe_is_skipped_entirely(self):
        monitor = SloMonitor(Scheduler(), SimClock(), [make_spec(lambda: None)])
        drive(monitor, [i * 0.25 for i in range(20)])
        alert = monitor.alert("test.metric")
        assert alert.state == STATE_OK
        assert alert.last_value is None

    def test_gte_comparison_fires_on_low_values(self):
        spec = make_spec(lambda: 0.1, comparison=">=", objective=1.0)
        monitor = SloMonitor(Scheduler(), SimClock(), [spec])
        drive(monitor, [0.0, 0.25])
        assert monitor.alert("test.metric").state == STATE_FIRING

    def test_duplicate_slo_names_rejected(self):
        with pytest.raises(ValueError):
            SloMonitor(
                Scheduler(),
                SimClock(),
                [make_spec(lambda: 0.0), make_spec(lambda: 1.0)],
            )


class TestBurnRate:
    def test_long_window_gates_short_blips(self):
        # Violations confined to one short burst inside a long healthy
        # history: short-window burn spikes but long-window burn stays
        # below threshold, so the alert never becomes eligible.
        spec = make_spec(
            lambda: 0.0,  # unused; we call observe directly
            budget=0.1,
            short_window=1.0,
            long_window=10.0,
        )
        monitor = SloMonitor(Scheduler(), SimClock(), [spec])
        state = monitor._states[0]
        for i in range(36):
            state.observe(i * 0.25, 0.5)  # 9s of healthy history
        state.observe(9.25, 5.0)  # one violation
        alert = state.alert
        assert alert.burn_short >= spec.burn_threshold
        assert alert.burn_long < spec.burn_threshold
        assert state.eligible_streak == 0

    def test_window_trimming_drops_stale_samples(self):
        spec = make_spec(lambda: 0.0, long_window=2.0)
        monitor = SloMonitor(Scheduler(), SimClock(), [spec])
        state = monitor._states[0]
        for i in range(20):
            state.observe(i * 0.25, 0.5)
        assert all(t >= 4.75 - 2.0 for t, _ in state.samples)


class TestProbes:
    def test_rate_probe_first_call_has_no_baseline(self):
        counter = {"v": 0}
        fn = rate_probe(lambda: counter["v"], interval=0.5)
        assert fn() is None
        counter["v"] = 10
        assert fn() == pytest.approx(20.0)
        counter["v"] = 10
        assert fn() == pytest.approx(0.0)

    def test_fraction_probe_none_when_denominator_flat(self):
        num, den = {"v": 0}, {"v": 0}
        fn = fraction_probe(lambda: num["v"], lambda: den["v"])
        assert fn() is None  # denominator delta is zero
        num["v"], den["v"] = 3, 10
        assert fn() == pytest.approx(0.3)
        num["v"] = 4  # denominator unchanged -> no signal
        assert fn() is None


class TestScheduledEvaluation:
    def test_monitor_rides_the_event_heap(self):
        scheduler = Scheduler()
        clock = SimClock()
        monitor = SloMonitor(
            scheduler, clock, [make_spec(lambda: 0.0)], interval=0.25
        )
        monitor.start()
        scheduler.run(until=2.0)
        assert monitor.evaluations == 8
        # Evaluation never advances the monitor's clock.
        assert clock.now == 0.0

    def test_stop_parks_the_pending_event_as_noop(self):
        scheduler = Scheduler()
        monitor = SloMonitor(
            scheduler, SimClock(), [make_spec(lambda: 0.0)], interval=0.25
        )
        monitor.start()
        scheduler.run(until=1.0)
        monitor.stop()
        scheduler.run()  # drains without rescheduling forever
        assert monitor.evaluations == 4
        assert scheduler.heap_size == 0

    def test_an_evaluation_that_raises_ends_the_run(self):
        def broken():
            raise RuntimeError("probe bug")

        scheduler = Scheduler()
        monitor = SloMonitor(scheduler, SimClock(), [make_spec(broken)], interval=0.25)
        monitor.start()
        with pytest.raises(RuntimeError, match="probe bug"):
            scheduler.run()
        assert monitor.evaluations == 1

    def test_two_seeded_runs_produce_identical_transition_logs(self):
        def run():
            values = iter([0.1] * 4 + [5.0] * 6 + [0.1] * 20)
            scheduler = Scheduler()
            monitor = SloMonitor(
                scheduler,
                SimClock(),
                [make_spec(lambda: next(values), short_window=0.5)],
                interval=0.25,
            )
            monitor.start()
            scheduler.run(until=7.0)
            return monitor.transition_log()

        log = run()
        assert log == run()
        assert "firing" in log and "resolved" in log


class TestSessionWiring:
    def test_alert_firing_triggers_exactly_one_bundle(self):
        scheduler = Scheduler()
        clock = SimClock()
        value = {"v": 0.1}
        spec = make_spec(lambda: value["v"])
        with MonitoringSession(
            scheduler, clock, specs=[spec], interval=0.25,
            node_clocks=[(clock, "ctl")],
        ) as session:
            scheduler.run(until=2.0)
            assert session.bundles == []
            value["v"] = 9.0
            scheduler.run(until=6.0)
            assert len(session.bundles) == 1
            bundle = session.bundles[0]
            assert bundle.trigger_kind == "alert"
            assert bundle.trigger_name == "test.metric"
            # Re-firing the same alert later must not emit a second
            # bundle for the same trigger key.
            value["v"] = 0.1
            scheduler.run(until=10.0)
            value["v"] = 9.0
            scheduler.run(until=14.0)
            assert len(session.bundles) == 1
            assert session.stats.incidents_suppressed >= 1

    def test_session_counters_reach_collect_metrics(self):
        from repro.core.monitoring import fold, published
        from repro.runtime.stats_registry import MonitoringStats, stats_for

        scheduler = Scheduler()
        clock = SimClock()
        with MonitoringSession(
            scheduler, clock, specs=[make_spec(lambda: 5.0)], interval=0.25
        ) as session:
            scheduler.run(until=2.0)
            registered = stats_for("monitoring", [clock])
            assert session.stats in registered
            assert stats_for("monitoring", [SimClock()]) == []
            target = MonitoringStats()
            for stats in registered:
                fold(target, stats, published(MonitoringStats))
            assert target.slo_evaluations == session.stats.slo_evaluations > 0
            assert target.alerts_fired == 1
            assert target.bundles_emitted == 1

    def test_close_restores_probe_slots(self):
        from repro._sim import probe

        before = probe.installed()
        session = MonitoringSession(Scheduler(), SimClock())
        assert probe.installed() == before + (session.recorder, session.pipeline)
        session.close()
        assert probe.installed() == before
