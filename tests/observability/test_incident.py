"""Incident pipeline: dedup, bundle determinism, root cause, integration."""

from __future__ import annotations

import json

import pytest

from repro._sim import probe
from repro._sim.clock import SimClock
from repro.observability.exporters import validate_chrome_trace
from repro.observability.flight import FlightEvent, FlightRecorder
from repro.observability.incident import (
    IncidentPipeline,
    find_root_cause,
)

pytestmark = pytest.mark.monitoring


def make_pipeline(**kwargs):
    recorder = FlightRecorder()
    clock = SimClock()
    recorder.register_clock(clock, "n0")
    return IncidentPipeline(recorder, **kwargs), recorder, clock


class TestTrigger:
    def test_exactly_one_bundle_per_trigger_key(self):
        pipeline, recorder, clock = make_pipeline()
        first = pipeline.trigger("fence", "router", clock=clock)
        second = pipeline.trigger("fence", "router", clock=clock)
        third = pipeline.trigger("fence", "checkpoint", clock=clock)
        assert first is not None and third is not None
        assert second is None
        assert len(pipeline.bundles) == 2
        assert pipeline.suppressed == 1
        assert [b.incident_id for b in pipeline.bundles] == ["I1", "I2"]

    def test_max_bundles_caps_emission(self):
        pipeline, recorder, clock = make_pipeline(max_bundles=1)
        assert pipeline.trigger("crash", "r0", clock=clock) is not None
        assert pipeline.trigger("crash", "r1", clock=clock) is None
        assert pipeline.suppressed == 1

    def test_bundle_carries_windowed_timeline(self):
        pipeline, recorder, clock = make_pipeline(window=2.0)
        for i in range(8):
            clock.advance(1.0)
            recorder.record(clock, "rpc", f"call-{i}")
        bundle = pipeline.trigger("alert", "p99", clock=clock)
        # Only the last 2 seconds before the trigger (inclusive window
        # edge) survive in the causal timeline.
        assert [line.split()[4] for line in bundle.timeline] == [
            "call-5",
            "call-6",
            "call-7",
        ]
        # The full ring rides along as the black box.
        assert len(bundle.rings["n0"]) == 8

    def test_recording_resumes_after_bundle_assembly(self):
        pipeline, recorder, clock = make_pipeline()
        pipeline.trigger("crash", "r0", clock=clock)
        recorder.record(clock, "rpc", "after")
        assert recorder.timeline()[-1].name == "after"

    def test_probe_incident_helper_routes_to_pipeline(self):
        pipeline, recorder, clock = make_pipeline()
        probe.install(pipeline)
        try:
            probe.incident("watchdog.quarantine", "replica-3", clock=clock)
            assert len(pipeline.bundles) == 1
            assert pipeline.bundles[0].trigger_kind == "watchdog.quarantine"
        finally:
            probe.remove(pipeline)


class TestRootCause:
    def _events(self):
        return [
            FlightEvent(1.0, 0, "n0", "rpc", "call", ""),
            FlightEvent(2.0, 1, "n1", "crash", "replica-0", "T7/S9"),
            FlightEvent(3.0, 2, "n0", "retry", "replica-0", "attempt=2"),
            FlightEvent(4.0, 3, "n2", "fence", "router", "stale epoch=1"),
        ]

    def test_prefers_fault_on_the_trigger_trace(self):
        cause = find_root_cause(
            self._events(), "alert", "p99", 5.0, trigger_trace="T7"
        )
        assert cause["kind"] == "crash"
        assert "replica-0" in cause["summary"]

    def test_falls_back_to_earliest_fault(self):
        cause = find_root_cause(self._events(), "alert", "p99", 5.0)
        assert cause["kind"] == "crash"
        assert cause["time"] == 2.0

    def test_no_fault_means_trigger_is_first_evidence(self):
        events = [FlightEvent(1.0, 0, "n0", "rpc", "call", "")]
        cause = find_root_cause(events, "alert", "p99", 5.0)
        assert "no prior fault" in cause["summary"]

    def test_future_faults_are_not_causes(self):
        events = [FlightEvent(9.0, 0, "n0", "crash", "later", "")]
        cause = find_root_cause(events, "alert", "p99", 5.0)
        assert "no prior fault" in cause["summary"]


class TestDeterminism:
    def _run(self):
        pipeline, recorder, clock = make_pipeline(window=3.0)
        for i in range(6):
            clock.advance(0.5)
            recorder.record(clock, "rpc", f"call-{i}", f"attempt={i}")
        recorder.record(clock, "crash", "replica-0", "killed")
        bundle = pipeline.trigger(
            "replica.crash", "replica-0", clock=clock, detail="watchdog saw it"
        )
        return bundle.dump()

    def test_two_seeded_runs_emit_byte_identical_bundles(self):
        assert self._run() == self._run()

    def test_dump_is_valid_sorted_json(self):
        payload = json.loads(self._run())
        assert payload["root_cause"]["kind"] == "crash"
        assert payload["trigger"]["detail"] == "watchdog saw it"


class TestChromeTraceWindow:
    def test_bundle_chrome_trace_validates(self):
        from repro.observability.tracer import Tracer

        tracer = Tracer()
        recorder = FlightRecorder()
        clock = SimClock()
        recorder.register_clock(clock, "n0")
        tracer.register_clock(clock, "n0")
        probe.install(tracer)
        try:
            for i in range(5):
                with probe.span(clock, "rpc.call", attrs={"i": i}):
                    clock.advance(1.0)
            pipeline = IncidentPipeline(recorder, window=2.0)
            bundle = pipeline.trigger("alert", "p99", clock=clock)
        finally:
            probe.remove(tracer)
        doc = bundle.chrome_trace
        assert doc is not None
        # Referentially closed and schema-valid, even though the window
        # cut away the earlier spans.
        events = validate_chrome_trace(doc)
        assert 0 < events < 5
        json.dumps(doc)

    def test_no_tracer_means_no_chrome_trace(self):
        pipeline, recorder, clock = make_pipeline()
        bundle = pipeline.trigger("alert", "p99", clock=clock)
        assert bundle.chrome_trace is None


class TestServingIntegration:
    def _run_plane(self, seed):
        from repro.serving.service import ServingPlane

        plane = ServingPlane(
            seed=seed, n_nodes=3, initial_replicas=2, monitoring=True
        )
        plane.platform.scheduler.schedule(
            1.0, lambda: plane.pool.crash("replica-0"), label="chaos:crash"
        )
        stats = plane.run_traffic(clients=4, duration=2.0, deadline_budget=0.5)
        plane.check_invariants()
        bundles = [b.dump() for b in plane.monitoring.bundles]
        session_stats = plane.monitoring.stats
        events = session_stats.flight_events
        plane.close()
        return stats, bundles, events

    def test_replica_crash_produces_one_bundle_naming_the_crash(self):
        _, bundles, flight_events = self._run_plane(21)
        crash_bundles = [
            json.loads(b)
            for b in bundles
            if json.loads(b)["trigger"]["kind"] == "replica.crash"
        ]
        assert len(crash_bundles) == 1
        payload = crash_bundles[0]
        assert payload["trigger"]["name"] == "replica-0"
        assert payload["root_cause"]["kind"] == "crash"
        assert "replica-0" in payload["root_cause"]["summary"]
        assert flight_events > 0
        # The platform-wide metric snapshot rode along.
        assert payload["metrics"] is not None

    def test_monitored_plane_is_deterministic(self):
        first = self._run_plane(21)
        second = self._run_plane(21)
        assert first[0].ok == second[0].ok
        assert first[1] == second[1]  # byte-identical bundles

    def test_monitoring_does_not_perturb_the_simulation(self):
        from repro.serving.service import ServingPlane

        def run(monitoring):
            plane = ServingPlane(
                seed=33, n_nodes=3, initial_replicas=2, monitoring=monitoring
            )
            stats = plane.run_traffic(clients=4, duration=2.0)
            plane.check_invariants()
            trace = plane.trace_bytes()
            time = plane.time
            plane.close()
            return stats.ok, trace, time

        assert run(False) == run(True)
