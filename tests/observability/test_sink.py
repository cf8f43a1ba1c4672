"""The one telemetry sink: consumers installed and removed by identity,
a fan-out only while two or more are in, sessions closing in any order."""

from __future__ import annotations

import pytest

from repro._sim import probe
from repro._sim.clock import SimClock
from repro._sim.scheduler import Scheduler
from repro.core import SecureTFPlatform
from repro.core.platform import PlatformConfig
from repro.observability import Telemetry
from repro.observability.flight import FlightRecorder
from repro.observability.incident import IncidentPipeline
from repro.observability.slo import MonitoringSession
from repro.observability.tracer import Tracer, active_tracer


@pytest.fixture(scope="module")
def platform():
    return SecureTFPlatform(PlatformConfig(n_nodes=2, seed=5))


def test_nothing_installed_means_no_sink():
    assert probe.SINK is None and probe.installed() == ()


def test_a_lone_consumer_is_the_sink_and_a_fan_out_exists_only_for_two():
    tracer, recorder = Tracer(), FlightRecorder()
    probe.install(tracer)
    assert probe.SINK is tracer
    probe.install(tracer)  # already in: nothing changes
    assert probe.installed() == (tracer,)
    probe.install(recorder)
    assert isinstance(probe.SINK, probe.FanOut)
    probe.remove(tracer)
    assert probe.SINK is recorder
    probe.remove(tracer)  # not in: nothing changes
    probe.remove(recorder)
    assert probe.SINK is None and probe.installed() == ()


def test_the_newest_tracer_owns_spans_and_charges_until_it_is_removed():
    older, newer, recorder = Tracer(), Tracer(), FlightRecorder()
    clock = SimClock()
    for consumer in (older, recorder, newer):
        probe.install(consumer)
    assert active_tracer() is newer
    clock.advance(1.0)
    probe.SINK.charge(clock, "crypto", 1.0)
    with probe.span(clock, "rpc.call"):
        clock.advance(0.5)
    probe.SINK.charge_each(clock, "epc_faults", 0.25, 2)
    assert newer.clock_record(clock).layer_totals == {"crypto": 1.0, "epc_faults": 0.5}
    assert older.clock_record(clock).layer_totals == {} and older.spans == []
    # The recorder hears of the owner's span and of each charge call once.
    assert [(e.kind, e.name) for e in recorder.timeline()] == [
        ("charge", "crypto"), ("span", "rpc.call"), ("charge", "epc_faults")
    ]
    probe.remove(newer)
    assert active_tracer() is older
    probe.SINK.charge(clock, "crypto", 0.125)
    assert older.clock_record(clock).layer_totals == {"crypto": 0.125}


def test_a_recorder_without_a_tracer_hears_no_spans_or_charges():
    recorder = FlightRecorder()
    clock = SimClock()
    probe.install(recorder)
    probe.install(IncidentPipeline(recorder))  # a fan-out with no owner
    probe.SINK.charge(clock, "crypto", 1.0)
    with probe.span(clock, "rpc.call") as span:
        assert span is None
    probe.flight(clock, "retry", "replica-0")
    assert [e.kind for e in recorder.timeline()] == ["retry"]


@pytest.mark.parametrize("first_closed", [0, 1])
def test_telemetry_sessions_close_in_either_order(platform, first_closed):
    sessions = [Telemetry(platform), Telemetry(platform)]
    sessions[first_closed].close()
    assert probe.installed() == (sessions[1 - first_closed].tracer,)
    sessions[1 - first_closed].close()
    assert probe.SINK is None and probe.installed() == ()


@pytest.mark.parametrize("first_closed", [0, 1])
def test_monitoring_sessions_close_in_either_order(first_closed):
    sessions = [MonitoringSession(Scheduler(), SimClock()) for _ in range(2)]
    sessions[first_closed].close()
    left = sessions[1 - first_closed]
    assert probe.installed() == (left.recorder, left.pipeline)
    left.close()
    assert probe.SINK is None and probe.installed() == ()


@pytest.mark.parametrize("first_closed", ["telemetry", "monitoring"])
def test_telemetry_and_monitoring_close_in_either_order(platform, first_closed):
    sessions = {
        "monitoring": MonitoringSession(Scheduler(), SimClock()),
        "telemetry": Telemetry(platform),
    }
    sessions[first_closed].close()
    for session in sessions.values():
        session.close()
    assert probe.SINK is None and probe.installed() == ()
