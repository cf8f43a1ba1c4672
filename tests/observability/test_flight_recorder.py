"""Flight recorder: ring semantics, cross-node timelines, zero-cost off."""

from __future__ import annotations

import pytest

from repro._sim import probe
from repro._sim.clock import SimClock
from repro.observability.flight import CONTROL_RING, FlightEvent, FlightRecorder

pytestmark = pytest.mark.monitoring


class TestRings:
    def test_capacity_overwrites_oldest(self):
        recorder = FlightRecorder(capacity=4)
        clock = SimClock()
        recorder.register_clock(clock, "n0")
        for i in range(10):
            clock.advance(1.0)
            recorder.record(clock, "rpc", f"call-{i}")
        events = recorder.freeze()["n0"]
        assert [e.name for e in events] == [f"call-{i}" for i in range(6, 10)]
        assert recorder.events_recorded == 10

    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(ValueError):
            FlightRecorder(capacity=0)

    def test_unregistered_clock_gets_auto_label(self):
        recorder = FlightRecorder()
        clock = SimClock()
        recorder.record(clock, "rpc", "x")
        assert recorder.label_of(clock) == "clock-0"

    def test_clockless_events_land_in_control_ring_at_fleet_time(self):
        recorder = FlightRecorder()
        clock = SimClock()
        recorder.register_clock(clock, "n0")
        clock.advance(3.0)
        recorder.record(None, "fence", "router", "stale epoch")
        frozen = recorder.freeze()
        assert [e.name for e in frozen[CONTROL_RING]] == ["router"]
        assert frozen[CONTROL_RING][0].time == 3.0
        assert frozen[CONTROL_RING][0].node == CONTROL_RING


class TestTimeline:
    def test_merge_is_time_then_seq_ordered(self):
        recorder = FlightRecorder()
        a, b = SimClock(), SimClock()
        recorder.register_clock(a, "a")
        recorder.register_clock(b, "b")
        a.advance(2.0)
        recorder.record(a, "rpc", "late")
        b.advance(1.0)
        recorder.record(b, "rpc", "early")
        recorder.record(a, "rpc", "late-2")
        names = [e.name for e in recorder.timeline()]
        assert names == ["early", "late", "late-2"]

    def test_window_restricts_to_last_n_seconds(self):
        recorder = FlightRecorder()
        clock = SimClock()
        recorder.register_clock(clock, "n0")
        for i in range(10):
            clock.advance(1.0)
            recorder.record(clock, "rpc", f"e{i}")
        windowed = recorder.timeline(until=10.0, window=3.0)
        assert [e.name for e in windowed] == ["e6", "e7", "e8", "e9"]

    def test_line_encoding_is_canonical(self):
        event = FlightEvent(1.5, 7, "n0", "fence", "router", "stale")
        assert event.line() == "7 1.500000 n0 fence router stale"
        bare = FlightEvent(0.0, 0, "n1", "span", "rpc.call", "")
        assert bare.line() == "0 0.000000 n1 span rpc.call"


class TestFreeze:
    def test_frozen_recorder_drops_events(self):
        recorder = FlightRecorder()
        clock = SimClock()
        recorder.register_clock(clock, "n0")
        recorder.record(clock, "rpc", "before")
        recorder.freeze()
        recorder.record(clock, "rpc", "during")
        recorder.unfreeze()
        recorder.record(clock, "rpc", "after")
        names = [e.name for e in recorder.timeline()]
        assert names == ["before", "after"]


class TestProbeSlot:
    def test_flight_helper_is_noop_without_recorder(self):
        assert probe.SINK is None
        probe.flight(None, "rpc", "nobody-listening")  # must not raise

    def test_flight_helper_routes_to_installed_recorder(self):
        recorder = FlightRecorder()
        probe.install(recorder)
        try:
            clock = SimClock()
            recorder.register_clock(clock, "n0")
            probe.flight(clock, "retry", "replica-0", "attempt=2")
            assert recorder.events_recorded == 1
            assert recorder.timeline()[0].kind == "retry"
        finally:
            probe.remove(recorder)

    def test_recording_never_advances_clocks(self):
        recorder = FlightRecorder()
        clock = SimClock()
        recorder.register_clock(clock, "n0")
        clock.advance(1.0)
        for _ in range(100):
            recorder.record(clock, "rpc", "x")
        assert clock.now == 1.0


class TestTracerForwarding:
    def test_span_end_and_charge_forward_into_rings(self):
        from repro.observability.tracer import Tracer

        recorder = FlightRecorder()
        tracer = Tracer()
        probe.install(recorder)
        probe.install(tracer)
        try:
            clock = SimClock()
            recorder.register_clock(clock, "n0")
            with probe.span(clock, "rpc.call"):
                clock.advance(0.5)
            probe.SINK.charge(clock, "crypto", 0.25)
            kinds = [e.kind for e in recorder.timeline()]
            assert kinds == ["span", "charge"]
            span_event = recorder.timeline()[0]
            assert span_event.name == "rpc.call"
            assert "T1/S1" in span_event.detail
        finally:
            probe.remove(tracer)
            probe.remove(recorder)
