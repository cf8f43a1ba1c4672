"""Tracer unit tests: spans, propagation contexts, charges, histograms."""

from __future__ import annotations

import pytest

from repro._sim import SimClock, probe
from repro.observability import Series, Tracer


def test_span_nesting_same_clock():
    tracer = Tracer()
    clock = SimClock()
    outer = tracer.start_span(clock, "outer")
    clock.advance(1.0)
    inner = tracer.start_span(clock, "inner")
    clock.advance(0.5)
    tracer.end_span(inner)
    tracer.end_span(outer)

    assert inner.trace_id == outer.trace_id
    assert inner.parent_id == outer.span_id
    assert outer.parent_id is None
    assert inner.duration == pytest.approx(0.5)
    assert outer.duration == pytest.approx(1.5)


def test_span_ids_are_deterministic_counters():
    tracer = Tracer()
    clock = SimClock()
    a = tracer.start_span(clock, "a")
    tracer.end_span(a)
    b = tracer.start_span(clock, "b")
    tracer.end_span(b)
    assert (a.trace_id, a.span_id) == ("T1", "S1")
    assert (b.trace_id, b.span_id) == ("T2", "S2")


def test_remote_parent_context_propagates_trace_id():
    tracer = Tracer()
    client_clock, server_clock = SimClock(), SimClock()
    call = tracer.start_span(client_clock, "rpc.call")
    context = tracer.current_context(client_clock)
    assert context == {"t": call.trace_id, "s": call.span_id}

    handler = tracer.start_span(server_clock, "rpc.server", parent_context=context)
    assert handler.trace_id == call.trace_id
    assert handler.parent_id == call.span_id
    assert handler.remote_parent
    tracer.end_span(handler)
    tracer.end_span(call)


def test_current_context_is_none_outside_spans():
    tracer = Tracer()
    clock = SimClock()
    assert tracer.current_context(clock) is None
    span = tracer.start_span(clock, "s")
    tracer.end_span(span)
    assert tracer.current_context(clock) is None


def test_end_span_pops_through_abandoned_children():
    tracer = Tracer()
    clock = SimClock()
    outer = tracer.start_span(clock, "outer")
    tracer.start_span(clock, "leaked-child")
    tracer.end_span(outer)  # exception unwound past the child's end
    assert tracer.current_context(clock) is None


def test_span_cap_counts_drops():
    tracer = Tracer(max_spans=2)
    clock = SimClock()
    for _ in range(5):
        tracer.end_span(tracer.start_span(clock, "s"))
    assert len(tracer.spans) == 2
    assert tracer.dropped_spans == 3


def test_charges_accumulate_layer_totals_and_windows():
    tracer = Tracer()
    clock = SimClock()
    clock.advance(1.0)
    tracer.charge(clock, "crypto", 1.0)
    clock.advance(2.0)
    tracer.charge(clock, "epc_faults", 2.0)
    clock.advance(0.5)
    tracer.charge(clock, "crypto", 0.5)

    record = tracer.clock_record(clock)
    assert record.layer_totals == pytest.approx({"crypto": 1.5, "epc_faults": 2.0})
    # The intervals the flame report windows by span: starts and the
    # running sum of durations.
    assert record.charge_starts == pytest.approx([0.0, 1.0, 3.0])
    assert record.charge_cum == pytest.approx([1.0, 3.0, 3.5])
    assert record.charge_layers == ["crypto", "epc_faults", "crypto"]


def test_charge_each_leaves_the_ledger_of_one_charge_per_item():
    each, count = 2.56e-4, 1000
    one_by_one, batched = Tracer(), Tracer()
    clocks = SimClock(3.0), SimClock(3.0)
    for _ in range(count):
        clocks[0].advance(each)
        one_by_one.charge(clocks[0], "epc_faults", each, histogram="epc.fault_service")
    clocks[1].advance_each(each, count)
    batched.charge_each(
        clocks[1], "epc_faults", each, count, histogram="epc.fault_service"
    )
    a, b = one_by_one.clock_record(clocks[0]), batched.clock_record(clocks[1])
    assert b.layer_totals == a.layer_totals
    assert b.charge_cum == a.charge_cum[-1:] and len(b.charge_starts) == 1
    first, second = (t.histograms["epc.fault_service"] for t in (one_by_one, batched))
    assert (second.count, second.sum) == (first.count, first.sum)
    assert second.percentile(50) == first.percentile(50) == each
    assert second.sum != each * count  # folded one item at a time, not multiplied


def test_zero_and_negative_charges_ignored():
    tracer = Tracer()
    clock = SimClock()
    tracer.charge(clock, "crypto", 0.0)
    tracer.charge(clock, "crypto", -1.0)
    assert tracer.clock_record(clock).layer_totals == {}


def test_charge_histogram_records_per_item_latency():
    tracer = Tracer()
    clock = SimClock()
    clock.advance(0.8)
    tracer.charge(clock, "crypto", 0.8, count=4, histogram="fs.chunk_crypto")
    hist = tracer.histograms["fs.chunk_crypto"]
    assert hist.count == 4
    assert hist.mean == pytest.approx(0.2)


def test_rpc_span_duration_feeds_latency_histogram():
    tracer = Tracer()
    clock = SimClock()
    span = tracer.start_span(clock, "rpc.call")
    clock.advance(0.25)
    tracer.end_span(span)
    assert tracer.histograms["rpc.latency"].mean == pytest.approx(0.25)


def test_register_clock_first_label_wins():
    tracer = Tracer()
    clock = SimClock()
    tracer.register_clock(clock, "node-0")
    tracer.register_clock(clock, "container-on-node-0")
    assert tracer.label_of(clock) == "node-0"


def test_probe_span_is_noop_without_recorder():
    assert probe.SINK is None
    clock = SimClock()
    with probe.span(clock, "anything", attrs={"k": "v"}):
        pass  # must not raise, must not advance, must record nothing
    assert clock.now == 0.0


def test_probe_span_records_when_active():
    tracer = Tracer()
    probe.install(tracer)
    clock = SimClock()
    with probe.span(clock, "work") as span:
        clock.advance(1.0)
    assert span.duration == pytest.approx(1.0)
    assert tracer.spans == [span]


def test_series_ring_buffer_evicts_oldest():
    series = Series("s", capacity=3)
    for i in range(5):
        series.append(float(i), float(i * 10))
    assert series.total_appended == 5
    assert series.points() == [(2.0, 20.0), (3.0, 30.0), (4.0, 40.0)]
    assert series.values() == [20.0, 30.0, 40.0]
    assert series.latest() == (4.0, 40.0)


def test_histogram_percentiles_are_weighted():
    from repro.observability import Histogram

    hist = Histogram("h")
    hist.observe(1.0, count=98)
    hist.observe(100.0, count=2)
    assert hist.percentile(50) == 1.0
    assert hist.percentile(99) == 100.0
    summary = hist.summary()
    assert summary["count"] == 100.0
    assert summary["p50"] == 1.0
    assert hist.share_within(0.5) == 0.0
    assert hist.share_within(1.0) == 0.98  # the bound itself is inside
    assert hist.share_within(100.0) == 1.0
    assert Histogram("empty").share_within(1.0) == 0.0
