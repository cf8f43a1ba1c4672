"""Exporter round-trips: bundles validate, Prometheus parses back,
histogram/sampler edge cases."""

from __future__ import annotations

import json
import re

import random

import pytest

from repro._sim import probe
from repro.core import SecureTFPlatform
from repro.core.monitoring import collect_metrics
from repro.core.platform import PlatformConfig
from repro.observability.exporters import (
    to_prometheus,
    validate_chrome_trace,
)
from repro.observability.metrics import (
    Histogram,
    WindowedHistogram,
    flatten_metrics,
)
from repro.observability import Telemetry
from repro.observability.slo import MonitoringSession

pytestmark = pytest.mark.monitoring


@pytest.fixture()
def traced_platform():
    p = SecureTFPlatform(
        PlatformConfig(n_nodes=2, seed=11, tracing=True, metrics_interval=0.5)
    )
    yield p
    p.close_telemetry()


class TestBundleChromeTrace:
    def test_platform_bundle_trace_validates_and_serializes(
        self, traced_platform
    ):
        platform = traced_platform
        clock = platform.nodes[0].clock
        with MonitoringSession(
            platform.scheduler,
            clock,
            node_clocks=[(n.clock, n.node_id) for n in platform.nodes],
        ) as session:
            for i in range(4):
                with probe.span(clock, "rpc.call", attrs={"i": i}):
                    clock.advance(0.25)
            bundle = session.pipeline.trigger(
                "fence", "router", clock=clock, detail="stale epoch"
            )
        assert bundle is not None
        doc = bundle.chrome_trace
        assert doc is not None
        assert validate_chrome_trace(doc) > 0
        # The whole bundle must survive canonical JSON encoding.
        payload = json.loads(bundle.dump())
        assert validate_chrome_trace(payload["chrome_trace"]) > 0

    def test_bundle_carries_a_tracer_opened_after_the_session(self):
        """A serving plane builds its monitoring session in its
        constructor; a trace started afterwards must still reach its
        incident bundles."""
        platform = SecureTFPlatform(PlatformConfig(n_nodes=2, seed=11))
        clock = platform.nodes[0].clock
        with MonitoringSession(
            platform.scheduler,
            clock,
            node_clocks=[(n.clock, n.node_id) for n in platform.nodes],
        ) as session:
            with Telemetry(platform):
                for i in range(2):
                    with probe.span(clock, "rpc.call", attrs={"i": i}):
                        clock.advance(0.25)
                bundle = session.pipeline.trigger("crash", "r0", clock=clock)
            after = session.pipeline.trigger("crash", "r1", clock=clock)
        assert validate_chrome_trace(bundle.chrome_trace) == 2
        assert after.chrome_trace is None

    def test_windowed_trace_never_dangles_parents(self, traced_platform):
        platform = traced_platform
        clock = platform.nodes[0].clock
        with MonitoringSession(
            platform.scheduler,
            clock,
            incident_window=0.5,
            node_clocks=[(n.clock, n.node_id) for n in platform.nodes],
        ) as session:
            # Nested spans far in the past, then a lone recent span: the
            # window cuts the old parent away from nothing — the recent
            # span has no exported parent and must not reference one.
            with probe.span(clock, "outer"):
                with probe.span(clock, "inner"):
                    clock.advance(2.0)
            clock.advance(2.0)
            with probe.span(clock, "recent"):
                clock.advance(0.1)
            bundle = session.pipeline.trigger("crash", "r0", clock=clock)
        events = validate_chrome_trace(bundle.chrome_trace)
        names = [
            e["name"]
            for e in bundle.chrome_trace["traceEvents"]
            if e["ph"] == "X"
        ]
        assert names == ["recent"]
        assert events == 1


_PROM_LINE = re.compile(
    r"^(?P<name>[a-zA-Z_][a-zA-Z0-9_]*)"
    r"(?:\{(?P<labels>[^}]*)\})?"
    r" (?P<value>[^ ]+)$"
)


def parse_prometheus(text):
    """Parse the exposition text back into {(name, labels): float}."""
    parsed = {}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        match = _PROM_LINE.match(line)
        assert match is not None, f"unparseable exposition line: {line!r}"
        parsed[(match.group("name"), match.group("labels") or "")] = float(
            match.group("value")
        )
    return parsed


class TestPrometheusRoundTrip:
    def test_every_flat_leaf_survives_the_round_trip(self, traced_platform):
        platform = traced_platform
        platform.network.stats.messages += 7
        platform.nodes[0].clock.advance(1.25)
        metrics = collect_metrics(platform)
        parsed = parse_prometheus(to_prometheus(metrics))
        flat = flatten_metrics(metrics.to_json())
        for path, value in flat.items():
            if path.startswith("nodes."):
                _, node_id, field = path.split(".", 2)
                name = "securetf_node_" + re.sub(r"[^a-zA-Z0-9_]", "_", field)
                key = (name, f'node="{node_id}"')
            else:
                name = "securetf_" + re.sub(r"[^a-zA-Z0-9_]", "_", path)
                key = (name, "")
            assert key in parsed, f"{path} missing from exposition"
            assert parsed[key] == pytest.approx(value, rel=1e-5)

    def test_series_type_follows_the_kind_the_field_declares(
        self, traced_platform
    ):
        platform = traced_platform
        platform.network.stats.messages += 7
        metrics = collect_metrics(platform)
        text = to_prometheus(metrics)
        types = dict(
            line.split()[2:4] for line in text.splitlines() if line.startswith("# TYPE")
        )
        assert types["securetf_network_messages"] == "counter"
        assert types["securetf_recovery_retries"] == "counter"
        assert types["securetf_recovery_breakers_open"] == "gauge"
        assert types["securetf_cas_sessions"] == "gauge"
        assert types["securetf_syscalls_ring_occupancy_peak"] == "gauge"  # a peak
        assert types["securetf_sim_core_heap_peak"] == "gauge"
        # Per-node series: one TYPE line per field, shared by its nodes.
        assert types["securetf_node_epc_faults"] == "counter"
        assert types["securetf_node_epc_resident_granules"] == "gauge"
        # One TYPE line per series name, and the typed values are still
        # what flatten_metrics publishes.
        assert text.count("# TYPE") == len(types)
        parsed = parse_prometheus(text)
        flat = flatten_metrics(metrics.to_json())
        assert parsed[("securetf_network_messages", "")] == flat["network_messages"] == 7.0
        assert parsed[("securetf_node_epc_faults", 'node="node-0"')] == (
            flat["nodes.node-0.epc_faults"]
        )

    def test_histogram_summary_quantiles_parse_back(self):
        hist = Histogram("rpc.latency")
        for value in (0.01, 0.02, 0.03, 0.5):
            hist.observe(value)
        metrics = collect_metrics(
            SecureTFPlatform(PlatformConfig(n_nodes=1, seed=1))
        )
        parsed = parse_prometheus(
            to_prometheus(metrics, histograms={"rpc.latency": hist})
        )
        base = "securetf_rpc_latency"
        for q in ("0.5", "0.95", "0.99"):
            assert (base, f'quantile="{q}"') in parsed
        assert parsed[(base + "_sum", "")] == pytest.approx(hist.sum)
        assert parsed[(base + "_count", "")] == hist.count
        assert parsed[(base, 'quantile="0.99"')] == pytest.approx(
            hist.percentile(99)
        )

    def test_exposition_text_is_deterministic(self, traced_platform):
        metrics = collect_metrics(traced_platform)
        assert to_prometheus(metrics) == to_prometheus(metrics)


class TestWindowedHistogramEdges:
    def test_empty_window_reports_zero(self):
        hist = WindowedHistogram("h", window=4)
        assert hist.percentile(99) == 0.0
        assert hist.mean == 0.0

    def test_single_sample_is_every_percentile(self):
        hist = WindowedHistogram("h", window=4)
        hist.observe(0.25)
        for q in (0, 50, 99, 100):
            assert hist.percentile(q) == 0.25

    def test_window_forgets_old_spike(self):
        hist = WindowedHistogram("h", window=4)
        hist.observe(100.0)  # cold-start spike
        for _ in range(4):
            hist.observe(0.1)
        # The spike fell out of the window: current p99 reflects steady
        # state, while the lifetime counters still remember it.
        assert hist.percentile(99) == 0.1
        assert hist.count == 5
        assert hist.sum == pytest.approx(100.4)

    def test_percentile_bounds_are_validated(self):
        hist = WindowedHistogram("h")
        with pytest.raises(ValueError):
            hist.percentile(-1)
        with pytest.raises(ValueError):
            hist.percentile(101)


    @pytest.mark.parametrize("window", [1, 2, 7, 256])
    def test_sorted_mirror_matches_a_sorted_window(self, window):
        """The oracle is the rule the mirror replaced: sort the last
        ``window`` observations and index.  Values come from a small
        grid so most steps insert or evict a duplicate, and 10^4 steps
        wrap every window many times."""
        rng = random.Random(window)
        hist = WindowedHistogram("h", window=window)
        recent = []
        for step in range(10_000):
            value = rng.choice((0.0, -0.0, 0.125)) if step % 3 else rng.randrange(40) / 8.0
            hist.observe(value)
            recent = (recent + [value])[-window:]
            ordered = sorted(recent)
            q = rng.choice((0, 1, 50, 90, 99, 100, rng.uniform(0, 100)))
            rank = max(0, min(len(ordered) - 1, int(q / 100.0 * len(ordered) + 0.5) - 1))
            assert hist.percentile(q) == ordered[rank]
            assert len(hist) == len(recent)


class TestSamplerRealignment:
    def test_realigns_past_a_clock_jump_then_resumes(self, traced_platform):
        sampler = traced_platform.telemetry.sampler
        clock = traced_platform.nodes[0].clock
        clock.advance(7.3)  # jumps 14 interval boundaries at once
        assert sampler.samples_taken == 1
        # The next boundary is strictly after the jump landing point.
        clock.advance(0.1)
        assert sampler.samples_taken == 1
        clock.advance(0.5)
        assert sampler.samples_taken == 2

    def test_jump_sample_is_stamped_at_the_missed_boundary(
        self, traced_platform
    ):
        sampler = traced_platform.telemetry.sampler
        first_boundary = sampler._next_sample
        traced_platform.network.stats.messages += 5
        traced_platform.nodes[0].clock.advance(3.1)
        series = sampler.series["network_messages"]
        assert series.values() == [5.0]
        # Stamped at the first missed boundary, not the landing time.
        assert series.latest()[0] == pytest.approx(first_boundary)
        assert series.latest()[0] < traced_platform.nodes[0].clock.now
