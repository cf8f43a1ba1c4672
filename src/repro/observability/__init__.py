"""Continuous telemetry for the simulated secureTF platform.

Coupled pieces (see DESIGN.md §5f and §5k):

- :mod:`.tracer` — distributed span tracing with RPC context
  propagation and compact per-layer charges;
- :mod:`.metrics` — ring-buffer time series (TEEMon-style sampler) and
  weighted histograms with percentile queries;
- :mod:`.profiler` / :mod:`.exporters` — exclusive per-layer profiles
  that sum to each node's elapsed simulated time, a text flame report,
  and Chrome trace_event / Prometheus / JSON exporters;
- :mod:`.slo` — declarative SLOs with multi-window burn-rate
  alerting, evaluated as recurring event-heap activities;
- :mod:`.flight` — the black-box flight recorder (bounded per-node
  event rings at near-zero cost);
- :mod:`.incident` — trigger-driven deterministic incident bundles
  with cross-node causal timelines and root-cause summaries.

Recording is off unless a recorder is installed in
:mod:`repro._sim.probe`; instrumented hot paths check those single
slots and do nothing else when they are empty.
"""

from repro.observability.exporters import (
    dump_json,
    to_chrome_trace,
    to_json,
    to_prometheus,
    validate_chrome_trace,
)
from repro.observability.metrics import (
    Histogram,
    MetricsSampler,
    Series,
    WindowedHistogram,
    flatten_metrics,
)
from repro.observability.flight import CONTROL_RING, FlightEvent, FlightRecorder
from repro.observability.incident import (
    IncidentBundle,
    IncidentPipeline,
    bundle_from_scenario,
    find_root_cause,
)
from repro.observability.slo import (
    Alert,
    MonitoringSession,
    MonitoringStats,
    SloMonitor,
    SloSpec,
    cas_slos,
    fraction_probe,
    rate_probe,
    serving_slos,
    training_slos,
)
from repro.observability.plane import Telemetry
from repro.observability.profiler import (
    NodeProfile,
    build_flame,
    flame_report,
    format_profile,
    profile,
)
from repro.observability.tracer import (
    LAYERS,
    Span,
    Tracer,
    activate,
    active_tracer,
    deactivate,
)

__all__ = [
    "Alert",
    "CONTROL_RING",
    "FlightEvent",
    "FlightRecorder",
    "Histogram",
    "IncidentBundle",
    "IncidentPipeline",
    "LAYERS",
    "MetricsSampler",
    "MonitoringSession",
    "MonitoringStats",
    "NodeProfile",
    "Series",
    "SloMonitor",
    "SloSpec",
    "Span",
    "Telemetry",
    "Tracer",
    "WindowedHistogram",
    "activate",
    "active_tracer",
    "build_flame",
    "bundle_from_scenario",
    "cas_slos",
    "deactivate",
    "dump_json",
    "find_root_cause",
    "flame_report",
    "flatten_metrics",
    "format_profile",
    "fraction_probe",
    "profile",
    "rate_probe",
    "serving_slos",
    "to_chrome_trace",
    "to_json",
    "to_prometheus",
    "training_slos",
    "validate_chrome_trace",
]
