"""Telemetry exporters: Chrome trace_event JSON, Prometheus text, JSON.

Three standard wire formats so the simulated telemetry plugs into real
tooling:

- :func:`to_chrome_trace` emits the `trace_event` format (complete "X"
  events in microseconds, one pid per node) that chrome://tracing and
  Perfetto load directly;
- :func:`to_prometheus` renders a counter snapshot (and histogram
  summaries) in the text exposition format TEEMon's Prometheus stack
  scrapes;
- :func:`to_json` bundles spans + profile + histograms as plain JSON
  for ad-hoc analysis.

:func:`validate_chrome_trace` is the schema check the tier-2 perf smoke
asserts against: required keys, types, and parent/trace referential
integrity.
"""

from __future__ import annotations

import dataclasses
import json
import re
from typing import Dict, List, Optional

from repro.observability.metrics import Histogram, flatten_metrics
from repro.observability.profiler import profile
from repro.observability.tracer import Tracer
from repro.runtime.stats_registry import COUNTER, kind_of

_US = 1e6  # trace_event timestamps are microseconds


def to_chrome_trace(tracer: Tracer, spans=None) -> Dict[str, object]:
    """The run's spans as a Chrome `trace_event` JSON object.

    ``spans`` restricts the export to a subset (the incident pipeline's
    last-N-seconds window); parent links pointing outside the subset are
    dropped so the windowed document stays referentially closed.
    """
    if spans is None:
        spans = tracer.spans
    exported_ids = {span.span_id for span in spans}
    pids: Dict[object, int] = {}
    events: List[Dict[str, object]] = []
    for index, clock in enumerate(tracer.clocks()):
        pids[clock] = index + 1
        events.append(
            {
                "name": "process_name",
                "ph": "M",
                "pid": index + 1,
                "tid": 0,
                "args": {"name": tracer.label_of(clock)},
            }
        )
    for span in spans:
        pid = pids.get(span.clock)
        if pid is None:
            pid = len(pids) + 1
            pids[span.clock] = pid
        end = span.end if span.end is not None else span.clock.now
        args: Dict[str, object] = {
            "trace_id": span.trace_id,
            "span_id": span.span_id,
        }
        if span.parent_id is not None and span.parent_id in exported_ids:
            args["parent_id"] = span.parent_id
        for key, value in span.attrs.items():
            args[str(key)] = value if isinstance(value, (int, float, bool)) else str(value)
        events.append(
            {
                "name": span.name,
                "cat": span.category or "span",
                "ph": "X",
                "ts": span.start * _US,
                "dur": (end - span.start) * _US,
                "pid": pid,
                "tid": 1,
                "args": args,
            }
        )
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {"source": "repro.observability", "clock": "simulated"},
    }


def validate_chrome_trace(doc: Dict[str, object]) -> int:
    """Validate ``doc`` against the trace_event schema; returns the
    number of duration events.  Raises :class:`ValueError` on the first
    violation."""
    if not isinstance(doc, dict) or "traceEvents" not in doc:
        raise ValueError("chrome trace must be an object with 'traceEvents'")
    events = doc["traceEvents"]
    if not isinstance(events, list):
        raise ValueError("'traceEvents' must be a list")
    span_ids = set()
    duration_events = 0
    for event in events:
        if not isinstance(event, dict):
            raise ValueError(f"event is not an object: {event!r}")
        for key in ("name", "ph", "pid"):
            if key not in event:
                raise ValueError(f"event missing required key {key!r}: {event!r}")
        if not isinstance(event["name"], str):
            raise ValueError(f"event name must be a string: {event!r}")
        ph = event["ph"]
        if ph not in ("X", "B", "E", "M", "i", "C"):
            raise ValueError(f"unknown event phase {ph!r}")
        if ph == "X":
            for key in ("ts", "dur", "tid"):
                if key not in event:
                    raise ValueError(f"X event missing {key!r}: {event!r}")
                if not isinstance(event[key], (int, float)):
                    raise ValueError(f"X event {key!r} must be numeric: {event!r}")
            if event["dur"] < 0:
                raise ValueError(f"negative duration: {event!r}")
            args = event.get("args", {})
            if "span_id" in args:
                span_ids.add(args["span_id"])
            duration_events += 1
    # Referential integrity: a local parent must exist in the trace
    # (remote parents always ride the envelope and are exported too).
    for event in events:
        if event.get("ph") != "X":
            continue
        parent = event.get("args", {}).get("parent_id")
        if parent is not None and parent not in span_ids:
            raise ValueError(f"dangling parent_id {parent!r}")
    return duration_events


_PROM_NAME = re.compile(r"[^a-zA-Z0-9_]")


def _prom_name(path: str) -> str:
    return "securetf_" + _PROM_NAME.sub("_", path)


def _prom_types(metrics, prefix: str = "") -> Dict[str, str]:
    """Prometheus type per flattened key of a metrics dataclass, from
    the kind its field declares: cumulative counters are ``counter``,
    gauges and high-water marks ``gauge``.  A dict's keys share their
    field's kind; per-node fields are keyed ``nodes.<field>``."""
    types: Dict[str, str] = {}
    for f in dataclasses.fields(metrics):
        value, path = getattr(metrics, f.name), prefix + f.name
        kind = "counter" if kind_of(f) == COUNTER else "gauge"
        if dataclasses.is_dataclass(value):
            types.update(_prom_types(value, path + "."))
        elif isinstance(value, list):
            for node in value:
                types.update(_prom_types(node, path + "."))
        elif isinstance(value, dict):
            types.update((f"{path}.{key}", kind) for key in value)
        else:
            types[path] = kind
    return types


def to_prometheus(
    metrics, histograms: Optional[Dict[str, Histogram]] = None
) -> str:
    """A :class:`~repro.core.monitoring.PlatformMetrics` snapshot (plus
    optional histograms) in Prometheus text exposition format."""
    lines: List[str] = []
    flat = flatten_metrics(metrics.to_json())
    types = _prom_types(metrics)
    nodes: Dict[str, Dict[str, float]] = {}
    for path, value in sorted(flat.items()):
        if path.startswith("nodes."):
            _, node_id, field = path.split(".", 2)
            nodes.setdefault(field, {})[node_id] = value
            continue
        name = _prom_name(path)
        lines.append(f"# TYPE {name} {types[path]}")
        lines.append(f"{name} {value:g}")
    for field in sorted(nodes):
        name = _prom_name(f"node.{field}")
        lines.append(f"# TYPE {name} {types['nodes.' + field]}")
        for node_id in sorted(nodes[field]):
            lines.append(f'{name}{{node="{node_id}"}} {nodes[field][node_id]:g}')
    for hist_name in sorted(histograms or {}):
        hist = histograms[hist_name]
        name = _prom_name(hist_name)
        lines.append(f"# TYPE {name} summary")
        for q in (0.5, 0.95, 0.99):
            lines.append(
                f'{name}{{quantile="{q}"}} {hist.percentile(q * 100):g}'
            )
        lines.append(f"{name}_sum {hist.sum:g}")
        lines.append(f"{name}_count {hist.count}")
    return "\n".join(lines) + "\n"


def to_json(tracer: Tracer, metrics=None) -> Dict[str, object]:
    """Spans, per-node profile, and histograms as one JSON-ready dict."""
    profiles = profile(tracer)
    return {
        "spans": [
            {
                "name": span.name,
                "trace_id": span.trace_id,
                "span_id": span.span_id,
                "parent_id": span.parent_id,
                "node": tracer.label_of(span.clock),
                "start": span.start,
                "end": span.end if span.end is not None else span.clock.now,
                "category": span.category,
                "attrs": {str(k): str(v) for k, v in span.attrs.items()},
            }
            for span in tracer.spans
        ],
        "dropped_spans": tracer.dropped_spans,
        "profile": {
            label: {"elapsed": p.elapsed, "layers": dict(p.layers)}
            for label, p in profiles.items()
        },
        "histograms": {
            name: hist.summary() for name, hist in sorted(tracer.histograms.items())
        },
        "metrics": metrics.to_json() if metrics is not None else None,
    }


def dump_json(payload: Dict[str, object]) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"
