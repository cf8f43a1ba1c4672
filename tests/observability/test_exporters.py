"""Exporter tests: Chrome trace_event, Prometheus text, JSON bundles."""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from typing import List

import pytest

from repro._sim import SimClock
from repro.observability import (
    Histogram,
    Tracer,
    dump_json,
    flatten_metrics,
    to_chrome_trace,
    to_json,
    to_prometheus,
    validate_chrome_trace,
)
from repro.runtime.stats_registry import gauge


def _traced_pair() -> Tracer:
    """Two clocks, one cross-node call: rpc.call on client parents
    rpc.server on server via the propagated context."""
    tracer = Tracer()
    client, server = SimClock(), SimClock()
    tracer.register_clock(client, "client")
    tracer.register_clock(server, "server")
    call = tracer.start_span(client, "rpc.call", category="rpc", attrs={"dst": "server"})
    handler = tracer.start_span(
        server, "rpc.server", category="rpc", parent_context=call.context()
    )
    server.advance(0.25)
    tracer.end_span(handler)
    client.advance(0.4)
    tracer.end_span(call)
    return tracer


def test_chrome_trace_is_valid_and_json_serializable():
    tracer = _traced_pair()
    doc = to_chrome_trace(tracer)
    assert validate_chrome_trace(doc) == 2
    json.dumps(doc)  # must be pure JSON types
    meta = [e for e in doc["traceEvents"] if e["ph"] == "M"]
    assert {e["args"]["name"] for e in meta} == {"client", "server"}


def test_chrome_trace_cross_node_parenting():
    doc = to_chrome_trace(_traced_pair())
    spans = {e["args"]["span_id"]: e for e in doc["traceEvents"] if e["ph"] == "X"}
    server = next(e for e in spans.values() if e["name"] == "rpc.server")
    client = spans[server["args"]["parent_id"]]
    assert client["name"] == "rpc.call"
    assert client["pid"] != server["pid"]
    assert client["args"]["trace_id"] == server["args"]["trace_id"]


def test_chrome_trace_timestamps_are_microseconds():
    doc = to_chrome_trace(_traced_pair())
    call = next(
        e for e in doc["traceEvents"] if e.get("name") == "rpc.call"
    )
    assert call["ts"] == pytest.approx(0.0)
    assert call["dur"] == pytest.approx(0.4e6)


@pytest.mark.parametrize(
    "doc, message",
    [
        ({}, "traceEvents"),
        ({"traceEvents": 3}, "must be a list"),
        ({"traceEvents": [{"ph": "X", "pid": 1}]}, "missing required key"),
        (
            {"traceEvents": [{"name": "x", "ph": "Z", "pid": 1}]},
            "unknown event phase",
        ),
        (
            {
                "traceEvents": [
                    {"name": "x", "ph": "X", "pid": 1, "tid": 1, "ts": 0, "dur": -1}
                ]
            },
            "negative duration",
        ),
        (
            {
                "traceEvents": [
                    {
                        "name": "x",
                        "ph": "X",
                        "pid": 1,
                        "tid": 1,
                        "ts": 0,
                        "dur": 1,
                        "args": {"span_id": "S1", "parent_id": "S99"},
                    }
                ]
            },
            "dangling parent_id",
        ),
    ],
)
def test_validate_chrome_trace_rejects(doc, message):
    with pytest.raises(ValueError, match=message):
        validate_chrome_trace(doc)


@dataclass
class _Node:
    node_id: str
    enclave_calls: int


@dataclass
class _Snapshot:
    """Minimal stand-in for PlatformMetrics: fields with a kind, and
    the to_json surface."""

    network_messages: int
    queue_depth: int = gauge()
    nodes: List[_Node] = dataclasses.field(default_factory=list)

    def to_json(self):
        return dataclasses.asdict(self)


def test_flatten_metrics_handles_bools_nesting_and_node_lists():
    flat = flatten_metrics(
        {
            "audit_chain_ok": True,
            "network_messages": 7,
            "shields": {"fs_reads": 3},
            "nodes": [
                {"node_id": "node-0", "enclave_calls": 5},
                {"node_id": "node-1", "enclave_calls": 9},
            ],
        }
    )
    assert flat == {
        "audit_chain_ok": 1.0,
        "network_messages": 7.0,
        "shields.fs_reads": 3.0,
        "nodes.node-0.enclave_calls": 5.0,
        "nodes.node-1.enclave_calls": 9.0,
    }


def test_prometheus_text_format():
    metrics = _Snapshot(
        network_messages=12,
        queue_depth=3,
        nodes=[_Node("node-0", enclave_calls=5), _Node("node-1", enclave_calls=9)],
    )
    hist = Histogram("rpc.latency")
    hist.observe(0.002, count=10)
    text = to_prometheus(metrics, histograms={"rpc.latency": hist})
    assert "# TYPE securetf_network_messages counter" in text
    assert "securetf_network_messages 12" in text
    assert "# TYPE securetf_queue_depth gauge\nsecuretf_queue_depth 3" in text
    assert "# TYPE securetf_node_enclave_calls counter" in text
    assert 'securetf_node_enclave_calls{node="node-0"} 5' in text
    assert 'securetf_rpc_latency{quantile="0.5"} 0.002' in text
    assert "securetf_rpc_latency_count 10" in text
    assert text.endswith("\n")


def test_to_json_bundle_and_dump():
    tracer = _traced_pair()
    payload = to_json(tracer)
    assert {s["name"] for s in payload["spans"]} == {"rpc.call", "rpc.server"}
    assert payload["profile"]["client"]["elapsed"] == pytest.approx(0.4)
    assert "rpc.latency" in payload["histograms"]
    assert payload["metrics"] is None
    text = dump_json(payload)
    assert json.loads(text)["dropped_spans"] == 0
