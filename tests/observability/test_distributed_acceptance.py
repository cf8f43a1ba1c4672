"""Acceptance tests for the telemetry plane (ISSUE 5 bar).

- A traced distributed secure-training run exports a Chrome trace where
  a client RPC span on one node parents the server handler span on a
  *different* node under the same trace ID.
- The per-layer profile sums to each node's elapsed simulated time
  within 1%.
- With tracing disabled, the run is indistinguishable from one that
  never had the subsystem active: identical simulated time, identical
  deterministic counters.
"""

from __future__ import annotations

import pytest

from repro._sim import probe
from repro.core import SecureTFPlatform
from repro.core.monitoring import collect_metrics
from repro.core.platform import PlatformConfig
from repro.core.training import TrainingJob, TrainingJobConfig
from repro.data import synthetic_mnist
from repro.enclave.sgx import SgxMode
from repro.observability import validate_chrome_trace

BATCHES = 2
BATCH_SIZE = 32

#: Client-side spans that may parent an ``rpc.server`` span: a blocking
#: ``call``, or the trainer's per-shard fan-out (``begin_call`` sends
#: under the round's pull/push span — at one shard as at any N).
_CLIENT_SPANS = ("rpc.call", "train.pull", "train.push")

#: Counters excluded from run-identity comparison: the AEAD cache is
#: process-global (earlier tests warm it) and *_real_crypto_time is
#: wall-clock, not simulated.
_VOLATILE = ("aead_cache", "real_crypto")


def _train(tracing: bool):
    train, _ = synthetic_mnist(n_train=BATCHES * BATCH_SIZE, n_test=4, seed=9)
    batches = list(train.batches(BATCH_SIZE))
    platform = SecureTFPlatform(
        PlatformConfig(n_nodes=3, seed=9, tracing=tracing, metrics_interval=0.5)
    )
    job = TrainingJob(
        platform,
        TrainingJobConfig(
            session="acceptance-obs",
            n_workers=2,
            mode=SgxMode.HW,
            network_shield=True,
        ),
    )
    job.start()
    result = job.train(batches)
    job.stop()
    return platform, result


def _scrub(tree):
    """Drop volatile (process-global / wall-clock) leaves recursively."""
    if isinstance(tree, dict):
        return {
            k: _scrub(v)
            for k, v in tree.items()
            if not any(tag in k for tag in _VOLATILE)
        }
    if isinstance(tree, list):
        return [_scrub(item) for item in tree]
    return tree


@pytest.fixture(scope="module")
def traced_run():
    platform, result = _train(tracing=True)
    yield platform, result
    platform.close_telemetry()


def test_cross_node_span_parenting_in_chrome_trace(traced_run):
    platform, _ = traced_run
    doc = platform.telemetry.chrome_trace()
    assert validate_chrome_trace(doc) > 0
    spans = {
        e["args"]["span_id"]: e
        for e in doc["traceEvents"]
        if e["ph"] == "X" and "span_id" in e.get("args", {})
    }
    cross_node = 0
    for event in spans.values():
        if event["name"] != "rpc.server":
            continue
        parent = spans.get(event["args"].get("parent_id"))
        if parent is None:
            continue
        assert parent["name"] in _CLIENT_SPANS
        assert parent["args"]["trace_id"] == event["args"]["trace_id"]
        if parent["pid"] != event["pid"]:
            cross_node += 1
    # Workers and the PS live on different nodes: the training RPCs
    # must produce cross-node parent links under one trace ID.
    assert cross_node > 0


def test_profile_layers_sum_to_elapsed_within_one_percent(traced_run):
    platform, _ = traced_run
    profiles = platform.telemetry.profile()
    assert profiles  # every node clock was registered
    for node in profiles.values():
        assert node.elapsed > 0
        assert node.total == pytest.approx(node.elapsed, rel=0.01)


def test_traced_run_records_expected_surfaces(traced_run):
    platform, _ = traced_run
    telemetry = platform.telemetry
    names = {span.name for span in telemetry.tracer.spans}
    assert {"rpc.call", "rpc.server", "train.compute", "train.push"} <= names
    assert "attestation.provision" in names
    assert telemetry.tracer.histograms["rpc.latency"].count > 0
    assert telemetry.sampler.samples_taken > 0
    report = telemetry.profile_report()
    assert "epc_faults" in report and "node-0" in report


def test_disabled_tracing_is_byte_identical():
    # The module-scoped traced platform may still be installed in the
    # sink; clear it so these runs are genuinely uninstrumented
    # (_reset_probe restores it afterwards).
    for consumer in probe.installed():
        probe.remove(consumer)
    platform_a, result_a = _train(tracing=False)
    platform_b, result_b = _train(tracing=False)
    assert platform_a.telemetry is None
    assert result_a.wall_clock == result_b.wall_clock
    assert platform_a.time == platform_b.time
    assert _scrub(collect_metrics(platform_a).to_json()) == _scrub(
        collect_metrics(platform_b).to_json()
    )


def test_disabled_tracing_matches_traced_simulated_structure(traced_run):
    """The traced run reaches the same converged state: same number of
    training steps, same simulated-step structure (the only wire-level
    delta is the propagated trace context, microseconds overall)."""
    platform, result = traced_run
    for consumer in probe.installed():
        probe.remove(consumer)
    _, plain = _train(tracing=False)
    assert result.steps == plain.steps
    assert abs(result.wall_clock - plain.wall_clock) < 1e-3
