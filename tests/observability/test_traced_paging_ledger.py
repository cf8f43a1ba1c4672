"""The traced paging ledger, pinned: a Lite model past a shrunken EPC.

A run of EPC faults the caller waits for is one charge to the telemetry
sink, folded one fault at a time, so the traced ledger is the one a
charge per fault left.  ``STATS`` and ``FAULTING_SCANS`` were read off
that per-fault build; the caller's wait off the build where a helper
thread pages the weight stream in ahead of one-thread compute (the walk
is the same walk, so the stats did not move).  ``NOW`` is that build's
less the 5.872 ms it took to copy the model's chunks into the enclave
before opening them (they are opened where they lie now), plus 0.186 ms
since the model's decrypt pays its MEE floor rather than the serial
charge it was capped at (3.6029732382674973 before), net of its replica
reads riding under it; nothing else moved.  Tracing must not move the
untraced numbers either.
"""

from __future__ import annotations

import pytest

from repro.core import InferenceService, SecureTFPlatform
from repro.core.inference import deploy_encrypted_model, service_runtime_config
from repro.core.platform import PlatformConfig
from repro.data import synthetic_cifar10
from repro.enclave.cost_model import DEFAULT_COST_MODEL
from repro.enclave.epc import EpcCache, EpcStats
from repro.enclave.sgx import SgxMode
from repro.models import pretrained_lite_model
from repro.observability import Telemetry
from repro.observability.tracer import Tracer
from repro.runtime import stats_registry

NOW = 3.6031589914674975
STATS = EpcStats(
    hits=5755,
    faults=9285,
    evictions=9221,
    cold_loads=773,
    fault_pages=148560,
    fault_time=1.7827199999998302,
    per_enclave_resident={1: 64},
)
#: ``_scan`` calls during the three classifies that fault at least once.
FAULTING_SCANS = 927
#: Faults the classifying thread waited for, and their service time;
#: a helper serviced the other ``STATS.faults - WAITED_FAULTS`` wholly
#: inside the compute.
WAITED_FAULTS = 7238
WAITED_FAULT_TIME = 1.3896959999998917


def _classify_three(traced, monkeypatch):
    """Three HW classifies of a Lite densenet through a 4 MiB EPC."""
    _, test = synthetic_cifar10(n_train=5, n_test=3, seed=3)
    model = DEFAULT_COST_MODEL.with_overrides(epc_capacity_bytes=4 * 1024 * 1024)
    platform = SecureTFPlatform(PlatformConfig(n_nodes=2, seed=3, cost_model=model))
    platform.register_session("infer", [service_runtime_config("svc", SgxMode.HW)])
    node = platform.node(1)
    path = deploy_encrypted_model(
        platform, "infer", node, pretrained_lite_model("densenet", seed=0)
    )
    service = InferenceService(
        platform, "infer", node, path, mode=SgxMode.HW, name="svc"
    )
    service.start()

    counts = {"charges": 0, "faulting_scans": 0, "helper_faults": 0}

    def counting(method):
        def wrapper(self, clock, layer, *args, **kwargs):
            counts["charges"] += layer == "epc_faults"  # Lite: no thrash surcharge
            return method(self, clock, layer, *args, **kwargs)

        return wrapper

    scan = EpcCache._scan

    def counting_scan(self, enclave_id, first, stop, wait=True):
        faults = scan(self, enclave_id, first, stop, wait)
        counts["faulting_scans"] += faults > 0
        counts["helper_faults"] += 0 if wait else faults
        return faults

    monkeypatch.setattr(EpcCache, "_scan", counting_scan)
    for name in ("charge", "charge_each"):
        if hasattr(Tracer, name):
            monkeypatch.setattr(Tracer, name, counting(getattr(Tracer, name)))
    telemetry = Telemetry(platform) if traced else None
    for image in test.images:
        service.classify(image)
    if telemetry is not None:
        telemetry.close()
    monkeypatch.undo()
    return node, telemetry, counts


@pytest.fixture(scope="module")
def runs():
    with pytest.MonkeyPatch.context() as monkeypatch:
        return {
            traced: _classify_three(traced, monkeypatch) for traced in (False, True)
        }


@pytest.mark.parametrize("traced", [False, True])
def test_clock_and_epc_stats_are_the_per_fault_builds(runs, traced):
    node, _, counts = runs[traced]
    assert node.clock.now == NOW
    assert node.cpu.epc.stats == STATS
    assert counts["faulting_scans"] == FAULTING_SCANS


def test_traced_ledger_is_bit_identical_to_a_charge_per_fault(runs):
    node, telemetry, counts = runs[True]
    profiles = telemetry.profile()
    assert profiles["node-1"].layers["epc_faults"] == WAITED_FAULT_TIME
    assert sum(p.layers["epc_faults"] for p in profiles.values()) == WAITED_FAULT_TIME
    residual = max(
        abs(p.total - p.elapsed) / p.elapsed for p in profiles.values() if p.elapsed
    )
    assert residual == 0.0
    histogram = telemetry.tracer.histograms["epc.fault_service"]
    assert histogram.count == STATS.faults - counts["helper_faults"] == WAITED_FAULTS
    assert histogram.sum == WAITED_FAULT_TIME
    hidden = sum(
        totals.hidden_fault_time
        for totals in stats_registry.stats_for("tensor", [node.clock])
    )
    assert WAITED_FAULT_TIME + hidden == pytest.approx(STATS.fault_time, rel=1e-12)


def test_a_scan_that_faults_is_charged_at_most_once(runs):
    _, _, counts = runs[True]
    assert 0 < counts["charges"] <= FAULTING_SCANS < STATS.faults
