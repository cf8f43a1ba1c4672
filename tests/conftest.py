"""Shared fixtures for the secureTF reproduction test suite."""

from __future__ import annotations

import pytest


def pytest_configure(config: pytest.Config) -> None:
    # Registered in pyproject.toml too; re-registering here keeps the
    # marker known when pytest is invoked from outside the repo root.
    config.addinivalue_line(
        "markers",
        "simcore: event-heap scheduler perf smokes (run via -m simcore)",
    )
    config.addinivalue_line(
        "markers",
        "serving: resilient serving-plane tests (select via -m serving; in tier 1)",
    )
    config.addinivalue_line(
        "markers",
        "chaos_campaign: exhaustive fault-schedule sweeps over the "
        "epoch-fenced control plane (tier 2; run via -m chaos_campaign)",
    )
    config.addinivalue_line(
        "markers",
        "sharded_training: heavy sharded-PS training sweeps "
        "(tier 2; run via -m sharded_training)",
    )

from repro._sim import DeterministicRng, SimClock, probe
from repro.enclave.attestation import ProvisioningAuthority
from repro.enclave.cost_model import DEFAULT_COST_MODEL, CostModel
from repro.enclave.sgx import SgxCpu


@pytest.fixture(scope="module", autouse=True)
def no_leaked_probe_sinks():
    """Fail a test module that leaves a telemetry consumer installed in
    ``probe.SINK``: every later module would run traced by it (its
    spans, charges and flight events going to a sink nobody reads), so
    a test that passes alone fails after it.  The leak is removed
    before the failure is reported."""
    before = probe.installed()
    yield
    leaked = [c for c in probe.installed() if not any(c is b for b in before)]
    for consumer in leaked:
        probe.remove(consumer)
    if leaked:
        names = ", ".join(type(consumer).__name__ for consumer in leaked)
        pytest.fail(f"test module left probe sinks installed: {names}")


@pytest.fixture
def clock() -> SimClock:
    return SimClock()


@pytest.fixture
def rng() -> DeterministicRng:
    return DeterministicRng(1234, label="tests")


@pytest.fixture
def cost_model() -> CostModel:
    return DEFAULT_COST_MODEL


@pytest.fixture
def provisioning(rng: DeterministicRng) -> ProvisioningAuthority:
    return ProvisioningAuthority(rng.child("intel"))


@pytest.fixture
def cpu(
    cost_model: CostModel,
    clock: SimClock,
    provisioning: ProvisioningAuthority,
    rng: DeterministicRng,
) -> SgxCpu:
    return SgxCpu("cpu-test", cost_model, clock, provisioning, rng.child("cpu"))


@pytest.fixture
def tiny_cost_model() -> CostModel:
    """A cost model with a tiny EPC so paging tests run fast."""
    return DEFAULT_COST_MODEL.with_overrides(epc_capacity_bytes=4 * 1024 * 1024)
