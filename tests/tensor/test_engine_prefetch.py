"""The helper rule: a run that leaves a core and an enclave thread idle
has the weight stream's EPC faults serviced one slice ahead of compute.

Who waits for a fault changes; the EPC walk does not.  The literals
below were read off the build before the rule (the serial charge), and
every run that leaves no core or no enclave thread idle must still
read them bit for bit.
"""

from __future__ import annotations

import pytest

from repro._sim import DeterministicRng, SimClock, probe
from repro.core.platform import PlatformConfig, SecureTFPlatform
from repro.enclave.attestation import ProvisioningAuthority
from repro.enclave.cost_model import DEFAULT_COST_MODEL as CM
from repro.enclave.epc import EpcCache
from repro.enclave.sgx import SgxCpu, SgxMode
from repro.errors import ConfigurationError
from repro.observability.metrics import MetricsSampler
from repro.observability.profiler import profile
from repro.observability.tracer import Tracer
from repro.runtime.scone import RuntimeConfig, SconeRuntime
from repro.runtime.vfs import VirtualFileSystem
from repro.tensor.engine import ExecutionEngine, LITE_PROFILE, RunStats

#: One Lite run whose weights overflow the EPC by 24 MiB.
BIG = RunStats(
    flops=2 * 10**9,
    ops=48,
    weight_bytes=CM.epc_capacity_bytes + 24 * 2**20,
    activation_bytes=4 * 2**20,
    max_op_bytes=10**5,
)

#: ``clock.now`` after two runs of ``BIG``, serial charge.
SERIAL_NOW = {
    "hw, threads == cores": 0.7048706680387444,
    "hw, threads == max_threads": 0.7966773582333365,
    "hw, one thread, one TCS": 0.9878914223999902,
    "sim, one thread": 0.38349028509090904,
    "native, one thread": 0.3780321396363636,
}
SERIAL_CASES = {
    "hw, threads == cores": (SgxMode.HW, CM.cores_per_node, 8),
    "hw, threads == max_threads": (SgxMode.HW, 2, 2),
    "hw, one thread, one TCS": (SgxMode.HW, 1, 1),
    "sim, one thread": (SgxMode.SIM, 1, 8),
    "native, one thread": (SgxMode.NATIVE, 1, 8),
}


def _runtime(mode, max_threads, cpu=None, policy="random"):
    if cpu is None:
        rng = DeterministicRng(1234, label="tests")
        cpu = SgxCpu(
            "cpu-test", CM, SimClock(), ProvisioningAuthority(rng.child("intel")),
            rng.child("cpu"),
        )
        if policy != cpu.epc.policy:
            cpu.epc = EpcCache(CM, cpu.clock, policy=policy)
    runtime = SconeRuntime(
        RuntimeConfig(
            name="prefetch-test",
            mode=mode,
            binary_size=LITE_PROFILE.binary_size,
            fs_shield_enabled=False,
            max_threads=max_threads,
        ),
        VirtualFileSystem(),
        CM,
        cpu.clock,
        cpu=None if mode is SgxMode.NATIVE else cpu,
        rng=DeterministicRng(0),
    )
    return runtime, cpu


def _run(mode, threads, max_threads, runs=2, policy="random"):
    runtime, cpu = _runtime(mode, max_threads, policy=policy)
    engine = ExecutionEngine(runtime, LITE_PROFILE, threads=threads)
    for _ in range(runs):
        engine.charge_run(BIG)
    return runtime, engine, cpu


@pytest.mark.parametrize("case", list(SERIAL_CASES))
def test_no_idle_core_or_thread_keeps_the_serial_charge(case):
    runtime, engine, cpu = _run(*SERIAL_CASES[case])
    assert runtime.clock.now == SERIAL_NOW[case]
    assert engine.totals.hidden_fault_time == 0.0


def test_one_thread_waits_for_compute_bandwidth_and_the_unhidden_faults():
    runtime, engine, cpu = _run(SgxMode.HW, 1, 8, runs=1)  # a warm EPC
    memory, clock = runtime.memory, runtime.clock
    walks, computes = [], []
    touch_window, run_parallel = memory.touch_window, runtime.scheduler.run_parallel

    def recording_touch(name, cursor, n_bytes, bandwidth=True, wait=True):
        faults, cursor = touch_window(name, cursor, n_bytes, bandwidth, wait)
        walks.append((name, wait, faults))
        return faults, cursor

    def recording_parallel(seconds, threads):
        computes.append(run_parallel(seconds, threads))
        return computes[-1]

    memory.touch_window = recording_touch
    runtime.scheduler.run_parallel = recording_parallel
    before, bandwidth_before = clock.now, memory.bandwidth_time
    hidden_before = engine.totals.hidden_fault_time
    engine.charge_run(BIG)

    slices = BIG.ops
    ahead = computes[0] / slices
    helped = [faults for name, wait, faults in walks if not wait]
    # The weight stream's walks past slice 0, and nothing else.
    assert [name for name, wait, _ in walks if not wait] == ["weights"] * (slices - 1)
    assert [wait for name, wait, _ in walks if name == "weights"][0]
    cost = memory.granule_fault_cost
    hidden = exposed = 0.0
    for faults in helped:
        if faults:
            hidden += min(faults * cost, ahead)
            exposed += max(faults * cost - ahead, 0.0)
    assert hidden > 0.0 and exposed > 0.0  # both sides of the cap occur
    assert engine.totals.hidden_fault_time - hidden_before == pytest.approx(
        hidden, rel=1e-12
    )
    waited = sum(faults for _, wait, faults in walks if wait)
    assert clock.now - before == pytest.approx(
        computes[0] + memory.bandwidth_time - bandwidth_before + waited * cost + exposed,
        rel=1e-12,
    )
    assert clock.now - before < computes[0] + memory.bandwidth_time - bandwidth_before + (
        (waited + sum(helped)) * cost
    )


@pytest.mark.parametrize("policy", ["random", "lru"])
def test_the_walk_is_the_same_walk_with_and_without_a_helper(policy):
    _, helped, with_helper = _run(SgxMode.HW, 1, 8, runs=3, policy=policy)
    _, serial, without = _run(SgxMode.HW, 1, 1, runs=3, policy=policy)
    assert helped.totals.hidden_fault_time > 0.0
    assert serial.totals.hidden_fault_time == 0.0
    assert with_helper.epc.stats == without.epc.stats
    assert with_helper.epc._rng.getstate() == without.epc._rng.getstate()
    assert with_helper.epc._slots == without.epc._slots
    assert with_helper.epc._resident == without.epc._resident
    assert list(with_helper.epc._lru) == list(without.epc._lru)
    assert helped.totals.epc_faults == serial.totals.epc_faults


def test_a_traced_run_files_the_callers_wait_under_epc_faults():
    runtime, cpu = _runtime(SgxMode.HW, 8)
    engine = ExecutionEngine(runtime, LITE_PROFILE)
    tracer = Tracer()
    probe.install(tracer)
    try:
        tracer.register_clock(runtime.clock, "engine")
        for _ in range(2):
            engine.charge_run(BIG)
    finally:
        probe.remove(tracer)
    node = profile(tracer)["engine"]
    wait = engine.totals.memory_time - runtime.memory.bandwidth_time
    assert node.layers["epc_faults"] == pytest.approx(wait, rel=1e-12)
    assert node.layers["epc_faults"] + engine.totals.hidden_fault_time == pytest.approx(
        cpu.epc.stats.fault_time, rel=1e-12
    )
    assert abs(node.total - node.elapsed) / node.elapsed == 0.0
    # Tracing moved nothing.
    _, _, untraced = _run(SgxMode.HW, 1, 8)
    assert runtime.clock.now == untraced.clock.now
    assert cpu.epc.stats == untraced.epc.stats


def test_a_clock_observer_still_sees_every_fault():
    platform = SecureTFPlatform(PlatformConfig(n_nodes=2, seed=3))
    node = platform.node(1)
    runtime, cpu = _runtime(SgxMode.HW, 8, cpu=node.cpu)
    engine = ExecutionEngine(runtime, LITE_PROFILE)
    faults_before = cpu.epc.stats.faults
    sampler = MetricsSampler(platform, interval=0.01)
    seen = []
    node.clock.subscribe(lambda old, new: seen.append(cpu.epc.stats.faults))
    for _ in range(2):
        engine.charge_run(BIG)
    sampler.sample()
    faults = cpu.epc.stats.faults - faults_before
    assert engine.totals.hidden_fault_time > 0.0
    assert sampler.samples_taken > 2
    key = f"nodes.{node.node_id}"
    assert sum(sampler.series[f"{key}.epc_faults"].values()) == faults
    assert sum(sampler.series[f"{key}.epc_hidden_fault_time"].values()) == (
        pytest.approx(engine.totals.hidden_fault_time, rel=1e-12)
    )
    # A helper's faults reach the stats before the caller's clock moves on.
    assert seen[-1] == cpu.epc.stats.faults
    assert seen == sorted(seen)


@pytest.mark.parametrize("mode", [SgxMode.SIM, SgxMode.HW])
def test_more_threads_than_tcs_slots_are_refused(mode):
    runtime, _ = _runtime(mode, 8)
    ExecutionEngine(runtime, LITE_PROFILE, threads=8)
    with pytest.raises(ConfigurationError, match="TCS"):
        ExecutionEngine(runtime, LITE_PROFILE, threads=16)
    engine = ExecutionEngine(runtime, LITE_PROFILE)
    with pytest.raises(ConfigurationError, match="TCS"):
        engine.charge_run(BIG, threads=9)


def test_native_has_no_enclave_to_bound_its_threads():
    runtime, _ = _runtime(SgxMode.NATIVE, 8)
    ExecutionEngine(runtime, LITE_PROFILE, threads=16)
