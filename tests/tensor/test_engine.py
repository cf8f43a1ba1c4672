"""Execution engine: cost charging across modes and profiles."""

import numpy as np
import pytest

import repro.tensor as tf
from repro._sim import DeterministicRng, SimClock, probe
from repro.enclave.cost_model import DEFAULT_COST_MODEL as CM
from repro.enclave.epc import EpcCache
from repro.enclave.sgx import SgxMode
from repro.errors import ConfigurationError
from repro.observability.profiler import profile
from repro.observability.tracer import Tracer
from repro.runtime.scone import RuntimeConfig, SconeRuntime
from repro.runtime.vfs import VirtualFileSystem
from repro.tensor.engine import (
    ExecutionEngine,
    FULL_TF_PROFILE,
    LITE_PROFILE,
    RunStats,
)


def make_runtime(mode, profile, cpu=None, clock=None):
    clock = clock or (cpu.clock if cpu is not None else SimClock())
    return SconeRuntime(
        RuntimeConfig(
            name="engine-test",
            mode=mode,
            binary_size=profile.binary_size,
            fs_shield_enabled=False,
        ),
        VirtualFileSystem(),
        CM,
        clock,
        cpu=cpu,
        rng=DeterministicRng(0),
    ), clock


SMALL = RunStats(
    flops=10**9, ops=50, weight_bytes=10**6, activation_bytes=10**6,
    max_op_bytes=10**5,
)


def test_charge_advances_clock():
    runtime, clock = make_runtime(SgxMode.NATIVE, LITE_PROFILE)
    engine = ExecutionEngine(runtime, LITE_PROFILE)
    engine.charge_run(SMALL)
    assert clock.now > 10**9 / LITE_PROFILE.flops_per_second * 0.9
    assert engine.totals.runs == 1
    assert engine.totals.compute_time > 0


def test_more_threads_less_time():
    times = []
    for threads in (1, 4):
        runtime, clock = make_runtime(SgxMode.NATIVE, LITE_PROFILE)
        engine = ExecutionEngine(runtime, LITE_PROFILE, threads=threads)
        engine.charge_run(SMALL)
        times.append(clock.now)
    assert times[1] < times[0] / 2


def test_hw_slower_than_sim_for_same_work(cpu):
    runtime_sim, clock_sim = make_runtime(SgxMode.SIM, LITE_PROFILE, cpu=cpu)
    engine = ExecutionEngine(runtime_sim, LITE_PROFILE)
    before = clock_sim.now
    engine.charge_run(SMALL)
    sim_time = clock_sim.now - before

    runtime_hw, clock_hw = make_runtime(SgxMode.HW, LITE_PROFILE, cpu=cpu)
    engine = ExecutionEngine(runtime_hw, LITE_PROFILE)
    before = clock_hw.now
    engine.charge_run(SMALL)
    hw_time = clock_hw.now - before
    assert hw_time > sim_time


def test_epc_overflow_working_set_causes_faults(cpu):
    runtime, clock = make_runtime(SgxMode.HW, LITE_PROFILE, cpu=cpu)
    engine = ExecutionEngine(runtime, LITE_PROFILE)
    big = RunStats(
        flops=10**6,
        ops=10,
        weight_bytes=CM.epc_capacity_bytes + 30 * 1024 * 1024,
        activation_bytes=10**6,
        max_op_bytes=10**5,
    )
    engine.charge_run(big)  # cold
    cold_faults = engine.totals.epc_faults
    engine.charge_run(big)  # steady-state: still faulting (over capacity)
    assert engine.totals.epc_faults > cold_faults * 1.2


def test_resident_working_set_stops_faulting(cpu):
    runtime, clock = make_runtime(SgxMode.HW, LITE_PROFILE, cpu=cpu)
    engine = ExecutionEngine(runtime, LITE_PROFILE)
    engine.charge_run(SMALL)
    cold = engine.totals.epc_faults
    engine.charge_run(SMALL)
    assert engine.totals.epc_faults == cold  # everything resident


@pytest.mark.parametrize("granule_size", [16 * 1024, 64 * 1024])
def test_thrash_surcharge_uses_the_caches_granule_cost(cpu, granule_size):
    cpu.epc = EpcCache(CM, cpu.clock, granule_size=granule_size)
    runtime, clock = make_runtime(SgxMode.HW, FULL_TF_PROFILE, cpu=cpu)
    engine = ExecutionEngine(runtime, FULL_TF_PROFILE)
    advances = []
    clock.subscribe(lambda before, after: advances.append(after - before))
    engine.charge_run(SMALL)
    faults = engine.totals.epc_faults
    assert faults > 0
    # The surcharge is the run's last charge: (thrash_factor - 1) more
    # fault services, each at what this cache charges for one.
    assert advances[-1] == faults * cpu.epc.granule_fault_cost * (
        FULL_TF_PROFILE.thrash_factor - 1.0
    )
    assert cpu.epc.stats.fault_time == pytest.approx(
        faults * cpu.epc.granule_fault_cost
    )
    if granule_size == 64 * 1024:
        # The float the engine derived from DEFAULT_GRANULE_SIZE before.
        pages = granule_size // CM.page_size
        assert runtime.memory.granule_fault_cost == CM.epc_page_fault_cost * pages


def test_traced_paging_is_all_of_memory_time_but_the_bandwidth(cpu):
    """Aim 4: the tracer's ``epc_faults`` is every simulated second the
    memory phase spent paging — the fault services the caller waited
    for *and* the thrash surcharge — so ``compute`` is FLOPs, dispatch
    and DRAM bandwidth; the rest of the fault services a helper thread
    hid (one thread leaves a core idle)."""
    runtime, clock = make_runtime(SgxMode.HW, FULL_TF_PROFILE, cpu=cpu)
    engine = ExecutionEngine(runtime, FULL_TF_PROFILE)
    big = RunStats(
        flops=10**9, ops=50, weight_bytes=CM.epc_capacity_bytes,
        activation_bytes=10**7, max_op_bytes=10**6,
    )
    tracer = Tracer()
    probe.install(tracer)
    try:
        tracer.register_clock(clock, "engine")
        for _ in range(2):
            engine.charge_run(big)
    finally:
        probe.remove(tracer)
    assert engine.totals.epc_faults > 0
    layers = profile(tracer)["engine"].layers
    paging = engine.totals.memory_time - runtime.memory.bandwidth_time
    assert layers["epc_faults"] == pytest.approx(paging, rel=1e-12)
    assert engine.totals.hidden_fault_time > 0
    assert layers["epc_faults"] + engine.totals.hidden_fault_time == pytest.approx(
        cpu.epc.stats.fault_time * FULL_TF_PROFILE.thrash_factor, rel=1e-12
    )
    assert layers["compute"] == pytest.approx(
        engine.totals.compute_time + runtime.memory.bandwidth_time, rel=1e-9
    )


def test_no_epc_no_granule_fault_cost():
    runtime, _ = make_runtime(SgxMode.NATIVE, LITE_PROFILE)
    assert runtime.memory.granule_fault_cost == 0.0


def test_binary_size_mismatch_rejected():
    runtime, _ = make_runtime(SgxMode.NATIVE, LITE_PROFILE)
    with pytest.raises(ConfigurationError):
        ExecutionEngine(runtime, FULL_TF_PROFILE)
    with pytest.raises(ConfigurationError):
        ExecutionEngine(runtime, LITE_PROFILE, threads=0)


def test_session_charges_engine_with_graph_scales():
    runtime, clock = make_runtime(SgxMode.NATIVE, LITE_PROFILE)
    engine = ExecutionEngine(runtime, LITE_PROFILE)
    g = tf.Graph()
    with g.as_default():
        x = tf.placeholder("float32", (4, 4), name="x")
        y = tf.matmul(x, x)
    g.cost_scale = 1.0
    sess = tf.Session(graph=g, engine=engine)
    sess.run(y, {x: np.zeros((4, 4), np.float32)})
    base = clock.now
    g.cost_scale = 100_000.0
    sess.run(y, {x: np.zeros((4, 4), np.float32)})
    assert (clock.now - base) > base * 10  # scaled run far costlier
