"""User-level scheduler and the SCONE runtime facade."""

import pytest

from repro._sim import DeterministicRng, SimClock
from repro.enclave.cost_model import DEFAULT_COST_MODEL as CM
from repro.enclave.sgx import SgxMode
from repro.errors import ConfigurationError, EnclaveError
from repro.runtime.libc import GLIBC, MUSL, SCONE_LIBC
from repro.runtime.scone import (
    RuntimeConfig,
    SconeRuntime,
    build_enclave_image,
    expected_measurement,
)
from repro.runtime.threading_ul import ThreadingModel, UserLevelScheduler
from repro.runtime.vfs import VirtualFileSystem


# --- Scheduler ----------------------------------------------------------------


def test_userlevel_block_cheaper_than_os(clock):
    ul = UserLevelScheduler(CM, clock, threading_model=ThreadingModel.USER_LEVEL)
    before = clock.now
    ul.block()
    ul_cost = clock.now - before
    os_sched = UserLevelScheduler(CM, clock, threading_model=ThreadingModel.OS)
    before = clock.now
    os_sched.block()
    os_cost = clock.now - before
    assert ul_cost < os_cost
    assert ul.stats.blocks == 1


def test_os_threading_in_hw_charges_transitions(cpu, clock):
    from repro.enclave.sgx import EnclaveImage, Segment

    enclave = cpu.create_enclave(
        EnclaveImage("a", [Segment.from_content("b", b"x", "code")]), SgxMode.HW
    )
    sched = UserLevelScheduler(
        CM, clock, mode=SgxMode.HW, threading_model=ThreadingModel.OS, enclave=enclave
    )
    transitions_before = cpu.transitions
    sched.block()
    assert cpu.transitions == transitions_before + 1


def test_parallel_duration_uses_speedup(clock):
    sched = UserLevelScheduler(CM, clock)
    one = sched.parallel_duration(8.0, 1)
    four = sched.parallel_duration(8.0, 4)
    assert one == pytest.approx(8.0)
    assert four < one / 3
    with pytest.raises(ConfigurationError):
        sched.parallel_duration(-1.0, 2)


def test_run_parallel_charges_clock(clock):
    sched = UserLevelScheduler(CM, clock)
    elapsed = sched.run_parallel(1.0, 2)
    assert clock.now == pytest.approx(elapsed)


# --- SconeRuntime ---------------------------------------------------------------


def make_runtime(mode, cpu=None, clock=None, **config_kwargs):
    clock = clock or (cpu.clock if cpu else SimClock())
    config = RuntimeConfig(
        name="app", mode=mode, fs_shield_enabled=False, **config_kwargs
    )
    return SconeRuntime(
        config,
        VirtualFileSystem(),
        CM,
        clock,
        cpu=cpu,
        rng=DeterministicRng(0),
    )


def test_native_runtime_defaults_to_glibc():
    runtime = make_runtime(SgxMode.NATIVE)
    assert runtime.libc is GLIBC
    assert runtime.compute_factor == 1.0
    assert not runtime.memory.encrypted


def test_enclave_modes_default_to_scone_libc(cpu):
    assert make_runtime(SgxMode.HW, cpu).libc is SCONE_LIBC
    assert make_runtime(SgxMode.SIM, cpu).libc is SCONE_LIBC


def test_glibc_forbidden_inside_scone(cpu):
    with pytest.raises(ConfigurationError):
        make_runtime(SgxMode.HW, cpu, libc=GLIBC)


def test_enclave_modes_need_cpu():
    with pytest.raises(ConfigurationError):
        make_runtime(SgxMode.HW, cpu=None)


@pytest.mark.parametrize("mode", list(SgxMode))
def test_fs_journal_off_selects_no_storage_layout(cpu, mode):
    """Every shielded file is a journaled commit: the field is accepted
    as ``True`` and refused as ``False``, whatever the mode."""
    assert make_runtime(mode, cpu, fs_journal=True).config.fs_journal
    with pytest.raises(ConfigurationError, match="fs_journal=False"):
        make_runtime(mode, cpu, fs_journal=False)


def test_native_has_no_measurement_or_quote():
    runtime = make_runtime(SgxMode.NATIVE)
    with pytest.raises(EnclaveError):
        _ = runtime.measurement
    with pytest.raises(EnclaveError):
        runtime.attest()


def test_expected_measurement_matches_running_enclave(cpu):
    config = RuntimeConfig(name="svc", mode=SgxMode.HW, fs_shield_enabled=False)
    runtime = SconeRuntime(
        config, VirtualFileSystem(), CM, cpu.clock, cpu=cpu, rng=DeterministicRng(0)
    )
    assert expected_measurement(config) == runtime.measurement


def test_measurement_sensitive_to_binary_identity(cpu):
    a = RuntimeConfig(name="svc", mode=SgxMode.HW, binary_identity=b"v1")
    b = RuntimeConfig(name="svc", mode=SgxMode.HW, binary_identity=b"v2")
    assert expected_measurement(a) != expected_measurement(b)
    assert build_enclave_image(a).segments[0].digest != build_enclave_image(
        b
    ).segments[0].digest


def test_install_fs_key_post_provisioning(cpu):
    config = RuntimeConfig(
        name="svc", mode=SgxMode.HW, fs_shield_enabled=True, fs_rules=[]
    )
    runtime = SconeRuntime(
        config, VirtualFileSystem(), CM, cpu.clock, cpu=cpu, rng=DeterministicRng(0)
    )
    assert runtime.fs is None  # key not yet provisioned
    runtime.install_fs_key(bytes(32))
    assert runtime.fs is not None


def test_install_fs_key_rejected_when_disabled(cpu):
    runtime = make_runtime(SgxMode.HW, cpu)
    with pytest.raises(ConfigurationError):
        runtime.install_fs_key(bytes(32))


def test_read_write_protected_fallback_to_plain(cpu):
    runtime = make_runtime(SgxMode.HW, cpu)
    runtime.write_protected("/f", b"data")
    assert runtime.read_protected("/f") == b"data"


def test_shutdown_destroys_enclave(cpu):
    runtime = make_runtime(SgxMode.HW, cpu)
    enclave = runtime.enclave
    runtime.shutdown()
    assert runtime.enclave is None
    assert not enclave.alive


def test_sim_quote_is_debug(cpu):
    runtime = make_runtime(SgxMode.SIM, cpu)
    assert runtime.attest().report.debug is True
