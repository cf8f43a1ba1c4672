"""The exit-less syscall plane: ring edge cases, fallback, determinism.

Covers the mechanistic behaviours that replaced the analytic constants:
ring-full backpressure, batched submission flushing when the scheduler
blocks, handler starvation falling back to synchronous transitions,
futex-style handler wake-ups, occupancy-derived overlap, Iago checks on
the async path, and the byte-identical
determinism the chaos/crash replay suites depend on.
"""

import pytest

from repro._sim import SimClock
from repro.enclave.cost_model import DEFAULT_COST_MODEL as CM
from repro.enclave.sgx import EnclaveImage, Segment, SgxMode
from repro.errors import ConfigurationError, IagoError
from repro.runtime.syscall import SyscallInterface, SyscallStats
from repro.runtime.syscall_plane import SyscallPlane, SyscallPlaneConfig
from repro.runtime.threading_ul import UserLevelScheduler
from repro.runtime.vfs import VirtualFile, VirtualFileSystem


def make_plane(**config_kwargs):
    clock = SimClock()
    stats = SyscallStats()
    plane = SyscallPlane(
        CM, clock, stats, config=SyscallPlaneConfig(**config_kwargs)
    )
    return plane, stats, clock


def make_hw_interface(cpu, asynchronous=True, vfs=None):
    image = EnclaveImage("app", [Segment.from_content("b", b"x", "code")])
    enclave = cpu.create_enclave(image, SgxMode.HW)
    return SyscallInterface(
        vfs if vfs is not None else VirtualFileSystem(),
        CM,
        cpu.clock,
        mode=SgxMode.HW,
        enclave=enclave,
        asynchronous=asynchronous,
    )


# --- Config validation -------------------------------------------------------


def test_plane_config_rejects_bad_shapes():
    with pytest.raises(ConfigurationError):
        SyscallPlaneConfig(ring_depth=0)
    with pytest.raises(ConfigurationError):
        SyscallPlaneConfig(handler_threads=-1)
    with pytest.raises(ConfigurationError):
        SyscallPlaneConfig(batch_max=0)


# --- Ring-full backpressure --------------------------------------------------


def test_ring_full_backpressure_stalls_submitter():
    # One slow handler, four slots, sixteen posted writes: submissions
    # outrun completions and the submitter must stall on a full ring.
    plane, stats, _ = make_plane(ring_depth=4, handler_threads=1, batch_max=64)
    for _ in range(16):
        plane.post("write")
    plane.flush()
    assert stats.ring_submissions == 16
    assert stats.backpressure_stalls > 0
    assert stats.backpressure_time > 0.0


def test_ring_depth_bounds_occupancy():
    plane, stats, _ = make_plane(ring_depth=4, handler_threads=1, batch_max=64)
    for _ in range(16):
        plane.post("write")
    plane.flush()
    assert 0 < stats.ring_occupancy_peak <= 4


def test_deeper_ring_stalls_less():
    shallow, shallow_stats, _ = make_plane(
        ring_depth=2, handler_threads=1, batch_max=64
    )
    deep, deep_stats, _ = make_plane(
        ring_depth=64, handler_threads=1, batch_max=64
    )
    for plane in (shallow, deep):
        for _ in range(32):
            plane.post("write")
        plane.flush()
    assert shallow_stats.backpressure_stalls > deep_stats.backpressure_stalls


# --- Batched submission ------------------------------------------------------


def test_scheduler_block_flushes_pending_batch():
    plane, stats, clock = make_plane()
    scheduler = UserLevelScheduler(CM, clock)
    plane.attach_scheduler(scheduler)
    scheduler.attach_plane(plane)

    for _ in range(3):
        plane.post("write")
    assert stats.ring_submissions == 0  # still buffered
    scheduler.block()
    assert stats.ring_submissions == 3
    assert stats.flushes_on_block == 1
    assert stats.batches == 1
    assert stats.max_batch == 3


def test_batch_overflow_forces_flush():
    plane, stats, _ = make_plane(batch_max=8)
    for _ in range(8):
        plane.post("write")
    assert stats.ring_submissions == 8  # hit batch_max -> auto-flush
    assert stats.batches == 1


def test_result_bearing_call_flushes_batch_first():
    plane, stats, _ = make_plane(handler_threads=4)
    plane.post("write")
    plane.post("write")
    plane.call("read")
    # Both posted writes reached the ring before (or with) the read.
    assert stats.ring_submissions == 3


# --- Handler starvation -> synchronous fallback ------------------------------


def test_zero_handlers_always_falls_back_to_sync():
    plane, stats, _ = make_plane(handler_threads=0)
    plane.call("read")
    plane.post("write")
    assert stats.sync_fallbacks == 2
    assert stats.ring_submissions == 0


def test_busy_single_handler_starves_result_bearing_call():
    # The lone handler is busy further into the future than a classic
    # trap costs, so the read takes the old-fashioned exit.
    plane, stats, _ = make_plane(handler_threads=1)
    plane.post("write")
    plane.call("read")
    assert stats.sync_fallbacks == 1
    assert stats.ring_submissions == 1  # only the posted write rode the ring


def test_second_handler_prevents_starvation():
    plane, stats, _ = make_plane(handler_threads=2)
    plane.post("write")
    plane.call("read")
    assert stats.sync_fallbacks == 0
    assert stats.ring_submissions == 2


# --- Handler sleep/wake ------------------------------------------------------


def test_idle_handler_needs_wakeup():
    plane, stats, clock = make_plane()
    plane.call("read")
    first_wakeups = stats.handler_wakeups
    clock.advance(100 * CM.handler_spin_time)
    plane.call("read")
    assert stats.handler_wakeups == first_wakeups + 1


def test_busy_handlers_need_no_wakeup():
    plane, stats, _ = make_plane(handler_threads=1)
    for _ in range(50):
        plane.call("read")
    # Back-to-back traffic keeps the handler spinning: no futex wake.
    assert stats.handler_wakeups == 0


def test_hw_wakeup_charges_real_transition(cpu):
    syscalls = make_hw_interface(cpu)
    cpu.clock.advance(100 * CM.handler_spin_time)
    transitions_before = cpu.transitions
    syscalls.nop_syscall("read")
    assert syscalls.stats.handler_wakeups >= 1
    assert cpu.transitions > transitions_before


# --- Occupancy-derived overlap -----------------------------------------------


def test_lone_thread_hides_nothing():
    plane, stats, clock = make_plane()
    scheduler = UserLevelScheduler(CM, clock)  # runnable defaults to 1
    plane.attach_scheduler(scheduler)
    plane.call("read")
    assert stats.overlap_hidden_time == 0.0
    assert stats.overlap_exposed_time > 0.0


def test_overlap_grows_with_runnable_threads():
    fractions = {}
    for runnable in (2, 8):
        plane, stats, clock = make_plane()
        scheduler = UserLevelScheduler(CM, clock)
        scheduler.set_runnable(runnable)
        plane.attach_scheduler(scheduler)
        for _ in range(20):
            plane.call("read")
        total = stats.overlap_hidden_time + stats.overlap_exposed_time
        fractions[runnable] = stats.overlap_hidden_time / total
    assert 0.0 < fractions[2] < fractions[8] < 1.0


# --- Iago defences on the async path -----------------------------------------


def test_iago_hostile_read_rejected_on_async_path(cpu):
    vfs = VirtualFileSystem()
    syscalls = make_hw_interface(cpu, asynchronous=True, vfs=vfs)
    assert syscalls.plane is not None  # the ring really is in play
    vfs.write("/f", b"data")
    syscalls.hostile_hook = lambda name, res: (
        VirtualFile("/f", content=b"data" * 100, declared_size=4)
        if name == "read"
        else res
    )
    with pytest.raises(IagoError):
        syscalls.read_file("/f")


def test_iago_hostile_write_count_rejected_on_async_path(cpu):
    syscalls = make_hw_interface(cpu, asynchronous=True)
    syscalls.hostile_hook = lambda name, res: (
        res + 100 if name == "write" else res
    )
    with pytest.raises(IagoError):
        syscalls.write_file("/f", b"data")


# --- Retired analytic constants ----------------------------------------------


def test_unknown_module_attribute_still_raises():
    import repro.runtime.syscall as syscall_module

    # The two analytic constants are gone with their measured shim.
    for name in (
        "NO_SUCH_CONSTANT",
        "USERSPACE_HANDLED_FRACTION",
        "ASYNC_KERNEL_OVERLAP",
    ):
        with pytest.raises(AttributeError):
            getattr(syscall_module, name)


# --- Determinism regression --------------------------------------------------


def _reference_run():
    """One fixed workload over a fresh SIM interface + scheduler."""
    vfs = VirtualFileSystem()
    clock = SimClock()
    syscalls = SyscallInterface(vfs, CM, clock, mode=SgxMode.SIM)
    scheduler = UserLevelScheduler(CM, clock)
    syscalls.attach_scheduler(scheduler)

    syscalls.write_file("/big", b"x" * (3 * 256 * 1024))
    syscalls.read_file("/big")
    scheduler.run_parallel(0.001, 8)
    for name in ("futex", "clock_gettime", "read", "write", "mmap") * 10:
        syscalls.nop_syscall(name)
    syscalls.socket_send(600_000)
    syscalls.socket_recv(600_000)
    scheduler.block()
    syscalls.unlink("/big")
    syscalls.flush()
    return syscalls.stats, clock.now


def test_identical_runs_produce_identical_stats():
    stats_a, now_a = _reference_run()
    stats_b, now_b = _reference_run()
    assert stats_a == stats_b  # dataclass equality: every counter, every float
    assert now_a == now_b
