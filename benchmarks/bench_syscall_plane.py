"""The exit-less syscall plane: sync vs async throughput, ring sweeps.

Measures the *simulated* cost of the enclave/OS boundary under the
submission/completion ring (SCONE §3.3.3) against classic synchronous
transitions, in HW mode:

- raw syscall rate (calls/s) over a nop loop;
- fs-shield read bandwidth (MB/s) for a 2 MiB encrypted model;
- a handler-thread sweep (starvation → the plane degrades to sync
  fallbacks at 0 handlers, queues at 1, breathes at 4);
- a scheduler-occupancy sweep (the kernel overlap is *measured* from
  runnable-thread occupancy, not a constant);
- the ring per fs-shield operation on ``shield_write`` / ``shield_read``'s
  geometry (544 KiB, 64 KiB chunks, two replicas, an 8-thread HW
  enclave): the syscall wait a write, a cold read, the warm read after
  it and a warm read after a warm read leave exposed, and the handler
  wake-ups each pays.

Results go to ``BENCH.json`` under ``syscall_plane``; the section it
replaces is kept under ``previous``.
"""

import pytest

from harness import fmt_ms, load_bench, print_table, record, run_once, save_bench

from repro._sim import DeterministicRng, SimClock
from repro.enclave.attestation import ProvisioningAuthority
from repro.enclave.cost_model import DEFAULT_COST_MODEL as CM
from repro.enclave.sgx import EnclaveImage, Segment, SgxCpu, SgxMode
from repro.runtime.fs_shield import (
    FileSystemShield,
    LocalFreshnessTracker,
    PathRule,
    ShieldPolicy,
)
from repro.runtime.syscall import SyscallInterface
from repro.runtime.syscall_plane import SyscallPlaneConfig
from repro.runtime.threading_ul import UserLevelScheduler
from repro.runtime.vfs import VirtualFileSystem

N_SYSCALLS = 5000
PAYLOAD_BYTES = 2 * 1024 * 1024


def _hw_interface(asynchronous, handler_threads=2, runnable=4, seed=0):
    rng = DeterministicRng(seed, label="plane-bench")
    clock = SimClock()
    pa = ProvisioningAuthority(rng.child("intel"))
    cpu = SgxCpu("cpu-plane", CM, clock, pa, rng.child("cpu"))
    image = EnclaveImage("plane", [Segment.from_content("b", b"x", "code")])
    enclave = cpu.create_enclave(image, SgxMode.HW)
    syscalls = SyscallInterface(
        VirtualFileSystem(),
        CM,
        clock,
        mode=SgxMode.HW,
        enclave=enclave,
        asynchronous=asynchronous,
        plane_config=SyscallPlaneConfig(handler_threads=handler_threads),
    )
    scheduler = UserLevelScheduler(CM, clock, mode=SgxMode.HW)
    scheduler.set_runnable(runnable)
    syscalls.attach_scheduler(scheduler)
    return syscalls, clock


def _shield_over(syscalls, clock):
    return FileSystemShield(
        syscalls,
        bytes(range(32)),
        [PathRule("/secure/", ShieldPolicy.ENCRYPT)],
        CM,
        clock,
        chunk_size=64 * 1024,
    )


SHIELD_OPS = ("write", "cold_read", "warm_read", "warm_after_warm_read")


def _shield_ops():
    """{op: (exposed syscall wait in µs, handler wake-ups)} of one
    overwrite, one cold read, the warm read after it and one more."""
    rng = DeterministicRng(11, label="plane-bench-shield")
    clock = SimClock()
    cpu = SgxCpu(
        "cpu-shield", CM, clock, ProvisioningAuthority(rng.child("intel")), rng.child("cpu")
    )
    enclave = cpu.create_enclave(
        EnclaveImage("shield", [Segment.from_content("b", b"x", "code")]), SgxMode.HW
    )
    syscalls = SyscallInterface(
        VirtualFileSystem(), CM, clock, mode=SgxMode.HW, enclave=enclave
    )
    shield = FileSystemShield(
        syscalls, bytes(range(32)), [PathRule("/secure/", ShieldPolicy.ENCRYPT)],
        CM, clock, freshness=LocalFreshnessTracker(), replicas=2,
        memory=enclave.memory,
    )
    data = bytes(range(256)) * (544 * 4)
    shield.write_file("/secure/f", data)
    stats, ops = syscalls.stats, {}
    for op in SHIELD_OPS:
        if op == "cold_read":
            shield.drop_caches()
        exposed, wakeups = stats.overlap_exposed_time, stats.handler_wakeups
        if op == "write":
            shield.write_file("/secure/f", data[::-1])
        else:
            shield.read_file("/secure/f")
        ops[op] = (
            (stats.overlap_exposed_time - exposed) * 1e6,
            stats.handler_wakeups - wakeups,
        )
    return ops


def test_bench_syscall_plane(benchmark):
    def scenario():
        metrics = {}

        # -- raw syscall rate, sync vs async --------------------------
        for asynchronous in (False, True):
            syscalls, clock = _hw_interface(asynchronous)
            before = clock.now
            for _ in range(N_SYSCALLS):
                syscalls.nop_syscall()
            elapsed = clock.now - before
            key = "async" if asynchronous else "sync"
            metrics[f"{key}_calls_s"] = N_SYSCALLS / elapsed

        # -- fs-shield read bandwidth, sync vs async ------------------
        for asynchronous in (False, True):
            syscalls, clock = _hw_interface(asynchronous)
            shield = _shield_over(syscalls, clock)
            shield.write_file("/secure/model", b"w" * PAYLOAD_BYTES)
            before = clock.now
            shield.read_file("/secure/model")
            elapsed = clock.now - before
            key = "async" if asynchronous else "sync"
            metrics[f"{key}_read_mb_s"] = PAYLOAD_BYTES / elapsed / 1e6
            metrics[f"{key}_read_ms"] = elapsed * 1e3

        # -- handler-thread sweep (posted-write drain) ----------------
        for handlers in (0, 1, 4):
            syscalls, clock = _hw_interface(True, handler_threads=handlers)
            before = clock.now
            for _ in range(N_SYSCALLS):
                syscalls.socket_send(1024)
            syscalls.flush()
            metrics[f"handlers_{handlers}_send_ms"] = (clock.now - before) * 1e3
            metrics[f"handlers_{handlers}_sync_fallbacks"] = (
                syscalls.stats.sync_fallbacks
            )

        # -- the ring per fs-shield operation -------------------------
        for op, (exposed_us, wakeups) in _shield_ops().items():
            metrics[f"shield_{op}_exposed_wait_us"] = exposed_us
            metrics[f"shield_{op}_wakeups"] = wakeups

        # -- occupancy sweep: measured kernel overlap -----------------
        for runnable in (1, 2, 8):
            syscalls, clock = _hw_interface(True, runnable=runnable)
            for _ in range(500):
                syscalls.nop_syscall("read")
            stats = syscalls.stats
            waited = stats.overlap_hidden_time + stats.overlap_exposed_time
            metrics[f"overlap_runnable_{runnable}"] = (
                stats.overlap_hidden_time / waited if waited else 0.0
            )
        return metrics

    metrics = run_once(benchmark, scenario)
    speedup = metrics["async_calls_s"] / metrics["sync_calls_s"]
    print_table(
        f"Syscall plane — {N_SYSCALLS} HW nop syscalls + 2 MiB shielded read",
        ("path", "calls/s", "read MB/s"),
        [
            ("sync", f"{metrics['sync_calls_s']:,.0f}",
             f"{metrics['sync_read_mb_s']:.1f}"),
            ("async", f"{metrics['async_calls_s']:,.0f}",
             f"{metrics['async_read_mb_s']:.1f}"),
        ],
        notes=[f"exit-less ring is {speedup:.1f}x faster on raw calls"],
    )
    print_table(
        "Handler sweep — 5000 posted sends",
        ("handlers", "time", "sync fallbacks"),
        [
            (n, fmt_ms(metrics[f"handlers_{n}_send_ms"] / 1e3),
             metrics[f"handlers_{n}_sync_fallbacks"])
            for n in (0, 1, 4)
        ],
    )
    print_table(
        "Occupancy sweep — measured kernel overlap",
        ("runnable threads", "overlap hidden"),
        [
            (r, f"{metrics[f'overlap_runnable_{r}'] * 100:.0f}%")
            for r in (1, 2, 8)
        ],
    )
    print_table(
        "The ring per fs-shield operation — HW, 544 KiB, 2 replicas",
        ("operation", "exposed syscall wait", "handler wake-ups"),
        [
            (op, f"{metrics[f'shield_{op}_exposed_wait_us']:.2f} µs",
             metrics[f"shield_{op}_wakeups"])
            for op in SHIELD_OPS
        ],
    )
    record(benchmark, **metrics)
    previous = load_bench("syscall_plane")
    previous.pop("previous", None)
    save_bench(
        "syscall_plane",
        {**{k: (round(v, 3) if isinstance(v, float) else v)
            for k, v in metrics.items()}, "previous": previous},
    )
    # The exit-less interface must be measurably cheaper than sync
    # transitions, and the overlap must grow with occupancy.
    assert metrics["async_calls_s"] > metrics["sync_calls_s"]
    assert metrics["async_read_mb_s"] > metrics["sync_read_mb_s"]
    assert metrics["handlers_0_sync_fallbacks"] == N_SYSCALLS
    assert (
        metrics["overlap_runnable_1"]
        < metrics["overlap_runnable_2"]
        < metrics["overlap_runnable_8"]
    )
