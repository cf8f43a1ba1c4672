"""Price sheet of the crash-consistent storage plane.

Measures what the robustness guarantees cost and how fast the machinery
runs, in simulated time: the throughput of a journaled commit (one
shadow extent per replica + manifest flip) in two regimes — NATIVE
traps at 4 KiB chunks, where the cost is calls, and an HW enclave on
the async ring at 64 KiB chunks (``shield_write``'s geometry), where the
ring hides the calls and the seal writes the ciphertext into the host's
buffer, so what is left is crypto plus the manifest — mount-time recovery
latency across an exhaustive crash-point sweep (every mutating op of a
commit, both polarities, plus a tear at every chunk boundary +- 1 byte
of either replica's extent), self-healing read throughput while
re-replicating damaged chunks, and the client-observed outage of a CAS
failover.  Each run keeps the section it replaces under ``previous``.
"""

import pytest

from harness import load_bench, print_table, record, run_once, save_bench

from repro._sim import SimClock
from repro.cas.client import RemoteCasClient
from repro.cluster.retry import RetryPolicy
from repro.core.platform import PlatformConfig, SecureTFPlatform
from repro.enclave.cost_model import DEFAULT_COST_MODEL as CM
from repro.enclave.sgx import SgxMode
from repro.errors import RpcTransportError, StorageCrash
from repro.runtime.fs_shield import (
    CHUNK_MARKER,
    FileSystemShield,
    LocalFreshnessTracker,
    PathRule,
    ShieldPolicy,
)
from repro.runtime.scone import RuntimeConfig, SconeRuntime
from repro.runtime.storage_faults import CrashPoint, StorageFaultPlan
from repro.runtime.syscall import SyscallInterface
from repro.runtime.vfs import VirtualFileSystem
from repro.tensor.engine import LITE_PROFILE

RULES = [PathRule("/s/", ShieldPolicy.ENCRYPT)]
PATH = "/s/state"
PAYLOAD = bytes(range(256)) * 4096  # 1 MiB
CHUNK_SIZE = 4096
MB = len(PAYLOAD) / 1e6


def mount(vfs, tracker):
    clock = SimClock()
    syscalls = SyscallInterface(vfs, CM, clock, mode=SgxMode.NATIVE)
    shield = FileSystemShield(
        syscalls,
        bytes(range(32)),
        RULES,
        CM,
        clock,
        chunk_size=CHUNK_SIZE,
        freshness=tracker,
        replicas=2,
    )
    return shield, clock


def _write_mb_s():
    shield, clock = mount(VirtualFileSystem(), LocalFreshnessTracker())
    start = clock.now
    shield.write_file(PATH, PAYLOAD)
    return MB / (clock.now - start)


#: ``shield_write``'s geometry (benchmarks/e2e/workloads.py): HW enclave,
#: async ring, default 64 KiB chunks, one 544 KiB file.
HW_PAYLOAD = bytes(range(256)) * (544 * 4)


def _hw_write_mb_s():
    """Steady-state overwrite (an old generation to collect) through a
    HW ``SconeRuntime``; returns (MB/s, syscalls of that write)."""
    platform = SecureTFPlatform(PlatformConfig(n_nodes=1, seed=5))
    node = platform.node(0)
    runtime = SconeRuntime(
        RuntimeConfig(
            name="bench-shield",
            mode=SgxMode.HW,
            fs_replicas=2,
            fs_key=bytes(range(32)),
            fs_rules=RULES,
        ),
        node.vfs,
        CM,
        node.clock,
        cpu=node.cpu,
        rng=node.rng.child("bench-shield"),
    )
    runtime.write_protected(PATH, HW_PAYLOAD)
    runtime.syscalls.flush()
    start, calls = node.clock.now, runtime.syscalls.stats.calls
    runtime.write_protected(PATH, HW_PAYLOAD[::-1])
    runtime.syscalls.flush()
    return (
        len(HW_PAYLOAD) / 1e6 / (node.clock.now - start),
        runtime.syscalls.stats.calls - calls,
    )


#: Sweep payload: 8 chunks keeps the tear count (and the wall-clock of
#: ~60 full commit+recover cycles) small while still spanning every
#: phase of the protocol.
SWEEP_PAYLOAD = bytes(range(256)) * 128  # 32 KiB -> 8 chunks


#: Bytes one protected chunk of the sweep occupies in an extent
#: (plaintext + the 16-byte AEAD tag).
SWEEP_SLOT = CHUNK_SIZE + 16


def _crash_sweep():
    """Crash one commit at every syscall boundary and tear either
    replica's extent at every chunk boundary +- 1 byte; return the mean
    mount-time recovery latency, the boundary count and the tear count."""
    old, new = SWEEP_PAYLOAD, SWEEP_PAYLOAD[::-1]
    probe_vfs = VirtualFileSystem()
    probe_tracker = LocalFreshnessTracker()
    shield, _ = mount(probe_vfs, probe_tracker)
    shield.write_file(PATH, old)
    plan = StorageFaultPlan(0).attach(probe_vfs)
    shield.write_file(PATH, new)
    n_ops = plan.op_index

    boundaries = [
        CrashPoint(at_op=at_op, after=after)
        for after in (False, True)
        for at_op in range(n_ops)
    ]
    n_chunks = len(new) // CHUNK_SIZE
    cuts = {0} | {k * SWEEP_SLOT + d for k in range(1, n_chunks + 1) for d in (-1, 0, 1)}
    # Ops 0 and 1 of a commit are the two replicas' extent writes; a
    # "tear" that keeps the whole extent is not one.
    tears = [
        CrashPoint(at_op=replica, keep=keep)
        for replica in (0, 1)
        for keep in sorted(cuts)
        if keep < n_chunks * SWEEP_SLOT
    ]

    total = 0.0
    for point in boundaries + tears:
        vfs = VirtualFileSystem()
        tracker = LocalFreshnessTracker()
        victim, _ = mount(vfs, tracker)
        victim.write_file(PATH, old)
        plan = StorageFaultPlan(0, crash_points=[point]).attach(vfs)
        try:
            victim.write_file(PATH, new)
        except StorageCrash:
            pass
        assert plan.counters.crashes + plan.counters.torn_writes == 1, point
        vfs.faults = None
        remounted, clock = mount(vfs, tracker)
        start = clock.now
        remounted.recover()
        total += clock.now - start
        assert remounted.read_file(PATH) in (old, new)
    return total / len(boundaries + tears), len(boundaries), len(tears)


def _heal_read():
    """Damage one replica of every chunk; a cold read repairs them all."""
    vfs = VirtualFileSystem()
    tracker = LocalFreshnessTracker()
    shield, _ = mount(vfs, tracker)
    shield.write_file(PATH, PAYLOAD)

    for path in [p for p in vfs.listdir() if CHUNK_MARKER in p and p.endswith(".1")]:
        vfs.tamper(path, b"rotted")

    reader, clock = mount(vfs, tracker)
    start = clock.now
    assert reader.read_file(PATH) == PAYLOAD
    elapsed = clock.now - start
    return MB / elapsed, reader.stats.chunks_repaired


def _cas_failover_outage():
    """Simulated time a client loses to a CAS primary death: the failed
    call, the watchdog pass, and the successful retry on the standby."""
    retry = RetryPolicy(max_attempts=6, base_delay=0.02)
    platform = SecureTFPlatform(
        PlatformConfig(n_nodes=3, seed=5, cas_backup_node=1, cas_retry=retry)
    )
    node = platform.nodes[2]
    runtime = SconeRuntime(
        RuntimeConfig(
            name="bench-worker",
            mode=SgxMode.HW,
            binary_size=LITE_PROFILE.binary_size,
            fs_shield_enabled=False,
        ),
        node.vfs,
        CM,
        node.clock,
        cpu=node.cpu,
        rng=node.rng.child("bench-worker"),
    )
    platform.register_session("bench", [runtime.config])
    client = RemoteCasClient(platform.network, node, "cas", retry=retry)
    client.provision(runtime, "bench")  # warm path, pre-failure

    platform.cas_pair.fail_primary()
    start = node.clock.now
    try:
        RemoteCasClient(platform.network, node, "cas").provision(runtime, "bench")
    except RpcTransportError:
        pass
    platform.orchestrator.supervise_services()
    client.provision(runtime, "bench")
    return (node.clock.now - start) * 1e3


def test_storage_recovery_price_sheet(benchmark):
    def run():
        journal_mb_s = _write_mb_s()
        hw_journal_mb_s, hw_journal_calls = _hw_write_mb_s()
        recovery_s, boundaries, tears = _crash_sweep()
        heal_mb_s, repaired = _heal_read()
        outage_ms = _cas_failover_outage()
        return {
            "journal_write_mb_s": round(journal_mb_s, 2),
            "hw_journal_write_mb_s": round(hw_journal_mb_s, 2),
            "hw_journal_write_syscalls": hw_journal_calls,
            "crash_boundaries_swept": boundaries,
            "extent_tears_swept": tears,
            "recovery_scan_ms_mean": round(recovery_s * 1e3, 3),
            "heal_read_mb_s": round(heal_mb_s, 2),
            "chunks_repaired": repaired,
            "cas_failover_outage_ms": round(outage_ms, 2),
        }

    metrics = run_once(benchmark, run)
    print_table(
        "storage plane: what crash consistency costs (simulated)",
        ["metric", "value"],
        [[k, v] for k, v in metrics.items()],
        notes=[
            "journal = one shadow extent x2 replicas + manifest flip",
            "unprefixed write rows: NATIVE traps, 4 KiB chunks, 1 MiB - every call is a trap, so the "
            "bottleneck is the call count (extents: 2 x 6 + manifest + flip + GC, whatever the chunk count)",
            "hw_ rows: HW enclave, async ring, 64 KiB chunks, 544 KiB (shield_write) - the ring hides "
            "the calls and the seal writes into the host's buffer, so the bottleneck is crypto; "
            "only the manifest is copied out of the enclave",
            "recovery mean over an exhaustive crash-point sweep (every mutating op, both polarities) "
            "plus a tear at every chunk boundary +- 1 byte of either replica's extent",
            "failover outage = failed call + watchdog promote + retried success",
        ],
    )
    # A commit stays a handful of calls; recovery is sub-second;
    # healing reads stay usable.
    assert metrics["hw_journal_write_syscalls"] <= 20
    assert metrics["recovery_scan_ms_mean"] < 1000.0
    assert metrics["chunks_repaired"] == -(-len(PAYLOAD) // CHUNK_SIZE)
    record(benchmark, **metrics)
    previous = load_bench("storage_recovery")
    previous.pop("previous", None)
    save_bench("storage_recovery", {**metrics, "previous": previous})
