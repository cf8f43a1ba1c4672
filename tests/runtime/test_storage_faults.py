"""Storage fault injector: determinism, tears, rot, crashes, rollback."""

import pytest

from repro.errors import StorageCrash, SyscallError
from repro.runtime.storage_faults import (
    CrashPoint,
    SnapshotRollback,
    StorageFaultPlan,
    StorageFaultSpec,
)
from repro.runtime.vfs import VirtualFileSystem


def test_plans_replay_byte_identically():
    def run(seed):
        vfs = VirtualFileSystem()
        plan = StorageFaultPlan(
            seed, StorageFaultSpec(torn_write=0.3, bit_rot=0.2, truncation=0.1)
        ).attach(vfs)
        for i in range(40):
            try:
                vfs.write(f"/f{i % 5}", bytes([i]) * 50)
            except StorageCrash:
                pass
            try:
                vfs.read(f"/f{i % 5}")
            except SyscallError:
                pass
        return plan.trace_bytes(), plan.counters

    trace_a, counters_a = run(7)
    trace_b, counters_b = run(7)
    trace_c, _ = run(8)
    assert trace_a == trace_b
    assert counters_a == counters_b
    assert trace_a != trace_c
    assert counters_a.torn_writes + counters_a.bit_rot + counters_a.truncations > 0


def test_torn_write_keeps_prefix_and_kills_process():
    vfs = VirtualFileSystem()
    plan = StorageFaultPlan(0, StorageFaultSpec(torn_write=1.0)).attach(vfs)
    payload = bytes(range(200))
    with pytest.raises(StorageCrash):
        vfs.write("/f", payload)
    stored = vfs._files["/f"].content
    assert len(stored) < len(payload)
    assert stored == payload[: len(stored)]  # a prefix, never garbage
    assert plan.counters.torn_writes == 1


@pytest.mark.parametrize("keep", [0, 1, 199])
def test_crash_point_tears_a_write_at_an_exact_byte(keep):
    vfs = VirtualFileSystem()
    plan = StorageFaultPlan(0, crash_points=[CrashPoint(at_op=1, keep=keep)]).attach(vfs)
    payload = bytes(range(200))
    vfs.write("/first", payload)  # op 0: untouched
    with pytest.raises(StorageCrash):
        vfs.write("/f", payload)
    assert vfs.read("/first").content == payload
    assert vfs._files["/f"].content == payload[:keep]
    assert plan.counters.torn_writes == 1 and plan.counters.crashes == 0
    assert plan.events == [f"torn op=1 /f kept={keep}/200"]
    vfs.write("/f", payload)  # fires once
    assert vfs.read("/f").content == payload


def test_bit_rot_flips_one_stored_bit():
    vfs = VirtualFileSystem()
    vfs.write("/f", bytes(100))
    StorageFaultPlan(3, StorageFaultSpec(bit_rot=1.0)).attach(vfs)
    rotted = vfs.read("/f").content
    assert len(rotted) == 100
    diff = [i for i in range(100) if rotted[i] != 0]
    assert len(diff) == 1
    assert bin(rotted[diff[0]]).count("1") == 1
    # Rot persists at rest: the stored bytes carry the damage.
    assert vfs._files["/f"].content == rotted


def test_truncation_drops_the_tail():
    vfs = VirtualFileSystem()
    vfs.write("/f", bytes(range(100)))
    plan = StorageFaultPlan(4, StorageFaultSpec(truncation=1.0)).attach(vfs)
    content = vfs.read("/f").content
    assert len(content) < 100
    assert content == bytes(range(100))[: len(content)]
    assert plan.counters.truncations == 1


def test_crash_points_hit_exact_operation_boundaries():
    # Crash BEFORE op 1: op 0 applied, op 1 did not.
    vfs = VirtualFileSystem()
    StorageFaultPlan(0, crash_points=[CrashPoint(at_op=1)]).attach(vfs)
    vfs.write("/a", b"a")
    with pytest.raises(StorageCrash):
        vfs.write("/b", b"b")
    assert vfs.exists("/a") and not vfs.exists("/b")

    # Crash AFTER op 1: both applied, the crash lands after the second.
    vfs = VirtualFileSystem()
    StorageFaultPlan(0, crash_points=[CrashPoint(at_op=1, after=True)]).attach(vfs)
    vfs.write("/a", b"a")
    with pytest.raises(StorageCrash):
        vfs.write("/b", b"b")
    assert vfs.exists("/a") and vfs.exists("/b")
    # Each point fires once: the next mutation proceeds normally.
    vfs.write("/c", b"c")


def test_crash_point_on_delete_and_rename():
    vfs = VirtualFileSystem()
    StorageFaultPlan(0, crash_points=[CrashPoint(at_op=2)]).attach(vfs)
    vfs.write("/a", b"a")
    vfs.write("/b", b"b")
    with pytest.raises(StorageCrash):
        vfs.delete("/a")
    assert vfs.exists("/a")  # crash-before: the delete never happened

    vfs = VirtualFileSystem()
    StorageFaultPlan(0, crash_points=[CrashPoint(at_op=1, after=True)]).attach(vfs)
    vfs.write("/src", b"x")
    with pytest.raises(StorageCrash):
        vfs.rename("/src", "/dst")
    # Rename is atomic: crash-after still leaves the completed move.
    assert not vfs.exists("/src") and vfs.read("/dst").content == b"x"


def test_rename_is_never_torn():
    vfs = VirtualFileSystem()
    vfs.write("/src", bytes(100))
    plan = StorageFaultPlan(0, StorageFaultSpec(torn_write=1.0)).attach(vfs)
    vfs.rename("/src", "/dst")
    assert vfs._files["/dst"].content == bytes(100)
    assert plan.counters.torn_writes == 0


def test_snapshot_restore_rollback():
    vfs = VirtualFileSystem()
    plan = StorageFaultPlan(
        0, rollbacks=[SnapshotRollback(capture_at_op=1, restore_at_op=3)]
    ).attach(vfs)
    vfs.write("/f", b"v0")      # op 0
    vfs.write("/f", b"v1")      # op 1: snapshot captured first (holds v0)
    vfs.write("/g", b"new")     # op 2
    vfs.write("/h", b"x")       # op 3: restore fires before this applies
    assert vfs.read("/f").content == b"v0"   # mutation reverted
    assert not vfs.exists("/g")              # post-snapshot file vanished
    assert vfs.exists("/h")                  # op 3 itself then applied
    assert plan.counters.rollbacks == 1


def test_rollback_scoped_by_prefix():
    vfs = VirtualFileSystem()
    StorageFaultPlan(
        0, rollbacks=[SnapshotRollback(1, 3, prefix="/scoped/")]
    ).attach(vfs)
    vfs.write("/scoped/f", b"v0")
    vfs.write("/other/g", b"keep-v0")
    vfs.write("/scoped/f", b"v1")
    vfs.write("/other/g", b"keep-v1")
    assert vfs.read("/scoped/f").content == b"v0"
    assert vfs.read("/other/g").content == b"keep-v1"  # outside the blast radius


def test_spec_prefix_scoping():
    vfs = VirtualFileSystem()
    plan = StorageFaultPlan(
        0, StorageFaultSpec(torn_write=1.0, prefixes=("/fragile/",))
    ).attach(vfs)
    vfs.write("/sturdy/f", bytes(100))  # out of scope: unharmed
    assert vfs.read("/sturdy/f").content == bytes(100)
    with pytest.raises(StorageCrash):
        vfs.write("/fragile/f", bytes(100))
    assert plan.counters.torn_writes == 1
