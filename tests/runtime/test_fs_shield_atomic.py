"""Crash consistency of the journaled shield layout.

The central claim: a crash at ANY syscall boundary of a multi-chunk
commit leaves the file at exactly the old or the new version after a
remount + recovery scan — never torn, never a mix, never unreadable.
The sweep below proves it exhaustively: one run per mutating-storage
operation of the commit, both crash polarities (before/after), plus a
dedicated probe of the non-VFS boundary between the manifest flip and
the freshness commit.
"""

import pytest

from repro._sim import SimClock
from repro.crypto import encoding
from repro.enclave.cost_model import DEFAULT_COST_MODEL as CM
from repro.enclave.sgx import SgxMode
from repro.errors import FreshnessError, IntegrityError, ShieldError, StorageCrash
from repro.runtime.fs_shield import (
    CHUNK_MARKER,
    COMMIT_SUFFIX,
    FileSystemShield,
    LocalFreshnessTracker,
    PathRule,
    ShieldPolicy,
)
from repro.runtime.storage_faults import CrashPoint, StorageFaultPlan
from repro.runtime.syscall import SyscallInterface
from repro.runtime.vfs import VirtualFileSystem
from tests.runtime._extents import chunk_slot, damage_chunk, extent_path

RULES = [PathRule("/s/", ShieldPolicy.ENCRYPT)]
OLD = bytes(range(256)) * 3   # 768 bytes -> 3 chunks at 256
NEW = OLD[::-1]
PATH = "/s/state"


def mount(vfs, tracker, replicas=2, rules=RULES):
    """A fresh shield over surviving storage (simulates enclave restart;
    the freshness tracker models CAS, which outlives the node)."""
    clock = SimClock()
    syscalls = SyscallInterface(vfs, CM, clock, mode=SgxMode.NATIVE)
    return FileSystemShield(
        syscalls,
        bytes(range(32)),
        rules,
        CM,
        clock,
        chunk_size=256,
        freshness=tracker,
        replicas=replicas,
    )


def committed_write_op_count(replicas=2):
    """How many mutating-storage ops one commit of NEW costs."""
    vfs = VirtualFileSystem()
    tracker = LocalFreshnessTracker()
    shield = mount(vfs, tracker, replicas)
    shield.write_file(PATH, OLD)
    plan = StorageFaultPlan(seed=0).attach(vfs)
    shield.write_file(PATH, NEW)
    return plan.op_index


def test_commit_is_multi_operation():
    # 2 replica extents + pending manifest + rename + 2 GC deletes: the
    # sweep below only means something if the commit really spans
    # several syscall boundaries (the boundaries *inside* an extent write
    # are swept in test_fs_shield_extents.py).
    assert committed_write_op_count() == 6


@pytest.mark.parametrize("after", [False, True])
def test_exhaustive_crash_point_sweep(after):
    """Kill the process at every syscall boundary of a commit; remount,
    recover, and require exactly-old-or-new with consistent freshness."""
    n_ops = committed_write_op_count()
    outcomes = set()
    for at_op in range(n_ops):
        vfs = VirtualFileSystem()
        tracker = LocalFreshnessTracker()
        shield = mount(vfs, tracker)
        shield.write_file(PATH, OLD)

        plan = StorageFaultPlan(
            seed=0, crash_points=[CrashPoint(at_op=at_op, after=after)]
        ).attach(vfs)
        try:
            shield.write_file(PATH, NEW)
            crashed = False
        except StorageCrash:
            crashed = True
        assert crashed, f"crash point {at_op} ({after=}) never fired"

        vfs.faults = None  # the process is dead; the plan dies with it
        remounted = mount(vfs, tracker)
        report = remounted.recover()
        content = remounted.read_file(PATH)
        assert content in (OLD, NEW), (
            f"crash at op {at_op} ({after=}) left a third state: "
            f"{report.get(PATH)}"
        )
        outcomes.add((content == NEW, report.get(PATH, "clean")))

        # Freshness is consistent with what survived: a re-read through
        # yet another mount agrees, and the next write commits cleanly.
        again = mount(vfs, tracker)
        assert again.read_file(PATH) == content
        again.write_file(PATH, b"after-recovery" * 60)
        assert again.read_file(PATH) == b"after-recovery" * 60
    # The sweep must observe both survivors across the boundary space.
    assert any(new for new, _ in outcomes), "no crash point preserved NEW"
    assert any(not new for new, _ in outcomes), "no crash point preserved OLD"


class _CrashOnCommitTracker:
    """Freshness tracker whose commit dies once — the non-VFS boundary
    between the manifest flip (step 3) and the audit commit (step 4)."""

    def __init__(self, inner):
        self.inner = inner
        self.armed = True

    def commit(self, path, version, digest):
        if self.armed:
            self.armed = False
            raise StorageCrash("died between rename flip and freshness commit")
        self.inner.commit(path, version, digest)

    def verify(self, path, version, digest):
        self.inner.verify(path, version, digest)


def test_crash_between_flip_and_freshness_commit_rolls_forward():
    vfs = VirtualFileSystem()
    durable = LocalFreshnessTracker()
    shield = mount(vfs, durable)
    shield.write_file(PATH, OLD)

    crashing = mount(vfs, _CrashOnCommitTracker(durable))
    with pytest.raises(StorageCrash):
        crashing.write_file(PATH, NEW)

    # Disk holds NEW (the flip happened), the tracker still says OLD:
    # reading without recovery fails closed as a freshness violation.
    stale_mount = mount(vfs, durable)
    with pytest.raises(FreshnessError):
        stale_mount.read_file(PATH)

    remounted = mount(vfs, durable)
    report = remounted.recover()
    assert report[PATH] == "rolled-forward"
    assert remounted.stats.recoveries_rolled_forward == 1
    assert remounted.read_file(PATH) == NEW


def test_recovery_rolls_back_unflipped_commit_and_collects_strays():
    vfs = VirtualFileSystem()
    tracker = LocalFreshnessTracker()
    shield = mount(vfs, tracker)
    shield.write_file(PATH, OLD)
    # Crash right before the rename flip: pending manifest + both
    # generations on disk.  Commit op order: the 2 replica extents
    # (ops 0-1), the pending-manifest write (op 2), then the rename
    # (op 3).
    plan = StorageFaultPlan(
        seed=0, crash_points=[CrashPoint(at_op=3)]
    ).attach(vfs)
    try:
        shield.write_file(PATH, NEW)
    except StorageCrash:
        pass
    vfs.faults = None

    remounted = mount(vfs, tracker)
    had_pending = any(p.endswith(COMMIT_SUFFIX) for p in vfs.listdir())
    report = remounted.recover()
    assert had_pending
    assert report[PATH] == "rolled-back"
    assert remounted.stats.recoveries_rolled_back == 1
    assert remounted.read_file(PATH) == OLD
    # No pending manifest and no stale-generation chunks remain.
    leftover = vfs.listdir()
    assert not any(p.endswith(COMMIT_SUFFIX) for p in leftover)
    generations = {
        p.split(CHUNK_MARKER, 1)[1].split(".", 1)[0]
        for p in leftover
        if CHUNK_MARKER in p
    }
    assert generations == {"0"}  # only the live version's extents


def test_gc_removes_stale_generations_on_clean_commit():
    vfs = VirtualFileSystem()
    shield = mount(vfs, LocalFreshnessTracker())
    shield.write_file(PATH, OLD)
    shield.write_file(PATH, NEW)
    generations = {
        p.split(CHUNK_MARKER, 1)[1].split(".", 1)[0]
        for p in vfs.listdir()
        if CHUNK_MARKER in p
    }
    assert generations == {"1"}


# ---------------------------------------------------------------------------
# Self-healing reads: k-way replicas repair each other
# ---------------------------------------------------------------------------


def test_read_heals_a_damaged_replica():
    vfs = VirtualFileSystem()
    shield = mount(vfs, LocalFreshnessTracker(), replicas=3)
    shield.write_file(PATH, OLD)
    shield.drop_caches()

    good = vfs.read(extent_path(PATH, 0, 1)).content
    victim = damage_chunk(vfs, PATH, 0, index=0, replica=1)
    assert vfs.read(victim).content != good

    assert shield.read_file(PATH) == OLD  # healed transparently
    assert shield.stats.torn_writes_detected == 1
    assert shield.stats.chunks_repaired == 1
    assert vfs.read(victim).content == good  # the copy was rewritten

    # The next cold read finds every replica intact again.
    shield.drop_caches()
    assert shield.read_file(PATH) == OLD
    assert shield.stats.chunks_repaired == 1


def test_read_survives_a_missing_replica():
    vfs = VirtualFileSystem()
    shield = mount(vfs, LocalFreshnessTracker(), replicas=2)
    shield.write_file(PATH, OLD)
    shield.drop_caches()
    vfs.delete(extent_path(PATH, 0, 0))
    assert shield.read_file(PATH) == OLD
    assert shield.stats.chunks_repaired == 3  # every chunk the replica held


def test_fails_closed_when_no_intact_replica_remains():
    vfs = VirtualFileSystem()
    shield = mount(vfs, LocalFreshnessTracker(), replicas=2)
    shield.write_file(PATH, OLD)
    shield.drop_caches()
    for replica in range(2):
        damage_chunk(vfs, PATH, 0, index=0, replica=replica)
    with pytest.raises(IntegrityError):
        shield.read_file(PATH)


def test_recover_heals_replicas_at_mount_time():
    vfs = VirtualFileSystem()
    tracker = LocalFreshnessTracker()
    shield = mount(vfs, tracker, replicas=2)
    shield.write_file(PATH, OLD)
    victim = extent_path(PATH, 0, 1)
    good = vfs.read(victim).content
    vfs.tamper(victim, good[:-5])  # the last chunk lost its tail

    remounted = mount(vfs, tracker, replicas=2)
    report = remounted.recover()
    assert report[PATH] == "clean"
    assert remounted.stats.chunks_repaired == 1
    assert vfs.read(victim).content == good


def test_replica_corruption_counted_not_conflated_with_forgery():
    """A forged-but-self-consistent replica still fails the manifest
    digest check — replicas authenticate against the manifest, not
    against each other."""
    vfs = VirtualFileSystem()
    shield = mount(vfs, LocalFreshnessTracker(), replicas=2)
    shield.write_file(PATH, OLD)
    shield.drop_caches()
    # Copy chunk 1's stored bytes over chunk 0's slot of replica 0: valid
    # ciphertext, wrong chunk -> digest mismatch -> treated as damage.
    victim = extent_path(PATH, 0, 0)
    raw = vfs.read(victim).content
    (start0, stop0), (start1, stop1) = (chunk_slot(vfs, PATH, i) for i in (0, 1))
    vfs.tamper(victim, raw[:start0] + raw[start1:stop1] + raw[stop0:])
    assert shield.read_file(PATH) == OLD
    assert shield.stats.torn_writes_detected == 1


# ---------------------------------------------------------------------------
# Rollback of journaled state
# ---------------------------------------------------------------------------


def test_disk_image_rollback_rejected():
    vfs = VirtualFileSystem()
    tracker = LocalFreshnessTracker()
    shield = mount(vfs, tracker)
    shield.write_file(PATH, OLD)
    snapshot = vfs.capture_state()
    shield.write_file(PATH, NEW)
    vfs.restore_state(snapshot)  # the classic whole-disk rollback

    remounted = mount(vfs, tracker)
    report = remounted.recover()
    assert report[PATH] == "stale"
    with pytest.raises(FreshnessError):
        remounted.read_file(PATH)


def test_recover_skips_passthrough_and_keeps_foreign_files():
    """A passthrough file is none of recovery's business; a protected
    path holding something that is not a manifest is reported damaged
    and left as it is — its extents too."""
    vfs = VirtualFileSystem()
    tracker = LocalFreshnessTracker()
    rules = RULES + [PathRule("/plain/", ShieldPolicy.PASSTHROUGH)]
    shield = mount(vfs, tracker, rules=rules)
    shield.write_file(PATH, OLD)
    shield.write_file("/plain/x", b"raw")
    vfs.write("/plain/x" + CHUNK_MARKER + "0.0.0", b"not ours")
    foreign = {
        "/s/bytes": b"written around the shield",
        "/s/shaped": encoding.encode({"body": 5, "mac": b""}),  # decodes, is no manifest
    }
    for path, raw in foreign.items():
        vfs.write(path, raw)
    before = vfs.capture_state()

    report = mount(vfs, tracker, rules=rules).recover()
    assert report == {PATH: "clean", **{path: "damaged" for path in foreign}}
    assert vfs.capture_state() == before
    for path in foreign:
        with pytest.raises(ShieldError):
            mount(vfs, tracker, rules=rules).read_file(path)


@pytest.mark.parametrize("keep", [0.5, 0.0], ids=["half", "empty"])
def test_recover_keeps_the_extents_of_a_torn_manifest(keep):
    """A manifest cut short (by a host that lies about its own writes or
    rots the disk) is reported damaged: recovery must not mistake the
    live generation's extents for strays and unlink them."""
    vfs = VirtualFileSystem()
    tracker = LocalFreshnessTracker()
    mount(vfs, tracker).write_file(PATH, OLD)
    manifest = vfs.read(PATH).content
    vfs.tamper(PATH, manifest[: int(len(manifest) * keep)])
    extents = {extent_path(PATH, 0, r): vfs.read(extent_path(PATH, 0, r)).content for r in range(2)}

    shield = mount(vfs, tracker)
    assert shield.recover() == {PATH: "damaged"}
    assert shield.stats.torn_writes_detected == 1
    assert {p: vfs.read(p).content for p in extents} == extents
    with pytest.raises(ShieldError):
        shield.read_file(PATH)
    vfs.tamper(PATH, manifest)  # whatever restores the manifest finds its data
    assert mount(vfs, tracker).read_file(PATH) == OLD
