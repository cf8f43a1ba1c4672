"""Failure modes that only exist because a replica is one extent.

test_fs_shield_atomic.py sweeps the boundaries *between* the mutating
operations of a commit.  A generation's chunks now share one file per
replica, so there are boundaries *inside* an operation too (a tear at
any byte of an extent) and one new hazard: a replica that lost chunk 1
may hold the only intact copy of chunk 5, so a repair must never
destroy the copy it is repairing.
"""

import hashlib

import pytest

from repro.crypto import encoding
from repro.errors import StorageCrash
from repro.runtime.fs_shield import CHUNK_MARKER, COMMIT_SUFFIX, LocalFreshnessTracker
from repro.runtime.storage_faults import CrashPoint, StorageFaultPlan
from repro.runtime.vfs import VirtualFileSystem
from tests.runtime._extents import chunk_slot, damage_chunk, extent_path
from tests.runtime.test_fs_shield_atomic import PATH, mount

OLD = bytes(range(256)) * 6 + b"tail"  # 7 chunks at 256, the last one short
NEW = OLD[::-1]
N_CHUNKS = 7


def boundaries(vfs):
    """Every chunk boundary of the live generation's extents, ± 1 byte."""
    stops = [chunk_slot(vfs, PATH, index)[1] for index in range(N_CHUNKS)]
    cuts = {0}
    for stop in stops:
        cuts.update((stop - 1, stop, stop + 1))
    cuts.discard(stops[-1])      # the whole extent: not a tear
    cuts.discard(stops[-1] + 1)
    return sorted(cuts), stops


def stored_chunk_is_intact(vfs, index, replica, version=0):
    body = encoding.decode(encoding.decode(vfs.read(PATH).content)["body"])
    start, stop = chunk_slot(vfs, PATH, index)
    blob = vfs.read(extent_path(PATH, version, replica)).content[start:stop]
    return hashlib.sha256(blob).digest() == body["chunk_digests"][index]


def fresh(content=OLD):
    vfs, tracker = VirtualFileSystem(), LocalFreshnessTracker()
    shield = mount(vfs, tracker)
    shield.write_file(PATH, content)
    return vfs, tracker, shield


def test_geometry_is_derived_not_stored():
    vfs, _, _ = fresh()
    extent = vfs.read(extent_path(PATH, 0, 0)).content
    assert extent == vfs.read(extent_path(PATH, 0, 1)).content
    assert len(extent) == len(OLD) + N_CHUNKS * 16  # one AEAD tag per chunk
    assert chunk_slot(vfs, PATH, N_CHUNKS - 1)[1] == len(extent)
    assert [p for p in vfs.listdir() if CHUNK_MARKER in p] == [
        extent_path(PATH, 0, 0), extent_path(PATH, 0, 1)
    ]


@pytest.mark.parametrize("replica", [0, 1])
def test_commit_torn_inside_an_extent_write(replica):
    """The write of either replica's extent keeps only a prefix — cut at
    every chunk boundary ± 1 byte — and the process dies: the file reads
    back OLD before any recovery, and recovery leaves exactly the live
    generation's two intact extents."""
    probe_vfs, _, _ = fresh()
    cuts, _ = boundaries(probe_vfs)
    assert len(cuts) >= 3 * N_CHUNKS - 2
    for keep in cuts:
        vfs, tracker, shield = fresh()
        live = {p: vfs.read(p).content for p in vfs.listdir()}
        # Commit op order: extent of replica 0 (op 0), of replica 1 (op 1).
        plan = StorageFaultPlan(
            0, crash_points=[CrashPoint(at_op=replica, keep=keep)]
        ).attach(vfs)
        with pytest.raises(StorageCrash):
            shield.write_file(PATH, NEW)
        assert plan.counters.torn_writes == 1
        assert len(vfs.read(extent_path(PATH, 1, replica)).content) == keep
        vfs.faults = None

        assert mount(vfs, tracker).read_file(PATH) == OLD
        remounted = mount(vfs, tracker)
        remounted.recover()
        assert remounted.stats.chunks_repaired == 0
        assert {p: vfs.read(p).content for p in vfs.listdir()} == live
        remounted.write_file(PATH, NEW)
        assert mount(vfs, tracker).read_file(PATH) == NEW


@pytest.mark.parametrize("replica", [0, 1])
@pytest.mark.parametrize("heal_by", ["read", "recover"])
def test_live_extent_cut_short_uses_the_surviving_prefix(replica, heal_by):
    """A live extent that kept only a prefix (a tear the host hid until
    after the flip, or truncation at rest): the chunks wholly inside the
    prefix are used as they are, only the rest are counted and repaired,
    and both extents end up intact."""
    probe_vfs, _, _ = fresh()
    cuts, stops = boundaries(probe_vfs)
    for keep in cuts:
        vfs, tracker, _ = fresh()
        victim = extent_path(PATH, 0, replica)
        good = vfs.read(victim).content
        vfs.tamper(victim, good[:keep])
        lost = sum(stop > keep for stop in stops)

        shield = mount(vfs, tracker)
        if heal_by == "read":
            assert shield.read_file(PATH) == OLD
        else:
            assert shield.recover()[PATH] == "clean"
        assert shield.stats.torn_writes_detected == lost
        assert shield.stats.chunks_repaired == lost
        assert vfs.read(victim).content == good
        assert vfs.read(extent_path(PATH, 0, 1 - replica)).content == good
        assert not any(p.endswith(COMMIT_SUFFIX) for p in vfs.listdir())


def cross_damaged():
    """Replica 0 lost chunk 1, replica 1 lost chunk 5: neither extent is
    whole, the file is."""
    vfs, tracker, _ = fresh()
    damage_chunk(vfs, PATH, 0, index=1, replica=0)
    damage_chunk(vfs, PATH, 0, index=5, replica=1)
    return vfs, tracker


def repair_faults():
    """Every way to interrupt the repair of ``cross_damaged``: a crash
    before/after each of its mutating ops, a tear of each of its writes
    at every chunk boundary ± 1 byte."""
    vfs, tracker = cross_damaged()
    plan = StorageFaultPlan(0).attach(vfs)
    assert mount(vfs, tracker).read_file(PATH) == OLD
    # Per damaged replica: the pending extent's write, then its rename.
    assert plan.op_index == 4
    cuts, _ = boundaries(vfs)
    points = [
        CrashPoint(at_op=op, after=after) for op in range(4) for after in (False, True)
    ]
    points += [CrashPoint(at_op=op, keep=keep) for op in (0, 2) for keep in cuts]
    return points


@pytest.mark.parametrize("heal_by", ["read", "recover"])
def test_interrupted_repair_never_loses_an_intact_chunk(heal_by):
    points = repair_faults()
    assert len(points) > 40
    for point in points:
        vfs, tracker = cross_damaged()
        StorageFaultPlan(0, crash_points=[point]).attach(vfs)
        healer = mount(vfs, tracker)
        with pytest.raises(StorageCrash):
            healer.read_file(PATH) if heal_by == "read" else healer.recover()
        vfs.faults = None

        # Whatever the repair got to, every chunk still has an intact
        # stored copy and each replica still holds what it held.
        for index in range(N_CHUNKS):
            assert any(
                stored_chunk_is_intact(vfs, index, replica) for replica in (0, 1)
            ), f"{point}: chunk {index} lost"
        assert stored_chunk_is_intact(vfs, 5, 0) and stored_chunk_is_intact(vfs, 1, 1)
        crashed = vfs.capture_state()
        assert mount(vfs, tracker).read_file(PATH) == OLD, point

        # Mount-time recovery of the same wreck: a stray pending repair is
        # collected, not reported as a rollback, and both replicas heal.
        vfs.restore_state(crashed)
        remounted = mount(vfs, tracker)
        assert remounted.recover()[PATH] == "clean"
        assert remounted.stats.recoveries_rolled_back == 0
        assert vfs.read(extent_path(PATH, 0, 0)).content == vfs.read(
            extent_path(PATH, 0, 1)
        ).content
        assert [p for p in vfs.listdir() if CHUNK_MARKER in p] == [
            extent_path(PATH, 0, 0), extent_path(PATH, 0, 1)
        ]
        assert mount(vfs, tracker).read_file(PATH) == OLD


def test_small_declared_size_is_floored_at_the_manifest():
    """The caller's declared size is charged on the manifest write; one
    smaller than the manifest itself cannot under-charge it (and the VFS
    would refuse it): the manifest is stored at its real length."""
    vfs, tracker = VirtualFileSystem(), LocalFreshnessTracker()
    shield = mount(vfs, tracker)
    shield.write_file(PATH, b"tiny", declared_size=8)
    manifest = vfs.read(PATH)
    assert manifest.size == len(manifest.content) > 8
    assert shield.read_file(PATH) == b"tiny"

    big = mount(VirtualFileSystem(), LocalFreshnessTracker())
    big.write_file(PATH, b"tiny", declared_size=1 << 20)
    assert big._syscalls._vfs.read(PATH).size == 1 << 20
    # The extents are charged for their real bytes either way.
    assert big._syscalls._vfs.read(extent_path(PATH, 0, 0)).size == len(b"tiny") + 16
