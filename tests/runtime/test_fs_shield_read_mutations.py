"""Mutations of stored bytes against the read path, which opens chunks
where they lie.

A HW enclave, a journaled two-replica file, and a host that truncates,
flips a bit in, splices into, appends to or swaps (with another file's
artifact) the stored manifest and one or both extents before a cold
read, or rewrites an extent while it is being opened.  The scrub checks
digests where the bytes lie and is advisory; the AEAD, over the one
fetch it makes of each chunk, decides.  Whatever the host does:

* a read returns the written bytes or raises a typed ``ReproError`` —
  nothing else;
* damage to a single replica always reads correctly and is repaired;
* nothing crosses into the enclave but the manifest: no extent byte is
  copied in, whether the read succeeds or is refused.
"""

import random
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from repro._sim import DeterministicRng, SimClock
from repro.enclave.attestation import ProvisioningAuthority
from repro.enclave.cost_model import DEFAULT_COST_MODEL as CM
from repro.enclave.sgx import EnclaveImage, Segment, SgxCpu, SgxMode
from repro.crypto import chacha
from repro.errors import ReproError, ShieldError
from repro.runtime.fs_shield import (
    CHUNK_MARKER,
    FileSystemShield,
    LocalFreshnessTracker,
    PathRule,
    ShieldPolicy,
)
from repro.runtime.syscall import SyscallInterface
from repro.runtime.vfs import VirtualFile, VirtualFileSystem
from tests.runtime._extents import chunk_slot, extent_path, manifest_body

PATH, OTHER = "/secure/a", "/secure/b"
CHUNK = 256
#: What the host may damage: the manifest or one replica's extent.
TARGETS = ("manifest", 0, 1)


def make_rig():
    clock = SimClock()
    rng = DeterministicRng(31, label="read-mutations")
    cpu = SgxCpu(
        "cpu", CM, clock, ProvisioningAuthority(rng.child("intel")), rng.child("cpu")
    )
    enclave = cpu.create_enclave(
        EnclaveImage("app", [Segment.from_content("b", b"x", "code")]), SgxMode.HW
    )
    vfs = VirtualFileSystem()
    syscalls = SyscallInterface(vfs, CM, clock, mode=SgxMode.HW, enclave=enclave)
    shield = FileSystemShield(
        syscalls, bytes(range(32)), [PathRule("/secure/", ShieldPolicy.ENCRYPT)],
        CM, clock, chunk_size=CHUNK, freshness=LocalFreshnessTracker(), replicas=2,
        memory=enclave.memory,
    )
    return SimpleNamespace(shield=shield, syscalls=syscalls, vfs=vfs, memory=enclave.memory)


def stored_path(path, target):
    return path if target == "manifest" else extent_path(path, 0, target)


def mutate(kind, raw, other, rng):
    """``raw`` after the host's ``kind`` of damage; ``other`` is another
    file's artifact of the same kind."""
    if kind == "truncate":
        return raw[: rng.randrange(len(raw))] if raw else raw
    if kind == "flip":
        if not raw:
            return b"\x01"
        damaged = bytearray(raw)
        damaged[rng.randrange(len(raw))] ^= 1 << rng.randrange(8)
        return bytes(damaged)
    if kind == "splice":  # a range of the other artifact over the same range
        start = rng.randrange(max(1, len(raw)))
        stop = min(len(raw), start + rng.randrange(1, 64))
        return raw[:start] + other[start:stop].ljust(stop - start, b"\0") + raw[stop:]
    if kind == "append":
        return raw + rng.randbytes(rng.randrange(1, 40))
    assert kind == "swap"
    return other


MUTATIONS = st.dictionaries(
    st.sampled_from(TARGETS),
    st.sampled_from(["truncate", "flip", "splice", "append", "swap"]),
    min_size=1,
    max_size=3,
)


@settings(max_examples=150, deadline=None)
@given(
    size=st.integers(0, 2000),
    declared_extra=st.one_of(st.none(), st.integers(0, 100_000)),
    mutations=MUTATIONS,
    seed=st.integers(0, 2**16),
)
def test_a_mutated_store_reads_right_or_is_refused_typed(
    size, declared_extra, mutations, seed
):
    rng = random.Random(seed)
    rig = make_rig()
    data, other_data = rng.randbytes(size), rng.randbytes(size)
    declared = None if declared_extra is None else size + declared_extra
    rig.shield.write_file(PATH, data, declared_size=declared)
    rig.shield.write_file(OTHER, other_data, declared_size=declared)
    body = manifest_body(rig.vfs, PATH)
    slots = [chunk_slot(rig.vfs, PATH, i) for i in range(body["n_chunks"])]

    slot_damage = False
    for target, kind in mutations.items():
        stored = stored_path(PATH, target)
        raw = rig.vfs.read(stored).content
        damaged = mutate(kind, raw, rig.vfs.read(stored_path(OTHER, target)).content, rng)
        rig.vfs.tamper(stored, damaged)
        if target != "manifest":
            slot_damage |= any(raw[a:b] != damaged[a:b] for a, b in slots)
    single_replica = "manifest" not in mutations and len(mutations) == 1

    rig.shield.drop_caches()
    stats = rig.shield.stats
    opened, repaired = stats.chunks_opened, stats.chunks_repaired
    manifest = len(rig.vfs.read(PATH).content)
    touched = rig.memory.bytes_touched
    try:
        content = rig.shield.read_file(PATH)
    except Exception as exc:  # noqa: BLE001 — the type is what is checked
        assert isinstance(exc, ReproError), f"untyped {type(exc).__name__}: {exc}"
        assert not single_replica, f"one damaged replica refused: {exc}"
        assert stats.chunks_opened == opened
        # Nothing crosses in but the manifest, if the read got that far.
        assert rig.memory.bytes_touched - touched in (0, manifest)
        return
    assert content == data
    assert stats.chunks_opened - opened == body["n_chunks"]
    assert rig.memory.bytes_touched - touched == manifest  # nothing but the manifest
    if single_replica and slot_damage:
        assert stats.chunks_repaired > repaired
        repaired = stats.chunks_repaired
        rig.shield.drop_caches()
        assert rig.shield.read_file(PATH) == data
        assert stats.chunks_repaired == repaired  # healed: the next scrub is clean


def test_a_replica_rewritten_after_the_scrub_is_refused(monkeypatch):
    """The digest check in the host's buffer only picks a copy: a host
    that rewrites it between the scrub and the open has the AEAD over its
    one fetch refuse the read — it gains nothing."""
    rig = make_rig()
    rig.shield.write_file(PATH, bytes(range(256)) * 3)
    rig.shield.drop_caches()
    scrub = rig.shield._scrub_extents

    def scrub_then_rewrite(path, body, *landing):
        blobs, heal = scrub(path, body, *landing)
        forged = bytearray(blobs[1])
        forged[0] ^= 0x01
        blobs[1] = bytes(forged)
        return blobs, heal

    monkeypatch.setattr(rig.shield, "_scrub_extents", scrub_then_rewrite)
    with pytest.raises(ShieldError, match="chunk 1 .* failed authentication"):
        rig.shield.read_file(PATH)
    assert rig.shield.stats.chunks_opened == 0


def test_an_extent_rewritten_mid_open_reads_right_or_is_refused(monkeypatch):
    """The host hands every extent over as a ``bytearray`` it keeps, and
    rewrites a ciphertext byte of each chunk just after the AEAD has
    checked that chunk's tag.  The scrub's views point into those
    buffers, so only the one fetch per chunk stands between the host and
    a decrypt of bytes no tag covered: the read returns what was written
    or is refused, nothing else.  (A scrub that slices each chunk into a
    private copy passes this whatever the open does; it guards the
    views.)"""
    rig = make_rig()
    data = bytes(range(256)) * 3
    rig.shield.write_file(PATH, data)
    rig.shield.drop_caches()
    slots = [chunk_slot(rig.vfs, PATH, index) for index in range(3)]
    handed, checked = [], []

    def hostile(name, result):
        if name == "read" and CHUNK_MARKER in result.path:
            handed.append(bytearray(result.content))
            return VirtualFile(result.path, handed[-1], result.declared_size, result.version)
        return result

    mac = chacha.poly1305_mac

    def rewriting_mac(key, message, *args):
        tag = mac(key, message, *args)
        start = slots[len(checked)][0]
        for buffer in handed:
            buffer[start] ^= 0x01
        checked.append(start)
        return tag

    rig.syscalls.hostile_hook = hostile
    monkeypatch.setattr(chacha, "poly1305_mac", rewriting_mac)
    try:
        assert rig.shield.read_file(PATH) == data
    except ShieldError:
        pass
    assert len(handed) == 2 and checked  # both replicas handed over, and rewritten
