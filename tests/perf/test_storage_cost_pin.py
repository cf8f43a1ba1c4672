"""Tier-1 cost pin: the safe storage layout stays affordable.

Deterministic (simulated clock and call counts only, no host timing), so
it runs in tier 1.  ``shield_write``'s geometry — HW enclave, async
ring, 64 KiB chunks, one 544 KiB file committed with two replicas:
its overwrite is pinned bit for bit in simulated seconds and in
syscalls, and its ciphertext crosses the enclave boundary once, as the
seal's output into the host's buffer, however many replicas it lands
in: the only bytes *copied* out of the enclave are the manifest's.
Per-chunk shadow files (78 calls, two crossings) trip both.  What keeps
its copy: a PASSTHROUGH write (its plaintext lives in the enclave) and
NATIVE mode (the copy is the kernel's own).
"""

from repro._sim import DeterministicRng, SimClock
from repro.crypto import encoding
from repro.enclave.attestation import ProvisioningAuthority
from repro.enclave.cost_model import DEFAULT_COST_MODEL as CM
from repro.enclave.sgx import EnclaveImage, Segment, SgxCpu, SgxMode
from repro.runtime.fs_shield import (
    CHUNK_MARKER,
    FileSystemShield,
    LocalFreshnessTracker,
    PathRule,
    ShieldPolicy,
)
from repro.runtime.syscall import SyscallInterface
from repro.runtime.vfs import VirtualFileSystem

PATH = "/secure/file"
PLAIN_PATH = "/plain/file"
PAYLOAD = bytes(range(256)) * (544 * 4)  # 544 KiB
RULES = [
    PathRule("/secure/", ShieldPolicy.ENCRYPT),
    PathRule("/plain/", ShieldPolicy.PASSTHROUGH),
]


def _shield(mode=SgxMode.HW):
    clock = SimClock()
    enclave = None
    if mode is SgxMode.HW:
        rng = DeterministicRng(21, label="storage-pin")
        cpu = SgxCpu(
            "cpu-pin", CM, clock, ProvisioningAuthority(rng.child("intel")), rng.child("cpu")
        )
        enclave = cpu.create_enclave(
            EnclaveImage("app", [Segment.from_content("b", b"x", "code")]), SgxMode.HW
        )
    vfs = VirtualFileSystem()
    syscalls = SyscallInterface(vfs, CM, clock, mode=mode, enclave=enclave)
    shield = FileSystemShield(
        syscalls,
        bytes(range(32)),
        RULES,
        CM,
        clock,
        freshness=LocalFreshnessTracker(),
        replicas=2,
    )
    return shield, syscalls, enclave, vfs, clock


def _overwrite(path=PATH, mode=SgxMode.HW, declared_size=None):
    """Cost of the second write of ``path`` (the steady state: an old
    generation to collect); returns (seconds, syscalls, bytes copied out
    of the enclave — None outside one —, bytes the OS wrote, vfs)."""
    shield, syscalls, enclave, vfs, clock = _shield(mode)
    memory = enclave.memory if enclave else None
    shield.write_file(path, PAYLOAD, declared_size=declared_size)
    syscalls.flush()
    start, calls = clock.now, syscalls.stats.calls
    crossed = memory.bytes_touched if memory else None
    written = syscalls.stats.bytes_written
    shield.write_file(path, PAYLOAD[::-1], declared_size=declared_size)
    syscalls.flush()
    cost = (
        clock.now - start,
        syscalls.stats.calls - calls,
        memory.bytes_touched - crossed if memory else None,
        syscalls.stats.bytes_written - written,
    )
    assert shield.read_file(path) == PAYLOAD[::-1]
    return (*cost, vfs)


def _journaled_sizes(vfs):
    """(bytes of one replica's extent, bytes of the live manifest)."""
    extents = [p for p in vfs.listdir() if CHUNK_MARKER in p]
    assert len(extents) == 2
    extent, manifest = len(vfs.read(extents[0]).content), len(vfs.read(PATH).content)
    assert extent == len(PAYLOAD) + 9 * 16  # 9 chunks, one tag each
    return extent, manifest


def test_hw_journaled_overwrite_costs_what_it_always_did():
    seconds, calls, _, _, _ = _overwrite()
    assert calls == 18
    assert seconds == 0.00016504653333334132  # bit for bit


def test_journaled_payload_crosses_the_enclave_boundary_once():
    """Once, as the seal's output: the extents are never copied."""
    _, _, crossed, written, vfs = _overwrite()
    extent, manifest = _journaled_sizes(vfs)
    assert crossed == manifest                 # the enclave-built bytes only
    assert written == 2 * extent + manifest    # the OS wrote every replica


def test_passthrough_payload_is_still_copied_out_once():
    _, calls, crossed, written, vfs = _overwrite(PLAIN_PATH)
    assert vfs.read(PLAIN_PATH).content == PAYLOAD[::-1]
    assert crossed == written == len(PAYLOAD)
    assert calls == 6  # version stat, open, write, 2 continuations, close


def test_native_journaled_overwrite_costs_what_it_always_did():
    """The kernel's user->kernel copy is no seal's to skip: every byte
    of both extents and the manifest is charged as before."""
    seconds, calls, crossed, written, vfs = _overwrite(mode=SgxMode.NATIVE)
    extent, manifest = _journaled_sizes(vfs)
    assert crossed is None and written == 2 * extent + manifest
    assert calls == 18
    assert seconds == 0.00019905394444444432  # bit for bit the pre-seal charge


def test_declared_size_journaled_write_copies_only_the_manifest():
    declared = 8 * 1024 * 1024
    _, _, crossed, written, vfs = _overwrite(declared_size=declared)
    extent, manifest = _journaled_sizes(vfs)
    assert crossed == manifest
    assert written == 2 * extent + declared
    stored = vfs.read(PATH)
    assert stored.size == declared
    body = encoding.decode(encoding.decode(stored.content)["body"])
    assert body["declared_size"] == declared
