"""Tier-1 cost pin: the safe storage layout stays affordable.

Deterministic (simulated clock and call counts only, no host timing), so
it runs in tier 1.  ``shield_write``'s geometry — HW enclave, async
ring, 64 KiB chunks, one 544 KiB file — written inline and journaled
with two replicas: the journaled commit may cost at most 1.15x the
inline write in simulated seconds and 20 syscalls, and its ciphertext
crosses the enclave boundary once however many replicas it lands in.
Per-chunk shadow files (78 calls, two crossings, 1.46x) trip both.
"""

from repro._sim import DeterministicRng, SimClock
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
PAYLOAD = bytes(range(256)) * (544 * 4)  # 544 KiB


def _hw_shield(**layout):
    rng = DeterministicRng(21, label="storage-pin")
    clock = SimClock()
    cpu = SgxCpu(
        "cpu-pin", CM, clock, ProvisioningAuthority(rng.child("intel")), rng.child("cpu")
    )
    enclave = cpu.create_enclave(
        EnclaveImage("app", [Segment.from_content("b", b"x", "code")]), SgxMode.HW
    )
    vfs = VirtualFileSystem()
    syscalls = SyscallInterface(vfs, CM, clock, mode=SgxMode.HW, enclave=enclave)
    shield = FileSystemShield(
        syscalls,
        bytes(range(32)),
        [PathRule("/secure/", ShieldPolicy.ENCRYPT)],
        CM,
        clock,
        freshness=LocalFreshnessTracker(),
        **layout,
    )
    return shield, syscalls, enclave, vfs, clock


def _overwrite(**layout):
    """Cost of the second write of PATH (the steady state: an old
    generation to collect); returns (seconds, syscalls, bytes crossed,
    bytes the OS wrote, vfs)."""
    shield, syscalls, enclave, vfs, clock = _hw_shield(**layout)
    shield.write_file(PATH, PAYLOAD)
    syscalls.flush()
    start, calls = clock.now, syscalls.stats.calls
    crossed, written = enclave.memory.bytes_touched, syscalls.stats.bytes_written
    shield.write_file(PATH, PAYLOAD[::-1])
    syscalls.flush()
    cost = (
        clock.now - start,
        syscalls.stats.calls - calls,
        enclave.memory.bytes_touched - crossed,
        syscalls.stats.bytes_written - written,
    )
    assert shield.read_file(PATH) == PAYLOAD[::-1]
    return (*cost, vfs)


def test_journaled_write_costs_about_what_the_inline_one_does():
    inline_s, inline_calls, _, _, _ = _overwrite()
    journal_s, journal_calls, _, _, _ = _overwrite(journal=True, replicas=2)
    assert inline_calls <= journal_calls <= 20, journal_calls
    assert journal_s <= 1.15 * inline_s, (journal_s, inline_s)


def test_journaled_payload_crosses_the_enclave_boundary_once():
    _, _, crossed, written, vfs = _overwrite(journal=True, replicas=2)
    extents = [p for p in vfs.listdir() if CHUNK_MARKER in p]
    assert len(extents) == 2
    extent, manifest = len(vfs.read(extents[0]).content), len(vfs.read(PATH).content)
    assert extent == len(PAYLOAD) + 9 * 16  # 9 chunks, one tag each
    assert crossed == extent + manifest        # once, whatever the replica count
    assert written == 2 * extent + manifest    # the OS wrote every replica
