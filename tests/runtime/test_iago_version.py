"""Iago defence on the version syscall (nonce-reuse attack surface)."""

import pytest

from repro._sim import SimClock
from repro.enclave.cost_model import DEFAULT_COST_MODEL as CM
from repro.enclave.sgx import SgxMode
from repro.errors import IagoError
from repro.runtime.fs_shield import FileSystemShield, PathRule, ShieldPolicy
from repro.runtime.syscall import SyscallInterface
from repro.runtime.vfs import VirtualFileSystem
from tests.runtime._extents import extent_path, manifest_body


def make_shield():
    vfs = VirtualFileSystem()
    clock = SimClock()
    syscalls = SyscallInterface(vfs, CM, clock, mode=SgxMode.NATIVE)
    shield = FileSystemShield(
        syscalls,
        bytes(32),
        [PathRule("/s/", ShieldPolicy.ENCRYPT)],
        CM,
        clock,
    )
    return shield, syscalls, vfs


def test_next_version_increments():
    shield, syscalls, _ = make_shield()
    assert syscalls.next_version("/s/f") == 0
    shield.write_file("/s/f", b"v0")
    assert syscalls.next_version("/s/f") == 1
    shield.write_file("/s/f", b"v1")
    assert syscalls.next_version("/s/f") == 2


def test_negative_version_from_kernel_rejected():
    shield, syscalls, _ = make_shield()
    shield.write_file("/s/f", b"v0")
    syscalls.hostile_hook = lambda name, res: -1 if name == "version" else res
    with pytest.raises(IagoError):
        syscalls.next_version("/s/f")


def test_stale_version_from_kernel_cannot_force_nonce_reuse():
    """A kernel reporting an old version must not trick the shield into
    reusing a (key, nonce=version||chunk) pair for different plaintext —
    the in-enclave version floor prevents it."""
    shield, syscalls, vfs = make_shield()
    shield.write_file("/s/f", b"content-v0")
    # The kernel lies: claims the next write is version 0 again.
    syscalls.hostile_hook = lambda name, res: 0 if name == "version" else res
    shield.write_file("/s/f", b"content-v1")
    syscalls.hostile_hook = None
    # The shield's internal counter won: the second write is version 1.
    assert manifest_body(vfs, "/s/f")["version"] == 1
    assert shield.read_file("/s/f") == b"content-v1"


def test_version_wrapped_past_the_nonce_field_cannot_force_nonce_reuse():
    """A kernel answering ``v + 2^32`` clears the floor and the
    non-negativity check, and the chunk nonce keeps only 32 bits of the
    version: generation ``v``'s (key, nonce) pairs would seal the new
    plaintext, and the XOR of the two stored chunks would be the XOR of
    the two plaintexts.  The shield must refuse before sealing a byte."""
    shield, syscalls, vfs = make_shield()
    first, second = b"A" * 64, b"secret-weights-" * 4 + b"!!!!"
    shield.write_file("/s/f", first)
    stored = vfs.capture_state()
    sealed_first = vfs.read(extent_path("/s/f", 0, 0)).content[: len(first)]

    syscalls.hostile_hook = lambda name, res: res + 2**32 if name == "version" else res
    with pytest.raises(IagoError, match="32-bit nonce field"):
        shield.write_file("/s/f", second)
    syscalls.hostile_hook = None

    # Nothing was sealed under the reused nonces, nothing reached the host ...
    assert vfs.capture_state() == stored
    assert shield.stats.chunks_sealed == 1
    # ... and the lie did not poison the floor: the next write is version 1.
    shield.write_file("/s/f", second)
    assert manifest_body(vfs, "/s/f")["version"] == 1
    sealed_second = vfs.read(extent_path("/s/f", 1, 0)).content[: len(second)]
    leaked = bytes(a ^ b for a, b in zip(sealed_first, sealed_second))
    assert leaked != bytes(a ^ b for a, b in zip(first, second))
    assert shield.read_file("/s/f") == second
