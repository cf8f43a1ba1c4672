"""A cache hit skips the AEAD, never a check.

With every chunk of a journaled 2-replica file cached, the warm read
still fetches the manifest, authenticates it and asks the freshness
tracker — so whatever the OS does to the *manifest* is caught exactly as
on a cold read, while damage to the *extents* goes unseen only because
the manifest digest the cache key binds is unchanged (the bytes served
are the ones that authenticated), and is caught or healed the moment the
cache is dropped.
"""

import pytest

from repro._sim import SimClock
from repro.enclave.cost_model import DEFAULT_COST_MODEL as CM
from repro.enclave.sgx import SgxMode
from repro.errors import FreshnessError, IntegrityError, ReproError
from repro.runtime.fs_shield import (
    FileSystemShield,
    LocalFreshnessTracker,
    PathRule,
    ShieldPolicy,
)
from repro.runtime.syscall import SyscallInterface
from repro.runtime.vfs import VirtualFileSystem
from tests.runtime._extents import damage_chunk, extent_path

PATH = "/s/state"
OLD = bytes(range(256)) * 5 + b"tail"  # 6 chunks at 256, the last one short
NEW = OLD[::-1]
REPLICAS = 2


class CountingTracker(LocalFreshnessTracker):
    def __init__(self):
        super().__init__()
        self.verifications = 0

    def verify(self, path, version, digest):
        self.verifications += 1
        super().verify(path, version, digest)


class CountingShield(FileSystemShield):
    mac_checks = 0

    def _manifest_mac(self, path, body_bytes):
        self.mac_checks += 1
        return super()._manifest_mac(path, body_bytes)


def two_generations():
    """OLD then NEW written to PATH; returns the shield (every chunk of
    NEW cached), the storage under it and a disk image taken at OLD."""
    vfs, tracker, clock = VirtualFileSystem(), CountingTracker(), SimClock()
    shield = CountingShield(
        SyscallInterface(vfs, CM, clock, mode=SgxMode.NATIVE),
        bytes(range(32)),
        [PathRule("/s/", ShieldPolicy.ENCRYPT)],
        CM,
        clock,
        chunk_size=256,
        freshness=tracker,
        replicas=REPLICAS,
    )
    shield.write_file(PATH, OLD)
    image_at_old = vfs.capture_state()
    shield.write_file(PATH, NEW)
    assert shield.read_file(PATH) == NEW
    return shield, vfs, tracker, image_at_old


def read_outcome(shield):
    """What a read does, comparably: the bytes or the refusal verbatim."""
    try:
        return shield.read_file(PATH)
    except ReproError as exc:
        return type(exc), str(exc)


def warm_and_cold(attack):
    """``attack(vfs, image_at_old)`` mounted under a shield with every
    chunk cached and under one whose caches were dropped first."""
    outcomes = []
    for drop in (False, True):
        shield, vfs, _, image_at_old = two_generations()
        if drop:
            shield.drop_caches()
        attack(vfs, image_at_old)
        opened = shield.stats.chunks_opened
        outcomes.append((read_outcome(shield), shield.stats.chunks_opened - opened))
    return outcomes


def test_a_warm_read_makes_every_check_a_cold_read_makes():
    shield, _, tracker, _ = two_generations()
    counts = []
    for drop in (False, True):
        if drop:
            shield.drop_caches()
        before = (shield.mac_checks, tracker.verifications, shield.stats.chunks_opened)
        assert shield.read_file(PATH) == NEW
        counts.append((
            shield.mac_checks - before[0],
            tracker.verifications - before[1],
            shield.stats.chunks_opened - before[2],
        ))
    warm, cold = counts
    assert warm[:2] == cold[:2] == (1, 1)  # one manifest MAC, one freshness check
    assert (warm[2], cold[2]) == (0, 6)    # and the AEAD is all a hit skips


@pytest.mark.parametrize("position", [0, 40, -1], ids=["framing", "body", "mac"])
def test_a_flipped_manifest_byte_raises_warm_exactly_as_cold(position):
    def flip(vfs, _):
        raw = bytearray(vfs.read(PATH).content)
        raw[position] ^= 0x01
        vfs.tamper(PATH, bytes(raw))

    (warm, warm_opened), (cold, cold_opened) = warm_and_cold(flip)
    assert warm == cold
    assert issubclass(warm[0], ReproError)
    assert warm_opened == cold_opened == 0


def test_a_rolled_back_generation_raises_warm_exactly_as_cold():
    """Manifest and extents of OLD restored wholesale: internally
    consistent, authentic — and stale."""
    (warm, _), (cold, _) = warm_and_cold(
        lambda vfs, image_at_old: vfs.restore_state(image_at_old)
    )
    assert warm == cold
    assert warm[0] is FreshnessError


def test_one_damaged_replica_is_served_warm_and_healed_cold():
    shield, vfs, _, _ = two_generations()
    version = shield._versions[PATH]
    intact = vfs.read(extent_path(PATH, version, 1)).content
    damage_chunk(vfs, PATH, version, index=2, replica=1)
    damaged = vfs.read(extent_path(PATH, version, 1)).content
    # Warm: the manifest is unchanged, so the key still names plaintext
    # that authenticated; the extents are not even fetched.
    assert shield.read_file(PATH) == NEW
    assert shield.stats.torn_writes_detected == 0
    assert vfs.read(extent_path(PATH, version, 1)).content == damaged
    # Cold: scrub-on-read sees the bad slot and repairs it from replica 0.
    shield.drop_caches()
    assert shield.read_file(PATH) == NEW
    assert shield.stats.torn_writes_detected == 1
    assert shield.stats.chunks_repaired == 1
    assert vfs.read(extent_path(PATH, version, 1)).content == intact


def test_every_replica_damaged_is_served_warm_and_refused_cold():
    shield, vfs, _, _ = two_generations()
    version = shield._versions[PATH]
    for replica in range(REPLICAS):
        damage_chunk(vfs, PATH, version, index=2, replica=replica)
    assert shield.read_file(PATH) == NEW
    shield.drop_caches()
    with pytest.raises(IntegrityError, match="no intact replica remains"):
        shield.read_file(PATH)
    assert shield.stats.chunks_opened == 0  # nothing was ever decrypted
