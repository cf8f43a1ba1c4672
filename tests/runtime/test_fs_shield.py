"""File-system shield: policies, integrity, freshness, cost accounting."""

import copy

import pytest
from hypothesis import given, settings, strategies as st

from repro._sim import SimClock
from repro.enclave.cost_model import DEFAULT_COST_MODEL as CM
from repro.enclave.sgx import SgxMode
from repro.errors import FreshnessError, ShieldError
from repro.runtime.fs_shield import (
    FileSystemShield,
    LocalFreshnessTracker,
    PathRule,
    ShieldPolicy,
)
from repro.runtime.syscall import SyscallInterface
from repro.runtime.vfs import VirtualFileSystem
from tests.runtime._extents import damage_chunk, extent_path, plant, stored_chunks

#: What refuses a planted chunk: the manifest's digest, or — under a
#: manifest re-issued over it — the chunk's own tag or keyed digest.
NO_REPLICA, FORGED = "no intact replica remains", "failed authentication"

RULES = [
    PathRule("/secure/", ShieldPolicy.ENCRYPT),
    PathRule("/secure/public/", ShieldPolicy.AUTHENTICATE),
    PathRule("/auth/", ShieldPolicy.AUTHENTICATE),
]


def make_shield(freshness=None, chunk_size=1024, rules=RULES, key=None, **options):
    vfs = VirtualFileSystem()
    clock = SimClock()
    syscalls = SyscallInterface(vfs, CM, clock, mode=SgxMode.NATIVE)
    shield = FileSystemShield(
        syscalls,
        key or bytes(range(32)),
        rules,
        CM,
        clock,
        chunk_size=chunk_size,
        freshness=freshness,
        **options,
    )
    return shield, vfs, clock


def test_longest_prefix_policy_resolution():
    shield, _, _ = make_shield()
    assert shield.policy_for("/secure/model.bin") is ShieldPolicy.ENCRYPT
    assert shield.policy_for("/secure/public/readme") is ShieldPolicy.AUTHENTICATE
    assert shield.policy_for("/auth/log") is ShieldPolicy.AUTHENTICATE
    assert shield.policy_for("/tmp/scratch") is ShieldPolicy.PASSTHROUGH


def test_encrypt_roundtrip_and_ciphertext_on_disk():
    shield, vfs, _ = make_shield()
    plaintext = b"model weights " * 500
    shield.write_file("/secure/m", plaintext)
    assert shield.read_file("/secure/m") == plaintext
    stored = [vfs.read(p).content for p in vfs.listdir()]
    assert len(stored) == 2  # the manifest and one extent
    assert not any(b"model weights" in raw for raw in stored)


def test_authenticate_keeps_plaintext_but_detects_tamper():
    shield, vfs, _ = make_shield()
    shield.write_file("/auth/data", b"public but authenticated")
    extent = extent_path("/auth/data", 0, 0)
    raw = vfs.read(extent).content
    assert b"public but authenticated" in raw
    vfs.tamper(extent, raw.replace(b"public", b"forged"))
    shield.drop_caches()
    with pytest.raises(ShieldError):
        shield.read_file("/auth/data")


def test_passthrough_untouched():
    shield, vfs, _ = make_shield()
    shield.write_file("/tmp/x", b"raw")
    assert vfs.read("/tmp/x").content == b"raw"
    assert shield.read_file("/tmp/x") == b"raw"


def test_every_chunk_tamper_detected():
    """A flipped byte anywhere in the manifest or in every replica of an
    extent slot fails closed on a cold read."""
    shield, vfs, _ = make_shield(chunk_size=64, replicas=2)
    shield.write_file("/secure/f", bytes(range(256)) * 2)
    targets = [["/secure/f"], [extent_path("/secure/f", 0, r) for r in range(2)]]
    for group in targets:
        raws = [vfs.read(target).content for target in group]
        for position in range(0, len(raws[0]), 97):
            for target, raw in zip(group, raws):
                corrupted = bytearray(raw)
                corrupted[position] ^= 0xA5
                vfs.tamper(target, bytes(corrupted))
            shield.drop_caches()
            with pytest.raises(ShieldError):
                shield.read_file("/secure/f")
            for target, raw in zip(group, raws):
                vfs.tamper(target, raw)
    assert shield.read_file("/secure/f") == bytes(range(256)) * 2


def test_chunk_swap_between_files_detected():
    """Moving validly encrypted chunks across files fails: the manifest's
    digests stop it, and under a manifest that authenticates them the
    AAD, which binds the path, still does."""
    shield, vfs, _ = make_shield(chunk_size=64)
    shield.write_file("/secure/a", b"A" * 200)
    shield.write_file("/secure/b", b"B" * 200)
    moved = stored_chunks(vfs, "/secure/a")
    for mac, refusal in ((None, NO_REPLICA), (shield._manifest_mac, FORGED)):
        plant(vfs, "/secure/b", moved, mac)
        shield.drop_caches()
        with pytest.raises(ShieldError, match=refusal):
            shield.read_file("/secure/b")


def test_cross_version_chunk_splice_detected():
    """An old generation's extent under the new manifest fails: the
    manifest's digests stop it, and under a manifest that authenticates
    it the file version, bound into every chunk's AAD, still does."""
    shield, vfs, _ = make_shield(chunk_size=64)
    shield.write_file("/secure/f", b"version-zero" * 30)
    old = stored_chunks(vfs, "/secure/f")
    shield.write_file("/secure/f", b"version-one!" * 30)
    for mac, refusal in ((None, NO_REPLICA), (shield._manifest_mac, FORGED)):
        plant(vfs, "/secure/f", old, mac)
        shield.drop_caches()
        with pytest.raises(ShieldError, match=refusal):
            shield.read_file("/secure/f")


def test_rollback_detected_with_freshness_tracker():
    tracker = LocalFreshnessTracker()
    shield, vfs, _ = make_shield(freshness=tracker)
    shield.write_file("/secure/state", b"v0")
    snapshot = copy.deepcopy(vfs.read("/secure/state"))
    shield.write_file("/secure/state", b"v1")
    vfs.rollback("/secure/state", snapshot)
    with pytest.raises(FreshnessError):
        shield.read_file("/secure/state")


def test_rollback_undetected_without_tracker():
    """Documents the paper's layering: AEAD alone cannot stop rollback;
    that is exactly CAS's audit-service job."""
    shield, vfs, _ = make_shield(freshness=None)
    shield.write_file("/secure/state", b"v0")
    snapshot = copy.deepcopy(vfs.read("/secure/state"))
    shield.write_file("/secure/state", b"v1")
    vfs.rollback("/secure/state", snapshot)
    assert shield.read_file("/secure/state") == b"v0"  # silently stale


def test_local_tracker_monotonicity():
    tracker = LocalFreshnessTracker()
    tracker.commit("/f", 0, b"d0")
    tracker.commit("/f", 1, b"d1")
    with pytest.raises(FreshnessError):
        tracker.commit("/f", 1, b"d1-again")
    with pytest.raises(FreshnessError):
        tracker.verify("/f", 0, b"d0")
    with pytest.raises(FreshnessError):
        tracker.verify("/unknown", 0, b"")
    tracker.verify("/f", 1, b"d1")


def test_wrong_key_cannot_read():
    shield_a, vfs, clock = make_shield(key=b"a" * 32)
    shield_a.write_file("/secure/f", b"secret")
    syscalls = shield_a._syscalls
    shield_b = FileSystemShield(syscalls, b"b" * 32, RULES, CM, clock)
    with pytest.raises(ShieldError):
        shield_b.read_file("/secure/f")


def test_declared_size_charges_crypto_time():
    shield, _, clock = make_shield()
    before = clock.now
    shield.write_file("/secure/big", b"tiny", declared_size=40_000_000)
    elapsed = clock.now - before
    assert elapsed >= 40_000_000 / CM.fs_shield_crypto_bandwidth
    assert shield.stats.crypto_bytes >= 40_000_000


def test_empty_file_roundtrip():
    shield, _, _ = make_shield()
    shield.write_file("/secure/empty", b"")
    assert shield.read_file("/secure/empty") == b""


def test_shield_validation():
    vfs = VirtualFileSystem()
    clock = SimClock()
    syscalls = SyscallInterface(vfs, CM, clock)
    with pytest.raises(ShieldError):
        FileSystemShield(syscalls, bytes(16), RULES, CM, clock)
    with pytest.raises(ShieldError):
        FileSystemShield(syscalls, bytes(32), RULES, CM, clock, chunk_size=0)


def test_stat_and_exists_passthrough():
    shield, _, _ = make_shield()
    shield.write_file("/secure/f", b"x", declared_size=500)
    assert shield.stat("/secure/f") == 500
    assert shield.exists("/secure/f")
    assert not shield.exists("/secure/missing")


@settings(max_examples=20, deadline=None)
@given(
    st.binary(min_size=0, max_size=5000),
    st.integers(min_value=16, max_value=512),
)
def test_roundtrip_property(content, chunk_size):
    shield, _, _ = make_shield(chunk_size=chunk_size)
    shield.write_file("/secure/f", content)
    assert shield.read_file("/secure/f") == content


# ---------------------------------------------------------------------------
# Plaintext chunk cache: hits, invalidation, fail-closed behavior
# ---------------------------------------------------------------------------


def test_chunk_cache_serves_repeat_reads():
    shield, _, _ = make_shield()
    plaintext = b"weights " * 1000
    shield.write_file("/secure/m", plaintext)
    shield.drop_caches()  # forget the write-warmed entries
    assert shield.read_file("/secure/m") == plaintext
    opened_after_first = shield.stats.chunks_opened
    assert shield.stats.chunk_cache_hits == 0
    assert shield.read_file("/secure/m") == plaintext
    # Second read decrypted nothing: every chunk came from the cache.
    assert shield.stats.chunks_opened == opened_after_first
    assert shield.stats.chunk_cache_hits > 0


def test_write_warms_chunk_cache():
    shield, _, _ = make_shield()
    plaintext = b"model " * 700
    shield.write_file("/secure/m", plaintext)
    assert shield.read_file("/secure/m") == plaintext
    assert shield.stats.chunks_opened == 0
    assert shield.stats.chunk_cache_hits > 0


def test_chunk_cache_invalidated_by_rewrite():
    shield, _, _ = make_shield()
    shield.write_file("/secure/m", b"version one " * 300)
    assert shield.read_file("/secure/m") == b"version one " * 300
    shield.write_file("/secure/m", b"version two " * 300)
    # The version bump changes the cache key: stale chunks must not
    # leak into the new read.
    assert shield.read_file("/secure/m") == b"version two " * 300


def test_tampered_file_not_served_from_cache():
    shield, vfs, _ = make_shield()
    plaintext = b"sensitive " * 400
    shield.write_file("/secure/m", plaintext)
    assert shield.read_file("/secure/m") == plaintext  # caches chunks
    raw = bytearray(vfs.read("/secure/m").content)
    raw[len(raw) // 2] ^= 0x01
    vfs.write("/secure/m", bytes(raw))
    # Every chunk is cached, but a warm read authenticates the manifest
    # as a cold one does, and the flipped byte fails its MAC.
    with pytest.raises(ShieldError):
        shield.read_file("/secure/m")


def test_freshness_rejection_not_bypassed_by_cache():
    tracker = LocalFreshnessTracker()
    shield, vfs, _ = make_shield(freshness=tracker)
    shield.write_file("/secure/m", b"v0 " * 400)
    stale = vfs.read("/secure/m").content
    assert shield.read_file("/secure/m") == b"v0 " * 400  # caches chunks
    shield.write_file("/secure/m", b"v1 " * 400)
    vfs.write("/secure/m", stale)  # roll the file back on disk
    with pytest.raises(FreshnessError):
        shield.read_file("/secure/m")


def test_chunk_cache_respects_byte_capacity():
    vfs = VirtualFileSystem()
    clock = SimClock()
    syscalls = SyscallInterface(vfs, CM, clock, mode=SgxMode.NATIVE)
    shield = FileSystemShield(
        syscalls,
        bytes(range(32)),
        RULES,
        CM,
        clock,
        chunk_size=1024,
        chunk_cache_bytes=3 * 1024,
    )
    shield.write_file("/secure/big", bytes(10 * 1024))
    assert shield._chunk_cache_used <= 3 * 1024
    shield.drop_caches()
    shield.read_file("/secure/big")
    assert shield._chunk_cache_used <= 3 * 1024


def test_file_key_cached_per_path():
    shield, _, _ = make_shield()
    shield.write_file("/secure/a", b"x" * 100)
    assert shield.stats.key_cache_misses == 1
    shield.read_file("/secure/a")
    shield.write_file("/secure/a", b"y" * 100)
    assert shield.stats.key_cache_misses == 1
    assert shield.stats.key_cache_hits >= 1


def test_real_crypto_time_and_cipher_bytes_recorded():
    shield, _, _ = make_shield()
    plaintext = b"p" * 5000
    shield.write_file("/secure/m", plaintext)
    assert shield.stats.real_crypto_time > 0.0
    assert shield.stats.bytes_by_cipher.get("chacha20-poly1305") == len(plaintext)


# ---------------------------------------------------------------------------
# VFS mutation attacks: AUTHENTICATE-policy files and structural truncation
# ---------------------------------------------------------------------------


def test_authenticate_every_byte_mutation_fails_closed():
    """Flipping any byte of an AUTHENTICATE-policy file's stored bytes —
    chunk body, keyed digest, manifest — must raise ShieldError, never
    return modified plaintext."""
    shield, vfs, _ = make_shield(chunk_size=64)
    shield.write_file("/auth/cfg", b"threshold=42;" * 20)
    for target in ("/auth/cfg", extent_path("/auth/cfg", 0, 0)):
        raw = vfs.read(target).content
        for position in range(0, len(raw), 41):
            corrupted = bytearray(raw)
            corrupted[position] ^= 0x80
            vfs.tamper(target, bytes(corrupted))
            shield.drop_caches()
            with pytest.raises(ShieldError):
                shield.read_file("/auth/cfg")
            vfs.tamper(target, raw)
    assert shield.read_file("/auth/cfg") == b"threshold=42;" * 20


def test_authenticate_chunk_reorder_detected():
    """Swapping two validly MAC'd chunks is a mutation attack the
    manifest's digests catch, and under a manifest that authenticates the
    new order, the index in the AAD."""
    shield, vfs, _ = make_shield(chunk_size=64)
    shield.write_file("/auth/cfg", bytes(range(256)))
    chunks = stored_chunks(vfs, "/auth/cfg")
    chunks[0], chunks[1] = chunks[1], chunks[0]
    for mac, refusal in ((None, NO_REPLICA), (shield._manifest_mac, FORGED)):
        plant(vfs, "/auth/cfg", chunks, mac)
        shield.drop_caches()
        with pytest.raises(ShieldError, match=refusal):
            shield.read_file("/auth/cfg")


@pytest.mark.parametrize("prefix", ["/secure/f", "/auth/f"])
def test_last_chunk_truncation_attack_detected(prefix):
    """Dropping the last chunk AND shrinking the declared chunk count is
    the classic truncation forgery: the extent loses the last chunk's
    slot, and under a manifest that authenticates the shrink every
    remaining chunk still carries a valid tag — but its AAD binds
    n_chunks, so the shrink fails closed."""
    shield, vfs, _ = make_shield(chunk_size=64)
    shield.write_file(prefix, bytes(range(256)))  # 4 chunks
    chunks = stored_chunks(vfs, prefix)
    assert len(chunks) == 4
    for mac, refusal in ((None, NO_REPLICA), (shield._manifest_mac, FORGED)):
        plant(vfs, prefix, chunks[:-1], mac, plaintext_size=192)
        shield.drop_caches()
        with pytest.raises(ShieldError, match=refusal):
            shield.read_file(prefix)


def test_journaled_last_chunk_truncation_detected():
    """The manifest's own truncation: shrinking n_chunks + chunk_digests
    without the key leaves a stale MAC.  An attacker without the key can
    only replay the whole old manifest (freshness catches it) or corrupt
    it (the MAC catches it)."""
    from repro.crypto import encoding

    shield, vfs, _ = make_shield(chunk_size=64, replicas=2)
    shield.write_file("/secure/j", bytes(range(256)))
    envelope = encoding.decode(vfs.read("/secure/j").content)
    body = encoding.decode(envelope["body"])
    body["n_chunks"] = 3
    body["chunk_digests"] = body["chunk_digests"][:-1]
    body["plaintext_size"] = 192
    envelope["body"] = encoding.encode(body)  # MAC now stale
    vfs.tamper("/secure/j", encoding.encode(envelope))
    shield.drop_caches()
    with pytest.raises(ShieldError, match="failed authentication"):
        shield.read_file("/secure/j")


# ---------------------------------------------------------------------------
# Batched opens: every chunk verifies before any plaintext exists
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("cipher", ["chacha20-poly1305", "aes-128-gcm"])
@pytest.mark.parametrize("victim", [0, 2, 3])
def test_failed_cold_read_releases_no_chunk(cipher, victim):
    """One bad chunk fails the whole batch: the error names it, and no
    chunk of the file — not even the ones before it — was opened, counted
    or cached.  The manifest is re-issued over the bad chunk, so its
    digest passes and the AEAD is what refuses it."""
    shield, vfs, _ = make_shield(chunk_size=64, cipher=cipher)
    shield.write_file("/secure/f", bytes(range(256)))  # 4 chunks
    chunks = stored_chunks(vfs, "/secure/f")
    chunk = bytearray(chunks[victim])
    chunk[5] ^= 0x10
    chunks[victim] = bytes(chunk)
    plant(vfs, "/secure/f", chunks, shield._manifest_mac)
    shield.drop_caches()
    opened_before = shield.stats.chunks_opened
    with pytest.raises(ShieldError, match=f"chunk {victim} of '/secure/f' failed authentication"):
        shield.read_file("/secure/f")
    assert shield.stats.chunks_opened == opened_before
    assert not shield._chunk_cache
    assert shield.stats.bytes_by_cipher == {cipher: 256}  # the write only


def test_journaled_cold_read_with_a_lost_chunk_releases_no_chunk():
    """Both replicas of one chunk rotted: the read fails naming it before
    anything is opened — and before chunk 0's single damaged replica is
    healed; recover() still heals it."""
    shield, vfs, _ = make_shield(chunk_size=64, replicas=2)
    shield.write_file("/secure/j", bytes(range(256)))
    for index, replica in ((0, 0), (2, 0), (2, 1)):
        damage_chunk(vfs, "/secure/j", 0, index, replica)
    shield.drop_caches()
    with pytest.raises(ShieldError, match="chunk 2 of '/secure/j': no intact replica"):
        shield.read_file("/secure/j")
    assert shield.stats.chunks_opened == 0
    assert shield.stats.chunks_repaired == 0
    assert not shield._chunk_cache
    assert shield.recover()["/secure/j"] == "damaged"
    assert shield.stats.chunks_repaired == 1  # chunk 0, from its intact copy


def test_journaled_read_decodes_and_authenticates_the_manifest_once(monkeypatch):
    from repro.runtime import fs_shield

    shield, _, _ = make_shield(chunk_size=64)
    content = bytes(range(256))
    shield.write_file("/secure/j", content)

    calls = {"decode": 0, "mac": 0}
    decode, mac = fs_shield.encoding.decode, shield._manifest_mac

    def counting_decode(raw):
        calls["decode"] += 1
        return decode(raw)

    def counting_mac(path, body_bytes):
        calls["mac"] += 1
        return mac(path, body_bytes)

    monkeypatch.setattr(fs_shield.encoding, "decode", counting_decode)
    monkeypatch.setattr(shield, "_manifest_mac", counting_mac)
    assert shield.read_file("/secure/j") == content  # warm: nine cache hits in the bench
    assert calls == {"decode": 2, "mac": 1}  # the manifest and its body, one MAC
    shield.drop_caches()
    assert shield.read_file("/secure/j") == content
    assert calls == {"decode": 4, "mac": 2}
