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
from tests.runtime._extents import damage_chunk

RULES = [
    PathRule("/secure/", ShieldPolicy.ENCRYPT),
    PathRule("/secure/public/", ShieldPolicy.AUTHENTICATE),
    PathRule("/auth/", ShieldPolicy.AUTHENTICATE),
]


def make_shield(freshness=None, chunk_size=1024, rules=RULES, key=None, **layout):
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
        **layout,
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
    raw = vfs.read("/secure/m").content
    assert b"model weights" not in raw


def test_authenticate_keeps_plaintext_but_detects_tamper():
    shield, vfs, _ = make_shield()
    shield.write_file("/auth/data", b"public but authenticated")
    raw = vfs.read("/auth/data").content
    assert b"public but authenticated" in raw
    vfs.tamper("/auth/data", raw.replace(b"public", b"forged"))
    with pytest.raises(ShieldError):
        shield.read_file("/auth/data")


def test_passthrough_untouched():
    shield, vfs, _ = make_shield()
    shield.write_file("/tmp/x", b"raw")
    assert vfs.read("/tmp/x").content == b"raw"
    assert shield.read_file("/tmp/x") == b"raw"


def test_every_chunk_tamper_detected():
    shield, vfs, _ = make_shield(chunk_size=64)
    shield.write_file("/secure/f", bytes(range(256)) * 2)
    raw = vfs.read("/secure/f").content
    for position in range(0, len(raw), 97):
        corrupted = bytearray(raw)
        corrupted[position] ^= 0xA5
        vfs.tamper("/secure/f", bytes(corrupted))
        with pytest.raises(ShieldError):
            shield.read_file("/secure/f")
        vfs.tamper("/secure/f", raw)


def test_chunk_swap_between_files_detected():
    """AAD binds path: moving a validly encrypted chunk across files fails."""
    shield, vfs, _ = make_shield(chunk_size=64)
    shield.write_file("/secure/a", b"A" * 200)
    shield.write_file("/secure/b", b"B" * 200)
    vfs.tamper("/secure/b", vfs.read("/secure/a").content)
    with pytest.raises(ShieldError):
        shield.read_file("/secure/b")


def test_cross_version_chunk_splice_detected():
    """Splicing an old version's chunks into the new envelope fails: the
    file version is bound into every chunk's AAD."""
    from repro.crypto import encoding

    shield, vfs, _ = make_shield(chunk_size=64)
    shield.write_file("/secure/f", b"version-zero" * 30)
    old_envelope = encoding.decode(vfs.read("/secure/f").content)
    shield.write_file("/secure/f", b"version-one!" * 30)
    new_envelope = encoding.decode(vfs.read("/secure/f").content)
    new_envelope["chunks"] = old_envelope["chunks"]
    vfs.tamper("/secure/f", encoding.encode(new_envelope))
    with pytest.raises(ShieldError):
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
    # The envelope digest differs, so cached plaintext cannot be used
    # and decryption of the tampered chunk must fail.
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
    chunk body, MAC, or envelope framing — must raise IntegrityError
    (ShieldError is one), never return modified plaintext."""
    from repro.errors import IntegrityError

    shield, vfs, _ = make_shield(chunk_size=64)
    shield.write_file("/auth/cfg", b"threshold=42;" * 20)
    raw = vfs.read("/auth/cfg").content
    for position in range(0, len(raw), 41):
        corrupted = bytearray(raw)
        corrupted[position] ^= 0x80
        vfs.tamper("/auth/cfg", bytes(corrupted))
        with pytest.raises(IntegrityError):
            shield.read_file("/auth/cfg")
        vfs.tamper("/auth/cfg", raw)
    assert shield.read_file("/auth/cfg") == b"threshold=42;" * 20


def test_authenticate_chunk_reorder_detected():
    """Swapping two validly MAC'd chunks is a mutation attack the index
    in the AAD must catch."""
    from repro.crypto import encoding
    from repro.errors import IntegrityError

    shield, vfs, _ = make_shield(chunk_size=64)
    shield.write_file("/auth/cfg", bytes(range(256)))
    envelope = encoding.decode(vfs.read("/auth/cfg").content)
    envelope["chunks"][0], envelope["chunks"][1] = (
        envelope["chunks"][1],
        envelope["chunks"][0],
    )
    vfs.tamper("/auth/cfg", encoding.encode(envelope))
    with pytest.raises(IntegrityError):
        shield.read_file("/auth/cfg")


@pytest.mark.parametrize("prefix", ["/secure/f", "/auth/f"])
def test_last_chunk_truncation_attack_detected(prefix):
    """Dropping the last chunk AND shrinking the declared chunk count is
    the classic truncation forgery: every remaining chunk still carries a
    valid MAC, but its AAD binds n_chunks, so the shrink fails closed."""
    from repro.crypto import encoding
    from repro.errors import IntegrityError

    shield, vfs, _ = make_shield(chunk_size=64)
    shield.write_file(prefix, bytes(range(256)))  # 4 chunks
    envelope = encoding.decode(vfs.read(prefix).content)
    assert len(envelope["chunks"]) == 4
    envelope["chunks"] = envelope["chunks"][:-1]
    envelope["plaintext_size"] = 192  # a consistent-looking shrink
    vfs.tamper(prefix, encoding.encode(envelope))
    with pytest.raises(IntegrityError):
        shield.read_file(prefix)


def test_journaled_last_chunk_truncation_detected():
    """The journaled layout's equivalent: shrink n_chunks + chunk_digests
    in a re-MAC'd... impossible — the manifest MAC is keyed.  An attacker
    without the key can only replay the whole old manifest (freshness
    catches it) or corrupt it (MAC catches it).  Verify the corrupt-path:
    a manifest with the last digest dropped fails authentication."""
    from repro.crypto import encoding
    from repro.errors import IntegrityError

    shield, vfs, _ = make_shield(chunk_size=64)
    journaled = FileSystemShield(
        shield._syscalls,
        bytes(range(32)),
        RULES,
        CM,
        SimClock(),
        chunk_size=64,
        replicas=2,
    )
    journaled.write_file("/secure/j", bytes(range(256)))
    envelope = encoding.decode(vfs.read("/secure/j").content)
    body = encoding.decode(envelope["body"])
    body["n_chunks"] = 3
    body["chunk_digests"] = body["chunk_digests"][:-1]
    body["plaintext_size"] = 192
    envelope["body"] = encoding.encode(body)  # MAC now stale
    vfs.tamper("/secure/j", encoding.encode(envelope))
    journaled.drop_caches()
    with pytest.raises(IntegrityError):
        journaled.read_file("/secure/j")


# ---------------------------------------------------------------------------
# Batched opens: every chunk verifies before any plaintext exists
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("cipher", ["chacha20-poly1305", "aes-128-gcm"])
@pytest.mark.parametrize("victim", [0, 2, 3])
def test_failed_cold_read_releases_no_chunk(cipher, victim):
    """One bad chunk fails the whole batch: the error names it, and no
    chunk of the file — not even the ones before it — was opened, counted
    or cached."""
    from repro.crypto import encoding

    shield, vfs, _ = make_shield(chunk_size=64, cipher=cipher)
    shield.write_file("/secure/f", bytes(range(256)))  # 4 chunks
    envelope = encoding.decode(vfs.read("/secure/f").content)
    chunk = bytearray(envelope["chunks"][victim])
    chunk[5] ^= 0x10
    envelope["chunks"][victim] = bytes(chunk)
    vfs.tamper("/secure/f", encoding.encode(envelope))
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
    from repro.errors import IntegrityError

    shield, vfs, _ = make_shield(chunk_size=64, replicas=2)
    shield.write_file("/secure/j", bytes(range(256)))
    for index, replica in ((0, 0), (2, 0), (2, 1)):
        damage_chunk(vfs, "/secure/j", 0, index, replica)
    shield.drop_caches()
    with pytest.raises(IntegrityError, match="chunk 2 of '/secure/j': no intact replica"):
        shield.read_file("/secure/j")
    assert shield.stats.chunks_opened == 0
    assert shield.stats.chunks_repaired == 0
    assert not shield._chunk_cache
    assert shield.recover()["/secure/j"] == "damaged"
    assert shield.stats.chunks_repaired == 1  # chunk 0, from its intact copy


def test_journaled_read_decodes_and_authenticates_the_manifest_once(monkeypatch):
    from repro.runtime import fs_shield

    shield, _, _ = make_shield(chunk_size=64, journal=True)
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
    assert calls == {"decode": 2, "mac": 1}  # the envelope and its body, one MAC
    shield.drop_caches()
    assert shield.read_file("/secure/j") == content
    assert calls == {"decode": 4, "mac": 2}
