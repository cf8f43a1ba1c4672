"""The one AEAD, its cipher-name check, and the nonce-sequencing key wrapper."""

import struct

import pytest

from repro.crypto.aead import (
    CIPHER,
    KEY_SIZE,
    TAG_SIZE,
    AeadKey,
    aead_cache_stats,
    get_aead,
)
from repro.errors import ConfigurationError, IntegrityError


def test_roundtrip_under_the_one_cipher():
    assert (CIPHER, KEY_SIZE, TAG_SIZE) == ("chacha20-poly1305", 32, 16)
    aead = get_aead(CIPHER, bytes(KEY_SIZE))
    sealed = aead.encrypt(b"\x01" * 12, b"payload", b"aad")
    assert len(sealed) == len(b"payload") + TAG_SIZE
    assert aead.decrypt(b"\x01" * 12, sealed, b"aad") == b"payload"


def test_unknown_cipher_rejected():
    for name in ("rot13", "aes-128-gcm", "aes-256-gcm", 7, [1], None):
        with pytest.raises(ConfigurationError, match="unknown AEAD cipher"):
            get_aead(name, bytes(32))
        with pytest.raises(ConfigurationError, match="unknown AEAD cipher"):
            AeadKey(name, bytes(32))


def test_wrong_key_size_rejected():
    with pytest.raises(ConfigurationError):
        get_aead(CIPHER, bytes(16))


def test_aeadkey_sequencing_produces_distinct_nonces():
    key = AeadKey("chacha20-poly1305", bytes(32))
    sealed_1 = key.seal(b"same plaintext")
    sealed_2 = key.seal(b"same plaintext")
    assert sealed_1 != sealed_2
    assert (sealed_1[:8], sealed_2[:8]) == (struct.pack(">Q", 0), struct.pack(">Q", 1))
    assert key.open(sealed_1) == b"same plaintext"
    assert key.open(sealed_2) == b"same plaintext"


def test_aeadkey_aad_binding():
    key = AeadKey("chacha20-poly1305", bytes(32))
    sealed = key.seal(b"x", aad=b"ctx")
    with pytest.raises(IntegrityError):
        key.open(sealed, aad=b"other")


def test_aeadkey_explicit_sequence():
    # The header's sequence number is the nonce: relabelled, it fails.
    key = AeadKey("chacha20-poly1305", bytes(32))
    sealed = key.seal(b"chunk", aad=b"file")
    assert key.open(sealed, aad=b"file") == b"chunk"
    with pytest.raises(IntegrityError):
        key.open(struct.pack(">Q", 1) + sealed[8:], aad=b"file")


def test_aeadkey_short_message_rejected():
    key = AeadKey("chacha20-poly1305", bytes(32))
    with pytest.raises(ConfigurationError):
        key.open(b"short")


def test_nonce_prefix_must_be_4_bytes():
    with pytest.raises(ConfigurationError):
        AeadKey("chacha20-poly1305", bytes(32), nonce_prefix=b"abc")


# ---------------------------------------------------------------------------
# Cipher-object cache
# ---------------------------------------------------------------------------


def _fresh_key(tag: int) -> bytes:
    """A key no other test caches."""
    return b"cache-test" + bytes([tag]) + bytes(21)


def test_aead_cache_returns_same_object_for_same_key():
    before = aead_cache_stats()
    key = _fresh_key(1)
    first = get_aead("chacha20-poly1305", key)
    second = get_aead("chacha20-poly1305", key)
    assert first is second
    stats = aead_cache_stats()
    assert stats["hits"] - before["hits"] == 1
    assert stats["misses"] - before["misses"] == 1


def test_aead_cache_distinguishes_keys():
    before = aead_cache_stats()["misses"]
    a = get_aead("chacha20-poly1305", _fresh_key(2))
    b = get_aead("chacha20-poly1305", _fresh_key(3))
    assert a is not b
    assert aead_cache_stats()["misses"] - before == 2


def test_aead_cache_evicts_least_recently_used():
    from repro.crypto import aead as aead_mod

    capacity = aead_mod._AEAD_CACHE_CAPACITY
    keys = [i.to_bytes(1, "big") + bytes(31) for i in range(capacity + 1)]
    first = get_aead("chacha20-poly1305", keys[0])
    for key in keys[1:]:
        get_aead("chacha20-poly1305", key)
    # keys[0] was the oldest entry; it must have been evicted.
    assert get_aead("chacha20-poly1305", keys[0]) is not first
    assert aead_cache_stats()["size"] <= capacity


def test_cached_ciphers_are_nonce_stateless():
    # Two AeadKeys sharing one cached cipher must not interfere: nonce
    # counters live in the wrapper, not the cipher object.
    k1 = AeadKey("chacha20-poly1305", bytes(32))
    k2 = AeadKey("chacha20-poly1305", bytes(32))
    assert k1._aead is k2._aead
    sealed = k1.seal(b"one")
    assert k2.open(sealed) == b"one"
    assert k2.seal(b"two")[:8] == struct.pack(">Q", 0)  # k1's seal moved no k2 counter


def test_batch_calls_equal_the_per_message_calls():
    aead = get_aead(CIPHER, bytes(range(KEY_SIZE)))
    nonces = [bytes([i]) * 12 for i in range(4)]
    plaintexts = [b"", b"x", b"chunk " * 40, bytes(range(256)) * 20]
    aads = [b"", b"a", b"", b"index-3"]
    sealed = aead.seal_many(nonces, plaintexts, aads)
    assert sealed == [aead.encrypt(*item) for item in zip(nonces, plaintexts, aads)]
    assert aead.open_many(nonces, sealed, aads) == plaintexts

    broken = list(sealed)
    broken[2] = broken[2][:-1] + bytes([broken[2][-1] ^ 1])
    with pytest.raises(IntegrityError) as failure:
        aead.open_many(nonces, broken, aads)
    assert failure.value.position == 2

    with pytest.raises(ValueError, match="nonce repeated"):
        aead.seal_many([nonces[0], nonces[0]], [b"a", b"b"], [b"", b""])
    with pytest.raises(ValueError, match="one nonce and one aad"):
        aead.seal_many(nonces, plaintexts, aads[:-1])
    with pytest.raises(ValueError, match="one nonce and one aad"):
        aead.open_many(nonces[:-1], sealed, aads)
