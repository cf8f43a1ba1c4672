"""AEAD registry and the nonce-sequencing key wrapper."""

import pytest

from repro.crypto.aead import (
    AeadKey,
    aead_cache_stats,
    get_aead,
    key_size,
    reset_aead_cache,
)
from repro.errors import ConfigurationError, IntegrityError


@pytest.mark.parametrize(
    "cipher,size",
    [("chacha20-poly1305", 32), ("aes-256-gcm", 32), ("aes-128-gcm", 16)],
)
def test_registry_roundtrip(cipher, size):
    assert key_size(cipher) == size
    aead = get_aead(cipher, bytes(size))
    sealed = aead.encrypt(b"\x01" * 12, b"payload", b"aad")
    assert aead.decrypt(b"\x01" * 12, sealed, b"aad") == b"payload"


def test_unknown_cipher_rejected():
    with pytest.raises(ConfigurationError):
        get_aead("rot13", bytes(32))
    with pytest.raises(ConfigurationError):
        key_size("rot13")


def test_wrong_key_size_rejected():
    with pytest.raises(ConfigurationError):
        get_aead("aes-128-gcm", bytes(32))


def test_aeadkey_sequencing_produces_distinct_nonces():
    key = AeadKey("chacha20-poly1305", bytes(32))
    sealed_1 = key.seal(b"same plaintext")
    sealed_2 = key.seal(b"same plaintext")
    assert sealed_1 != sealed_2
    assert key.messages_sealed == 2
    assert key.open(sealed_1) == b"same plaintext"
    assert key.open(sealed_2) == b"same plaintext"


def test_aeadkey_aad_binding():
    key = AeadKey("chacha20-poly1305", bytes(32))
    sealed = key.seal(b"x", aad=b"ctx")
    with pytest.raises(IntegrityError):
        key.open(sealed, aad=b"other")


def test_aeadkey_explicit_sequence():
    key = AeadKey("aes-256-gcm", bytes(32))
    sealed = key.seal_at(7, b"chunk", aad=b"file")
    assert key.open_at(7, sealed, aad=b"file") == b"chunk"
    with pytest.raises(IntegrityError):
        key.open_at(8, sealed, aad=b"file")


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


def test_aead_cache_returns_same_object_for_same_key():
    reset_aead_cache()
    key = bytes(range(32))
    first = get_aead("chacha20-poly1305", key)
    second = get_aead("chacha20-poly1305", key)
    assert first is second
    stats = aead_cache_stats()
    assert stats["hits"] == 1
    assert stats["misses"] == 1


def test_aead_cache_distinguishes_cipher_and_key():
    reset_aead_cache()
    a = get_aead("aes-256-gcm", bytes(32))
    b = get_aead("chacha20-poly1305", bytes(32))
    c = get_aead("aes-256-gcm", bytes([1]) + bytes(31))
    assert a is not b
    assert a is not c
    assert aead_cache_stats()["misses"] == 3


def test_aead_cache_evicts_least_recently_used():
    from repro.crypto import aead as aead_mod

    reset_aead_cache()
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
    reset_aead_cache()
    k1 = AeadKey("chacha20-poly1305", bytes(32))
    k2 = AeadKey("chacha20-poly1305", bytes(32))
    assert k1._aead is k2._aead
    sealed = k1.seal(b"one")
    assert k2.open(sealed) == b"one"
    assert k2.messages_sealed == 0


@pytest.mark.parametrize("cipher", ["chacha20-poly1305", "aes-256-gcm", "aes-128-gcm"])
def test_batch_calls_equal_the_per_message_calls(cipher):
    aead = get_aead(cipher, bytes(range(key_size(cipher))))
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
