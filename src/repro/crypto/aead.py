"""A uniform AEAD interface with a nonce-managing key wrapper.

The shields and CAS never call ciphers directly; they hold an
:class:`AeadKey`, which owns a monotonically increasing nonce counter so
that nonce reuse — the classic AEAD catastrophe — is impossible by
construction within one key's lifetime.

:func:`get_aead` memoizes cipher objects per ``(cipher, key)``.  AES-GCM
in particular does real per-key setup (key schedule plus GHASH tables),
so re-deriving the same object on every file read would dominate small
operations.  Cipher objects are stateless after construction — nonces
live in :class:`AeadKey` — which is what makes sharing them safe.
"""

from __future__ import annotations

import struct
from collections import OrderedDict
from typing import Dict, List, Protocol, Sequence, Tuple, Type

from repro.crypto.chacha import ChaCha20Poly1305
from repro.crypto.gcm import AesGcm
from repro.errors import ConfigurationError


class Aead(Protocol):
    """Structural interface all AEAD ciphers implement."""

    NONCE_SIZE: int
    TAG_SIZE: int

    def encrypt(self, nonce: bytes, plaintext: bytes, aad: bytes = b"") -> bytes: ...

    def decrypt(self, nonce: bytes, data: bytes, aad: bytes = b"") -> bytes: ...

    def seal_many(
        self, nonces: Sequence[bytes], plaintexts: Sequence[bytes], aads: Sequence[bytes]
    ) -> List[bytes]:
        """``[encrypt(n, p, a), ...]``; refuses a nonce repeated in the batch."""
        ...

    def open_many(
        self, nonces: Sequence[bytes], sealed: Sequence[bytes], aads: Sequence[bytes]
    ) -> List[bytes]:
        """``[decrypt(n, s, a), ...]``, all verified before any is released;
        an :class:`~repro.errors.IntegrityError` carries the ``position``."""
        ...


_CIPHERS: Dict[str, Type] = {
    "chacha20-poly1305": ChaCha20Poly1305,
    "aes-256-gcm": AesGcm,
    "aes-128-gcm": AesGcm,
}

_KEY_SIZES: Dict[str, int] = {
    "chacha20-poly1305": 32,
    "aes-256-gcm": 32,
    "aes-128-gcm": 16,
}


# Process-wide cipher-object cache.  Bounded LRU so long-running
# simulations with many ephemeral session keys can't grow it forever.
_AEAD_CACHE: "OrderedDict[Tuple[str, bytes], Aead]" = OrderedDict()
_AEAD_CACHE_CAPACITY = 64
_aead_cache_hits = 0
_aead_cache_misses = 0


def get_aead(cipher: str, key: bytes) -> Aead:
    """Return a (cached) instance of a named AEAD cipher with ``key``."""
    global _aead_cache_hits, _aead_cache_misses
    if cipher not in _CIPHERS:
        raise ConfigurationError(
            f"unknown AEAD cipher {cipher!r}; known: {sorted(_CIPHERS)}"
        )
    expected = _KEY_SIZES[cipher]
    if len(key) != expected:
        raise ConfigurationError(
            f"{cipher} needs a {expected}-byte key, got {len(key)}"
        )
    cache_key = (cipher, key)
    cached = _AEAD_CACHE.get(cache_key)
    if cached is not None:
        _AEAD_CACHE.move_to_end(cache_key)
        _aead_cache_hits += 1
        return cached
    _aead_cache_misses += 1
    aead = _CIPHERS[cipher](key)
    _AEAD_CACHE[cache_key] = aead
    while len(_AEAD_CACHE) > _AEAD_CACHE_CAPACITY:
        _AEAD_CACHE.popitem(last=False)
    return aead


def aead_cache_stats() -> Dict[str, int]:
    """Hit/miss/size counters for the process-wide cipher cache."""
    return {
        "hits": _aead_cache_hits,
        "misses": _aead_cache_misses,
        "size": len(_AEAD_CACHE),
    }


def reset_aead_cache() -> None:
    """Drop all cached cipher objects and zero the counters (test hook)."""
    global _aead_cache_hits, _aead_cache_misses
    _AEAD_CACHE.clear()
    _aead_cache_hits = 0
    _aead_cache_misses = 0


def key_size(cipher: str) -> int:
    """Key size in bytes for a named cipher."""
    if cipher not in _KEY_SIZES:
        raise ConfigurationError(f"unknown AEAD cipher {cipher!r}")
    return _KEY_SIZES[cipher]


def tag_size(cipher: str) -> int:
    """Bytes a named cipher's seal adds to its plaintext."""
    if cipher not in _CIPHERS:
        raise ConfigurationError(f"unknown AEAD cipher {cipher!r}")
    return _CIPHERS[cipher].TAG_SIZE


class AeadKey:
    """An AEAD key bound to a cipher with automatic nonce sequencing.

    Nonces are ``4-byte prefix || 8-byte big-endian counter``.  Callers
    that need random-access decryption (the file-system shield) pass
    explicit sequence numbers instead.
    """

    def __init__(self, cipher: str, key: bytes, nonce_prefix: bytes = b"\x00" * 4) -> None:
        if len(nonce_prefix) != 4:
            raise ConfigurationError("nonce prefix must be 4 bytes")
        self._cipher_name = cipher
        self._aead = get_aead(cipher, key)
        self._prefix = nonce_prefix
        self._counter = 0

    @property
    def cipher(self) -> str:
        return self._cipher_name

    @property
    def messages_sealed(self) -> int:
        return self._counter

    def _nonce(self, sequence: int) -> bytes:
        return self._prefix + struct.pack(">Q", sequence)

    def seal(self, plaintext: bytes, aad: bytes = b"") -> bytes:
        """Encrypt with the next sequence number; returns seq || ct || tag."""
        sequence = self._counter
        self._counter += 1
        body = self._aead.encrypt(self._nonce(sequence), plaintext, aad)
        return struct.pack(">Q", sequence) + body

    def open(self, sealed: bytes, aad: bytes = b"") -> bytes:
        """Decrypt a :meth:`seal` output (sequence number is embedded)."""
        if len(sealed) < 8:
            raise ConfigurationError("sealed message shorter than its header")
        (sequence,) = struct.unpack(">Q", sealed[:8])
        return self._aead.decrypt(self._nonce(sequence), sealed[8:], aad)

    def seal_at(self, sequence: int, plaintext: bytes, aad: bytes = b"") -> bytes:
        """Encrypt at an explicit sequence number (no header prepended)."""
        return self._aead.encrypt(self._nonce(sequence), plaintext, aad)

    def open_at(self, sequence: int, data: bytes, aad: bytes = b"") -> bytes:
        """Decrypt data sealed with :meth:`seal_at` at ``sequence``."""
        return self._aead.decrypt(self._nonce(sequence), data, aad)
