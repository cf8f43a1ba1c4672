"""The one AEAD, behind a nonce-managing key wrapper.

Every sealing path — the fs shield, TLS records, CAS provisioning and
enclave sealing — uses ChaCha20-Poly1305.  The paper's shields use
AES-GCM on AES-NI (§3.3, §5.3); the simulated clock charges that rate
(:class:`~repro.enclave.cost_model.CostModel`) whichever cipher seals
the real bytes, and ChaCha20 is the one that is fast in numpy.  Its name
is written into fs-shield manifests, TLS hellos and ``bytes_by_cipher``;
any other name is refused with :class:`~repro.errors.ConfigurationError`.

The shields and CAS never call the cipher directly; they hold an
:class:`AeadKey`, which owns a monotonically increasing nonce counter so
that nonce reuse — the classic AEAD catastrophe — is impossible by
construction within one key's lifetime.

:func:`get_aead` memoizes cipher objects per key.  Construction lays the
key into the ChaCha20 state words, so re-deriving the same object on
every file read or TLS record would be paid on every small operation.
Cipher objects are stateless after construction — nonces live in
:class:`AeadKey` — which is what makes sharing them safe.
"""

from __future__ import annotations

import struct
from collections import OrderedDict
from typing import Dict

from repro.crypto.chacha import ChaCha20Poly1305
from repro.errors import ConfigurationError

#: The cipher's name as stored in manifests and sent in TLS hellos.
CIPHER = "chacha20-poly1305"
KEY_SIZE = 32
TAG_SIZE = ChaCha20Poly1305.TAG_SIZE


def check_cipher(cipher: object) -> None:
    """Refuse any cipher name but :data:`CIPHER` (names may arrive from
    the host or the network, so anything at all may be passed)."""
    if not (isinstance(cipher, str) and cipher == CIPHER):
        raise ConfigurationError(
            f"unknown AEAD cipher {cipher!r}; the one cipher is {CIPHER!r}"
        )


# Process-wide cipher-object cache.  Bounded LRU so long-running
# simulations with many ephemeral session keys can't grow it forever.
_AEAD_CACHE: "OrderedDict[bytes, ChaCha20Poly1305]" = OrderedDict()
_AEAD_CACHE_CAPACITY = 64
_aead_cache_hits = 0
_aead_cache_misses = 0


def get_aead(cipher: str, key: bytes) -> ChaCha20Poly1305:
    """Return a (cached) cipher object for ``key``; ``cipher`` must be
    :data:`CIPHER`."""
    global _aead_cache_hits, _aead_cache_misses
    check_cipher(cipher)
    if len(key) != KEY_SIZE:
        raise ConfigurationError(
            f"{CIPHER} needs a {KEY_SIZE}-byte key, got {len(key)}"
        )
    cached = _AEAD_CACHE.get(key)
    if cached is not None:
        _AEAD_CACHE.move_to_end(key)
        _aead_cache_hits += 1
        return cached
    _aead_cache_misses += 1
    aead = ChaCha20Poly1305(key)
    _AEAD_CACHE[key] = aead
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


class AeadKey:
    """An AEAD key bound to a cipher with automatic nonce sequencing.

    Nonces are ``4-byte prefix || 8-byte big-endian counter``; the
    counter travels in the sealed message's header.
    """

    def __init__(self, cipher: str, key: bytes, nonce_prefix: bytes = b"\x00" * 4) -> None:
        if len(nonce_prefix) != 4:
            raise ConfigurationError("nonce prefix must be 4 bytes")
        self._aead = get_aead(cipher, key)
        self._prefix = nonce_prefix
        self._counter = 0

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
