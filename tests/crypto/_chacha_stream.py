"""The production ChaCha20 keystream from any block counter.

``ChaCha20Poly1305`` only ever starts a nonce's stream at block 0 (the
Poly1305 one-time key) and block 1 (the payload).  The RFC 8439 block
and encryption vectors, and the tests of the 32-bit block counter's
end, reach the same keystream passes through these two functions.
"""

from repro.crypto import chacha


def chacha20_keystream(key: bytes, nonce: bytes, counter: int, n_bytes: int) -> bytes:
    """``n_bytes`` of keystream from block ``counter``; raises
    :class:`ValueError` rather than wrap the block counter."""
    run = chacha._run(nonce, counter, -(-n_bytes // 64))
    passes = chacha._keystream(chacha._head(key), [run])
    return chacha._KeystreamReader(passes).take(n_bytes).tobytes()


def chacha20_xor(key: bytes, nonce: bytes, counter: int, data: bytes) -> bytes:
    """XOR ``data`` with the keystream from block ``counter``."""
    stream = chacha20_keystream(key, nonce, counter, len(data))
    return bytes(a ^ b for a, b in zip(data, stream))
