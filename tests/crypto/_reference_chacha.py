"""The ChaCha20-Poly1305 of PR 12-15, kept verbatim as a differential oracle.

One keystream pass and one halving Poly1305 fold **per message**: what
``repro.crypto.chacha`` did before ``seal_many`` / ``open_many`` put
every message of a batch through shared passes and the fold became one
float64 matrix product.  ``tests/crypto/test_chacha_batch.py`` holds the
batched AEAD to these bytes, and ``tests/crypto/test_chacha.py`` holds
the matrix-product Poly1305 to :func:`poly1305_mac_reference`, the
serial bigint loop (the only copy: the live module no longer carries
it).  Do not edit: nothing below the imports differs from the retired
module.
"""

from __future__ import annotations

import struct
from typing import Tuple

import numpy as np

from repro.crypto._ct import ct_eq
from repro.errors import IntegrityError

_SIGMA = b"expand 32-byte k"
#: The block counter is one 32-bit state word: a (key, nonce) pair has
#: 2^32 blocks of keystream and not one more.
_MAX_BLOCKS = 1 << 32


def _quarter_round(a, b, c, d, t) -> None:
    """One ChaCha quarter round over whole row groups, in place.

    Each argument is a ``(4, n_blocks)`` uint32 group; row ``i`` of the
    four groups is one column (or, with ``b, c, d`` rotated, one
    diagonal) of every block's state.  ``t`` is scratch.
    """
    a += b; d ^= a
    np.left_shift(d, 16, out=t); d >>= 16; d |= t
    c += d; b ^= c
    np.left_shift(b, 12, out=t); b >>= 20; b |= t
    a += b; d ^= a
    np.left_shift(d, 8, out=t); d >>= 24; d |= t
    c += d; b ^= c
    np.left_shift(b, 7, out=t); b >>= 25; b |= t


def _keystream(key: bytes, nonce: bytes, counter: int, n_blocks: int) -> np.ndarray:
    """Keystream blocks ``counter .. counter + n_blocks - 1`` as uint8.

    The one keystream core: every public function below is a view of or
    an XOR against what this returns.
    """
    if len(key) != 32:
        raise ValueError(f"ChaCha20 key must be 32 bytes, got {len(key)}")
    if len(nonce) != 12:
        raise ValueError(f"ChaCha20 nonce must be 12 bytes, got {len(nonce)}")
    if counter < 0 or counter + n_blocks > _MAX_BLOCKS:
        # Wrapping the counter would repeat keystream under one nonce.
        raise ValueError(
            f"ChaCha20 block counter exhausted: {n_blocks} blocks from "
            f"counter {counter} pass 2^32"
        )
    init = np.frombuffer(_SIGMA + key + bytes(4) + nonce, dtype="<u4")
    counters = np.arange(n_blocks, dtype=np.uint32)
    counters += np.uint32(counter)

    # a | b + 1 spare row | c + 2 spare rows | 1 spare row + d | scratch.
    rows = np.empty((24, n_blocks), dtype=np.uint32)
    a, t = rows[0:4], rows[20:24]
    b, b_diag = rows[4:8], rows[5:9]
    c, c_diag = rows[9:13], rows[11:15]
    d, d_diag = rows[16:20], rows[15:19]
    a[...] = init[0:4, None]
    b[...] = init[4:8, None]
    c[...] = init[8:12, None]
    d[...] = init[12:16, None]
    d[0] = counters
    # Rotating b left by 1 = copy row 0 below row 3, then look one row
    # down; c left by 2 likewise with two rows; d left by 3 = right by 1.
    b_head, b_spare = rows[4], rows[8]
    c_head, c_spare = rows[9:11], rows[13:15]
    d_spare, d_tail = rows[15], rows[19]
    copyto = np.copyto
    for _ in range(10):
        _quarter_round(a, b, c, d, t)
        copyto(b_spare, b_head); copyto(c_spare, c_head); copyto(d_spare, d_tail)
        _quarter_round(a, b_diag, c_diag, d_diag, t)
        copyto(b_head, b_spare); copyto(c_head, c_spare); copyto(d_tail, d_spare)

    # Add the input state and serialize block-major in the same calls.
    out = np.empty((n_blocks, 4, 4), dtype=np.uint32)
    np.add(a.T, init[0:4], out=out[:, 0])
    np.add(b.T, init[4:8], out=out[:, 1])
    np.add(c.T, init[8:12], out=out[:, 2])
    np.add(d.T, init[12:16], out=out[:, 3])
    out[:, 3, 0] += counters
    return out.astype("<u4", copy=False).reshape(-1).view(np.uint8)


def chacha20_keystream(key: bytes, nonce: bytes, counter: int, n_bytes: int) -> bytes:
    """Generate ``n_bytes`` of ChaCha20 keystream starting at ``counter``.

    Raises :class:`ValueError` rather than wrap the 32-bit block counter.
    """
    return _keystream(key, nonce, counter, -(-n_bytes // 64))[:n_bytes].tobytes()


def chacha20_xor(key: bytes, nonce: bytes, counter: int, data: bytes) -> bytes:
    """XOR ``data`` with the ChaCha20 keystream (encrypts and decrypts)."""
    stream = _keystream(key, nonce, counter, -(-len(data) // 64))[: len(data)]
    stream ^= np.frombuffer(data, dtype=np.uint8)
    return stream.tobytes()


_P1305 = (1 << 130) - 5
_M26 = np.uint64((1 << 26) - 1)
_HI_BIT = 1 << 128
# Below this many full blocks the serial bigint loop is faster than the
# numpy setup cost.
_BULK_MIN_BLOCKS = 512
# The fold stops at this many values; bigints recombine them.
_FOLD_STOP = 8


def poly1305_mac_reference(key: bytes, message: bytes) -> bytes:
    """Poly1305 one-time authenticator (RFC 8439 §2.5), serial bigints.

    The oracle the vectorized path is tested against.
    """
    if len(key) != 32:
        raise ValueError(f"Poly1305 key must be 32 bytes, got {len(key)}")
    r = int.from_bytes(key[:16], "little") & 0x0FFFFFFC0FFFFFFC0FFFFFFC0FFFFFFF
    s = int.from_bytes(key[16:], "little")
    acc = 0
    for offset in range(0, len(message), 16):
        chunk = message[offset: offset + 16]
        n = int.from_bytes(chunk + b"\x01", "little")
        acc = ((acc + n) * r) % _P1305
    acc = (acc + s) & ((1 << 128) - 1)
    return acc.to_bytes(16, "little")


# M[i][j] = limb[(i - j) % 5], times 5 where the product wrapped past
# 2^130 (j > i): an index into ``limbs ++ 5 * limbs``.
_MUL_INDEX = np.array(
    [[(i - j) % 5 + (5 if j > i else 0) for j in range(5)] for i in range(5)]
)


def _mul_matrix(x: int) -> np.ndarray:
    """5x5 uint64 matrix M with ``M @ limbs(v) == limbs(v * x)`` mod p,
    before carries."""
    limbs = [(x >> shift) & 0x3FFFFFF for shift in (0, 26, 52, 78, 104)]
    return np.array(limbs + [5 * v for v in limbs], dtype=np.uint64)[_MUL_INDEX]


def _poly1305_bulk(r: int, message: bytes, n: int) -> int:
    """Evaluate ``sum c_j * r^(n-j)`` over the first ``n`` full blocks.

    The blocks are the columns of a ``(5, n)`` radix-2^26 limb matrix.
    One fold multiplies the front ``n - h`` columns by ``r^h`` and adds
    the back ``h = n // 2`` onto the last ``h`` of them, which leaves a
    sum of the same form over ``n - h`` columns.  Limbs stay below
    2^27 + 2^12 after the two carry sweeps (including the 5*carry
    wrap-around) and the add, and matrix entries below 5 * 2^26, so
    every five-term limb product sum fits uint64 (< 2^58).
    """
    words = np.frombuffer(message, dtype="<u4", count=4 * n).reshape(n, 4)
    w0, w1, w2, w3 = (words[:, k].astype(np.uint64) for k in range(4))
    acc = np.empty((5, n), dtype=np.uint64)
    np.bitwise_and(w0, _M26, out=acc[0])
    for limb, lo, hi, shift in (
        (acc[1], w0, w1, 26), (acc[2], w1, w2, 20), (acc[3], w2, w3, 14)
    ):
        lo >>= np.uint64(shift)
        np.left_shift(hi, np.uint64(32 - shift), out=limb)
        limb |= lo
        limb &= _M26
    w3 >>= np.uint64(8)
    np.bitwise_or(w3, np.uint64(1 << 24), out=acc[4])

    spare = np.empty((5, n - n // 2), dtype=np.uint64)
    carries = np.empty_like(spare)
    s26, five = np.uint64(26), np.uint64(5)
    while n > _FOLD_STOP:
        half = n // 2
        front = n - half
        t, carry = spare[:, :front], carries[:, :front]
        np.matmul(_mul_matrix(pow(r, half, _P1305)), acc[:, :front], out=t)
        t_bottom, t_upper, t_back = t[0], t[1:], t[:, front - half:]
        carry_lower, carry_top = carry[:4], carry[4]
        for _ in range(2):
            np.right_shift(t, s26, out=carry)
            t &= _M26
            t_upper += carry_lower
            carry_top *= five
            t_bottom += carry_top
        t_back += acc[:, front:n]
        acc, spare = spare, acc
        n = front
    total = 0
    for v0, v1, v2, v3, v4 in acc[:, :n].T.tolist():
        value = v0 + (v1 << 26) + (v2 << 52) + (v3 << 78) + (v4 << 104)
        total = (total + value) * r % _P1305
    return total


def poly1305_mac(key: bytes, message: bytes, _min_blocks: int = _BULK_MIN_BLOCKS) -> bytes:
    """Poly1305 one-time authenticator (RFC 8439 §2.5).

    Long messages run through the folding numpy evaluator; the tail and
    short messages through the serial loop.  ``_min_blocks`` exists so
    tests can force the bulk path on small inputs.
    """
    if len(key) != 32:
        raise ValueError(f"Poly1305 key must be 32 bytes, got {len(key)}")
    r = int.from_bytes(key[:16], "little") & 0x0FFFFFFC0FFFFFFC0FFFFFFC0FFFFFFF
    s = int.from_bytes(key[16:], "little")
    n = len(message)
    n_full = n // 16
    acc = 0
    offset = 0
    if n_full >= _min_blocks:
        acc = _poly1305_bulk(r, message, n_full)
        offset = n_full * 16
    fb = int.from_bytes
    full = n_full * 16
    while offset < full:
        acc = (acc + (fb(message[offset: offset + 16], "little") | _HI_BIT)) * r % _P1305
        offset += 16
    if offset < n:
        acc = (acc + fb(message[offset:] + b"\x01", "little")) * r % _P1305
    acc = (acc + s) & ((1 << 128) - 1)
    return acc.to_bytes(16, "little")


class ChaCha20Poly1305:
    """RFC 8439 AEAD construction.

    One keystream pass per call: block 0 yields the Poly1305 one-time
    key, blocks 1.. the stream the payload is XORed against.
    """

    NONCE_SIZE = 12
    TAG_SIZE = 16
    #: Blocks 1 .. 2^32 - 1 of the 32-bit counter (block 0 keys Poly1305).
    MAX_PAYLOAD = (_MAX_BLOCKS - 1) * 64

    def __init__(self, key: bytes) -> None:
        if len(key) != 32:
            raise ValueError(f"key must be 32 bytes, got {len(key)}")
        self._key = key

    def _pass(self, nonce: bytes, n_bytes: int) -> Tuple[bytes, np.ndarray]:
        """``(one-time key, uint8 stream for an n_bytes payload)``."""
        blocks = _keystream(self._key, nonce, 0, 1 + -(-n_bytes // 64))
        return blocks[:32].tobytes(), blocks[64: 64 + n_bytes]

    @staticmethod
    def _tag(otk: bytes, aad: bytes, ciphertext: bytes) -> bytes:
        mac_data = b"".join(
            (
                aad,
                bytes(-len(aad) % 16),
                ciphertext,
                bytes(-len(ciphertext) % 16),
                struct.pack("<QQ", len(aad), len(ciphertext)),
            )
        )
        return poly1305_mac(otk, mac_data)

    def encrypt(self, nonce: bytes, plaintext: bytes, aad: bytes = b"") -> bytes:
        """Return ciphertext || tag."""
        if len(plaintext) > self.MAX_PAYLOAD:
            raise ValueError(
                f"plaintext of {len(plaintext)} bytes exceeds the "
                f"{self.MAX_PAYLOAD}-byte ChaCha20 counter space"
            )
        otk, stream = self._pass(nonce, len(plaintext))
        stream ^= np.frombuffer(plaintext, dtype=np.uint8)
        ciphertext = stream.tobytes()
        return ciphertext + self._tag(otk, aad, ciphertext)

    def decrypt(self, nonce: bytes, data: bytes, aad: bytes = b"") -> bytes:
        """Verify and decrypt; raises IntegrityError on tampering."""
        if len(data) < self.TAG_SIZE:
            raise IntegrityError("ciphertext shorter than the Poly1305 tag")
        ciphertext, tag = data[: -self.TAG_SIZE], data[-self.TAG_SIZE:]
        if len(ciphertext) > self.MAX_PAYLOAD:
            raise IntegrityError(
                f"ciphertext of {len(ciphertext)} bytes exceeds the "
                f"{self.MAX_PAYLOAD}-byte ChaCha20 counter space"
            )
        otk, stream = self._pass(nonce, len(ciphertext))
        if not ct_eq(self._tag(otk, aad, ciphertext), tag):
            raise IntegrityError("Poly1305 tag verification failed")
        # Only now does the stream touch the ciphertext.
        stream ^= np.frombuffer(ciphertext, dtype=np.uint8)
        return stream.tobytes()
