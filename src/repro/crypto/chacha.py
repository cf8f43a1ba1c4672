"""ChaCha20-Poly1305 AEAD (RFC 8439), numpy-vectorized and batched.

This is the workhorse cipher of the file-system and network shields.
Both seal small units — 64 KiB file chunks, TLS records — so what an
AEAD call costs is set by the *number* of numpy calls it makes, not by
the bytes they touch.  The keystream core is laid out to make few, and
the AEAD is batched so that a file's chunks share them:

* The ChaCha state of all blocks in a pass is held as four row groups
  ``a, b, c, d`` of shape ``(4, n_blocks)`` (state words 0-3, 4-7, 8-11,
  12-15).  A column round is then *one* quarter round over whole groups,
  and a diagonal round is the same quarter round after rotating the rows
  of ``b``, ``c``, ``d`` by 1, 2, 3.  Each group sits in a buffer with
  spare rows, so a rotation copies one or two rows and slides a view
  instead of moving the group.
* Every add / xor / rotate works in place (one shared scratch group), so
  a pass is ~470 numpy calls however many blocks it holds.
* One column is one block, and the ``d`` group holds the only words
  that differ between blocks — the counter (row 0) and the nonce (rows
  1-3).  Both are filled **per column**, so blocks of different nonces
  ride in one pass: :meth:`ChaCha20Poly1305.seal_many` lays out block 0
  of every message (the Poly1305 one-time keys) and then every
  message's stream blocks, and pays the ~470 calls once per file
  instead of once per chunk.  ``encrypt`` / ``decrypt`` are the batch of
  one.
* A pass holds at most ``_PASS_BLOCKS`` columns (1 MiB of stream); a
  longer column plan continues in the next pass.  The per-block rate is
  flat from a few thousand columns on, so the cap costs nothing, and the
  state scratch is bounded however large the file.
* :meth:`ChaCha20Poly1305.open_many` reads each message once — one
  snapshot of the buffer it is handed — and checks its tag and XORs its
  stream from that snapshot, so the bytes decrypted are the bytes
  authenticated even when the buffer is the host's.  Plaintexts are held
  until **every** tag of the batch has verified: a batch with one bad
  message releases no plaintext at all, and the error carries its
  ``position``.

Poly1305 is one matrix product for long messages.  Sixty-four blocks
form a group; ``r^64 .. r^1`` (bigints, once per message — the key is
one-time) are cut into nine 16-bit limbs and laid out as a Toeplitz
``(512, 16)`` float64 matrix, so that a group's ``512`` 16-bit message
limbs times the matrix is the group's whole sum ``sum m_j r^(64-j)`` with
limb products gathered by weight and nothing reduced.  A column gets at
most ``8 * 64`` terms below 2^32, so every sum is an integer below 2^42:
float64 represents it exactly and the order BLAS adds in (or how many
threads it uses) cannot change a bit.  The 2^128 pad bit of each block
is one constant per group, two columns pair into one uint64 field so a
group reads back as two ``int.from_bytes``, and one bigint Horner step
per group by ``r^64`` finishes — algebraically the serial evaluation,
and asserted byte-identical to a serial bigint reference by the
property tests.  Groups are converted to float64 a slab at a time, so
the scratch is 512 KiB whatever the message length.  Short messages
take the plain bigint loop, which wins below 2 KiB.

Verified against the RFC 8439 test vectors in the test suite.
"""

from __future__ import annotations

import struct
from typing import Iterable, Iterator, List, Sequence, Tuple, Union

import numpy as np

from repro.crypto._ct import ct_eq
from repro.errors import IntegrityError

_SIGMA = b"expand 32-byte k"
#: The block counter is one 32-bit state word: a (key, nonce) pair has
#: 2^32 blocks of keystream and not one more.
_MAX_BLOCKS = 1 << 32
#: Columns per keystream pass: sixteen 64 KiB chunks with their block 0s
#: (or 1 MiB and its block 0).  The per-block rate is flat well before
#: this, so capping costs nothing and bounds the state scratch.
_PASS_BLOCKS = 16 * 1025
_RAMP = np.arange(_PASS_BLOCKS, dtype=np.uint32)
_NO_BYTES = np.empty(0, dtype=np.uint8)
# Shift amounts as 0-d uint32 arrays: a Python int costs numpy a scalar
# conversion (~0.3 us) on each of the 160 shifts of a pass.
_S7, _S8, _S12, _S16, _S20, _S24, _S25 = (
    np.array(bits, dtype=np.uint32) for bits in (7, 8, 12, 16, 20, 24, 25)
)


def _quarter_round(a, b, c, d, t) -> None:
    """One ChaCha quarter round over whole row groups, in place.

    Each argument is a ``(4, n_blocks)`` uint32 group; row ``i`` of the
    four groups is one column (or, with ``b, c, d`` rotated, one
    diagonal) of every block's state.  ``t`` is scratch.
    """
    a += b; d ^= a
    np.left_shift(d, _S16, out=t); d >>= _S16; d |= t
    c += d; b ^= c
    np.left_shift(b, _S12, out=t); b >>= _S20; b |= t
    a += b; d ^= a
    np.left_shift(d, _S8, out=t); d >>= _S24; d |= t
    c += d; b ^= c
    np.left_shift(b, _S7, out=t); b >>= _S25; b |= t


def _block_pass(head: np.ndarray, runs: List[Tuple[np.ndarray, int, int]]) -> np.ndarray:
    """One fused ChaCha20 pass over every column of ``runs``, as uint8.

    ``head`` is the twelve constant-and-key words; each run is ``(nonce
    words, first counter, n_blocks)`` and fills that many columns of the
    ``d`` group — counter in row 0, nonce words in rows 1-3 — so blocks
    of different nonces share the pass.  The one keystream core: every
    public function below reads what this returns through
    :func:`_keystream`.
    """
    n_blocks = sum(run[2] for run in runs)
    # a | b + 1 spare row | c + 2 spare rows | 1 spare row + d | scratch
    # | d as it went in (for the final add).
    rows = np.empty((28, n_blocks), dtype=np.uint32)
    a, t, d_in = rows[0:4], rows[20:24], rows[24:28]
    b, b_diag = rows[4:8], rows[5:9]
    c, c_diag = rows[9:13], rows[11:15]
    d, d_diag = rows[16:20], rows[15:19]
    a[...] = head[0:4, None]
    b[...] = head[4:8, None]
    c[...] = head[8:12, None]
    at = 0
    for nonce_words, counter, count in runs:
        np.add(_RAMP[:count], np.uint32(counter), out=d_in[0, at: at + count])
        d_in[1:4, at: at + count] = nonce_words[:, None]
        at += count
    d[...] = d_in
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

    # Add the input state in row order (every write contiguous), then
    # serialize block-major with one transposing copy.
    state = np.empty((16, n_blocks), dtype=np.uint32)
    np.add(a, head[0:4, None], out=state[0:4])
    np.add(b, head[4:8, None], out=state[4:8])
    np.add(c, head[8:12, None], out=state[8:12])
    np.add(d, d_in, out=state[12:16])
    out = np.ascontiguousarray(state.T)
    return out.astype("<u4", copy=False).reshape(-1).view(np.uint8)


def _head(key: bytes) -> np.ndarray:
    """The twelve state words every block of ``key`` starts from."""
    if len(key) != 32:
        raise ValueError(f"ChaCha20 key must be 32 bytes, got {len(key)}")
    return np.frombuffer(_SIGMA + key, dtype="<u4")


def _run(nonce: bytes, counter: int, n_blocks: int) -> Tuple[np.ndarray, int, int]:
    """Blocks ``counter .. counter + n_blocks - 1`` of ``nonce``, checked."""
    if len(nonce) != 12:
        raise ValueError(f"ChaCha20 nonce must be 12 bytes, got {len(nonce)}")
    if counter < 0 or counter + n_blocks > _MAX_BLOCKS:
        # Wrapping the counter would repeat keystream under one nonce.
        raise ValueError(
            f"ChaCha20 block counter exhausted: {n_blocks} blocks from "
            f"counter {counter} pass 2^32"
        )
    return np.frombuffer(nonce, dtype="<u4"), counter, n_blocks


def _keystream(
    head: np.ndarray, runs: Iterable[Tuple[np.ndarray, int, int]]
) -> Iterator[np.ndarray]:
    """The keystream of ``runs`` in order, one capped pass at a time.

    Runs are packed into passes of at most :data:`_PASS_BLOCKS` columns
    (a run longer than the room left continues in the next pass), so a
    file of many chunks is a few passes and scratch never grows with it.
    """
    window: List[Tuple[np.ndarray, int, int]] = []
    room = _PASS_BLOCKS
    for nonce_words, counter, count in runs:
        while count:
            step = min(count, room)
            window.append((nonce_words, counter, step))
            counter += step
            count -= step
            room -= step
            if not room:
                yield _block_pass(head, window)
                window, room = [], _PASS_BLOCKS
    if window:
        yield _block_pass(head, window)


class _KeystreamReader:
    """Reads the passes of :func:`_keystream` as one stream of blocks."""

    def __init__(self, passes: Iterator[np.ndarray]) -> None:
        self._passes = passes
        self._pass = _NO_BYTES
        self._at = 0

    def take(self, n_bytes: int) -> np.ndarray:
        """The next ``n_bytes``; the rest of their last block is skipped.

        A view of the current pass (the caller may XOR into it) unless
        the bytes straddle passes, which costs one copy.
        """
        pieces = []
        need = n_bytes
        while need:
            if self._at == len(self._pass):
                self._pass, self._at = next(self._passes), 0
            piece = self._pass[self._at: self._at + need]
            pieces.append(piece)
            need -= len(piece)
            self._at += len(piece)
        self._at += -n_bytes % 64
        if len(pieces) == 1:
            return pieces[0]
        return np.concatenate(pieces) if pieces else _NO_BYTES


def _stream(key: bytes, nonce: bytes, counter: int, n_bytes: int) -> np.ndarray:
    """``n_bytes`` of keystream from block ``counter`` of one nonce."""
    passes = _keystream(_head(key), [_run(nonce, counter, -(-n_bytes // 64))])
    return _KeystreamReader(passes).take(n_bytes)


def chacha20_keystream(key: bytes, nonce: bytes, counter: int, n_bytes: int) -> bytes:
    """Generate ``n_bytes`` of ChaCha20 keystream starting at ``counter``.

    Raises :class:`ValueError` rather than wrap the 32-bit block counter.
    """
    return _stream(key, nonce, counter, n_bytes).tobytes()


def chacha20_xor(key: bytes, nonce: bytes, counter: int, data: bytes) -> bytes:
    """XOR ``data`` with the ChaCha20 keystream (encrypts and decrypts)."""
    stream = _stream(key, nonce, counter, len(data))
    stream ^= np.frombuffer(data, dtype=np.uint8)
    return stream.tobytes()


_P1305 = (1 << 130) - 5
_HI_BIT = 1 << 128
_TAG_MASK = (1 << 128) - 1
_R_CLAMP = 0x0FFFFFFC0FFFFFFC0FFFFFFC0FFFFFFF
# Below this many full blocks the serial bigint loop is faster than
# setting up the powers of r.
_BULK_MIN_BLOCKS = 128
#: Blocks per group of the bulk evaluator: r^1 .. r^_GROUP_BLOCKS are
#: computed per message (the key is one-time), one bigint Horner step
#: remains per group.
_GROUP_BLOCKS = 64
#: Groups converted to float64 per product, so scratch is this many
#: 8 KiB rows however long the message is.
_SLAB_GROUPS = 64


def _poly1305_groups(r: int, message: bytes, n_groups: int) -> int:
    """``sum (m_j + 2^128) * r^(n-j)`` over the first ``n = n_groups * B``
    blocks, ``B = _GROUP_BLOCKS``.

    A group is a row of ``8 B`` 16-bit message limbs; ``r^B .. r^1`` are
    nine 16-bit limbs each, laid out as a Toeplitz ``(8 B, 16)`` matrix
    whose row ``(j, k)`` carries the limbs of ``r^(B-j)`` shifted ``k``
    columns.  One float64 product ``rows @ matrix`` is then every
    group's sum with the limb products gathered by weight (column ``c``
    is worth ``2^(16 c)``) and nothing reduced: a column receives at
    most ``8 B`` terms below 2^32, so it stays below 2^42 — an integer
    float64 holds exactly, in whatever order BLAS adds.  Pairing columns
    (``even + odd << 16`` < 2^59, exact in uint64) leaves eight 64-bit
    fields 32 bits apart; the even and the odd fields are each one
    little-endian integer, so a group reads back as two
    ``int.from_bytes`` and a shift.  The 2^128 bit of every block is one
    constant per group, and one bigint Horner step per group by ``r^B``
    finishes.
    """
    powers = [r]
    for _ in range(_GROUP_BLOCKS - 1):
        powers.append(powers[-1] * r % _P1305)
    descending = b"".join([power.to_bytes(18, "little") for power in reversed(powers)])
    power_limbs = np.frombuffer(descending, dtype="<u2").reshape(_GROUP_BLOCKS, 9)
    matrix = np.zeros((_GROUP_BLOCKS, 8, 16))
    for k in range(8):
        matrix[:, k, k: k + 9] = power_limbs
    matrix = matrix.reshape(8 * _GROUP_BLOCKS, 16)
    step = powers[-1]
    pad = (sum(powers) << 128) % _P1305

    groups = np.frombuffer(
        message, dtype="<u2", count=8 * _GROUP_BLOCKS * n_groups
    ).reshape(n_groups, 8 * _GROUP_BLOCKS)
    fb = int.from_bytes
    acc = 0
    for at in range(0, n_groups, _SLAB_GROUPS):
        sums = np.matmul(groups[at: at + _SLAB_GROUPS].astype(np.float64), matrix)
        columns = sums.astype(np.uint64)
        fields = columns[:, 1::2]
        fields <<= np.uint64(16)
        fields += columns[:, 0::2]
        raw = fields.reshape(-1, 4, 2).transpose(0, 2, 1).tobytes()
        for row in range(0, len(raw), 64):
            even, odd = fb(raw[row: row + 32], "little"), fb(raw[row + 32: row + 64], "little")
            acc = (acc * step + even + (odd << 32) + pad) % _P1305
    return acc


def poly1305_mac(key: bytes, message: bytes, _min_blocks: int = _BULK_MIN_BLOCKS) -> bytes:
    """Poly1305 one-time authenticator (RFC 8439 §2.5).

    Long messages run their whole groups of blocks through the
    matrix-product evaluator; the blocks left over, the tail and short
    messages through the serial loop.  ``_min_blocks`` exists so tests
    can force the bulk path on small inputs.
    """
    if len(key) != 32:
        raise ValueError(f"Poly1305 key must be 32 bytes, got {len(key)}")
    r = int.from_bytes(key[:16], "little") & _R_CLAMP
    s = int.from_bytes(key[16:], "little")
    n = len(message)
    n_full = n // 16
    acc = 0
    offset = 0
    n_groups = n_full // _GROUP_BLOCKS
    if n_groups and n_full >= _min_blocks:
        acc = _poly1305_groups(r, message, n_groups)
        offset = n_groups * _GROUP_BLOCKS * 16
    fb = int.from_bytes
    full = n_full * 16
    while offset < full:
        acc = (acc + (fb(message[offset: offset + 16], "little") | _HI_BIT)) * r % _P1305
        offset += 16
    if offset < n:
        acc = (acc + fb(message[offset:] + b"\x01", "little")) * r % _P1305
    acc = (acc + s) & _TAG_MASK
    return acc.to_bytes(16, "little")


class ChaCha20Poly1305:
    """RFC 8439 AEAD construction, batched.

    :meth:`seal_many` / :meth:`open_many` run every message of a batch
    through shared keystream passes — all block 0s (the Poly1305
    one-time keys) first, then each message's stream;
    :meth:`encrypt` / :meth:`decrypt` are their one-item case.
    """

    NONCE_SIZE = 12
    TAG_SIZE = 16
    #: Blocks 1 .. 2^32 - 1 of the 32-bit counter (block 0 keys Poly1305).
    MAX_PAYLOAD = (_MAX_BLOCKS - 1) * 64

    def __init__(self, key: bytes) -> None:
        if len(key) != 32:
            raise ValueError(f"key must be 32 bytes, got {len(key)}")
        self._head = _head(key)

    def _begin(
        self, nonces: Sequence[bytes], sizes: List[int]
    ) -> Tuple[List[bytes], _KeystreamReader]:
        """``(one-time key per message, reader placed at the first stream)``."""
        keys = [_run(nonce, 0, 1) for nonce in nonces]
        streams = [(words, 1, -(-size // 64)) for (words, _, _), size in zip(keys, sizes)]
        reader = _KeystreamReader(_keystream(self._head, keys + streams))
        otks = reader.take(64 * len(keys)).reshape(-1, 64)[:, :32].tobytes()
        return [otks[at: at + 32] for at in range(0, len(otks), 32)], reader

    @staticmethod
    def _tag(otk: bytes, aad: bytes, ciphertext: Union[np.ndarray, memoryview]) -> bytes:
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

    def seal_many(
        self, nonces: Sequence[bytes], plaintexts: Sequence[bytes], aads: Sequence[bytes]
    ) -> List[bytes]:
        """``[ciphertext || tag]``, equal to per-item :meth:`encrypt`.

        A nonce repeated inside the batch would seal two messages under
        one keystream; that is refused before anything is sealed.
        """
        if not len(nonces) == len(plaintexts) == len(aads):
            raise ValueError("seal_many needs one nonce and one aad per plaintext")
        if len(set(nonces)) != len(nonces):
            raise ValueError("nonce repeated within one seal_many batch")
        sizes = [len(plaintext) for plaintext in plaintexts]
        if max(sizes, default=0) > self.MAX_PAYLOAD:
            raise ValueError(
                f"plaintext of {max(sizes)} bytes exceeds the "
                f"{self.MAX_PAYLOAD}-byte ChaCha20 counter space"
            )
        otks, reader = self._begin(nonces, sizes)
        sealed = []
        for otk, plaintext, aad in zip(otks, plaintexts, aads):
            ciphertext = reader.take(len(plaintext))
            ciphertext ^= np.frombuffer(plaintext, dtype=np.uint8)
            sealed.append(b"".join((ciphertext, self._tag(otk, aad, ciphertext))))
        return sealed

    def open_many(
        self, nonces: Sequence[bytes], sealed: Sequence[bytes], aads: Sequence[bytes]
    ) -> List[bytes]:
        """Verify and decrypt every message, each from one fetch of its bytes.

        Each message's ciphertext || tag is read once, as one ``bytes``
        snapshot of the buffer or view it is given; its tag is checked and
        its keystream XORed from that snapshot, so a buffer rewritten
        mid-open decrypts nothing its tag did not cover.  Plaintexts are
        held until every tag of the batch has verified: a failure raises
        :class:`IntegrityError` with the failing ``position`` and releases
        no plaintext.
        """
        if not len(nonces) == len(sealed) == len(aads):
            raise ValueError("open_many needs one nonce and one aad per sealed message")
        bodies = []
        for position, data in enumerate(sealed):
            body = bytes(data)  # the one fetch
            if len(body) < self.TAG_SIZE:
                raise IntegrityError(
                    "ciphertext shorter than the Poly1305 tag", position=position
                )
            if len(body) - self.TAG_SIZE > self.MAX_PAYLOAD:
                raise IntegrityError(
                    f"ciphertext of {len(body) - self.TAG_SIZE} bytes exceeds the "
                    f"{self.MAX_PAYLOAD}-byte ChaCha20 counter space",
                    position=position,
                )
            bodies.append(body)
        otks, reader = self._begin(nonces, [len(body) - self.TAG_SIZE for body in bodies])
        plaintexts = []
        for position, (otk, aad, body) in enumerate(zip(otks, aads, bodies)):
            ciphertext = memoryview(body)[: -self.TAG_SIZE]
            if not ct_eq(self._tag(otk, aad, ciphertext), body[-self.TAG_SIZE:]):
                raise IntegrityError("Poly1305 tag verification failed", position=position)
            stream = reader.take(len(ciphertext))
            stream ^= np.frombuffer(ciphertext, dtype=np.uint8)
            plaintexts.append(stream.tobytes())
        return plaintexts

    def encrypt(self, nonce: bytes, plaintext: bytes, aad: bytes = b"") -> bytes:
        """Return ciphertext || tag."""
        return self.seal_many((nonce,), (plaintext,), (aad,))[0]

    def decrypt(self, nonce: bytes, data: bytes, aad: bytes = b"") -> bytes:
        """Verify and decrypt; raises IntegrityError on tampering."""
        return self.open_many((nonce,), (data,), (aad,))[0]
