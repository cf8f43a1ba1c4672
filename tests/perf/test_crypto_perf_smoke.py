"""Tier-2 perf smoke: the vectorized crypto must not regress to bigints.

Excluded from tier-1 (see ``addopts`` in pyproject.toml); run with
``pytest -m tier2 tests/perf``.  The floors are deliberately far below
the measured numbers (on the dev container, 1 MiB messages:
ChaCha20-Poly1305 ~95 MB/s, AES-GCM ~15-20 MB/s; ChaCha20-Poly1305 on a
64 KiB shield chunk ~70 MB/s, on a 256-byte record ~4 000 calls/s) so
that machine variance never trips them — only a regression back toward
the serial implementations (0.2-25 MB/s) or toward a per-call dispatch
floor (two ~4 500-call keystream passes per AEAD call: 16 MB/s at
64 KiB, ~400 calls/s) will.

The two batch floors are different in kind: they sit *between* two
designs measured on the same container, so that falling back to the old
one trips them.  A file's chunks sealed as one ``seal_many`` run at
~140 MB/s (9 x 64 KiB) against ~70 MB/s as nine per-chunk passes;
Poly1305 as one float64 matrix product runs at ~450 MB/s on a 64 KiB
chunk against ~170 MB/s for the halving fold it replaced.

The public-key floors are different again, and run in **tier 1**: they
are ratios against the retired double-and-add kept in
``tests/crypto/_reference_curve25519.py``, timed in alternation in the
same process, so the speed of the box cancels.  Signing off the
fixed-base table is ~6.5x the reference (floor 2x, a 3x margin);
verification is ~2.2x and can only ever be that — half of it is the
253 doublings under ``k * A`` that no table removes — so its floor is
1.4x, far enough from the 1.0x a return to bit-by-bit double-and-add
would read.
"""

import os
import time

import pytest

from repro.crypto.chacha import ChaCha20Poly1305, poly1305_mac
from repro.crypto.ed25519 import Ed25519PrivateKey
from repro.crypto.gcm import AesGcm
from tests.crypto import _reference_curve25519 as reference_curve

MESSAGE_SIZE = 1 << 20
REPEATS = 3

#: MB/s floors: conservative, see module docstring.
CHACHA_FLOOR = 30.0
GCM_FLOOR = 5.0
#: What the shields actually seal: one fs-shield chunk, one small record.
CHUNK_SIZE = 64 << 10
CHACHA_CHUNK_FLOOR = 25.0
RECORD_SIZE = 256
RECORD_CALLS = 200
CHACHA_RECORD_FLOOR = 1000.0
#: One file = one batch of chunks; between per-chunk passes and one pass.
BATCH_CHUNKS = 9
BETWEEN_REPEATS = 9
CHACHA_BATCH_FLOOR = 90.0
#: Between the halving fold and the matrix product, on one chunk.  Both
#: sit within 1.5x of either side, so they take more repeats.
POLY1305_CHUNK_FLOOR = 260.0
#: Speed-ups over the reference double-and-add (see module docstring).
PK_CALLS = 3
PK_REPEATS = 7
SIGN_SPEEDUP_FLOOR = 2.0
VERIFY_SPEEDUP_FLOOR = 1.4


def _best_seconds(fn, repeats: int = REPEATS) -> float:
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - started)
    return best


def _best_mb_s(fn, n_bytes: int = MESSAGE_SIZE, repeats: int = REPEATS) -> float:
    return n_bytes / _best_seconds(fn, repeats) / 1e6


@pytest.mark.tier2
@pytest.mark.slow
def test_chacha20_poly1305_throughput_floor():
    aead = ChaCha20Poly1305(bytes(range(32)))
    payload = os.urandom(MESSAGE_SIZE)
    rate = _best_mb_s(lambda: aead.encrypt(b"\x01" * 12, payload))
    assert rate >= CHACHA_FLOOR, f"ChaCha20-Poly1305 at {rate:.1f} MB/s"


@pytest.mark.tier2
@pytest.mark.slow
def test_chacha20_poly1305_shield_chunk_floor():
    aead = ChaCha20Poly1305(bytes(range(32)))
    payload = os.urandom(CHUNK_SIZE)
    rate = _best_mb_s(lambda: aead.encrypt(b"\x01" * 12, payload), CHUNK_SIZE)
    assert rate >= CHACHA_CHUNK_FLOOR, f"64 KiB chunks at {rate:.1f} MB/s"


@pytest.mark.tier2
@pytest.mark.slow
def test_chacha20_poly1305_small_record_floor():
    aead = ChaCha20Poly1305(bytes(range(32)))
    payload = os.urandom(RECORD_SIZE)

    def burst():
        for _ in range(RECORD_CALLS):
            aead.encrypt(b"\x01" * 12, payload)

    rate = RECORD_CALLS / _best_seconds(burst)
    assert rate >= CHACHA_RECORD_FLOOR, f"256 B records at {rate:.0f} calls/s"


@pytest.mark.tier2
@pytest.mark.slow
def test_chacha20_poly1305_file_batch_floor():
    aead = ChaCha20Poly1305(bytes(range(32)))
    nonces = [bytes([index]) * 12 for index in range(BATCH_CHUNKS)]
    chunks = [os.urandom(CHUNK_SIZE) for _ in range(BATCH_CHUNKS)]
    aads = [b"chunk-%d" % index for index in range(BATCH_CHUNKS)]
    sealed = aead.seal_many(nonces, chunks, aads)
    n_bytes = BATCH_CHUNKS * CHUNK_SIZE
    seal = _best_mb_s(lambda: aead.seal_many(nonces, chunks, aads), n_bytes, BETWEEN_REPEATS)
    opened = _best_mb_s(lambda: aead.open_many(nonces, sealed, aads), n_bytes, BETWEEN_REPEATS)
    assert seal >= CHACHA_BATCH_FLOOR, f"9 x 64 KiB seal_many at {seal:.1f} MB/s"
    assert opened >= CHACHA_BATCH_FLOOR, f"9 x 64 KiB open_many at {opened:.1f} MB/s"


@pytest.mark.tier2
@pytest.mark.slow
def test_poly1305_shield_chunk_floor():
    key, message = os.urandom(32), os.urandom(CHUNK_SIZE)

    def burst():
        for _ in range(20):
            poly1305_mac(key, message)

    rate = 20 * CHUNK_SIZE / _best_seconds(burst, BETWEEN_REPEATS) / 1e6
    assert rate >= POLY1305_CHUNK_FLOOR, f"Poly1305 on 64 KiB at {rate:.0f} MB/s"


@pytest.mark.tier2
@pytest.mark.slow
def test_aes_gcm_throughput_floor():
    aead = AesGcm(bytes(range(16)))
    payload = os.urandom(MESSAGE_SIZE)
    aead.encrypt(b"\x01" * 12, payload)  # build stride tables outside timing
    rate = _best_mb_s(lambda: aead.encrypt(b"\x01" * 12, payload))
    assert rate >= GCM_FLOOR, f"AES-GCM at {rate:.1f} MB/s"


def _speedup(new, old) -> float:
    """Best CPU seconds of ``old`` over ``new``, the two timed in alternation."""
    best = {new: float("inf"), old: float("inf")}
    for _ in range(PK_REPEATS):
        for fn in (new, old):
            started = time.process_time()
            for _ in range(PK_CALLS):
                fn()
            best[fn] = min(best[fn], time.process_time() - started)
    return best[old] / best[new]


def test_ed25519_stays_off_the_double_and_add_floor():
    seed, message = bytes(range(32)), b"quote body" * 10
    key, reference_key = Ed25519PrivateKey(seed), reference_curve.Ed25519PrivateKey(seed)
    signature = key.sign(message)  # also builds the base table, outside the timing
    assert signature == reference_key.sign(message)
    public, reference_public = key.public_key(), reference_key.public_key()
    sign = _speedup(lambda: key.sign(message), lambda: reference_key.sign(message))
    verify = _speedup(
        lambda: public.verify(signature, message),
        lambda: reference_public.verify(signature, message),
    )
    assert sign >= SIGN_SPEEDUP_FLOOR, f"sign at {sign:.2f}x double-and-add"
    assert verify >= VERIFY_SPEEDUP_FLOOR, f"verify at {verify:.2f}x double-and-add"
