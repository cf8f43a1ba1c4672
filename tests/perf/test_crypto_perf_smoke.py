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
"""

import os
import time

import pytest

from repro.crypto.chacha import ChaCha20Poly1305
from repro.crypto.gcm import AesGcm

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


def _best_seconds(fn) -> float:
    best = float("inf")
    for _ in range(REPEATS):
        started = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - started)
    return best


def _best_mb_s(fn, n_bytes: int = MESSAGE_SIZE) -> float:
    return n_bytes / _best_seconds(fn) / 1e6


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
def test_aes_gcm_throughput_floor():
    aead = AesGcm(bytes(range(16)))
    payload = os.urandom(MESSAGE_SIZE)
    aead.encrypt(b"\x01" * 12, payload)  # build stride tables outside timing
    rate = _best_mb_s(lambda: aead.encrypt(b"\x01" * 12, payload))
    assert rate >= GCM_FLOOR, f"AES-GCM at {rate:.1f} MB/s"
