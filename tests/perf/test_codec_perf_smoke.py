"""Tier-2 perf smoke: the canonical codec must stay one dispatched pass.

Excluded from tier-1 (see ``addopts`` in pyproject.toml); run with
``pytest -m tier2 tests/perf``.  Every RPC and serving envelope goes
through ``encoding.encode``/``decode`` — three of each per served
request.  The ``isinstance`` ladder with a ``struct.pack`` and a
``_read`` call per field that this codec replaced measured, best of 7 on
the build box, 113k encodes/s and 92k decodes/s of a fenced request
(180k and 153k of an ``ok`` reply); exact-type dispatch with
precompiled structs measures 300k and 185k (515k and 325k;
``BENCH.json#crypto_dataplane`` ``codec_*``).  The floors sit between
the two, so only a fall back toward the ladder trips them.
"""

import time

import pytest

from repro.crypto import encoding
from repro.serving import messages

REPEATS = 7
CALLS = 5000

ENVELOPES = {
    "request": messages.encode_request(
        "client-12/345", bytes(64), deadline=2.0066, fence={"role": "router", "epoch": 3}
    ),
    "reply": messages.encode_ok("client-12/345", bytes(64), "replica-2"),
}

#: calls/s: (encode, decode) per envelope.
FLOORS = {"request": (180e3, 130e3), "reply": (300e3, 220e3)}


def _calls_per_s(fn, arg) -> float:
    best = float("inf")
    for _ in range(REPEATS):
        started = time.perf_counter()
        for _ in range(CALLS):
            fn(arg)
        best = min(best, time.perf_counter() - started)
    return CALLS / best


@pytest.mark.tier2
@pytest.mark.slow
@pytest.mark.parametrize("label", ["request", "reply"])
def test_envelope_codec_floor(label):
    raw = ENVELOPES[label]
    encode_floor, decode_floor = FLOORS[label]
    value = encoding.decode(raw)
    encodes = _calls_per_s(encoding.encode, value)
    decodes = _calls_per_s(encoding.decode, raw)
    assert encodes >= encode_floor, f"{label} at {encodes / 1e3:.0f}k encodes/s"
    assert decodes >= decode_floor, f"{label} at {decodes / 1e3:.0f}k decodes/s"
