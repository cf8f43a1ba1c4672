"""Tier-2 perf smoke: the canonical codec must stay one dispatched pass.

Excluded from tier-1 (see ``addopts`` in pyproject.toml); run with
``pytest -m tier2 tests/perf``.  Every RPC envelope goes through
``encoding.encode``/``decode`` — four of each per served request (the
client's call and the router's, each with its reply); the envelopes
timed here are the router → replica hop's.  On the serving envelopes
these replaced, the ``isinstance`` ladder with a ``struct.pack`` and a
``_read`` call per field that this codec replaced measured, best of 7 on
the build box, 113k encodes/s and 92k decodes/s of a fenced request
(180k and 153k of an ``ok`` reply); exact-type dispatch with
precompiled structs measures 300k and 185k (515k and 325k;
``BENCH.json#crypto_dataplane`` ``codec_*``).  The fenced ``infer``
call below has one key more than that request and its reply two fewer:
best of three alternating runs in one sitting on a 2-core box, with a
dict's ``str`` / ``bytes`` / ``float`` values read and written in the
dict's own loop, the codec read ~251k / ~156k (call) and ~748k / ~587k
(reply) where the codec before that read ~252k / ~146k and
~709k / ~515k, and the ladder (``tests/crypto/_reference_codec.py``)
~89k / ~68k and ~255k / ~241k.
The floors sit between the two, so only a fall back toward the ladder
trips them — but the call's decode floor sits close to the codec, and
a run on a loaded box can read below it (as the retired request did).
"""

import time

import pytest

from repro.crypto import encoding

REPEATS = 7
CALLS = 5000

#: A fenced ``infer`` call as ``RpcClient._call_envelope`` builds it, and
#: its reply.
ENVELOPES = {
    "request": encoding.encode({
        "kind": "call", "method": "infer", "payload": bytes(64),
        "call_id": "router#3/345", "deadline": 2.0066,
        "fence": {"role": "router", "epoch": 3},
    }),
    "reply": encoding.encode({"kind": "reply", "payload": bytes(64)}),
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
