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
Each floor is a multiple of the ladder's rate timed in the same test,
interleaved with the codec's, so a loaded box slows both sides alike
(absolute floors read a tree's own decode at 73k–127k/s against a 130k
floor while other work shared the box).  Each multiple is the old
absolute floor over the ladder's unloaded rate above, rounded up, so
the check is no looser on an idle box: 180k/89k, 130k/68k, 300k/255k
and 220k/241k.
"""

import time

import pytest

from repro.crypto import encoding
from tests.crypto import _reference_codec as ladder

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

#: Codec calls/s over the ladder's: (encode, decode) per envelope.
MULTIPLES = {"request": (2.03, 1.92), "reply": (1.18, 0.92)}


def _rates(codec_fn, ladder_fn, arg) -> "tuple[float, float]":
    """Best-of-``REPEATS`` calls/s of the codec and of the ladder, timed
    alternately so both see the same load."""
    best = {codec_fn: float("inf"), ladder_fn: float("inf")}
    for _ in range(REPEATS):
        for fn in best:
            started = time.perf_counter()
            for _ in range(CALLS):
                fn(arg)
            best[fn] = min(best[fn], time.perf_counter() - started)
    return CALLS / best[codec_fn], CALLS / best[ladder_fn]


@pytest.mark.tier2
@pytest.mark.slow
@pytest.mark.parametrize("label", ["request", "reply"])
def test_envelope_codec_floor(label):
    raw = ENVELOPES[label]
    encode_multiple, decode_multiple = MULTIPLES[label]
    value = encoding.decode(raw)
    for verb, arg, multiple in (
        ("encode", value, encode_multiple),
        ("decode", raw, decode_multiple),
    ):
        codec, reference = _rates(getattr(encoding, verb), getattr(ladder, verb), arg)
        assert codec >= multiple * reference, (
            f"{label} {verb}: codec {codec / 1e3:.0f}k/s, ladder "
            f"{reference / 1e3:.0f}k/s ({codec / reference:.2f}x < {multiple}x)"
        )
