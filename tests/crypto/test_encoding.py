"""Canonical encoding: determinism, roundtrips, adversarial inputs, and
the differential against the codec it replaced (``_reference_codec``)."""

import collections
import enum

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster.rpc import _open_envelope
from repro.crypto import encoding
from repro.errors import IntegrityError, RpcError

from . import _reference_codec as reference

values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(min_value=-(2**70), max_value=2**70)
    | st.floats(allow_nan=False)
    | st.binary(max_size=50)
    | st.text(max_size=30),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=8), children, max_size=4),
    max_leaves=12,
)


@given(values)
def test_roundtrip_property(value):
    decoded = encoding.decode(encoding.encode(value))
    if isinstance(value, tuple):
        value = list(value)
    assert decoded == value


def test_dict_key_order_is_canonical():
    a = encoding.encode({"b": 1, "a": 2})
    b = encoding.encode({"a": 2, "b": 1})
    assert a == b


def test_tuple_encodes_as_list():
    assert encoding.decode(encoding.encode((1, 2))) == [1, 2]


def test_large_integers():
    n = 2**200 + 12345
    assert encoding.decode(encoding.encode(n)) == n
    assert encoding.decode(encoding.encode(-n)) == -n


def test_rejects_non_string_dict_keys():
    with pytest.raises(TypeError):
        encoding.encode({1: "x"})


def test_rejects_unencodable_type():
    with pytest.raises(TypeError):
        encoding.encode(object())


def test_rejects_trailing_garbage():
    data = encoding.encode(42) + b"\x00"
    with pytest.raises(IntegrityError):
        encoding.decode(data)


def test_rejects_truncation():
    data = encoding.encode({"key": b"value" * 10})
    for cut in (1, len(data) // 2, len(data) - 1):
        with pytest.raises(IntegrityError):
            encoding.decode(data[:cut])


def test_rejects_unknown_tag():
    with pytest.raises(IntegrityError):
        encoding.decode(b"\xfe")


def test_rejects_unsorted_dict_keys():
    # Hand-craft a dict with keys out of canonical order.
    good = encoding.encode({"a": 1, "b": 2})
    ka = encoding.encode("a")
    kb = encoding.encode("b")
    swapped = good.replace(ka, b"\x99", 1).replace(kb, ka, 1).replace(b"\x99", kb, 1)
    with pytest.raises(IntegrityError):
        encoding.decode(swapped)


def test_rejects_invalid_utf8_string():
    raw = encoding.encode("hello")
    corrupted = raw.replace(b"hello", b"he\xfflo")
    with pytest.raises(IntegrityError):
        encoding.decode(corrupted)


def test_bytes_and_str_are_distinct():
    assert encoding.encode(b"x") != encoding.encode("x")


# --------------------------------------------------------------------------- #
# Differential against the codec this one replaced
# --------------------------------------------------------------------------- #


class _Level(enum.IntEnum):
    LOW = 1
    HIGH = 2**40


class _Colour(str, enum.Enum):  # str(member) is "_Colour.RED", its text "red"
    RED = "red"


_Point = collections.namedtuple("_Point", "x y")

#: ``values`` plus everything the isinstance fallback exists for.
wide_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(min_value=-(2**200), max_value=2**200)
    | st.sampled_from(list(_Level))
    | st.floats(allow_nan=False)
    | st.floats(allow_nan=False).map(np.float64)
    | st.binary(max_size=50)
    | st.binary(max_size=50).map(bytearray)
    | st.binary(max_size=50).map(memoryview)
    | st.text(max_size=30)
    | st.just(_Colour.RED),
    lambda children: st.lists(children, max_size=4)
    | st.lists(children, max_size=4).map(tuple)
    | st.tuples(children, children).map(lambda pair: _Point(*pair))
    | st.dictionaries(st.text(max_size=8), children, max_size=4)
    | st.dictionaries(st.text(max_size=8), children, max_size=4).map(
        collections.OrderedDict
    ),
    max_leaves=12,
)

#: The two rejections the reference codec does not make.
_NEW_REJECTIONS = ("non-canonical integer", "canonical value nested too deep")


def _outcome(decode, raw):
    """What ``decode(raw)`` does, comparable across codecs (``repr``
    tells ``bytes`` from ``bytearray`` and -0.0 from 0.0, and equates
    NaNs)."""
    try:
        return repr(decode(raw))
    except Exception as exc:  # any escape is part of the comparison
        return type(exc), str(exc)


def _mutations(raw):
    """Every proper prefix and every single-bit flip of ``raw``."""
    for cut in range(len(raw)):
        yield raw[:cut]
    for index in range(len(raw)):
        for bit in range(8):
            yield raw[:index] + bytes([raw[index] ^ (1 << bit)]) + raw[index + 1:]


@given(wide_values)
def test_encodes_and_decodes_like_the_reference(value):
    raw = encoding.encode(value)
    assert raw == reference.encode(value)
    assert _outcome(encoding.decode, raw) == _outcome(reference.decode, raw)


@settings(max_examples=60, deadline=None)
@given(wide_values)
def test_malformed_input_fails_like_the_reference(value):
    for raw in _mutations(encoding.encode(value)):
        got = _outcome(encoding.decode, raw)
        if got[0] is IntegrityError and got[1] in _NEW_REJECTIONS:
            continue
        assert got == _outcome(reference.decode, raw)


@settings(max_examples=60, deadline=None)
@given(wide_values)
def test_every_accepted_encoding_is_the_canonical_one(value):
    for raw in _mutations(encoding.encode(value)):
        try:
            decoded = encoding.decode(raw)
        except IntegrityError:
            continue
        assert encoding.encode(decoded) == raw


@pytest.mark.parametrize(
    "value",
    [
        {1: "x", "a": object()},  # the key check comes before any value
        {"a": 1, 2: 3},  # unsortable mix
        {b"a": 1},
        {"a": {"b": [object()]}},
        np.int64(3),
        np.bool_(True),
        {"k": "\ud800"},
        {"\ud800": 1},
    ],
)
def test_unencodable_values_fail_like_the_reference(value):
    def outcome(encode):
        try:
            return encode(value)
        except Exception as exc:
            return type(exc), str(exc)

    got = outcome(encoding.encode)
    assert isinstance(got, tuple) and got == outcome(reference.encode)


def test_key_table_is_bounded_and_never_changes_output():
    for batch in range(3):
        value = {f"key-{batch}-{i}": i for i in range(encoding._KEY_TABLE_ENTRIES)}
        value["k" * (encoding._KEY_TABLE_MAX_CHARS + 1)] = None
        for _ in range(2):  # a miss, then a hit
            assert encoding.encode(value) == reference.encode(value)
        assert len(encoding._KEY_ENCODINGS) <= encoding._KEY_TABLE_ENTRIES
        assert all(
            len(key) <= encoding._KEY_TABLE_MAX_CHARS for key in encoding._KEY_ENCODINGS
        )


# --------------------------------------------------------------------------- #
# Strictness the reference codec lacked
# --------------------------------------------------------------------------- #


def _nested_lists(depth):
    return b"\x07\x00\x00\x00\x01" * depth + b"\x00"


def test_nesting_is_capped_with_typed_errors():
    cap = encoding._MAX_DEPTH
    value = None
    for _ in range(cap):
        value = [value]
    assert encoding.encode(value) == _nested_lists(cap)
    assert encoding.decode(_nested_lists(cap)) == value
    with pytest.raises(IntegrityError, match="nested too deep"):
        encoding.decode(_nested_lists(cap + 1))
    with pytest.raises(IntegrityError, match="nested too deep"):
        encoding.decode(_nested_lists(5000))  # was a RecursionError
    with pytest.raises(ValueError, match="nested too deep"):
        encoding.encode([value])
    with pytest.raises(ValueError, match="nested too deep"):
        encoding.encode({"a": {"b": value}})
    cyclic = []
    cyclic.append(cyclic)
    with pytest.raises(ValueError, match="nested too deep"):
        encoding.encode(cyclic)  # was a RecursionError


@pytest.mark.parametrize(
    "raw",
    [
        b"\x03\x00\x00\x00\x00",  # empty payload read as 0
        b"\x03\x00\x00\x00\x01\x07",  # one byte short of the encoder's two
        b"\x03\x00\x00\x00\x05\x00\x00\x00\x00\x07",  # zero-padded 7
        b"\x03\x00\x00\x00\x03\xff\xff\xf9",  # sign-padded -7
    ],
)
def test_rejects_non_canonical_integers(raw):
    assert isinstance(reference.decode(raw), int)  # one value, several spellings
    with pytest.raises(IntegrityError, match="non-canonical integer"):
        encoding.decode(raw)


@pytest.mark.parametrize("buffer", [bytearray, memoryview])
def test_decode_of_any_buffer_returns_bytes_leaves(buffer):
    value = {"blob": b"abc", "items": [b"", b"\x00" * 40], "text": "t"}
    raw = encoding.encode(value)
    assert repr(encoding.decode(buffer(raw))) == repr(value)
    call = encoding.encode(
        {"kind": "call", "method": "infer", "payload": b"payload", "deadline": 1.5}
    )
    assert _open_envelope(buffer(call), "call")["payload"] == b"payload"
    with pytest.raises(RpcError):
        _open_envelope(buffer(encoding.encode({"method": "infer"})), "call")


# --------------------------------------------------------------------------- #
# A real serving hop's envelopes, cut and flipped
# --------------------------------------------------------------------------- #


def _served_envelopes():
    """The first fenced ``infer`` call a router sends a replica, and the
    replica's reply, as they crossed a fenced serving plane's wire."""
    from repro.serving.service import ServingPlane

    plane = ServingPlane(seed=3, n_nodes=2, initial_replicas=1, fencing=True)
    wire = {}

    def capture(src, dst, payload):
        wire.setdefault((src, dst), payload)
        return payload

    plane.platform.network.adversary = capture
    plane.run_traffic(2, 1.0)
    return wire[("router", "replica-0")], wire[("replica-0", "router")]


def test_serving_envelopes_cut_or_flipped_decode_like_the_reference():
    """The dict loop reads an envelope's leaves itself: every proper
    prefix of a real call and reply, every byte inverted and every bit
    flipped, decodes to what the reference decodes, or fails as it does
    (save the two rejections only this codec makes)."""
    call, reply = _served_envelopes()
    assert set(encoding.decode(call)) == {
        "call_id", "deadline", "fence", "kind", "method", "payload"
    }
    assert encoding.decode(call)["fence"] == {"epoch": 1, "role": "router"}
    assert set(encoding.decode(reply)) == {"kind", "payload"}
    for raw in (call, reply):
        inverted = (
            raw[:index] + bytes([raw[index] ^ 0xFF]) + raw[index + 1:]
            for index in range(len(raw))
        )
        for mutated in (*_mutations(raw), *inverted):
            got = _outcome(encoding.decode, mutated)
            if got[0] is IntegrityError and got[1] in _NEW_REJECTIONS:
                continue
            assert got == _outcome(reference.decode, mutated), mutated
