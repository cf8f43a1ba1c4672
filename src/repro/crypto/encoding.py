"""Canonical binary encoding (a deterministic mini-CBOR).

Signatures and measurements must cover a *byte-exact* representation, so
the library needs a deterministic serialization of structured values.
This module provides one: a small tag-length-value format over
``None``/``bool``/``int``/``float``/``bytes``/``str``/``list``/``dict``
with dictionary keys sorted, so ``encode(x)`` is a pure function of the
value.  Quotes, certificates, checkpoints, Lite models, and CAS records
all use it, and so does every RPC and serving envelope — several small
messages per request — so both directions are one pass that dispatches
on the exact ``type()`` (commonest first: ``str``, ``bytes``, ``float``,
``dict``, ``int``, ``list``/``tuple``, the three singletons) and only
then falls back to ``isinstance`` for subclasses (``IntEnum``,
``np.float64``, ``bytearray``, ``OrderedDict``, named tuples).

The format is strict, so that the bytes of a value are unique:
``decode`` accepts exactly what ``encode`` emits.  Dictionary keys must
be strings in strictly ascending order, strings must be valid UTF-8, an
integer must have the one length the encoder gives it, containers may
nest at most :data:`_MAX_DEPTH` deep, and nothing may follow the value.
"""

from __future__ import annotations

import struct
from typing import Any, Callable, Dict, List, Tuple

from repro.errors import IntegrityError

_T_NONE = 0x00
_T_FALSE = 0x01
_T_TRUE = 0x02
_T_INT = 0x03
_T_FLOAT = 0x04
_T_BYTES = 0x05
_T_STR = 0x06
_T_LIST = 0x07
_T_DICT = 0x08

#: Containers may nest this deep (a scalar is depth 0, ``[[]]`` depth 2).
#: The deepest value tier-1 and the six examples encode is 6 (a frozen
#: graph: model → ops → op → attrs → constant → shape); without a cap,
#: 5 kB of list headers from the host end a parser of untrusted bytes
#: in a ``RecursionError``.
_MAX_DEPTH = 32

_NONE, _FALSE, _TRUE = bytes([_T_NONE]), bytes([_T_FALSE]), bytes([_T_TRUE])
_pack_tag_u32 = struct.Struct(">BI").pack  # tag + length or count
_pack_tag_f64 = struct.Struct(">Bd").pack
_u32_at = struct.Struct(">I").unpack_from
_f64_at = struct.Struct(">d").unpack_from

#: Encoded form (tag, length, UTF-8) of dictionary keys seen before.
#: Envelope keys are a few dozen fixed words.  An entry is a pure
#: function of its key, so a hit emits the bytes a miss would build;
#: the table is emptied when full, which bounds it without an eviction
#: order that could ever matter to the output.
_KEY_ENCODINGS: Dict[str, bytes] = {}
_KEY_TABLE_ENTRIES = 1024
_KEY_TABLE_MAX_CHARS = 64

_TRUNCATED = "truncated canonical value"
_TOO_DEEP = "canonical value nested too deep"


def encode(value: Any) -> bytes:
    """Deterministically encode ``value`` to bytes.

    Raises ``TypeError`` for a value outside the format (including a
    dict with a non-string key) and ``ValueError`` for one nested deeper
    than the format allows.
    """
    parts: List[bytes] = []
    _encode_value(value, parts.append, _MAX_DEPTH)
    return b"".join(parts)


def _encode_key(key: str) -> bytes:
    raw = key.encode("utf-8")
    encoded = _pack_tag_u32(_T_STR, len(raw)) + raw
    if type(key) is str and len(key) <= _KEY_TABLE_MAX_CHARS:
        if len(_KEY_ENCODINGS) >= _KEY_TABLE_ENTRIES:
            _KEY_ENCODINGS.clear()
        _KEY_ENCODINGS[key] = encoded
    return encoded


def _encode_value(value: Any, append: Callable[[bytes], None], depth: int) -> None:
    """Append the encoding of ``value`` as parts the caller joins once:
    a payload is appended as itself, never copied into a header."""
    kind = type(value)
    if kind is str:
        raw = value.encode("utf-8")
        append(_pack_tag_u32(_T_STR, len(raw)))
        append(raw)
    elif kind is bytes:
        append(_pack_tag_u32(_T_BYTES, len(value)))
        append(value)
    elif kind is float:
        append(_pack_tag_f64(_T_FLOAT, value))
    elif kind is dict:
        if not depth:
            raise ValueError(_TOO_DEEP)
        keys = list(value)
        for key in keys:
            if not isinstance(key, str):
                raise TypeError("canonical encoding requires string dict keys")
        keys.sort()
        append(_pack_tag_u32(_T_DICT, len(keys)))
        known = _KEY_ENCODINGS.get
        depth -= 1
        for key in keys:
            append(known(key) or _encode_key(key))
            _encode_value(value[key], append, depth)
    elif kind is int:
        length = (value.bit_length() + 8) // 8 + 1
        append(_pack_tag_u32(_T_INT, length))
        append(value.to_bytes(length, "big", signed=True))
    elif kind is list or kind is tuple:
        if not depth:
            raise ValueError(_TOO_DEEP)
        append(_pack_tag_u32(_T_LIST, len(value)))
        depth -= 1
        for item in value:
            _encode_value(item, append, depth)
    elif value is None:
        append(_NONE)
    elif value is True:
        append(_TRUE)
    elif value is False:
        append(_FALSE)
    # Subclasses encode as the built-in type they extend.
    elif isinstance(value, int):
        _encode_value(int(value), append, depth)
    elif isinstance(value, float):
        _encode_value(float(value), append, depth)
    elif isinstance(value, (bytes, bytearray, memoryview)):
        _encode_value(bytes(value), append, depth)
    elif isinstance(value, str):
        # Not ``str(value)``: a str-mixin Enum prints as its member name.
        raw = value.encode("utf-8")
        append(_pack_tag_u32(_T_STR, len(raw)))
        append(raw)
    elif isinstance(value, (list, tuple)):
        _encode_value(list(value), append, depth)
    elif isinstance(value, dict):
        _encode_value(dict(value), append, depth)
    else:
        raise TypeError(f"cannot canonically encode {type(value).__name__}")


def decode(data: bytes) -> Any:
    """Decode bytes produced by :func:`encode`.

    Raises :class:`IntegrityError` on malformed input (truncated, trailing
    garbage, unknown tags, non-canonical integers, nesting past the cap)
    — decoders in this library always face attacker-controlled bytes.
    ``bytes`` leaves of the result are ``bytes`` whatever buffer type
    ``data`` is.
    """
    if type(data) is not bytes:
        data = bytes(data)
    end = len(data)
    value, pos = _decode_value(data, 0, end, _MAX_DEPTH)
    if pos != end:
        raise IntegrityError("trailing bytes after canonical value")
    return value


def _decode_value(data: bytes, pos: int, end: int, depth: int) -> Tuple[Any, int]:
    """The value whose tag is at ``pos`` and the offset just past it."""
    if pos >= end:
        raise IntegrityError(_TRUNCATED)
    tag = data[pos]
    if tag == _T_STR or tag == _T_BYTES or tag == _T_INT:
        start = pos + 5
        if start > end:
            raise IntegrityError(_TRUNCATED)
        stop = start + _u32_at(data, pos + 1)[0]
        if stop > end:
            raise IntegrityError(_TRUNCATED)
        raw = data[start:stop]
        if tag == _T_BYTES:
            return raw, stop
        if tag == _T_STR:
            try:
                return raw.decode("utf-8"), stop
            except UnicodeDecodeError as exc:
                raise IntegrityError("invalid UTF-8 in canonical string") from exc
        number = int.from_bytes(raw, "big", signed=True)
        if stop - start != (number.bit_length() + 8) // 8 + 1:
            raise IntegrityError("non-canonical integer")
        return number, stop
    if tag == _T_FLOAT:
        if pos + 9 > end:
            raise IntegrityError(_TRUNCATED)
        return _f64_at(data, pos + 1)[0], pos + 9
    if tag == _T_DICT or tag == _T_LIST:
        if pos + 5 > end:
            raise IntegrityError(_TRUNCATED)
        if not depth:
            raise IntegrityError(_TOO_DEEP)
        depth -= 1
        count = _u32_at(data, pos + 1)[0]
        pos += 5
        if tag == _T_LIST:
            items = []
            for _ in range(count):
                item, pos = _decode_value(data, pos, end, depth)
                items.append(item)
            return items, pos
        result = {}
        previous_key = None
        for _ in range(count):
            # A key is a string: read it here, not through a call.
            start = pos + 5
            if start > end or data[pos] != _T_STR:
                _decode_value(data, pos, end, depth)  # malformed: its error first
                raise IntegrityError("canonical dict key must be a string")
            stop = start + _u32_at(data, pos + 1)[0]
            if stop > end:
                raise IntegrityError(_TRUNCATED)
            try:
                key = data[start:stop].decode("utf-8")
            except UnicodeDecodeError as exc:
                raise IntegrityError("invalid UTF-8 in canonical string") from exc
            if previous_key is not None and key <= previous_key:
                raise IntegrityError("canonical dict keys out of order")
            previous_key = key
            result[key], pos = _decode_value(data, stop, end, depth)
        return result, pos
    if tag == _T_NONE:
        return None, pos + 1
    if tag == _T_TRUE:
        return True, pos + 1
    if tag == _T_FALSE:
        return False, pos + 1
    raise IntegrityError(f"unknown canonical tag 0x{tag:02x}")
