"""The canonical codec as it stood before the single-pass rewrite, kept
verbatim as the oracle ``test_encoding.py`` compares the codec with:
equal bytes, equal decoded values, equal error class and message.  The
codec is stricter in two places this one is not (nesting depth and
integer length).  Not collected by pytest (no ``test_`` prefix)."""

from __future__ import annotations

import struct
from typing import Any, Tuple

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


def encode(value: Any) -> bytes:
    """Deterministically encode ``value`` to bytes."""
    out = bytearray()
    _encode_into(value, out)
    return bytes(out)


def _encode_into(value: Any, out: bytearray) -> None:
    if value is None:
        out.append(_T_NONE)
    elif value is True:
        out.append(_T_TRUE)
    elif value is False:
        out.append(_T_FALSE)
    elif isinstance(value, int):
        payload = value.to_bytes((value.bit_length() + 8) // 8 + 1, "big", signed=True)
        out.append(_T_INT)
        out.extend(struct.pack(">I", len(payload)))
        out.extend(payload)
    elif isinstance(value, float):
        out.append(_T_FLOAT)
        out.extend(struct.pack(">d", value))
    elif isinstance(value, (bytes, bytearray, memoryview)):
        raw = bytes(value)
        out.append(_T_BYTES)
        out.extend(struct.pack(">I", len(raw)))
        out.extend(raw)
    elif isinstance(value, str):
        raw = value.encode("utf-8")
        out.append(_T_STR)
        out.extend(struct.pack(">I", len(raw)))
        out.extend(raw)
    elif isinstance(value, (list, tuple)):
        out.append(_T_LIST)
        out.extend(struct.pack(">I", len(value)))
        for item in value:
            _encode_into(item, out)
    elif isinstance(value, dict):
        keys = list(value.keys())
        if not all(isinstance(k, str) for k in keys):
            raise TypeError("canonical encoding requires string dict keys")
        out.append(_T_DICT)
        out.extend(struct.pack(">I", len(keys)))
        for key in sorted(keys):
            _encode_into(key, out)
            _encode_into(value[key], out)
    else:
        raise TypeError(f"cannot canonically encode {type(value).__name__}")


def decode(data: bytes) -> Any:
    """Decode bytes produced by :func:`encode`.

    Raises :class:`IntegrityError` on malformed input (truncated, trailing
    garbage, unknown tags) — decoders in this library always face
    attacker-controlled bytes.
    """
    value, offset = _decode_at(data, 0)
    if offset != len(data):
        raise IntegrityError("trailing bytes after canonical value")
    return value


def _read(data: bytes, offset: int, n: int) -> Tuple[bytes, int]:
    if offset + n > len(data):
        raise IntegrityError("truncated canonical value")
    return data[offset: offset + n], offset + n


def _decode_at(data: bytes, offset: int) -> Tuple[Any, int]:
    tag_bytes, offset = _read(data, offset, 1)
    tag = tag_bytes[0]
    if tag == _T_NONE:
        return None, offset
    if tag == _T_TRUE:
        return True, offset
    if tag == _T_FALSE:
        return False, offset
    if tag == _T_INT:
        raw, offset = _read(data, offset, 4)
        (length,) = struct.unpack(">I", raw)
        payload, offset = _read(data, offset, length)
        return int.from_bytes(payload, "big", signed=True), offset
    if tag == _T_FLOAT:
        raw, offset = _read(data, offset, 8)
        return struct.unpack(">d", raw)[0], offset
    if tag == _T_BYTES:
        raw, offset = _read(data, offset, 4)
        (length,) = struct.unpack(">I", raw)
        payload, offset = _read(data, offset, length)
        return payload, offset
    if tag == _T_STR:
        raw, offset = _read(data, offset, 4)
        (length,) = struct.unpack(">I", raw)
        payload, offset = _read(data, offset, length)
        try:
            return payload.decode("utf-8"), offset
        except UnicodeDecodeError as exc:
            raise IntegrityError("invalid UTF-8 in canonical string") from exc
    if tag == _T_LIST:
        raw, offset = _read(data, offset, 4)
        (count,) = struct.unpack(">I", raw)
        items = []
        for _ in range(count):
            item, offset = _decode_at(data, offset)
            items.append(item)
        return items, offset
    if tag == _T_DICT:
        raw, offset = _read(data, offset, 4)
        (count,) = struct.unpack(">I", raw)
        result = {}
        previous_key = None
        for _ in range(count):
            key, offset = _decode_at(data, offset)
            if not isinstance(key, str):
                raise IntegrityError("canonical dict key must be a string")
            if previous_key is not None and key <= previous_key:
                raise IntegrityError("canonical dict keys out of order")
            previous_key = key
            value, offset = _decode_at(data, offset)
            result[key] = value
        return result, offset
    raise IntegrityError(f"unknown canonical tag 0x{tag:02x}")
