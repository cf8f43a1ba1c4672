"""Ed25519 signatures (RFC 8032).

Signatures authenticate enclave quotes (the simulated hardware signing
key), CAS-issued certificates, and checkpoints.  Implemented over the
twisted Edwards form of Curve25519 with extended coordinates; verified
against RFC 8032 test vectors.

Every ``scalar * B`` (key generation, signing, the ``s * B`` side of
verification, X25519 public keys) reads one lazily built table of
``j * 16**i * B`` and costs at most 64 point additions; ``k * A`` in
verification runs 4-bit windows over a dedicated doubling; decoding a
point is one exponentiation (DESIGN §5b).  None of it is constant-time.
"""

from __future__ import annotations

import functools
import hashlib
from typing import List, Tuple

from repro.errors import IntegrityError

_P = 2**255 - 19
_L = 2**252 + 27742317777372353535851937790883648493
_D = (-121665 * pow(121666, -1, _P)) % _P
_SQRT_M1 = pow(2, (_P - 1) // 4, _P)

Point = Tuple[int, int, int, int]  # extended coordinates (X, Y, Z, T)

_IDENTITY: Point = (0, 1, 1, 0)

_WINDOW_BITS = 4
_WINDOW_MASK = (1 << _WINDOW_BITS) - 1
#: Rows of the fixed-base table: enough windows for any scalar < 2**256.
_BASE_ROWS = 256 // _WINDOW_BITS


def _point_add(p: Point, q: Point) -> Point:
    x1, y1, z1, t1 = p
    x2, y2, z2, t2 = q
    a = ((y1 - x1) * (y2 - x2)) % _P
    b = ((y1 + x1) * (y2 + x2)) % _P
    c = (2 * t1 * t2 * _D) % _P
    d = (2 * z1 * z2) % _P
    e = b - a
    f = d - c
    g = d + c
    h = b + a
    return ((e * f) % _P, (g * h) % _P, (f * g) % _P, (e * h) % _P)


def _point_double(p: Point, times: int = 1) -> Point:
    """``2**times * p`` (``times >= 1``) at 4 squarings + 3 multiplications a step.

    The dedicated doubling (dbl-2008-hwcd with a = -1) never reads T, so
    only the last step pays the fourth multiplication that produces it.
    """
    x, y, z, _ = p
    for _ in range(times):
        a = (x * x) % _P
        b = (y * y) % _P
        h = a + b
        e = h - ((x + y) ** 2) % _P
        g = a - b
        f = (2 * z * z) % _P + g
        x, y, z = (e * f) % _P, (g * h) % _P, (f * g) % _P
    return (x, y, z, (e * h) % _P)


def _window_multiples(point: Point) -> List[Point]:
    """``[0 * point, 1 * point, ..., 15 * point]``."""
    multiples = [_IDENTITY, point]
    for j in range(2, 1 << _WINDOW_BITS):
        if j & 1:
            multiples.append(_point_add(multiples[j - 1], point))
        else:
            multiples.append(_point_double(multiples[j >> 1]))
    return multiples


def _scalar_mult(scalar: int, point: Point) -> Point:
    """``scalar * point`` for any point: 4-bit windows, most significant first."""
    multiples = _window_multiples(point)
    result = _IDENTITY
    windows = -(-scalar.bit_length() // _WINDOW_BITS)
    for shift in range((windows - 1) * _WINDOW_BITS, -1, -_WINDOW_BITS):
        result = _point_double(result, _WINDOW_BITS)
        window = (scalar >> shift) & _WINDOW_MASK
        if window:
            result = _point_add(result, multiples[window])
    return result


def _recover_x(y: int, sign: int) -> int:
    if y >= _P:
        raise IntegrityError("Ed25519 point y-coordinate out of range")
    # x^2 = u / v; the candidate root (u/v)^((p+3)/8) is computed as
    # u v^3 (u v^7)^((p-5)/8), one exponentiation and no inversion
    # (RFC 8032 section 5.1.3).
    u = (y * y - 1) % _P
    v = (_D * y * y + 1) % _P
    if u == 0:
        if sign:
            raise IntegrityError("invalid Ed25519 point encoding")
        return 0
    v3 = (v * v * v) % _P
    x = (u * v3 * pow(u * v3 * v3 * v, (_P - 5) // 8, _P)) % _P
    vx2 = (v * x * x) % _P
    if vx2 != u:
        if vx2 != _P - u:
            raise IntegrityError("invalid Ed25519 point encoding")
        x = (x * _SQRT_M1) % _P
    if x & 1 != sign:
        x = _P - x
    return x


_BASE_Y = (4 * pow(5, -1, _P)) % _P
_BASE_X = _recover_x(_BASE_Y, 0)
_BASE: Point = (_BASE_X, _BASE_Y, 1, (_BASE_X * _BASE_Y) % _P)


@functools.cache
def _base_table() -> Tuple[List[Point], ...]:
    """Row ``i`` holds ``j * 16**i * B`` for ``j`` in 0..15.

    Built on the first fixed-base multiplication of the process (never
    at import): 64 rows of 16 points, about a thousand point operations.
    """
    rows = []
    point = _BASE
    for _ in range(_BASE_ROWS):
        rows.append(_window_multiples(point))
        point = _point_double(point, _WINDOW_BITS)
    return tuple(rows)


def _base_mult(scalar: int) -> Point:
    """``scalar * B`` for ``scalar < 2**256``: one table addition per window."""
    table = _base_table()
    result = _IDENTITY
    row = 0
    while scalar:
        window = scalar & _WINDOW_MASK
        if window:
            result = _point_add(result, table[row][window])
        scalar >>= _WINDOW_BITS
        row += 1
    return result


def _compress(point: Point) -> bytes:
    x, y, z, _ = point
    z_inv = pow(z, -1, _P)
    x, y = (x * z_inv) % _P, (y * z_inv) % _P
    return (y | ((x & 1) << 255)).to_bytes(32, "little")


def _decompress(data: bytes) -> Point:
    if len(data) != 32:
        raise IntegrityError("Ed25519 point must be 32 bytes")
    y = int.from_bytes(data, "little")
    sign = y >> 255
    y &= (1 << 255) - 1
    x = _recover_x(y, sign)
    return (x, y, 1, (x * y) % _P)


def _points_equal(p: Point, q: Point) -> bool:
    x1, y1, z1, _ = p
    x2, y2, z2, _ = q
    return (x1 * z2 - x2 * z1) % _P == 0 and (y1 * z2 - y2 * z1) % _P == 0


def _sha512(*parts: bytes) -> bytes:
    h = hashlib.sha512()
    for part in parts:
        h.update(part)
    return h.digest()


def _secret_expand(secret: bytes) -> Tuple[int, bytes]:
    if len(secret) != 32:
        raise ValueError("Ed25519 private key must be 32 bytes")
    h = _sha512(secret)
    a = int.from_bytes(h[:32], "little")
    a &= (1 << 254) - 8
    a |= 1 << 254
    return a, h[32:]


class Ed25519PrivateKey:
    """Ed25519 signing key."""

    def __init__(self, private_bytes: bytes) -> None:
        self._secret = private_bytes
        self._scalar, self._prefix = _secret_expand(private_bytes)
        self._public_point = _base_mult(self._scalar)
        self._public_bytes = _compress(self._public_point)

    @classmethod
    def generate(cls, random_bytes: bytes) -> "Ed25519PrivateKey":
        """Build a signing key from caller-supplied randomness (32 bytes)."""
        return cls(random_bytes)

    def public_key(self) -> "Ed25519PublicKey":
        return Ed25519PublicKey(self._public_bytes)

    def private_bytes(self) -> bytes:
        return self._secret

    def sign(self, message: bytes) -> bytes:
        """Produce a 64-byte RFC 8032 signature."""
        r = int.from_bytes(_sha512(self._prefix, message), "little") % _L
        r_point = _base_mult(r)
        r_bytes = _compress(r_point)
        k = (
            int.from_bytes(
                _sha512(r_bytes, self._public_bytes, message), "little"
            )
            % _L
        )
        s = (r + k * self._scalar) % _L
        return r_bytes + s.to_bytes(32, "little")


class Ed25519PublicKey:
    """Ed25519 verification key."""

    def __init__(self, public_bytes: bytes) -> None:
        if len(public_bytes) != 32:
            raise ValueError("Ed25519 public key must be 32 bytes")
        self._public_bytes = public_bytes
        self._point = _decompress(public_bytes)

    def public_bytes(self) -> bytes:
        return self._public_bytes

    def verify(self, signature: bytes, message: bytes) -> None:
        """Raise :class:`IntegrityError` unless ``signature`` is valid."""
        if len(signature) != 64:
            raise IntegrityError("Ed25519 signature must be 64 bytes")
        r_bytes, s_bytes = signature[:32], signature[32:]
        s = int.from_bytes(s_bytes, "little")
        if s >= _L:
            raise IntegrityError("Ed25519 signature scalar out of range")
        r_point = _decompress(r_bytes)
        k = (
            int.from_bytes(
                _sha512(r_bytes, self._public_bytes, message), "little"
            )
            % _L
        )
        lhs = _base_mult(s)
        rhs = _point_add(r_point, _scalar_mult(k, self._point))
        if not _points_equal(lhs, rhs):
            raise IntegrityError("Ed25519 signature verification failed")

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Ed25519PublicKey)
            and self._public_bytes == other._public_bytes
        )

    def __hash__(self) -> int:
        return hash(self._public_bytes)
