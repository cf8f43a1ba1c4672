"""Curve25519 as it stood through PR 17, kept verbatim as a differential oracle.

Bit-by-bit double-and-add over the generic 9-multiplication
``_point_add`` under every Ed25519 operation, two to three ``pow``
exponentiations per decoded point, and the full 255-step Montgomery
ladder under X25519 public keys: what ``repro.crypto.ed25519`` and
``repro.crypto.x25519`` did before the fixed-base table, the windowed
``_scalar_mult`` and the single-exponentiation ``_recover_x``.
``tests/crypto/test_curve25519_differential.py`` holds the new
arithmetic to these bytes, verdicts and error types, and
``tests/perf/test_crypto_perf_smoke.py`` times against it.  Do not
edit: nothing below the imports differs from the two retired modules
(the second module's duplicate ``_P`` aside).  One input is *meant* to
differ: ``_recover_x`` here accepts the non-canonical encoding
``y = p - 1`` with the sign bit set as ``x = p``.
"""

from __future__ import annotations

import hashlib
from typing import Tuple

from repro.errors import IntegrityError, SecurityError

# --- ed25519.py -------------------------------------------------------

_P = 2**255 - 19
_L = 2**252 + 27742317777372353535851937790883648493
_D = (-121665 * pow(121666, _P - 2, _P)) % _P

Point = Tuple[int, int, int, int]  # extended coordinates (X, Y, Z, T)

_IDENTITY: Point = (0, 1, 1, 0)


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


def _scalar_mult(scalar: int, point: Point) -> Point:
    result = _IDENTITY
    addend = point
    while scalar:
        if scalar & 1:
            result = _point_add(result, addend)
        addend = _point_add(addend, addend)
        scalar >>= 1
    return result


def _recover_x(y: int, sign: int) -> int:
    if y >= _P:
        raise IntegrityError("Ed25519 point y-coordinate out of range")
    x2 = (y * y - 1) * pow(_D * y * y + 1, _P - 2, _P)
    if x2 == 0:
        if sign:
            raise IntegrityError("invalid Ed25519 point encoding")
        return 0
    x = pow(x2, (_P + 3) // 8, _P)
    if (x * x - x2) % _P != 0:
        x = (x * pow(2, (_P - 1) // 4, _P)) % _P
    if (x * x - x2) % _P != 0:
        raise IntegrityError("invalid Ed25519 point encoding")
    if x & 1 != sign:
        x = _P - x
    return x


_BASE_Y = (4 * pow(5, _P - 2, _P)) % _P
_BASE_X = _recover_x(_BASE_Y, 0)
_BASE: Point = (_BASE_X, _BASE_Y, 1, (_BASE_X * _BASE_Y) % _P)


def _compress(point: Point) -> bytes:
    x, y, z, _ = point
    z_inv = pow(z, _P - 2, _P)
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
        self._public_point = _scalar_mult(self._scalar, _BASE)
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
        r_point = _scalar_mult(r, _BASE)
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
        lhs = _scalar_mult(s, _BASE)
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


# --- x25519.py --------------------------------------------------------

_A24 = 121665


def _clamp(scalar: bytes) -> int:
    if len(scalar) != 32:
        raise ValueError(f"X25519 scalar must be 32 bytes, got {len(scalar)}")
    k = bytearray(scalar)
    k[0] &= 248
    k[31] &= 127
    k[31] |= 64
    return int.from_bytes(k, "little")


def _decode_u(u: bytes) -> int:
    if len(u) != 32:
        raise ValueError(f"X25519 point must be 32 bytes, got {len(u)}")
    masked = bytearray(u)
    masked[31] &= 127
    return int.from_bytes(masked, "little") % _P


def x25519(scalar: bytes, u_point: bytes) -> bytes:
    """Scalar multiplication: returns ``scalar * u_point`` on Curve25519."""
    k = _clamp(scalar)
    u = _decode_u(u_point)

    x1 = u
    x2, z2 = 1, 0
    x3, z3 = u, 1
    swap = 0
    for t in range(254, -1, -1):
        k_t = (k >> t) & 1
        swap ^= k_t
        if swap:
            x2, x3 = x3, x2
            z2, z3 = z3, z2
        swap = k_t

        a = (x2 + z2) % _P
        aa = (a * a) % _P
        b = (x2 - z2) % _P
        bb = (b * b) % _P
        e = (aa - bb) % _P
        c = (x3 + z3) % _P
        d = (x3 - z3) % _P
        da = (d * a) % _P
        cb = (c * b) % _P
        x3 = (da + cb) % _P
        x3 = (x3 * x3) % _P
        z3 = (da - cb) % _P
        z3 = (x1 * z3 * z3) % _P
        x2 = (aa * bb) % _P
        z2 = (e * (aa + _A24 * e)) % _P

    if swap:
        x2, x3 = x3, x2
        z2, z3 = z3, z2

    result = (x2 * pow(z2, _P - 2, _P)) % _P
    return result.to_bytes(32, "little")


_BASE_POINT = (9).to_bytes(32, "little")


class X25519PrivateKey:
    """An X25519 private key (32 opaque bytes)."""

    def __init__(self, private_bytes: bytes) -> None:
        if len(private_bytes) != 32:
            raise ValueError("X25519 private key must be 32 bytes")
        self._private = private_bytes

    @classmethod
    def generate(cls, random_bytes: bytes) -> "X25519PrivateKey":
        """Build a key from caller-supplied randomness (32 bytes)."""
        return cls(random_bytes)

    def public_key(self) -> "X25519PublicKey":
        return X25519PublicKey(x25519(self._private, _BASE_POINT))

    def exchange(self, peer: "X25519PublicKey") -> bytes:
        """Compute the shared secret with ``peer``; rejects low-order points."""
        shared = x25519(self._private, peer.public_bytes())
        if shared == b"\x00" * 32:
            raise SecurityError("X25519 produced an all-zero shared secret")
        return shared


class X25519PublicKey:
    """An X25519 public key (curve point, 32 bytes)."""

    def __init__(self, public_bytes: bytes) -> None:
        if len(public_bytes) != 32:
            raise ValueError("X25519 public key must be 32 bytes")
        self._public = public_bytes

    def public_bytes(self) -> bytes:
        return self._public

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, X25519PublicKey) and self._public == other._public
        )

    def __hash__(self) -> int:
        return hash(self._public)
