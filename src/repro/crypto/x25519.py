"""X25519 Diffie-Hellman over Curve25519 (RFC 7748).

Used by the TLS-like channel for ephemeral key agreement (the paper
recommends replacing RSA with forward-secret ECDHE, §7.3).  Exchanges
run the standard Montgomery ladder; a public key is the clamped scalar
times the Edwards base point, read off Ed25519's fixed-base table and
mapped to the Montgomery ``u`` (DESIGN §5b).  Verified against RFC 7748
vectors.
"""

from __future__ import annotations

from repro.crypto.ed25519 import _P, _base_mult
from repro.errors import SecurityError

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

    # z2 == 0 is the point at infinity (a low-order input): u = 0.
    result = (x2 * pow(z2, -1, _P)) % _P if z2 else 0
    return result.to_bytes(32, "little")


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
        # The birational map from the Edwards curve: u = (1 + y) / (1 - y).
        # A clamped scalar is never a multiple of the group order, so
        # Z != Y.
        _, y, z, _ = _base_mult(_clamp(self._private))
        u = ((z + y) * pow(z - y, -1, _P)) % _P
        return X25519PublicKey(u.to_bytes(32, "little"))

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
