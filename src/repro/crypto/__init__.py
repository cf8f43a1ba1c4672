"""From-scratch cryptographic substrate for the secureTF reproduction.

The paper's shields (file-system, network) and CAS all rest on standard
primitives: AEAD encryption, key derivation, Diffie-Hellman key exchange,
signatures, and certificates.  No third-party crypto package is available
offline, so this package implements them directly:

- :mod:`repro.crypto.chacha` — ChaCha20-Poly1305 AEAD (numpy-vectorized),
  the one cipher behind every shield; :mod:`repro.crypto.aead` wraps it
  with nonce sequencing.  The simulated clock charges the paper's AES-NI
  rate for it (see :mod:`repro.crypto.aead`).
- :mod:`repro.crypto.kdf` — HMAC, HKDF-Extract/Expand (RFC 5869).
- :mod:`repro.crypto.x25519` — Curve25519 ECDH (RFC 7748).
- :mod:`repro.crypto.ed25519` — Ed25519 signatures (RFC 8032).
- :mod:`repro.crypto.certs` — minimal certificates and chain validation.
- :mod:`repro.crypto.tls` — a TLS-1.3-shaped secure channel (ECDHE
  handshake, HKDF key schedule, AEAD record layer with replay protection).
- :mod:`repro.crypto.masking` — fixed-point additive secret sharing over
  Z_2^64 for the secure-aggregation training mode.

These are real implementations operating on real bytes — tests verify
them against RFC test vectors — but they are **not constant-time** and
must never be used outside this simulation.
"""

from repro.crypto.aead import AeadKey, get_aead
from repro.crypto.chacha import ChaCha20Poly1305
from repro.crypto.kdf import hkdf_expand, hkdf_extract, hkdf_expand_label, hmac_sha256
from repro.crypto.x25519 import X25519PrivateKey, X25519PublicKey, x25519
from repro.crypto.ed25519 import Ed25519PrivateKey, Ed25519PublicKey
from repro.crypto.certs import Certificate, CertificateAuthority
from repro.crypto.masking import (
    additive_shares,
    combine_shares,
    combine_tensor_shares,
    decode_fixed,
    encode_fixed,
    share_tensors,
)

__all__ = [
    "ChaCha20Poly1305",
    "AeadKey",
    "get_aead",
    "hmac_sha256",
    "hkdf_extract",
    "hkdf_expand",
    "hkdf_expand_label",
    "x25519",
    "X25519PrivateKey",
    "X25519PublicKey",
    "Ed25519PrivateKey",
    "Ed25519PublicKey",
    "Certificate",
    "CertificateAuthority",
    "additive_shares",
    "combine_shares",
    "combine_tensor_shares",
    "decode_fixed",
    "encode_fixed",
    "share_tensors",
]
