"""Minimal certificates and a certificate authority.

The paper's CAS generates TLS certificates *inside* its enclave so no
human ever sees the private keys (§7.3).  This module provides the
certificate format those flows use: a canonically encoded body
(subject, public keys, validity, extensions) signed with Ed25519, plus
chain validation against a trusted root.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.crypto import encoding
from repro.crypto.ed25519 import Ed25519PrivateKey, Ed25519PublicKey
from repro.errors import IntegrityError, SecurityError


@dataclass(frozen=True)
class Certificate:
    """A signed binding of a subject name to its public keys."""

    subject: str
    issuer: str
    ed25519_public: bytes
    x25519_public: bytes
    not_before: float
    not_after: float
    serial: int
    extensions: Dict[str, str]
    signature: bytes = b""

    def body_bytes(self) -> bytes:
        """The canonical to-be-signed representation."""
        return encoding.encode(
            {
                "subject": self.subject,
                "issuer": self.issuer,
                "ed25519_public": self.ed25519_public,
                "x25519_public": self.x25519_public,
                "not_before": self.not_before,
                "not_after": self.not_after,
                "serial": self.serial,
                "extensions": dict(self.extensions),
            }
        )

    def to_bytes(self) -> bytes:
        return encoding.encode({"body": self.body_bytes(), "signature": self.signature})

    @classmethod
    def from_bytes(cls, data: bytes) -> "Certificate":
        outer = encoding.decode(data)
        if not isinstance(outer, dict) or set(outer) != {"body", "signature"}:
            raise IntegrityError("malformed certificate envelope")
        body = encoding.decode(outer["body"])
        try:
            return cls(
                subject=body["subject"],
                issuer=body["issuer"],
                ed25519_public=body["ed25519_public"],
                x25519_public=body["x25519_public"],
                not_before=body["not_before"],
                not_after=body["not_after"],
                serial=body["serial"],
                extensions=dict(body["extensions"]),
                signature=outer["signature"],
            )
        except (KeyError, TypeError) as exc:
            raise IntegrityError("malformed certificate body") from exc

    def verify_signature(self, issuer_key: Ed25519PublicKey) -> None:
        """Check the issuer's signature over the certificate body."""
        issuer_key.verify(self.signature, self.body_bytes())

    def check_validity(self, now: float) -> None:
        if not (self.not_before <= now <= self.not_after):
            raise SecurityError(
                f"certificate for {self.subject!r} not valid at t={now:.3f} "
                f"(window [{self.not_before:.3f}, {self.not_after:.3f}])"
            )

    def signing_key(self) -> Ed25519PublicKey:
        return Ed25519PublicKey(self.ed25519_public)


@dataclass
class CertificateAuthority:
    """Issues and validates certificates under a self-signed root.

    In the reproduction the root key lives inside the CAS enclave; tests
    also instantiate standalone CAs to exercise chain validation.
    """

    name: str
    root_key: Ed25519PrivateKey
    validity_seconds: float = 365.0 * 24 * 3600
    #: notBefore is backdated by this much — standard CA practice so that
    #: verifiers with slightly-behind clocks (distinct per-node clocks in
    #: this simulation, NTP skew in reality) accept fresh certificates.
    backdate_seconds: float = 300.0
    _serial: int = field(default=0, init=False)

    def issue(
        self,
        subject: str,
        ed25519_public: bytes,
        x25519_public: bytes,
        now: float,
        extensions: Optional[Dict[str, str]] = None,
    ) -> Certificate:
        """Issue a certificate for ``subject`` signed by this CA."""
        self._serial += 1
        cert = Certificate(
            subject=subject,
            issuer=self.name,
            ed25519_public=ed25519_public,
            x25519_public=x25519_public,
            not_before=now - self.backdate_seconds,
            not_after=now + self.validity_seconds,
            serial=self._serial,
            extensions=dict(extensions or {}),
        )
        signature = self.root_key.sign(cert.body_bytes())
        return Certificate(**{**cert.__dict__, "signature": signature})

    def public_key(self) -> Ed25519PublicKey:
        return self.root_key.public_key()


def verify_chain(
    leaf: Certificate,
    trusted_roots: List[Ed25519PublicKey],
    now: float,
) -> None:
    """Validate a leaf certificate against a set of trusted root keys.

    The CA model here is one level deep (CAS root → service leaf), which
    matches the paper's deployment; a full chain walk is unnecessary.
    """
    leaf.check_validity(now)
    errors = []
    for root in trusted_roots:
        try:
            leaf.verify_signature(root)
            return
        except IntegrityError as exc:
            errors.append(str(exc))
    raise SecurityError(
        f"certificate for {leaf.subject!r} is not signed by any trusted root"
    )


def session_scope(subject: Optional[str]) -> str:
    """The prefix every subject of ``subject``'s CAS session starts with:
    up to and including its first ``/`` (CAS mints ``{session}/{name}``).
    A subject without a ``/`` (or none at all) is of no session, and its
    scope is empty."""
    if subject is None or "/" not in subject:
        return ""
    return subject.split("/", 1)[0] + "/"
