"""Certificates and chain validation."""

import pytest

from repro._sim import DeterministicRng
from repro.crypto.certs import Certificate, CertificateAuthority, verify_chain
from repro.crypto.ed25519 import Ed25519PrivateKey
from repro.errors import IntegrityError, SecurityError


@pytest.fixture
def ca(rng: DeterministicRng) -> CertificateAuthority:
    return CertificateAuthority(
        "test-root", Ed25519PrivateKey(rng.random_bytes(32))
    )


def _leaf(ca, rng, subject="service", now=0.0):
    key = Ed25519PrivateKey(rng.random_bytes(32))
    return key, ca.issue(
        subject, key.public_key().public_bytes(), rng.random_bytes(32), now=now
    )


def test_issue_and_verify(ca, rng):
    _, cert = _leaf(ca, rng)
    cert.verify_signature(ca.public_key())
    verify_chain(cert, [ca.public_key()], now=10.0)


def test_serialization_roundtrip(ca, rng):
    _, cert = _leaf(ca, rng)
    restored = Certificate.from_bytes(cert.to_bytes())
    assert restored == cert
    restored.verify_signature(ca.public_key())


def test_wrong_root_rejected(ca, rng):
    other = CertificateAuthority(
        "other-root", Ed25519PrivateKey(rng.random_bytes(32))
    )
    _, cert = _leaf(ca, rng)
    with pytest.raises(SecurityError):
        verify_chain(cert, [other.public_key()], now=0.0)


def test_multiple_roots_any_match(ca, rng):
    other = CertificateAuthority(
        "other-root", Ed25519PrivateKey(rng.random_bytes(32))
    )
    _, cert = _leaf(ca, rng)
    verify_chain(cert, [other.public_key(), ca.public_key()], now=0.0)


def test_expiry_enforced(ca, rng):
    _, cert = _leaf(ca, rng, now=1000.0)
    # notBefore is backdated by the CA's slack (clock-skew tolerance).
    with pytest.raises(SecurityError):
        cert.check_validity(1000.0 - ca.backdate_seconds - 1)
    with pytest.raises(SecurityError):
        cert.check_validity(1000.0 + ca.validity_seconds + 1)
    cert.check_validity(1000.0 - ca.backdate_seconds + 1)
    cert.check_validity(1000.0 + 10)


def test_tampered_subject_rejected(ca, rng):
    _, cert = _leaf(ca, rng, subject="honest")
    forged = Certificate(**{**cert.__dict__, "subject": "attacker"})
    with pytest.raises(IntegrityError):
        forged.verify_signature(ca.public_key())


def test_serial_numbers_increment(ca, rng):
    _, a = _leaf(ca, rng, subject="a")
    _, b = _leaf(ca, rng, subject="b")
    assert b.serial == a.serial + 1


def test_malformed_bytes_rejected():
    with pytest.raises(IntegrityError):
        Certificate.from_bytes(b"garbage")
