"""The TLS-1.3-shaped channel: handshakes, auth, record protection."""

import struct

import pytest

from repro._sim import DeterministicRng
from repro.crypto.certs import CertificateAuthority
from repro.crypto.ed25519 import Ed25519PrivateKey
from repro.crypto.tls import (
    RecordLayer,
    TlsClient,
    TlsIdentity,
    TlsServer,
    handshake_in_memory,
)
from repro.errors import HandshakeError, IntegrityError, SecurityError


@pytest.fixture
def ca(rng):
    return CertificateAuthority("root", Ed25519PrivateKey(rng.random_bytes(32)))


def make_identity(ca, rng, subject):
    key = Ed25519PrivateKey(rng.random_bytes(32))
    cert = ca.issue(subject, key.public_key().public_bytes(), rng.random_bytes(32), now=0.0)
    return TlsIdentity(key, cert)


def make_pair(ca, rng, mutual=True, expected_server=None):
    server_identity = make_identity(ca, rng, "server")
    client_identity = make_identity(ca, rng, "client") if mutual else None
    client = TlsClient(
        [ca.public_key()],
        identity=client_identity,
        random_bytes=rng.random_bytes(64),
        expected_server=expected_server,
    )
    server = TlsServer(
        server_identity,
        random_bytes=rng.random_bytes(32),
        require_client_cert=mutual,
        trusted_roots=[ca.public_key()] if mutual else None,
    )
    return client, server


def test_handshake_and_duplex_records(ca, rng):
    client, server = make_pair(ca, rng)
    crl, srl = handshake_in_memory(client, server)
    assert srl.unprotect(crl.protect(b"c->s")) == b"c->s"
    assert crl.unprotect(srl.protect(b"s->c")) == b"s->c"
    assert client.server_certificate.subject == "server"
    assert server.client_certificate.subject == "client"


def test_server_only_auth(ca, rng):
    client, server = make_pair(ca, rng, mutual=False)
    crl, srl = handshake_in_memory(client, server)
    assert srl.unprotect(crl.protect(b"hello")) == b"hello"
    assert server.client_certificate is None


def test_expected_server_name_pinning(ca, rng):
    client, server = make_pair(ca, rng, expected_server="other-service")
    with pytest.raises(HandshakeError):
        handshake_in_memory(client, server)


def test_untrusted_server_cert_rejected(ca, rng):
    rogue_ca = CertificateAuthority("rogue", Ed25519PrivateKey(rng.random_bytes(32)))
    server_identity = make_identity(rogue_ca, rng, "server")
    client = TlsClient([ca.public_key()], random_bytes=rng.random_bytes(64))
    server = TlsServer(server_identity, random_bytes=rng.random_bytes(32))
    with pytest.raises(Exception):
        handshake_in_memory(client, server)


def test_client_without_cert_rejected_when_required(ca, rng):
    server_identity = make_identity(ca, rng, "server")
    client = TlsClient(
        [ca.public_key()], identity=None, random_bytes=rng.random_bytes(64)
    )
    server = TlsServer(
        server_identity,
        random_bytes=rng.random_bytes(32),
        require_client_cert=True,
        trusted_roots=[ca.public_key()],
    )
    with pytest.raises(HandshakeError):
        handshake_in_memory(client, server)


def test_tampered_server_flight_detected(ca, rng):
    client, server = make_pair(ca, rng)
    hello = client.client_hello()
    flight = bytearray(server.process_client_hello(hello))
    flight[len(flight) // 2] ^= 1
    # Depending on which byte the flip hits, the failure surfaces as a
    # handshake, certificate, or record-integrity error — all SecurityError.
    with pytest.raises((SecurityError, IntegrityError)):
        client.process_server_flight(bytes(flight))


def test_record_replay_detected(ca, rng):
    client, server = make_pair(ca, rng)
    crl, srl = handshake_in_memory(client, server)
    record = crl.protect(b"one-time message")
    assert srl.unprotect(record) == b"one-time message"
    with pytest.raises(IntegrityError):
        srl.unprotect(record)  # replay: receiver sequence advanced


def test_record_reorder_detected(ca, rng):
    client, server = make_pair(ca, rng)
    crl, srl = handshake_in_memory(client, server)
    first = crl.protect(b"first")
    second = crl.protect(b"second")
    with pytest.raises(IntegrityError):
        srl.unprotect(second)
    # After the failure the sequence stays consistent for the real first.
    assert srl.unprotect(first) == b"first"


def test_record_tamper_detected(ca, rng):
    client, server = make_pair(ca, rng)
    crl, srl = handshake_in_memory(client, server)
    record = bytearray(crl.protect(b"payload"))
    record[-1] ^= 1
    with pytest.raises(IntegrityError):
        srl.unprotect(bytes(record))


def test_record_header_tamper_detected(ca, rng):
    client, server = make_pair(ca, rng)
    crl, srl = handshake_in_memory(client, server)
    record = bytearray(crl.protect(b"payload"))
    record[2] ^= 1  # length field, covered by AAD
    with pytest.raises(IntegrityError):
        srl.unprotect(bytes(record))


class _NoDecrypt:
    """Stands in for the receive AEAD; any keystream pass is a failure."""

    TAG_SIZE = 16

    def decrypt(self, nonce, data, aad=b""):
        raise AssertionError("length mismatch must be rejected before decrypting")


@pytest.mark.parametrize(
    "mangle",
    [
        lambda record: record[:-1],  # truncated by the host
        lambda record: record[:5],  # header only
        lambda record: record + b"\x00",  # extended by the host
    ],
    ids=["truncated", "header-only", "extended"],
)
def test_record_length_mismatch_rejected_before_decrypt(ca, rng, mangle):
    client, server = make_pair(ca, rng)
    crl, srl = handshake_in_memory(client, server)
    record = crl.protect(b"payload")
    real_aead = srl._recv_aead
    srl._recv_aead = _NoDecrypt()
    with pytest.raises(IntegrityError, match="header claims"):
        srl.unprotect(mangle(record))
    # The rejection consumed no sequence number: the intact record opens.
    assert srl.records_received == 0
    srl._recv_aead = real_aead
    assert srl.unprotect(record) == b"payload"
    assert srl.records_received == 1


def test_large_payload(ca, rng):
    client, server = make_pair(ca, rng)
    crl, srl = handshake_in_memory(client, server)
    blob = bytes(200_000)
    assert srl.unprotect(crl.protect(blob)) == blob


def test_sessions_have_independent_keys(ca, rng):
    client_a, server_a = make_pair(ca, rng)
    crl_a, _ = handshake_in_memory(client_a, server_a)
    client_b, server_b = make_pair(ca, rng)
    _, srl_b = handshake_in_memory(client_b, server_b)
    with pytest.raises(IntegrityError):
        srl_b.unprotect(crl_a.protect(b"cross-session"))


def test_insufficient_randomness_rejected(ca, rng):
    with pytest.raises(HandshakeError):
        TlsClient([ca.public_key()], random_bytes=b"short")
    identity = make_identity(ca, rng, "s")
    with pytest.raises(HandshakeError):
        TlsServer(identity, random_bytes=b"short")


@pytest.mark.parametrize("seq", [0, 1, 2**64 - 1])
def test_record_nonce_is_the_iv_xor_the_right_aligned_sequence(seq):
    iv = bytes(range(0xF0, 0xFC))
    seq_bytes = struct.pack(">Q", seq).rjust(12, b"\x00")
    expected = bytes(a ^ b for a, b in zip(iv, seq_bytes))  # RFC 8446 §5.3
    layer = RecordLayer("chacha20-poly1305", (bytes(32), iv), (bytes(32), iv))
    assert RecordLayer._nonce(layer._send_iv, seq) == expected
    assert RecordLayer._nonce(layer._recv_iv, seq) == expected
