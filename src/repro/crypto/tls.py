"""A TLS-1.3-shaped secure channel.

The network shield wraps every socket in this channel (paper §3.3.3):
X25519 ECDHE handshake, certificate authentication (server always,
client optionally — CAS requires mutual TLS), an RFC 8446-style HKDF key
schedule, and an AEAD record layer with per-direction sequence numbers
so replayed, reordered, or dropped records are detected.

The module is *pure*: it performs real cryptography on real bytes but
never touches the simulated clock.  Transport cost accounting lives in
the network shield, keeping protocol logic testable in isolation.

Handshake shape (1-RTT, all server flight messages coalesced):

    client                                server
      | ---- ClientHello (x25519 pub) ----> |
      | <--- ServerHello + Certificate      |
      |      + CertificateVerify + Finished |
      | ---- [Certificate + Verify] +       |
      |      Finished ---------------------> |
      |        application records ...      |
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.crypto import encoding
from repro.crypto.aead import CIPHER, KEY_SIZE, check_cipher, get_aead
from repro.crypto.certs import Certificate, verify_chain
from repro.crypto.ed25519 import Ed25519PrivateKey, Ed25519PublicKey
from repro.crypto.kdf import hkdf_expand_label, hkdf_extract, hmac_sha256
from repro.crypto.x25519 import X25519PrivateKey, X25519PublicKey
from repro.errors import ConfigurationError, HandshakeError, IntegrityError


@dataclass
class TlsIdentity:
    """Long-term identity: a signing key and its certificate."""

    signing_key: Ed25519PrivateKey
    certificate: Certificate


class _KeySchedule:
    """RFC 8446 §7.1 key schedule (simplified: no PSK, no 0-RTT)."""

    def __init__(self) -> None:
        self._transcript = hashlib.sha256()
        zeros = b"\x00" * 32
        self._early_secret = hkdf_extract(b"", zeros)

    def update_transcript(self, message: bytes) -> None:
        self._transcript.update(message)

    def transcript_hash(self) -> bytes:
        return self._transcript.copy().digest()

    def derive_handshake(self, shared_secret: bytes) -> None:
        derived = hkdf_expand_label(self._early_secret, "derived", b"", 32)
        self._handshake_secret = hkdf_extract(derived, shared_secret)
        th = self.transcript_hash()
        self.client_hs = hkdf_expand_label(self._handshake_secret, "c hs traffic", th, 32)
        self.server_hs = hkdf_expand_label(self._handshake_secret, "s hs traffic", th, 32)

    def derive_application(self) -> None:
        derived = hkdf_expand_label(self._handshake_secret, "derived", b"", 32)
        master = hkdf_extract(derived, b"\x00" * 32)
        th = self.transcript_hash()
        self.client_app = hkdf_expand_label(master, "c ap traffic", th, 32)
        self.server_app = hkdf_expand_label(master, "s ap traffic", th, 32)

    def finished_mac(self, base_secret: bytes) -> bytes:
        finished_key = hkdf_expand_label(base_secret, "finished", b"", 32)
        return hmac_sha256(finished_key, self.transcript_hash())

    def traffic_keys(self, secret: bytes) -> Tuple[bytes, bytes]:
        key = hkdf_expand_label(secret, "key", b"", KEY_SIZE)
        iv = hkdf_expand_label(secret, "iv", b"", 12)
        return key, iv


class RecordLayer:
    """AEAD record protection with per-direction sequence numbers.

    Out-of-order or replayed records fail decryption (the sequence number
    is bound into the nonce and the record header into the AAD).
    """

    def __init__(self, send: Tuple[bytes, bytes], recv: Tuple[bytes, bytes]):
        self._send_aead = get_aead(CIPHER, send[0])
        self._send_iv = int.from_bytes(send[1], "big")
        self._recv_aead = get_aead(CIPHER, recv[0])
        self._recv_iv = int.from_bytes(recv[1], "big")
        self._send_seq = 0
        self._recv_seq = 0

    @staticmethod
    def _nonce(iv: int, seq: int) -> bytes:
        """The 12-byte IV XOR the 64-bit sequence number, right-aligned."""
        return (iv ^ seq).to_bytes(12, "big")

    def protect(self, plaintext: bytes) -> bytes:
        header = struct.pack(">BI", 0x17, len(plaintext))
        sealed = self._send_aead.encrypt(
            self._nonce(self._send_iv, self._send_seq), plaintext, aad=header
        )
        self._send_seq += 1
        return header + sealed

    def unprotect(self, record: bytes) -> bytes:
        if len(record) < 5:
            raise IntegrityError("TLS record shorter than its header")
        header, sealed = record[:5], record[5:]
        kind, length = struct.unpack(">BI", header)
        if kind != 0x17:
            raise IntegrityError(f"unexpected TLS record type 0x{kind:02x}")
        # The header is host-controlled: settle its length claim before
        # spending a keystream pass on the body.
        if length + self._recv_aead.TAG_SIZE != len(sealed):
            raise IntegrityError(
                f"TLS record header claims {length} payload bytes, "
                f"body carries {len(sealed) - self._recv_aead.TAG_SIZE}"
            )
        plaintext = self._recv_aead.decrypt(
            self._nonce(self._recv_iv, self._recv_seq), sealed, aad=header
        )
        self._recv_seq += 1
        return plaintext


def _encode_message(kind: str, fields: dict) -> bytes:
    return encoding.encode({"kind": kind, **fields})


def _decode_message(data: bytes, expected_kind: str) -> dict:
    try:
        msg = encoding.decode(data)
    except IntegrityError as exc:
        raise HandshakeError(f"malformed {expected_kind} message") from exc
    if not isinstance(msg, dict) or msg.get("kind") != expected_kind:
        raise HandshakeError(
            f"expected {expected_kind}, got {msg.get('kind') if isinstance(msg, dict) else type(msg).__name__}"
        )
    return msg


class TlsClient:
    """Client side of the handshake state machine."""

    def __init__(
        self,
        trusted_roots: List[Ed25519PublicKey],
        identity: Optional[TlsIdentity] = None,
        random_bytes: bytes = b"",
        now: float = 0.0,
        expected_server: Optional[str] = None,
    ) -> None:
        if len(random_bytes) < 64:
            raise HandshakeError("client needs at least 64 bytes of randomness")
        self._roots = trusted_roots
        self._identity = identity
        self._now = now
        self._expected_server = expected_server
        self._ephemeral = X25519PrivateKey.generate(random_bytes[:32])
        self._random = random_bytes[32:64]
        self._schedule = _KeySchedule()
        self._record_layer: Optional[RecordLayer] = None
        self.server_certificate: Optional[Certificate] = None

    def client_hello(self) -> bytes:
        message = _encode_message(
            "client_hello",
            {
                "random": self._random,
                "key_share": self._ephemeral.public_key().public_bytes(),
                "cipher": CIPHER,
            },
        )
        self._schedule.update_transcript(message)
        return message

    def process_server_flight(self, data: bytes) -> bytes:
        """Verify the server flight; returns the client's finished flight."""
        msg = _decode_message(data, "server_flight")
        try:
            server_share = msg["key_share"]
            cert_bytes = msg["certificate"]
            cert_verify = msg["certificate_verify"]
            server_finished = msg["finished"]
            require_client_cert = bool(msg["require_client_cert"])
        except KeyError as exc:
            raise HandshakeError(f"server flight missing field {exc}") from exc

        hello_part = _encode_message(
            "server_hello", {"key_share": server_share, "cipher": msg["cipher"]}
        )
        self._schedule.update_transcript(hello_part)
        shared = self._ephemeral.exchange(X25519PublicKey(server_share))
        self._schedule.derive_handshake(shared)

        certificate = Certificate.from_bytes(cert_bytes)
        verify_chain(certificate, self._roots, now=self._now)
        if self._expected_server is not None and certificate.subject != self._expected_server:
            raise HandshakeError(
                f"server presented certificate for {certificate.subject!r}, "
                f"expected {self._expected_server!r}"
            )
        self._schedule.update_transcript(cert_bytes)
        try:
            certificate.signing_key().verify(
                cert_verify, b"TLS 1.3, server CertificateVerify" + self._schedule.transcript_hash()
            )
        except IntegrityError as exc:
            raise HandshakeError("server CertificateVerify failed") from exc
        self._schedule.update_transcript(cert_verify)

        expected_finished = self._schedule.finished_mac(self._schedule.server_hs)
        if expected_finished != server_finished:
            raise HandshakeError("server Finished MAC mismatch")
        self._schedule.update_transcript(server_finished)
        self.server_certificate = certificate

        # Optional client authentication (mutual TLS).
        fields: dict = {}
        if require_client_cert:
            if self._identity is None:
                raise HandshakeError("server requires a client certificate")
            client_cert = self._identity.certificate.to_bytes()
            self._schedule.update_transcript(client_cert)
            signature = self._identity.signing_key.sign(
                b"TLS 1.3, client CertificateVerify" + self._schedule.transcript_hash()
            )
            self._schedule.update_transcript(signature)
            fields["certificate"] = client_cert
            fields["certificate_verify"] = signature

        fields["finished"] = self._schedule.finished_mac(self._schedule.client_hs)
        self._schedule.update_transcript(fields["finished"])
        flight = _encode_message("client_flight", fields)

        self._schedule.derive_application()
        self._record_layer = RecordLayer(
            send=self._schedule.traffic_keys(self._schedule.client_app),
            recv=self._schedule.traffic_keys(self._schedule.server_app),
        )
        return flight

    @property
    def record_layer(self) -> RecordLayer:
        if self._record_layer is None:
            raise HandshakeError("handshake has not completed")
        return self._record_layer


class TlsServer:
    """Server side of the handshake state machine."""

    def __init__(
        self,
        identity: TlsIdentity,
        random_bytes: bytes = b"",
        require_client_cert: bool = False,
        trusted_roots: Optional[List[Ed25519PublicKey]] = None,
        now: float = 0.0,
    ) -> None:
        if len(random_bytes) < 32:
            raise HandshakeError("server needs at least 32 bytes of randomness")
        if require_client_cert and not trusted_roots:
            raise HandshakeError("mutual TLS requires trusted roots for client certs")
        self._identity = identity
        self._ephemeral = X25519PrivateKey.generate(random_bytes[:32])
        self._require_client_cert = require_client_cert
        self._roots = trusted_roots or []
        self._now = now
        self._schedule: Optional[_KeySchedule] = None
        self._record_layer: Optional[RecordLayer] = None
        self.client_certificate: Optional[Certificate] = None

    def process_client_hello(self, data: bytes) -> bytes:
        msg = _decode_message(data, "client_hello")
        try:
            client_share = msg["key_share"]
            cipher = msg["cipher"]
        except KeyError as exc:
            raise HandshakeError(f"client hello missing field {exc}") from exc
        # Refused before any key share is derived or anything is signed.
        try:
            check_cipher(cipher)
        except ConfigurationError as exc:
            raise HandshakeError(f"client hello: {exc}") from exc

        self._schedule = _KeySchedule()
        self._schedule.update_transcript(data)

        server_share = self._ephemeral.public_key().public_bytes()
        hello_part = _encode_message(
            "server_hello", {"key_share": server_share, "cipher": CIPHER}
        )
        self._schedule.update_transcript(hello_part)
        shared = self._ephemeral.exchange(X25519PublicKey(client_share))
        self._schedule.derive_handshake(shared)

        cert_bytes = self._identity.certificate.to_bytes()
        self._schedule.update_transcript(cert_bytes)
        cert_verify = self._identity.signing_key.sign(
            b"TLS 1.3, server CertificateVerify" + self._schedule.transcript_hash()
        )
        self._schedule.update_transcript(cert_verify)
        finished = self._schedule.finished_mac(self._schedule.server_hs)
        self._schedule.update_transcript(finished)

        return _encode_message(
            "server_flight",
            {
                "key_share": server_share,
                "cipher": CIPHER,
                "certificate": cert_bytes,
                "certificate_verify": cert_verify,
                "finished": finished,
                "require_client_cert": self._require_client_cert,
            },
        )

    def process_client_flight(self, data: bytes) -> None:
        if self._schedule is None:
            raise HandshakeError("client flight before client hello")
        msg = _decode_message(data, "client_flight")

        if self._require_client_cert:
            try:
                cert_bytes = msg["certificate"]
                cert_verify = msg["certificate_verify"]
            except KeyError as exc:
                raise HandshakeError("client did not present a certificate") from exc
            certificate = Certificate.from_bytes(cert_bytes)
            verify_chain(certificate, self._roots, now=self._now)
            self._schedule.update_transcript(cert_bytes)
            try:
                certificate.signing_key().verify(
                    cert_verify,
                    b"TLS 1.3, client CertificateVerify" + self._schedule.transcript_hash(),
                )
            except IntegrityError as exc:
                raise HandshakeError("client CertificateVerify failed") from exc
            self._schedule.update_transcript(cert_verify)
            self.client_certificate = certificate

        try:
            client_finished = msg["finished"]
        except KeyError as exc:
            raise HandshakeError("client flight missing Finished") from exc
        expected = self._schedule.finished_mac(self._schedule.client_hs)
        if expected != client_finished:
            raise HandshakeError("client Finished MAC mismatch")
        self._schedule.update_transcript(client_finished)

        self._schedule.derive_application()
        self._record_layer = RecordLayer(
            send=self._schedule.traffic_keys(self._schedule.server_app),
            recv=self._schedule.traffic_keys(self._schedule.client_app),
        )

    @property
    def record_layer(self) -> RecordLayer:
        if self._record_layer is None:
            raise HandshakeError("handshake has not completed")
        return self._record_layer


def handshake_in_memory(
    client: TlsClient, server: TlsServer
) -> Tuple[RecordLayer, RecordLayer]:
    """Run a complete handshake with direct message passing (no network).

    Returns ``(client_records, server_records)``.  Used by tests and by
    components that establish channels between co-located parties.
    """
    hello = client.client_hello()
    server_flight = server.process_client_hello(hello)
    client_flight = client.process_server_flight(server_flight)
    server.process_client_flight(client_flight)
    return client.record_layer, server.record_layer
