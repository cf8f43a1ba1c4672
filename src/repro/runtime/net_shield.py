"""The network shield: transparent TLS on every socket.

Paper §3.3.3: TensorFlow has no end-to-end encryption of its own, and
under the threat model no byte may leave the enclave unprotected, so the
shield wraps sockets and runs all traffic through TLS terminated inside
the enclave.  Keys/certificates are provisioned by CAS and protected by
the file-system shield.

The shield is transport-agnostic: anything with ``send``/``recv`` works
(the simulated cluster channel, or the in-memory pair used in tests).
Handshakes and record protection are the real TLS-1.3-shaped protocol
from :mod:`repro.crypto.tls`; a Dolev-Yao adversary on the transport is
detected by record authentication.

Because the simulation is single-threaded and event-driven, handshakes
are exposed as explicit state machines (:class:`ClientHandshake`,
:class:`ServerHandshake`) whose messages the caller moves across the
transport; :func:`establish_pair` drives both ends for co-located
parties and tests.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional, Protocol

from repro._sim import probe
from repro._sim.clock import SimClock
from repro._sim.rng import DeterministicRng
from repro.crypto.aead import CIPHER
from repro.crypto.ed25519 import Ed25519PublicKey
from repro.crypto.tls import RecordLayer, TlsClient, TlsIdentity, TlsServer
from repro.enclave.cost_model import CostModel
from repro.errors import ShieldError
from repro.runtime import stats_registry
from repro.runtime.syscall import SyscallInterface

#: TLS record payload ceiling; only affects per-record overhead charging.
RECORD_SIZE = 16 * 1024


class Transport(Protocol):
    """Minimal duplex byte-message transport."""

    def send(self, data: bytes) -> None: ...

    def recv(self) -> bytes: ...


class QueueEndpoint:
    """One end of an in-memory transport pair (tests, co-located parties)."""

    def __init__(self, out_queue: Deque[bytes], in_queue: Deque[bytes]) -> None:
        self._out = out_queue
        self._in = in_queue

    def send(self, data: bytes) -> None:
        self._out.append(data)

    def recv(self) -> bytes:
        if not self._in:
            raise ShieldError("transport has no pending message")
        return self._in.popleft()


def transport_pair() -> "tuple[QueueEndpoint, QueueEndpoint]":
    """A connected pair of in-memory transports."""
    a_to_b: Deque[bytes] = deque()
    b_to_a: Deque[bytes] = deque()
    return QueueEndpoint(a_to_b, b_to_a), QueueEndpoint(b_to_a, a_to_b)


@dataclass(eq=False)
class NetShieldStats:
    handshakes: int = 0
    records_protected: int = 0
    records_opened: int = 0
    crypto_bytes: int = 0
    crypto_time: float = 0.0
    # Real (wall-clock) record cryptography, next to the simulated
    # crypto_time charged through the cost model.
    real_crypto_time: float = 0.0
    bytes_by_cipher: Dict[str, int] = field(default_factory=dict)


def charge_record_crypto(
    cost_model: CostModel,
    clock: SimClock,
    stats: NetShieldStats,
    n_bytes: int,
) -> None:
    """Charge the AEAD record protection cost for ``n_bytes`` of payload."""
    n_records = max(1, -(-n_bytes // RECORD_SIZE))
    duration = (
        n_bytes / cost_model.net_shield_crypto_bandwidth
        + n_records * cost_model.net_shield_record_overhead
    )
    clock.advance(duration)
    if probe.SINK is not None:
        probe.SINK.charge(clock, "crypto", duration)
    stats.crypto_bytes += n_bytes
    stats.crypto_time += duration


def protect_timed(records: RecordLayer, stats: NetShieldStats, payload: bytes) -> bytes:
    """Record-protect ``payload``, accounting real wall-clock crypto time."""
    started = time.perf_counter()
    record = records.protect(payload)
    stats.real_crypto_time += time.perf_counter() - started
    stats.bytes_by_cipher[CIPHER] = stats.bytes_by_cipher.get(CIPHER, 0) + len(payload)
    return record


def unprotect_timed(records: RecordLayer, stats: NetShieldStats, record: bytes) -> bytes:
    """Verify-and-open a record, accounting real wall-clock crypto time."""
    started = time.perf_counter()
    payload = records.unprotect(record)
    stats.real_crypto_time += time.perf_counter() - started
    stats.bytes_by_cipher[CIPHER] = stats.bytes_by_cipher.get(CIPHER, 0) + len(payload)
    return payload


class ShieldedChannel:
    """An established TLS session over some transport."""

    def __init__(
        self,
        transport: Transport,
        records: RecordLayer,
        cost_model: CostModel,
        clock: SimClock,
        stats: NetShieldStats,
        syscalls: Optional[SyscallInterface] = None,
        peer_subject: Optional[str] = None,
    ) -> None:
        self._transport = transport
        self._records = records
        self._model = cost_model
        self._clock = clock
        self._stats = stats
        self._syscalls = syscalls
        #: Subject name from the peer's verified certificate (if any).
        self.peer_subject = peer_subject

    def _charge_crypto(self, n_bytes: int) -> None:
        charge_record_crypto(self._model, self._clock, self._stats, n_bytes)

    def send(self, payload: bytes, declared_size: Optional[int] = None) -> None:
        """Protect and transmit one message."""
        simulated = declared_size if declared_size is not None else len(payload)
        self._charge_crypto(simulated)
        if self._syscalls is not None:
            # I/O is charged through the shared syscall plane: sends are
            # fire-and-forget ring submissions that batch with the rest
            # of this enclave's traffic.
            self._syscalls.socket_send(simulated)
        self._transport.send(protect_timed(self._records, self._stats, payload))
        self._stats.records_protected += 1

    def recv(self, declared_size: Optional[int] = None) -> bytes:
        """Receive and verify one message.

        Raises :class:`~repro.errors.IntegrityError` (via the record
        layer) if the message was tampered with, replayed, or reordered.
        """
        record = self._transport.recv()
        payload = unprotect_timed(self._records, self._stats, record)
        simulated = declared_size if declared_size is not None else len(payload)
        if self._syscalls is not None:
            self._syscalls.socket_recv(simulated)
        self._charge_crypto(simulated)
        self._stats.records_opened += 1
        return payload


class ClientHandshake:
    """Client-side handshake state machine bound to a shield."""

    def __init__(
        self,
        shield: "NetworkShield",
        expected_server: Optional[str],
        mutual: bool,
        now: float,
    ) -> None:
        self._shield = shield
        self._tls = TlsClient(
            trusted_roots=shield.trusted_roots,
            identity=shield.identity if mutual else None,
            random_bytes=shield.rng.random_bytes(64),
            now=now,
            expected_server=expected_server,
        )

    def hello(self) -> bytes:
        """First flight: ClientHello bytes to deliver to the server."""
        return self._tls.client_hello()

    def finish(self, server_flight: bytes) -> bytes:
        """Verify the server flight; returns the client finished flight."""
        return self._tls.process_server_flight(server_flight)

    @property
    def record_layer(self) -> RecordLayer:
        return self._tls.record_layer

    @property
    def peer_subject(self) -> Optional[str]:
        cert = self._tls.server_certificate
        return cert.subject if cert else None

    def channel(
        self, transport: Transport, syscalls: Optional[SyscallInterface] = None
    ) -> ShieldedChannel:
        """The established channel (call after :meth:`finish`)."""
        self._shield.charge_handshake()
        cert = self._tls.server_certificate
        return ShieldedChannel(
            transport,
            self._tls.record_layer,
            self._shield.cost_model,
            self._shield.clock,
            self._shield.stats,
            syscalls=syscalls or self._shield.syscalls,
            peer_subject=cert.subject if cert else None,
        )


class ServerHandshake:
    """Server-side handshake state machine bound to a shield."""

    def __init__(
        self, shield: "NetworkShield", require_client_cert: bool, now: float
    ) -> None:
        self._shield = shield
        self._tls = TlsServer(
            identity=shield.identity,
            random_bytes=shield.rng.random_bytes(32),
            require_client_cert=require_client_cert,
            trusted_roots=shield.trusted_roots if require_client_cert else None,
            now=now,
        )

    def respond(self, client_hello: bytes) -> bytes:
        """Process ClientHello; returns the coalesced server flight."""
        return self._tls.process_client_hello(client_hello)

    def complete(self, client_flight: bytes) -> None:
        """Verify the client finished flight (and client cert if required)."""
        self._tls.process_client_flight(client_flight)

    @property
    def record_layer(self) -> RecordLayer:
        return self._tls.record_layer

    @property
    def peer_subject(self) -> Optional[str]:
        cert = self._tls.client_certificate
        return cert.subject if cert else None

    def channel(
        self, transport: Transport, syscalls: Optional[SyscallInterface] = None
    ) -> ShieldedChannel:
        """The established channel (call after :meth:`complete`)."""
        self._shield.charge_handshake()
        cert = self._tls.client_certificate
        return ShieldedChannel(
            transport,
            self._tls.record_layer,
            self._shield.cost_model,
            self._shield.clock,
            self._shield.stats,
            syscalls=syscalls or self._shield.syscalls,
            peer_subject=cert.subject if cert else None,
        )


class NetworkShield:
    """Per-process shield that establishes shielded channels."""

    def __init__(
        self,
        identity: TlsIdentity,
        trusted_roots: List[Ed25519PublicKey],
        cost_model: CostModel,
        clock: SimClock,
        rng: DeterministicRng,
        syscalls: Optional[SyscallInterface] = None,
    ) -> None:
        self.identity = identity
        self.trusted_roots = trusted_roots
        self.cost_model = cost_model
        self.clock = clock
        self.rng = rng
        self.syscalls = syscalls
        self.stats = NetShieldStats()
        stats_registry.register("net", self.stats, clock)

    def charge_handshake(self) -> None:
        """Charge one handshake's cryptography (two signatures + ECDHE)."""
        self.clock.advance(0.9e-3)
        if probe.SINK is not None:
            probe.SINK.charge(self.clock, "crypto", 0.9e-3)
        self.stats.handshakes += 1

    def client_handshake(
        self,
        expected_server: Optional[str] = None,
        mutual: bool = True,
        now: float = 0.0,
    ) -> ClientHandshake:
        return ClientHandshake(self, expected_server, mutual, now)

    def server_handshake(
        self, require_client_cert: bool = True, now: float = 0.0
    ) -> ServerHandshake:
        return ServerHandshake(self, require_client_cert, now)


def establish_pair(
    client_shield: NetworkShield,
    server_shield: NetworkShield,
    expected_server: Optional[str] = None,
    require_client_cert: bool = True,
    now: float = 0.0,
) -> "tuple[ShieldedChannel, ShieldedChannel]":
    """Run a full handshake between two shields over an in-memory pair.

    Returns ``(client_channel, server_channel)``.
    """
    client_end, server_end = transport_pair()
    client = client_shield.client_handshake(
        expected_server=expected_server, mutual=require_client_cert, now=now
    )
    server = server_shield.server_handshake(
        require_client_cert=require_client_cert, now=now
    )
    flight = server.respond(client.hello())
    server.complete(client.finish(flight))
    return client.channel(client_end), server.channel(server_end)
