"""The network shield: transparent TLS on every socket.

Paper §3.3.3: TensorFlow has no end-to-end encryption of its own, and
under the threat model no byte may leave the enclave unprotected, so the
shield wraps sockets and runs all traffic through TLS terminated inside
the enclave.  Keys/certificates are provisioned by CAS and protected by
the file-system shield.

Handshakes and record protection are the real TLS-1.3-shaped protocol
from :mod:`repro.crypto.tls`; a Dolev-Yao adversary on the transport is
detected by record authentication.

Because the simulation is single-threaded and event-driven, handshakes
are exposed as explicit state machines (:class:`ClientHandshake`,
:class:`ServerHandshake`) whose messages the caller moves across the
transport — the secure RPC stack of :mod:`repro.cluster.rpc` carries
them as plain RPCs.  Every record either end exchanges then goes through
one pair, :meth:`NetworkShield.seal` / :meth:`NetworkShield.open`: the
cost-model charge, the real AEAD, and the shield's counters.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro._sim import probe
from repro._sim.clock import SimClock
from repro._sim.rng import DeterministicRng
from repro.crypto.aead import CIPHER
from repro.crypto.ed25519 import Ed25519PublicKey
from repro.crypto.tls import RecordLayer, TlsClient, TlsIdentity, TlsServer
from repro.enclave.cost_model import CostModel
from repro.errors import IntegrityError
from repro.runtime import stats_registry
from repro.runtime.syscall import SyscallInterface

#: TLS record payload ceiling; only affects per-record overhead charging.
RECORD_SIZE = 16 * 1024


@dataclass(eq=False)
class NetShieldStats:
    handshakes: int = 0
    records_protected: int = 0
    records_opened: int = 0
    #: Records that failed authentication at this end (tampered,
    #: replayed, reordered, or sealed under another session's keys).
    records_rejected: int = 0
    crypto_bytes: int = 0
    crypto_time: float = 0.0
    # Real (wall-clock) record cryptography, next to the simulated
    # crypto_time charged through the cost model.
    real_crypto_time: float = 0.0
    bytes_by_cipher: Dict[str, int] = field(default_factory=dict)


class _Handshake:
    """What both ends of a handshake share once the flights are in."""

    def _peer_certificate(self):
        raise NotImplementedError

    @property
    def record_layer(self) -> RecordLayer:
        return self._tls.record_layer

    @property
    def peer_subject(self) -> Optional[str]:
        cert = self._peer_certificate()
        return cert.subject if cert else None


class ClientHandshake(_Handshake):
    """Client-side handshake state machine bound to a shield."""

    def __init__(
        self,
        shield: "NetworkShield",
        expected_server: Optional[str],
        mutual: bool,
        now: float,
    ) -> None:
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

    def _peer_certificate(self):
        return self._tls.server_certificate


class ServerHandshake(_Handshake):
    """Server-side handshake state machine bound to a shield."""

    def __init__(
        self, shield: "NetworkShield", require_client_cert: bool, now: float
    ) -> None:
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

    def _peer_certificate(self):
        return self._tls.client_certificate


class NetworkShield:
    """Per-process shield: handshakes, and the one record path."""

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
        cost = self.cost_model.net_shield_handshake_cost
        self.clock.advance(cost)
        if probe.SINK is not None:
            probe.SINK.charge(self.clock, "crypto", cost)
        self.stats.handshakes += 1

    def seal(
        self, records: RecordLayer, payload: bytes, declared: Optional[int] = None
    ) -> bytes:
        """Charge and record-protect one outbound message (consuming a
        send sequence number of ``records``); the record to put on the
        wire.  ``declared`` is the simulated size when it differs from
        ``len(payload)``."""
        self._charge_records(len(payload) if declared is None else declared)
        started = time.perf_counter()
        record = records.protect(payload)
        self._count_real(started, len(payload))
        self.stats.records_protected += 1
        return record

    def open(
        self, records: RecordLayer, record: bytes, declared: Optional[int] = None
    ) -> bytes:
        """Verify and open one inbound record, then charge it; the payload.

        Raises :class:`~repro.errors.IntegrityError` (counted as
        ``records_rejected``) if the record was tampered with, replayed,
        or reordered.
        """
        started = time.perf_counter()
        try:
            payload = records.unprotect(record)
        except IntegrityError:
            self.stats.records_rejected += 1
            raise
        self._count_real(started, len(payload))
        self._charge_records(len(payload) if declared is None else declared)
        self.stats.records_opened += 1
        return payload

    def _charge_records(self, n_bytes: int) -> None:
        """Charge the AEAD record protection cost for ``n_bytes`` of payload."""
        model = self.cost_model
        n_records = max(1, -(-n_bytes // RECORD_SIZE))
        duration = (
            n_bytes / model.net_shield_crypto_bandwidth
            + n_records * model.net_shield_record_overhead
        )
        self.clock.advance(duration)
        if probe.SINK is not None:
            probe.SINK.charge(self.clock, "crypto", duration)
        self.stats.crypto_bytes += n_bytes
        self.stats.crypto_time += duration

    def _count_real(self, started: float, n_bytes: int) -> None:
        stats = self.stats
        stats.real_crypto_time += time.perf_counter() - started
        stats.bytes_by_cipher[CIPHER] = stats.bytes_by_cipher.get(CIPHER, 0) + n_bytes

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
