"""Exception hierarchy for the secureTF reproduction.

Every subsystem raises subclasses of :class:`ReproError` so callers can
catch library failures without masking programming errors.  Security
failures form their own branch (:class:`SecurityError`) because the
paper's threat model requires that tampering is *detected*, never
silently tolerated — tests assert these exact exception types.
"""

from __future__ import annotations

from typing import Optional


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class ConfigurationError(ReproError):
    """A component was configured inconsistently or incompletely."""


class SecurityError(ReproError):
    """Base class for violations of confidentiality/integrity/freshness."""


class IntegrityError(SecurityError):
    """Authenticated data failed verification (MAC/tag/measurement).

    ``position`` names the failing message when a batch was verified as
    one (``ChaCha20Poly1305.open_many``); it is ``None`` everywhere else.
    """

    def __init__(self, *args: object, position: Optional[int] = None) -> None:
        super().__init__(*args)
        self.position = position


class AttestationError(SecurityError):
    """An enclave quote or measurement could not be verified."""


class FreshnessError(SecurityError):
    """Stale state was presented (rollback / replay detected)."""


class IagoError(SecurityError):
    """The untrusted OS returned a malformed or hostile syscall result."""


class HandshakeError(SecurityError):
    """A secure-channel handshake failed or was tampered with."""


class PolicyError(SecurityError):
    """A CAS policy denied access to a secret or session."""


class EnclaveError(ReproError):
    """Illegal enclave lifecycle operation or resource exhaustion."""


class SyscallError(ReproError):
    """A simulated system call failed."""


class ShortWriteError(SyscallError):
    """The kernel reported writing fewer bytes than it was handed.

    Not an Iago attack — a full disk does the same — but never a
    success: the write did not land, and a journaled commit stops before
    its rename, so the old version stays live."""


class ShieldError(IntegrityError):
    """A file-system or network shield operation failed verification.

    Shield failures are integrity failures: protected data (or its
    metadata) did not authenticate.  Subclassing :class:`IntegrityError`
    lets callers that handle "authenticated data failed verification"
    treat shield-layer detections uniformly with AEAD/MAC failures.
    """


class StorageCrash(ReproError):
    """The (simulated) process died at a storage syscall boundary.

    Raised by the storage fault injector to model kill -9 / power loss
    mid-commit.  Deliberately *not* a :class:`SecurityError` — a crash is
    an availability event, and *not* an RPC error — retry machinery must
    never swallow it.  Tests catch it, then "remount" by constructing a
    fresh shield over the surviving :class:`VirtualFileSystem`.
    """


class GraphError(ReproError):
    """Malformed dataflow graph (unknown op, shape mismatch, cycles)."""


class ShapeError(GraphError):
    """Tensor shapes are incompatible for the requested operation."""


class CheckpointError(ReproError):
    """A checkpoint or frozen graph could not be read or verified."""


class LiteConversionError(ReproError):
    """A graph could not be converted to the Lite flat format."""


class ClusterError(ReproError):
    """Node/container lifecycle failure in the simulated cluster."""


class FencingError(ClusterError):
    """Base class for epoch-fencing rejections.

    Fencing errors are *authoritative*, exactly like security errors: a
    request rejected because its sender lost the leadership epoch must
    never be retried — the rejection IS the answer, and retrying it
    against another endpoint would let a zombie leader commit work after
    its replacement was promoted (split-brain).
    """


class FencedError(FencingError):
    """An acceptor rejected a request stamped with a stale epoch.

    Raised server-side when a leader-shaped sender (CAS primary,
    parameter server, serving router) presents an epoch below the
    highest this acceptor has seen — the sender is a zombie on the wrong
    side of a partition and its writes must not commit.
    """


class LeaseExpiredError(FencingError):
    """A leader consulted the epoch authority and learned it was
    superseded: its lease epoch is no longer current.  Raised holder-side
    (the polite self-check), where :class:`FencedError` is the acceptor
    slamming the door."""


class RpcError(ClusterError):
    """A simulated RPC failed (timeout, node down, channel closed)."""


class RpcTransportError(RpcError):
    """A message was lost in transit (drop, partition, dead endpoint).

    The one *retryable* RPC failure: the operation may or may not have
    executed remotely, so retries must be idempotent (call-ID dedup).
    """


class StaleConnectionError(RpcError):
    """A secure session is no longer valid on the server (restart or
    expiry); the client should re-handshake and resend."""


class CircuitOpenError(RpcError):
    """A circuit breaker is open: calls to the endpoint are being shed
    until the cooldown elapses."""


class OverloadError(RpcError):
    """A server shed the request under admission control (queue bound or
    rate limit).  Deliberately typed — load shedding must be an explicit,
    observable decision, never a silent drop — and deliberately *not*
    retryable by default: hammering an overloaded service makes the
    overload worse; backpressure belongs at the client."""


class DeadlineExceededError(RpcError):
    """A request's propagated deadline expired before a reply was
    produced.  Raised client-side when the budget runs out waiting, and
    server-side when already-expired work is shed instead of burning
    enclave time on a reply nobody is waiting for."""
