"""RPC over the simulated network — plain and network-shield-protected.

Plain RPC (:class:`RpcServer`/:class:`RpcClient`) is what *native*
TensorFlow uses: canonical-encoded envelopes in cleartext, readable and
forgeable by the Dolev-Yao adversary.  Secure RPC layers the network
shield's TLS session over the same transport: a two-step handshake
(carried as plain RPCs, as TLS handshakes are), then AEAD-protected
records per call.  The paper's Fig. 8 contrast "with/without network
shield" is exactly the choice between these two stacks.

Every client call takes one path: ``begin_call`` builds the call envelope
(:meth:`RpcClient._call_envelope`, the only place one is built), runs
attempt 1's *send half* and returns a :class:`PendingRpc`; ``settle()``
runs the *receive half* — and, for a retrying client, the rest of the
executor's loop, a fresh send + receive per retry.  ``call`` is
``begin_call(...).settle()`` under an ``rpc.call`` span, so a blocking
call and a fanned-out one differ only in what the caller does between
the two halves.  Each transport is those two halves: plain is socket
write + wire / reply + socket read; secure wraps them in record crypto.

Resilience (paper challenge ❹ — elastic clouds kill containers and lose
messages) is layered on without changing the wire protocol's shape:

- **Typed remote errors**: the error envelope carries the exception
  class name, and callers re-raise the matching :mod:`repro.errors`
  type, so a remote ``PolicyError`` stays a policy decision (never
  retried) instead of collapsing into a generic ``RpcError``.
- **At-most-once calls**: clients built with a
  :class:`~repro.cluster.retry.RetryPolicy` stamp each call with a
  unique call ID; servers keep a bounded dedup window of (ID → reply),
  so a retried or duplicate-delivered mutation executes exactly once
  and the cached reply is returned.
- **Retry/backoff + circuit breaking** on every client call — attempt 1
  included, so the breaker admits it and monitoring counts it — via
  :class:`~repro.cluster.retry.RetryingExecutor`.
- **Epoch fencing**: a client holding an
  :class:`~repro.cluster.epoch.EpochLease` (``client.fence = lease``)
  stamps its role + epoch into every call envelope; servers guarding a
  role (:meth:`RpcServer.add_guard`) reject stale-epoch requests with a
  typed :class:`~repro.errors.FencedError` *before* dispatch, so a
  zombie leader's writes never execute.  Fencing errors are
  authoritative — the retry layer refuses to re-issue them.
- **Transparent secure-session reconnect**: a :class:`SecureConnection`
  that hits a transport fault or a restarted server re-runs the full
  TLS handshake (charged through the shield's cost model) and resends
  under the same call ID — replay-safe because of the dedup window.
"""

from __future__ import annotations

import itertools
from collections import OrderedDict
from typing import Callable, Dict, Optional, Tuple, TypeVar

import repro.errors as _errors
from repro._sim import probe
from repro._sim.scheduler import Completion
from repro.cluster.dedup import DedupWindow
from repro.cluster.epoch import EpochGuard, EpochLease
from repro.cluster.network import Network
from repro.cluster.node import Node
from repro.cluster.retry import (
    BreakerRegistry,
    RecoveryStats,
    RetryPolicy,
    RetryingExecutor,
)
from repro.crypto import encoding
from repro.crypto.tls import RecordLayer
from repro.errors import (
    IntegrityError,
    ReproError,
    RpcError,
    RpcTransportError,
    StaleConnectionError,
)
from repro.runtime import stats_registry
from repro.runtime.syscall import SyscallInterface
from repro.runtime.net_shield import (
    NetworkShield,
    ServerHandshake,
    charge_record_crypto,
    protect_timed,
    unprotect_timed,
)

T = TypeVar("T")

#: method handler: fn(payload_bytes, peer_subject) -> response_bytes
MethodHandler = Callable[[bytes, Optional[str]], bytes]

#: Known error types a remote error envelope may name.
_ERROR_TYPES = {
    name: obj
    for name, obj in vars(_errors).items()
    if isinstance(obj, type) and issubclass(obj, ReproError)
}

def _envelope(kind: str, **fields: object) -> bytes:
    return encoding.encode({"kind": kind, **fields})


def _trace_fields(tracer: object, clock) -> dict:
    """Trace-context envelope fields for the innermost open span on
    ``clock`` — empty (so envelopes are byte-identical to an untraced
    build) when tracing is off or no span is open."""
    if tracer is None:
        return {}
    context = tracer.current_context(clock)
    return {"trace": context} if context is not None else {}


def _raise_remote_error(msg: dict) -> None:
    """Re-raise a remote failure as its original :mod:`repro.errors` type."""
    error_cls = _ERROR_TYPES.get(msg.get("error"), RpcError)
    raise error_cls(f"remote error: {msg.get('message', 'unknown')}")


def _open_envelope(data: bytes, expected: Optional[str] = None) -> dict:
    try:
        msg = encoding.decode(data)
    except IntegrityError as exc:
        raise RpcError("malformed RPC envelope") from exc
    if not isinstance(msg, dict) or "kind" not in msg:
        raise RpcError("RPC envelope missing kind")
    if msg["kind"] == "error":
        _raise_remote_error(msg)
    if expected is not None and msg["kind"] != expected:
        raise RpcError(f"expected {expected!r} envelope, got {msg['kind']!r}")
    return msg


class PendingRpc:
    """One call whose first attempt is already on the wire.

    Returned by the ``begin_call`` methods.  :meth:`settle` drives the
    event heap until the reply lands; with a retry policy it is the rest
    of the executor's loop (see
    :meth:`~repro.cluster.retry.RetryingExecutor.begin`), resending the
    **same** envelope under the same call ID.  A send that failed is
    that attempt's outcome and surfaces here, not from ``begin_call``.
    Call it exactly once.
    """

    def __init__(self, settle: Callable[[], bytes]) -> None:
        self.settle = settle


class RpcServer:
    """Cleartext RPC endpoint with an at-most-once dedup window."""

    #: Bounds of the (call ID → cached reply) dedup window.
    DEDUP_CAPACITY = 1024
    DEDUP_TTL = 300.0  # sim-seconds

    def __init__(
        self,
        network: Network,
        address: str,
        node: Node,
        syscalls: Optional[SyscallInterface] = None,
    ) -> None:
        self._network = network
        self.address = address
        self._node = node
        #: The syscall plane this endpoint's socket I/O is charged to at
        #: delivery time (enclave plane for shielded servers, the node's
        #: host interface otherwise).
        self._syscalls = syscalls if syscalls is not None else node.syscall_interface()
        self._methods: Dict[str, MethodHandler] = {}
        self._started = False
        #: call ID → cached reply.  Public because a stateful service
        #: checkpoints it together with its own state (``ParameterServer``).
        self.dedup = DedupWindow(self.DEDUP_CAPACITY, self.DEDUP_TTL)
        #: Acceptor-side fencing guards, one per leader role this
        #: endpoint accepts writes from (see :meth:`add_guard`).
        self._guards: Dict[str, EpochGuard] = {}
        self.stats = RecoveryStats()
        stats_registry.register("recovery", self.stats, node.clock)
        #: Called after a call commits (dispatched + dedup-recorded);
        #: lets stateful services checkpoint atomically with the dedup
        #: window (see ``ParameterServer``).
        self.on_committed: Optional[Callable[[], None]] = None

    def register(self, method: str, handler: MethodHandler) -> None:
        self._methods[method] = handler

    def add_guard(self, guard: EpochGuard) -> EpochGuard:
        """Fence this endpoint for the guard's role: every call envelope
        stamped for that role must carry an epoch ≥ the highest this
        guard has seen (requests below it raise
        :class:`~repro.errors.FencedError` before any handler runs).
        Guards with ``require=True`` additionally reject *unstamped*
        calls — an endpoint that only serves a fenced leader demands
        proof of leadership on every request."""
        self._guards[guard.role] = guard
        return guard

    def start(self) -> None:
        if self._started:
            raise RpcError(f"server {self.address!r} already started")
        self._network.register(
            self.address, self._node.clock, self._handle, syscalls=self._syscalls
        )
        self._started = True

    def stop(self) -> None:
        if self._started:
            self._network.unregister(self.address)
            self._started = False

    def abort(self) -> None:
        """Crash the endpoint: vanish from the network, no teardown."""
        if self._started:
            self._network.unregister(self.address)
            self._started = False

    def _dispatch(self, method: str, payload: bytes, peer: Optional[str]) -> bytes:
        handler = self._methods.get(method)
        if handler is None:
            raise RpcError(f"unknown method {method!r} at {self.address!r}")
        return handler(payload, peer)

    def _dispatch_call(self, msg: dict, peer: Optional[str]) -> bytes:
        """Dispatch one call envelope with at-most-once semantics.

        The envelope's propagated trace context (if any) parents the
        handler span, linking the client's call span on its node to the
        server work on this one — one trace ID across the cluster.
        """
        trace = msg.get("trace")
        if not (isinstance(trace, dict) and "t" in trace and "s" in trace):
            trace = None  # absent or forged context must not fail the call
        with probe.span(
            self._node.clock,
            "rpc.server",
            category="rpc",
            attrs={"address": self.address, "method": msg.get("method")},
            parent_context=trace,
        ):
            return self._dispatch_call_inner(msg, peer)

    def _check_fence(self, msg: dict) -> None:
        """Reject stale-epoch (or missing-epoch, for ``require`` guards)
        requests before any handler executes."""
        if not self._guards:
            return
        fence = msg.get("fence")
        if not isinstance(fence, dict):
            fence = None
        for role, guard in self._guards.items():
            if fence is not None and fence.get("role") == role:
                epoch = fence.get("epoch")
                guard.check(epoch if isinstance(epoch, int) else None)
            else:
                guard.check(None)

    def _dispatch_call_inner(self, msg: dict, peer: Optional[str]) -> bytes:
        call_id = msg.get("call_id")
        now = self._node.clock.now
        if call_id is not None:
            hit = self.dedup.get(call_id, now)
            if hit is not None:
                self.stats.dedup_hits += 1
                return hit
        # Fencing before deadline/dispatch (but after dedup replay: a
        # cached reply is work that already committed under a then-valid
        # epoch, and replaying it executes nothing).
        self._check_fence(msg)
        deadline = msg.get("deadline")
        if isinstance(deadline, (int, float)) and now > deadline:
            # Server-side shed of already-expired work: the caller's
            # budget ran out while this request sat on the wire or in
            # queue — executing it would burn enclave time on a reply
            # nobody is waiting for.  (A dedup hit above still replays
            # its cached reply: the work already happened.)
            raise _errors.DeadlineExceededError(
                f"request deadline {deadline:.6f} expired at "
                f"{self.address!r} (now {now:.6f})"
            )
        response = self._dispatch(msg["method"], msg["payload"], peer)
        if call_id is not None:
            self.dedup.put(call_id, now, response)
        if self.on_committed is not None:
            try:
                self.on_committed()
            except Exception:
                # The commit hook (e.g. a fenced checkpoint save) vetoed
                # the call: the success reply must not survive in the
                # dedup window, or a duplicate delivery would replay an
                # outcome that never committed.
                if call_id is not None:
                    self.dedup.discard(call_id)
                raise
        return response

    def _handle(self, request: bytes) -> bytes:
        try:
            msg = _open_envelope(request, "call")
            response = self._dispatch_call(msg, None)
            return _envelope("reply", payload=response)
        except (ReproError, KeyError) as exc:
            return _envelope(
                "error",
                message=f"{type(exc).__name__}: {exc}",
                error=type(exc).__name__,
            )


class RpcClient:
    """Cleartext RPC caller (optionally retrying with backoff)."""

    def __init__(
        self,
        network: Network,
        address: str,
        node: Node,
        retry: Optional[RetryPolicy] = None,
        breakers: Optional[BreakerRegistry] = None,
        syscalls: Optional[SyscallInterface] = None,
    ) -> None:
        self._network = network
        self.address = address
        self._node = node
        self._syscalls = syscalls if syscalls is not None else node.syscall_interface()
        self.stats = RecoveryStats()
        #: When set (an :class:`~repro.cluster.epoch.EpochLease`), every
        #: call envelope carries this lease's role + epoch.  The stamp is
        #: the lease's *cached* epoch — a fenced zombie keeps stamping
        #: its dead epoch, and the acceptor's guard is what says no.
        self.fence: Optional[EpochLease] = None
        self._executor: Optional[RetryingExecutor] = None
        if retry is not None:
            stats_registry.register("recovery", self.stats, node.clock)
            self._executor = RetryingExecutor(
                retry,
                node.clock,
                node.rng.child(f"retry|{address}"),
                breakers=breakers or BreakerRegistry(stats=self.stats),
                stats=self.stats,
                # Backoffs ride the network's event heap, so a parked
                # retry never blocks the rest of the fleet.
                scheduler=network.scheduler,
            )
        # The instance number is drawn from the *network* (not a process
        # global): unique within the simulation — which is all dedup
        # needs — and reproducible however many simulations ran earlier
        # in this process.
        self._call_nonce = f"{address}#{network.next_client_instance()}"
        self._call_seq = itertools.count(1)

    def next_call_id(self) -> str:
        """A network-unique call ID (at-most-once dedup key)."""
        return f"{self._call_nonce}/{next(self._call_seq)}"

    def reset_breaker(self, dst: str) -> None:
        """Forget accumulated failures for ``dst`` (after known recovery)."""
        if self._executor is not None:
            self._executor.breakers.reset(dst)

    def _call_envelope(
        self, method: str, payload: bytes, deadline: Optional[float]
    ) -> bytes:
        """The one ``call`` envelope: method + payload, stamped with a
        dedup call ID (retrying clients only — every resend of this call
        carries the same bytes), the caller's deadline, the open span's
        trace context and the client's fencing epoch."""
        fields: Dict[str, object] = {"method": method, "payload": payload}
        if self._executor is not None:
            fields["call_id"] = self.next_call_id()
        if deadline is not None:
            fields["deadline"] = deadline
        fields.update(_trace_fields(probe.ACTIVE, self._node.clock))
        if self.fence is not None:
            fields["fence"] = self.fence.stamp()
        return _envelope("call", **fields)

    def _begin(
        self,
        dst: str,
        send: Callable[[], Completion],
        receive: Callable[[Completion], bytes],
        deadline: Optional[float],
    ) -> PendingRpc:
        """Run attempt 1's ``send`` now; the rest is :class:`PendingRpc`."""
        if self._executor is not None:
            return PendingRpc(self._executor.begin(dst, send, receive, deadline))
        try:
            sent = send()
        except (RpcTransportError, StaleConnectionError) as exc:
            failure = exc

            def settle() -> bytes:
                raise failure
        else:
            def settle() -> bytes:
                return receive(sent)
        return PendingRpc(settle)

    def _send(
        self,
        dst: str,
        request: bytes,
        declared_request: Optional[int],
        declared_response: Optional[int],
    ) -> Completion:
        """Send half: the caller's socket write goes through its own
        syscall plane (fire-and-forget submission), then the request is
        on the wire and its reply event parked on the heap."""
        self._syscalls.socket_send(
            declared_request if declared_request is not None else len(request)
        )
        return self._network.call_async(
            self.address,
            self._node.clock,
            dst,
            request,
            declared_request=declared_request,
            declared_response=declared_response,
        )

    def _receive(self, sent: Completion, declared_response: Optional[int]) -> bytes:
        """Receive half: park until the reply lands, charge its read."""
        raw = self._network.scheduler.run_until(sent)
        self._syscalls.socket_recv(
            declared_response if declared_response is not None else len(raw)
        )
        return raw

    def begin_call(
        self,
        dst: str,
        method: str,
        payload: bytes,
        declared_request: Optional[int] = None,
        declared_response: Optional[int] = None,
        deadline: Optional[float] = None,
    ) -> PendingRpc:
        """Issue an RPC's send half now; settle the reply later.

        ``deadline`` (absolute simulated seconds) is stamped into the
        call envelope so the server can shed the request if it arrives
        already expired, and bounds this client's retry loop to the same
        budget.  Several pending calls issued back-to-back share the
        caller's send timestamp, overlapping their transfers (this is
        how training fans out per-shard traffic).
        """
        request = self._call_envelope(method, payload, deadline)
        return self._begin(
            dst,
            lambda: self._send(dst, request, declared_request, declared_response),
            lambda sent: _open_envelope(
                self._receive(sent, declared_response), "reply"
            )["payload"],
            deadline,
        )

    def call(
        self,
        dst: str,
        method: str,
        payload: bytes,
        declared_request: Optional[int] = None,
        declared_response: Optional[int] = None,
        deadline: Optional[float] = None,
    ) -> bytes:
        """A blocking RPC: :meth:`begin_call`, settled at once."""
        with probe.span(
            self._node.clock,
            "rpc.call",
            category="rpc",
            attrs={"dst": dst, "method": method},
        ):
            return self.begin_call(
                dst, method, payload, declared_request, declared_response, deadline
            ).settle()


class SecureRpcServer(RpcServer):
    """RPC endpoint behind the network shield (TLS sessions per client)."""

    #: Bounds on half-open handshakes: abandoned ``hs1`` state expires by
    #: count and by clock age, so a flaky (or malicious) client cannot
    #: pin server memory.
    PENDING_CAPACITY = 64
    PENDING_TTL = 60.0  # sim-seconds

    def __init__(
        self,
        network: Network,
        address: str,
        node: Node,
        shield: NetworkShield,
        require_client_cert: bool = True,
    ) -> None:
        # A shielded server's socket I/O belongs to its enclave's plane.
        super().__init__(network, address, node, syscalls=shield.syscalls)
        self._shield = shield
        self._require_client_cert = require_client_cert
        self._pending: "OrderedDict[int, Tuple[float, ServerHandshake]]" = OrderedDict()
        self._sessions: Dict[int, Tuple[RecordLayer, Optional[str]]] = {}
        self._conn_ids = itertools.count(1)

    def abort(self) -> None:
        super().abort()
        self._pending.clear()
        self._sessions.clear()

    def _expire_pending(self, now: float) -> None:
        while self._pending:
            conn, (stamp, _) = next(iter(self._pending.items()))
            if now - stamp < self.PENDING_TTL and len(self._pending) <= self.PENDING_CAPACITY:
                break
            del self._pending[conn]
            self.stats.handshakes_expired += 1

    def _handle(self, request: bytes) -> bytes:
        try:
            msg = _open_envelope(request)
            kind = msg["kind"]
            now = self._node.clock.now
            if kind == "hs1":
                handshake = self._shield.server_handshake(
                    require_client_cert=self._require_client_cert,
                    now=now,
                )
                conn = next(self._conn_ids)
                flight = handshake.respond(msg["hello"])
                self._pending[conn] = (now, handshake)
                self._expire_pending(now)
                return _envelope("hs1_reply", conn=conn, flight=flight)
            if kind == "hs2":
                conn = msg["conn"]
                pending = self._pending.pop(conn, None)
                if pending is None:
                    if conn in self._sessions:
                        # Duplicate/retried hs2 for an established
                        # session: idempotent success.
                        return _envelope("hs2_reply", conn=conn)
                    raise StaleConnectionError(
                        f"no pending handshake for connection {conn}"
                    )
                _, handshake = pending
                handshake.complete(msg["client_flight"])
                self._shield.charge_handshake()
                self._sessions[conn] = (
                    handshake.record_layer,
                    handshake.peer_subject,
                )
                return _envelope("hs2_reply", conn=conn)
            if kind == "secure_call":
                conn = msg["conn"]
                session = self._sessions.get(conn)
                if session is None:
                    raise StaleConnectionError(f"unknown secure connection {conn}")
                records, peer = session
                declared = msg.get("declared_request")
                inner_raw = unprotect_timed(records, self._shield.stats, msg["record"])
                charge_record_crypto(
                    self._node.cost_model,
                    self._node.clock,
                    self._shield.stats,
                    declared if declared is not None else len(inner_raw),
                )
                inner = _open_envelope(inner_raw, "call")
                response = self._dispatch_call(inner, peer)
                reply = _envelope("reply", payload=response)
                declared_resp = msg.get("declared_response")
                charge_record_crypto(
                    self._node.cost_model,
                    self._node.clock,
                    self._shield.stats,
                    declared_resp if declared_resp is not None else len(reply),
                )
                return _envelope(
                    "secure_reply",
                    record=protect_timed(records, self._shield.stats, reply),
                )
            raise RpcError(f"unexpected envelope kind {kind!r}")
        except (ReproError, KeyError) as exc:
            return _envelope(
                "error",
                message=f"{type(exc).__name__}: {exc}",
                error=type(exc).__name__,
            )


class SecureConnection:
    """One established TLS session from a client to a secure server.

    With a retrying client, the session is *self-healing*: a transport
    fault, a desynced record layer, or a server restart triggers a full
    re-handshake (re-attested identity, fresh keys — charged via the
    shield's cost model) and the call is resent under its original call
    ID, which the server's dedup window makes at-most-once.
    """

    def __init__(
        self,
        client: "SecureRpcClient",
        dst: str,
        conn: int,
        records: RecordLayer,
        peer_subject: Optional[str],
        expected_server: Optional[str] = None,
        mutual: bool = True,
    ) -> None:
        self._client = client
        self._dst = dst
        self._conn = conn
        self._records = records
        self.peer_subject = peer_subject
        self._expected_server = expected_server
        self._mutual = mutual

    def _reconnect(self) -> None:
        with probe.span(
            self._client._node.clock,
            "rpc.reconnect",
            category="rpc",
            attrs={"dst": self._dst},
        ):
            conn, records, subject = self._client._handshake_once(
                self._dst, self._expected_server, self._mutual
            )
        self._conn = conn
        self._records = records
        self.peer_subject = subject
        self._client.stats.reconnects += 1

    def _send(
        self,
        inner: bytes,
        declared_request: Optional[int],
        declared_response: Optional[int],
    ) -> Completion:
        """Send half: charge the record crypto, protect ``inner`` under
        the session's current keys (consuming a send sequence number),
        write it to the wire."""
        client = self._client
        charge_record_crypto(
            client._node.cost_model,
            client._node.clock,
            client._shield.stats,
            declared_request if declared_request is not None else len(inner),
        )
        request = _envelope(
            "secure_call",
            conn=self._conn,
            record=protect_timed(self._records, client._shield.stats, inner),
            declared_request=declared_request,
            declared_response=declared_response,
        )
        return client._send(self._dst, request, declared_request, declared_response)

    def _receive(self, sent: Completion, declared_response: Optional[int]) -> bytes:
        """Receive half: park for the reply record, verify and open it."""
        client = self._client
        msg = _open_envelope(client._receive(sent, declared_response), "secure_reply")
        try:
            reply_raw = unprotect_timed(self._records, client._shield.stats, msg["record"])
        except IntegrityError:
            client._network.stats.tampered_detected += 1
            raise
        charge_record_crypto(
            client._node.cost_model,
            client._node.clock,
            client._shield.stats,
            declared_response if declared_response is not None else len(reply_raw),
        )
        return _open_envelope(reply_raw, "reply")["payload"]

    def _healing(self, half: Callable[..., T], *args: object) -> T:
        """Run one half of an attempt.  If it fails under a retrying
        client, the session may be dead (server restarted) or desynced (a
        record was lost or mangled in flight, or a send sequence number
        was spent on a write that never left): TLS cannot resume a
        broken stream, so establish a fresh session before the retry
        loop resends under the same call ID."""
        try:
            return half(*args)
        except (RpcTransportError, StaleConnectionError, IntegrityError) as exc:
            if self._client._executor is None:
                raise  # no retry loop to heal the session for
            self._try_reconnect()
            if isinstance(exc, IntegrityError):
                raise StaleConnectionError(
                    f"secure session to {self._dst!r} failed verification; "
                    "re-established"
                ) from exc
            raise

    def begin_call(
        self,
        method: str,
        payload: bytes,
        declared_request: Optional[int] = None,
        declared_response: Optional[int] = None,
        deadline: Optional[float] = None,
    ) -> PendingRpc:
        """Issue the send half of a secure call; settle the reply later.

        The inner envelope is protected and written to the wire now (on
        this caller's clock), so back-to-back ``begin_call``s to
        different shards overlap their transfers.  Each secure session
        carries at most one record in flight here, which keeps the
        record layer's sequence numbers aligned however the replies
        interleave on the heap.
        """
        client = self._client
        inner = client._call_envelope(method, payload, deadline)
        return client._begin(
            self._dst,
            lambda: self._healing(
                self._send, inner, declared_request, declared_response
            ),
            lambda sent: self._healing(self._receive, sent, declared_response),
            deadline,
        )

    def call(
        self,
        method: str,
        payload: bytes,
        declared_request: Optional[int] = None,
        declared_response: Optional[int] = None,
        deadline: Optional[float] = None,
    ) -> bytes:
        """A blocking secure RPC: :meth:`begin_call`, settled at once."""
        with probe.span(
            self._client._node.clock,
            "rpc.call",
            category="rpc",
            attrs={"dst": self._dst, "method": method, "secure": True},
        ):
            return self.begin_call(
                method, payload, declared_request, declared_response, deadline
            ).settle()

    def _try_reconnect(self) -> None:
        try:
            self._reconnect()
        except RpcError:
            # Transport still down; the retry loop will back off and the
            # next attempt re-triggers reconnection.  Security failures
            # (bad certificate, tampered handshake) propagate.
            pass


class SecureRpcClient(RpcClient):
    """RPC caller that establishes network-shield TLS sessions."""

    def __init__(
        self,
        network: Network,
        address: str,
        node: Node,
        shield: NetworkShield,
        retry: Optional[RetryPolicy] = None,
        breakers: Optional[BreakerRegistry] = None,
    ) -> None:
        super().__init__(
            network,
            address,
            node,
            retry=retry,
            breakers=breakers,
            syscalls=shield.syscalls,
        )
        self._shield = shield

    def _handshake_once(
        self,
        dst: str,
        expected_server: Optional[str],
        mutual: bool,
    ) -> Tuple[int, RecordLayer, Optional[str]]:
        """One full TLS handshake with ``dst`` (fresh state each time)."""
        with probe.span(
            self._node.clock, "tls.handshake", category="crypto", attrs={"dst": dst}
        ):
            handshake = self._shield.client_handshake(
                expected_server=expected_server,
                mutual=mutual,
                now=self._node.clock.now,
            )
            hs1 = _envelope("hs1", hello=handshake.hello())
            self._syscalls.socket_send(len(hs1))
            raw = self._network.call(self.address, self._node.clock, dst, hs1)
            self._syscalls.socket_recv(len(raw))
            msg = _open_envelope(raw, "hs1_reply")
            client_flight = handshake.finish(msg["flight"])
            hs2 = _envelope("hs2", conn=msg["conn"], client_flight=client_flight)
            self._syscalls.socket_send(len(hs2))
            raw = self._network.call(self.address, self._node.clock, dst, hs2)
            self._syscalls.socket_recv(len(raw))
            _open_envelope(raw, "hs2_reply")
            self._shield.charge_handshake()
            return msg["conn"], handshake.record_layer, handshake.peer_subject

    def connect(
        self,
        dst: str,
        expected_server: Optional[str] = None,
        mutual: bool = True,
    ) -> SecureConnection:
        """Run the TLS handshake with ``dst`` and return the session.

        With a retry policy, a handshake interrupted by loss or a
        transient partition is restarted from ``hs1`` with fresh state
        after backoff (abandoned server-side state expires).
        """
        if self._executor is None:
            conn, records, subject = self._handshake_once(dst, expected_server, mutual)
        else:
            conn, records, subject = self._executor.run(
                dst, lambda: self._handshake_once(dst, expected_server, mutual)
            )
        return SecureConnection(
            self,
            dst,
            conn,
            records,
            subject,
            expected_server=expected_server,
            mutual=mutual,
        )
