"""RPC over the simulated network — plain and network-shield-protected.

Plain RPC (:class:`RpcServer`/:class:`RpcClient`) is what *native*
TensorFlow uses: canonical-encoded envelopes in cleartext, readable and
forgeable by the Dolev-Yao adversary.  Secure RPC layers the network
shield's TLS session over the same transport: a two-step handshake
(carried as plain RPCs, as TLS handshakes are), then AEAD-protected
records per call.  The paper's Fig. 8 contrast "with/without network
shield" is exactly the choice between these two stacks.

Every client call takes one path, and every wait on it is a ``yield``
(an *activity*, see :mod:`repro._sim.scheduler`): ``begin_call`` builds
the call envelope (:meth:`RpcClient._call_envelope`, the only place one
is built), runs attempt 1's *send half* and returns the activity that
settles the call: the *receive half* — and, for a retrying client, the
rest of the executor's loop, a fresh send + receive per retry.
``request`` is ``begin_call`` settled at once under an ``rpc.call``
span, so a single call and a fanned-out one differ only in what the
caller does between the two halves; ``call`` drives ``request`` for
synchronous code outside the simulation.  Each transport is those two
halves: plain is socket write + wire / reply + socket read; the shielded
client overrides just them, sealing the envelope under its session to
the destination and opening the reply record, so a shielded caller
calls with the same signatures as a plain one — the shield is a
constructor choice plus one ``open(dst)`` handshake.  A caller that runs
its attempts itself (the serving router) takes the plain halves without
an activity: :meth:`RpcClient.send` builds the same envelope and runs
the same send half, returning the completion the reply lands on, and
:meth:`RpcClient.receive` — the receive half the activity path runs
too — reads the reply when the caller's waiter settles the attempt.

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
  and the cached reply is returned.  The window's age bound is derived
  from :data:`~repro.cluster.retry.RETRY_HORIZON`, the longest any
  client resends one call ID.
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
- **Transparent secure-session reconnect**: a retrying
  :class:`SecureRpcClient` whose session hits a transport fault or a
  restarted server re-runs the full TLS handshake (charged through the
  shield's cost model) and resends under the same call ID — replay-safe
  because of the dedup window.
"""

from __future__ import annotations

import itertools
from collections import OrderedDict
from typing import Any, Callable, Dict, Generator, NamedTuple, Optional, Tuple

import repro.errors as _errors
from repro._sim import probe
from repro._sim.scheduler import Activity, Completion
from repro.cluster.dedup import DedupWindow
from repro.cluster.epoch import EpochGuard, EpochLease
from repro.cluster.network import Network
from repro.cluster.node import Node
from repro.cluster.retry import (
    RETRY_HORIZON,
    BreakerRegistry,
    RecoveryStats,
    RetryPolicy,
    RetryingExecutor,
)
from repro.crypto import encoding
from repro.crypto.certs import session_scope
from repro.crypto.tls import RecordLayer
from repro.errors import (
    AttestationError,
    IntegrityError,
    ReproError,
    RpcError,
    RpcTransportError,
    StaleConnectionError,
)
from repro.runtime import stats_registry
from repro.runtime.syscall import SyscallInterface
from repro.runtime.net_shield import NetworkShield, ServerHandshake

#: method handler: fn(payload_bytes, peer_subject) -> response_bytes, or
#: a Completion resolving with them (a *deferred* reply: the handler
#: waits for work of its own — e.g. a quorum call, or a serving
#: router's replica attempts — on the heap).  A handler that needs more
#: of its call than the payload (the caller's deadline, the call ID)
#: reads :attr:`RpcServer.current_call` while it runs.
MethodHandler = Callable[[bytes, Optional[str]], object]

#: A secure call's failures that may mean a dead or desynced session.
_HEALABLE = (RpcTransportError, StaleConnectionError, IntegrityError)

#: Known error types a remote error envelope may name.
_ERROR_TYPES = {
    name: obj
    for name, obj in vars(_errors).items()
    if isinstance(obj, type) and issubclass(obj, ReproError)
}

def _envelope(kind: str, **fields: object) -> bytes:
    return encoding.encode({"kind": kind, **fields})


def _error_envelope(exc: BaseException) -> bytes:
    return _envelope(
        "error", message=f"{type(exc).__name__}: {exc}", error=type(exc).__name__
    )


def _now(value: Any = None, error: Optional[BaseException] = None) -> Activity:
    """An activity that finishes at once: with ``value``, or raising
    ``error`` (a plain socket write never waits; a failed one is the
    attempt's outcome)."""
    if error is not None:
        raise error
    return value
    yield  # unreachable: makes this a generator


def _settled(clock, attrs: dict, begin: Activity) -> Activity:
    """A ``begin_call`` activity, settled at once, under an ``rpc.call`` span."""
    with probe.span(clock, "rpc.call", category="rpc", attrs=attrs):
        settle = yield from begin
        return (yield from settle)


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


class RpcServer:
    """Cleartext RPC endpoint with an at-most-once dedup window.

    ``node`` is where the endpoint runs: a :class:`~repro.cluster.node
    .Node`, or a :class:`~repro.cluster.node.Core` of one (a serving
    endpoint pinned to its own core).  The endpoint's handler runs on
    its ``clock`` and its socket I/O is charged to its ``syscalls``.
    """

    #: Bounds of the (call ID → cached reply) dedup window.  A call ID is
    #: deduplicated for as long as any copy of it can still arrive: the
    #: first execution comes after the call started, every resend leaves
    #: within ``RETRY_HORIZON`` of that start, and the second horizon
    #: covers a duplicate of the last resend still in flight.
    DEDUP_CAPACITY = 1024
    DEDUP_TTL = 2 * RETRY_HORIZON  # sim-seconds

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
        #: delivery time (enclave plane for shielded servers, the host
        #: interface of its node or core otherwise).
        self._syscalls = syscalls if syscalls is not None else node.syscalls
        self._methods: Dict[str, MethodHandler] = {}
        self._started = False
        self.stats = RecoveryStats()
        stats_registry.register("recovery", self.stats, node.clock)
        #: call ID → cached reply.  Public because a stateful service
        #: checkpoints it together with its own state (``ParameterServer``).
        self.dedup = DedupWindow(self.DEDUP_CAPACITY, self.DEDUP_TTL, stats=self.stats)
        #: call ID → the enveloped reply of a deferred call still pending:
        #: a duplicate of it waits on that same reply.
        self._replies: Dict[str, Completion] = {}
        #: The call envelope whose handler is running (None between
        #: calls): its ``deadline``, ``call_id`` and ``fence``.
        self.current_call: Optional[dict] = None
        #: Acceptor-side fencing guards, one per leader role this
        #: endpoint accepts writes from (see :meth:`add_guard`).
        self._guards: Dict[str, EpochGuard] = {}
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

    def _dispatch_call(self, msg: dict, peer: Optional[str]) -> bytes:
        """Dispatch one call envelope with at-most-once semantics.

        The envelope's propagated trace context (if any) parents the
        handler span, linking the client's call span on its node to the
        server work on this one — one trace ID across the cluster.
        """
        if probe.SINK is None:
            return self._dispatch_call_inner(msg, peer)
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
        fence = msg.get("fence")
        if not isinstance(fence, dict):
            fence = None
        for role, guard in self._guards.items():
            if fence is not None and fence.get("role") == role:
                epoch = fence.get("epoch")
                guard.check(epoch if isinstance(epoch, int) else None)
            else:
                guard.check(None)

    def _dispatch_call_inner(self, msg: dict, peer: Optional[str]) -> object:
        """The reply payload, or a Completion resolving with the enveloped
        reply (a deferred call, or a duplicate of one still pending)."""
        call_id = msg.get("call_id")
        now = self._node.clock.now
        if call_id is not None:
            hit = self.dedup.get(call_id, now)
            if hit is None:
                hit = self._replies.get(call_id)
            if hit is not None:
                self.stats.dedup_hits += 1
                if isinstance(hit, Exception):
                    raise hit  # a deferred call's recorded typed error
                return hit
        # Fencing before deadline/dispatch (but after dedup replay: a
        # cached reply is work that already committed under a then-valid
        # epoch, and replaying it executes nothing).
        if self._guards:
            self._check_fence(msg)
        deadline = msg.get("deadline")
        if isinstance(deadline, (int, float)) and now > deadline:
            # Server-side shed of already-expired work: the caller's
            # budget ran out while this request sat on the wire or in
            # queue — executing it would burn enclave time on a reply
            # nobody is waiting for.  (A dedup hit above still replays
            # its cached reply: the work already happened.)
            self.stats.shed_expired += 1
            raise _errors.DeadlineExceededError(
                f"request deadline {deadline:.6f} expired at "
                f"{self.address!r} (now {now:.6f})"
            )
        method = msg["method"]
        handler = self._methods.get(method)
        if handler is None:
            raise RpcError(f"unknown method {method!r} at {self.address!r}")
        self.current_call = msg
        try:
            response = handler(msg["payload"], peer)
        finally:
            self.current_call = None
        if isinstance(response, Completion):
            return self._replying(call_id, response)
        return self._commit(call_id, now, response)

    def _commit(self, call_id: Optional[str], now: float, response: bytes) -> bytes:
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

    def _replying(self, call_id: Optional[str], deferred: Completion) -> Completion:
        """The enveloped reply of a deferred call (a handler's
        :class:`Completion`), committed once that resolves.  Until then a
        duplicate of the call waits on this same reply; a typed error the
        call settles with is recorded like a reply, so a resend replays
        the error instead of running the handler again."""
        reply = Completion(f"reply:{self.address}")

        def settle(done: Completion) -> None:
            self._replies.pop(call_id, None)
            now = self._node.clock.now
            try:
                if done.error is not None:
                    raise done.error
                payload = self._commit(call_id, now, done.value)
                envelope = _envelope("reply", payload=payload)
            except (ReproError, KeyError) as exc:
                if exc is done.error and call_id is not None:
                    self.dedup.put(call_id, now, exc)
                envelope = _error_envelope(exc)
            except Exception as exc:  # not a typed outcome: the caller's leg fails
                reply.fail(exc)
                return
            reply.resolve(envelope)

        if call_id is not None and not deferred.done:
            self._replies[call_id] = reply
        deferred.add_waiter(settle)
        return reply

    def _handle(self, request: bytes):
        try:
            msg = _open_envelope(request, "call")
            response = self._dispatch_call(msg, None)
        except (ReproError, KeyError) as exc:
            return _error_envelope(exc)
        if isinstance(response, Completion):
            return response  # enveloped when the deferred call settles
        return _envelope("reply", payload=response)


class RpcClient:
    """Cleartext RPC caller (optionally retrying with backoff).

    ``node`` is where the caller runs, as for :class:`RpcServer`: a node,
    or a core — one whose ``syscalls`` is None (closed-loop clients
    outside the cluster) charges nothing for its socket I/O.  ``retry``
    is a policy, run by an executor on ``node``'s clock and RNG, or an
    executor the caller already runs its calls under (its breakers and
    counters then serve this client).
    """

    #: The network shield this client's calls travel under (None: cleartext).
    _shield: Optional[NetworkShield] = None

    def __init__(
        self,
        network: Network,
        address: str,
        node: Node,
        retry: Optional[RetryPolicy | RetryingExecutor] = None,
        breakers: Optional[BreakerRegistry] = None,
        syscalls: Optional[SyscallInterface] = None,
    ) -> None:
        self._network = network
        self.address = address
        self._node = node
        self._syscalls = syscalls if syscalls is not None else node.syscalls
        self.stats = RecoveryStats()
        #: When set (an :class:`~repro.cluster.epoch.EpochLease`), every
        #: call envelope carries this lease's role + epoch.  The stamp is
        #: the lease's *cached* epoch — a fenced zombie keeps stamping
        #: its dead epoch, and the acceptor's guard is what says no.
        self.fence: Optional[EpochLease] = None
        self._executor: Optional[RetryingExecutor] = None
        if isinstance(retry, RetryingExecutor):
            self._executor = retry
            self.stats = retry.stats
        elif retry is not None:
            stats_registry.register("recovery", self.stats, node.clock)
            self._executor = RetryingExecutor(
                retry,
                node.clock,
                node.rng.child(f"retry|{address}"),
                network.scheduler,
                breakers=breakers or BreakerRegistry(stats=self.stats),
                stats=self.stats,
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
        self,
        method: str,
        payload: bytes,
        deadline: Optional[float],
        stamped: bool = False,
    ) -> bytes:
        """The one ``call`` envelope: method + payload, stamped with a
        dedup call ID (retrying clients and ``stamped`` sends — every
        resend of this call carries the same bytes), the caller's
        deadline, the open span's trace context and the client's fencing
        epoch."""
        fields: Dict[str, object] = {"kind": "call", "method": method, "payload": payload}
        if stamped or self._executor is not None:
            fields["call_id"] = self.next_call_id()
        if deadline is not None:
            fields["deadline"] = deadline
        if probe.SINK is not None:
            # The innermost open span's context; none (so the envelope is
            # byte-identical to an untraced build) when no span is open.
            context = probe.SINK.current_context(self._node.clock)
            if context is not None:
                fields["trace"] = context
        if self.fence is not None:
            fields["fence"] = self.fence.stamp()
        return encoding.encode(fields)

    def _begin(
        self,
        dst: str,
        send: Callable[[], Activity],
        receive: Callable[[Completion], Activity],
        deadline: Optional[float],
    ) -> Generator[Completion, Any, Activity]:
        """Run attempt 1's ``send`` now; the activity settling the call.
        A send that failed is that attempt's outcome and surfaces when
        the call settles, not here."""
        if self._executor is not None:
            return (yield from self._executor.begin(dst, send, receive, deadline))
        try:
            sent = yield from send()
        except (RpcTransportError, StaleConnectionError) as exc:
            return _now(error=exc)
        return receive(sent)

    def _post(
        self,
        dst: str,
        request: bytes,
        declared_request: Optional[int],
        declared_response: Optional[int],
    ) -> Completion:
        """Send half: the caller's socket write goes through its own
        syscall plane (fire-and-forget submission), then the request is
        on the wire and its reply event parked on the heap; the wire
        completion.  A send-time failure raises here."""
        if self._syscalls is not None:
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

    def _send(
        self,
        dst: str,
        request: bytes,
        declared_request: Optional[int],
        declared_response: Optional[int],
    ) -> Activity:
        """The send half of :meth:`begin_call`: :meth:`_post` as an
        activity that never waits."""
        return self._post(dst, request, declared_request, declared_response)
        yield  # unreachable: makes this an activity

    def receive(
        self,
        raw: bytes,
        declared_response: Optional[int] = None,
        kind: str = "reply",
        field: str = "payload",
    ) -> Any:
        """Receive half, once the reply ``raw`` has landed: charge its
        read, open its ``kind`` envelope; the envelope's ``field`` (a
        remote error is raised as its typed exception)."""
        if self._syscalls is not None:
            self._syscalls.socket_recv(
                declared_response if declared_response is not None else len(raw)
            )
        return _open_envelope(raw, kind)[field]

    def _receive(
        self, dst: str, sent: Completion, declared_response: Optional[int]
    ) -> Activity:
        """The receive half of :meth:`begin_call`: :meth:`receive` as an
        activity that waits for the reply first."""
        return self.receive((yield sent), declared_response)

    def send(
        self, dst: str, method: str, payload: bytes, deadline: Optional[float] = None
    ) -> Completion:
        """One call of a caller that runs its attempts itself (a serving
        router), outside any activity: the send half now — the call
        envelope stamped with a fresh call ID, so the server's window
        absorbs a duplicated delivery — and the completion the raw reply
        lands on.  Its waiter settles the call: :meth:`receive` on the
        value, or the error (a send-time failure comes back this way
        too).  No executor runs it: no retry, no breaker."""
        request = self._call_envelope(method, payload, deadline, stamped=True)
        try:
            return self._post(dst, request, None, None)
        except Exception as exc:  # the attempt's outcome, as on the activity path
            failed = Completion(f"send:{dst}")
            failed.fail(exc)
            return failed

    def begin_call(
        self,
        dst: str,
        method: str,
        payload: bytes,
        declared_request: Optional[int] = None,
        declared_response: Optional[int] = None,
        deadline: Optional[float] = None,
    ) -> Generator[Completion, Any, Activity]:
        """Issue an RPC's send half now (an activity returning the
        activity that settles the call); settle it later.  ``deadline``
        (absolute simulated seconds) is stamped into the call envelope
        so the server can shed the request if it arrives already
        expired, and bounds this client's retry loop to the same budget.
        Several pending calls issued back-to-back share the caller's
        send timestamp, overlapping their transfers (this is how
        training fans out per-shard traffic).
        """
        request = self._call_envelope(method, payload, deadline)
        return (yield from self._begin(
            dst,
            lambda: self._send(dst, request, declared_request, declared_response),
            lambda sent: self._receive(dst, sent, declared_response),
            deadline,
        ))

    def request(self, dst: str, method: str, payload: bytes, **options) -> Activity:
        """One RPC as an activity: :meth:`begin_call` (same options),
        settled at once."""
        attrs = {"dst": dst, "method": method}
        if self._shield is not None:
            attrs["secure"] = True
        return _settled(
            self._node.clock, attrs, self.begin_call(dst, method, payload, **options)
        )

    def call(self, *args, **kwargs) -> bytes:
        """A blocking RPC, for synchronous code outside the simulation:
        :meth:`request` (same arguments), driven to its reply."""
        return self._network.scheduler.drive(self.request(*args, **kwargs))


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

    def _handle(self, request: bytes) -> object:
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
                inner_raw = self._shield.open(
                    records, msg["record"], msg.get("declared_request")
                )
                inner = _open_envelope(inner_raw, "call")
                response = self._dispatch_call(inner, peer)
                if isinstance(response, Completion):
                    return self._sealing(records, msg, response)
                return self._seal(records, msg, _envelope("reply", payload=response))
            raise RpcError(f"unexpected envelope kind {kind!r}")
        except (ReproError, KeyError) as exc:
            return _error_envelope(exc)

    def _seal(self, records: RecordLayer, msg: dict, reply: bytes) -> bytes:
        """Seal an enveloped ``reply`` to the secure call ``msg`` under
        its session's keys."""
        record = self._shield.seal(records, reply, msg.get("declared_response"))
        return _envelope("secure_reply", record=record)

    def _sealing(self, records: RecordLayer, msg: dict, reply: Completion) -> Completion:
        """A deferred call's secure reply: its enveloped ``reply``,
        sealed when it settles.  A typed error it settles with travels in
        the clear, as a synchronous one does."""
        sealed = Completion(f"secure_reply:{self.address}")

        def settle(done: Completion) -> None:
            if done.error is not None:
                sealed.fail(done.error)
            elif encoding.decode(done.value)["kind"] == "error":
                sealed.resolve(done.value)
            else:
                sealed.resolve(self._seal(records, msg, done.value))

        reply.add_waiter(settle)
        return sealed


class _Session(NamedTuple):
    """One established TLS session, and what re-establishing it needs."""

    conn: int
    records: RecordLayer
    peer_subject: Optional[str]
    expected_server: Optional[str]
    mutual: bool


class SecureRpcClient(RpcClient):
    """RPC caller behind the network shield: one TLS session per
    destination, established by :meth:`open`.

    Calls take :class:`RpcClient`'s signatures; only the two transport
    halves differ, and the unsealed :meth:`send` is refused.  With a retrying client a session is *self-healing*:
    a transport fault, a desynced record layer, or a server restart
    triggers a full re-handshake (re-attested identity, fresh keys —
    charged via the shield's cost model) and the call is resent under
    its original call ID, which the server's dedup window makes
    at-most-once.  Each session carries at most one record in flight
    here, which keeps the record layer's sequence numbers aligned
    however the replies interleave on the heap.
    """

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
        self._sessions: Dict[str, _Session] = {}

    def _handshake_once(
        self,
        dst: str,
        expected_server: Optional[str],
        mutual: bool,
    ) -> Generator[Completion, Any, _Session]:
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
            raw = yield self._network.call_async(
                self.address, self._node.clock, dst, hs1
            )
            self._syscalls.socket_recv(len(raw))
            msg = _open_envelope(raw, "hs1_reply")
            client_flight = handshake.finish(msg["flight"])
            hs2 = _envelope("hs2", conn=msg["conn"], client_flight=client_flight)
            self._syscalls.socket_send(len(hs2))
            raw = yield self._network.call_async(
                self.address, self._node.clock, dst, hs2
            )
            self._syscalls.socket_recv(len(raw))
            _open_envelope(raw, "hs2_reply")
            self._shield.charge_handshake()
            return _Session(
                msg["conn"],
                handshake.record_layer,
                handshake.peer_subject,
                expected_server,
                mutual,
            )

    def open(
        self,
        dst: str,
        expected_server: Optional[str] = None,
        mutual: bool = True,
    ) -> Generator[Completion, Any, Optional[str]]:
        """Run the TLS handshake with ``dst`` and keep the session for
        every later call to ``dst``; the peer's certificate subject (an
        activity).

        With a retry policy, a handshake interrupted by loss or a
        transient partition is restarted from ``hs1`` with fresh state
        after backoff (abandoned server-side state expires).
        """
        if self._executor is None:
            session = yield from self._handshake_once(dst, expected_server, mutual)
        else:
            settle = yield from self._executor.begin(
                dst, _now, lambda _: self._handshake_once(dst, expected_server, mutual)
            )
            session = yield from settle
        self._sessions[dst] = session
        return session.peer_subject

    def _reconnect(self, dst: str) -> Activity:
        """A fresh handshake with ``dst``; the peer must be of the CAS
        session (:func:`~repro.crypto.certs.session_scope`) the session
        last reached."""
        old = self._sessions[dst]
        with probe.span(
            self._node.clock, "rpc.reconnect", category="rpc", attrs={"dst": dst}
        ):
            session = yield from self._handshake_once(
                dst, old.expected_server, old.mutual
            )
        scope = session_scope(old.peer_subject)
        if not (session.peer_subject or "").startswith(scope):
            raise AttestationError(
                f"{dst!r} is now {session.peer_subject!r}, outside {scope!r}"
            )
        self._sessions[dst] = session
        self.stats.reconnects += 1

    def _heal(self, dst: str, exc: Exception) -> Activity:
        """After one half of an attempt failed with ``exc``: under a
        retrying client the session may be dead (server restarted) or
        desynced (a record was lost or mangled in flight, or a send
        sequence number was spent on a write that never left).  TLS
        cannot resume a broken stream, so establish a fresh session
        before the retry loop resends under the same call ID; then raise
        the attempt's failure."""
        if self._executor is None:
            raise exc  # no retry loop to heal the session for
        try:
            yield from self._reconnect(dst)
        except RpcError:
            # Transport still down; the retry loop will back off and the
            # next attempt re-triggers reconnection.  Security failures
            # (bad certificate, tampered handshake) propagate.
            pass
        if isinstance(exc, IntegrityError):
            raise StaleConnectionError(
                f"secure session to {dst!r} failed verification; re-established"
            ) from exc
        raise exc

    def send(
        self, dst: str, method: str, payload: bytes, deadline: Optional[float] = None
    ) -> Completion:
        """Refused: :meth:`RpcClient.send` writes a cleartext call
        envelope, so a shielded caller gets a failed completion before
        any byte is written."""
        failed = Completion(f"send:{dst}")
        failed.fail(RpcError(
            f"no sealed send() to {dst!r}: a shielded call goes through "
            f"begin_call / request / call"
        ))
        return failed

    def _send(
        self,
        dst: str,
        inner: bytes,
        declared_request: Optional[int],
        declared_response: Optional[int],
    ) -> Activity:
        """Send half: seal the call envelope ``inner`` under ``dst``'s
        session keys (consuming a send sequence number), write it to the
        wire.  A destination without a session fails before any byte is
        sent."""
        session = self._sessions.get(dst)
        if session is None:
            raise RpcError(f"no secure session to {dst!r}: open() it first")
        try:
            request = _envelope(
                "secure_call",
                conn=session.conn,
                record=self._shield.seal(session.records, inner, declared_request),
                declared_request=declared_request,
                declared_response=declared_response,
            )
            return self._post(dst, request, declared_request, declared_response)
        except _HEALABLE as exc:
            yield from self._heal(dst, exc)

    def _receive(
        self, dst: str, sent: Completion, declared_response: Optional[int]
    ) -> Activity:
        """Receive half: wait for the reply record, verify and open it
        under ``dst``'s session keys."""
        try:
            raw = yield sent
            record = self.receive(raw, declared_response, "secure_reply", "record")
            reply = self._shield.open(
                self._sessions[dst].records, record, declared_response
            )
            return _open_envelope(reply, "reply")["payload"]
        except _HEALABLE as exc:
            yield from self._heal(dst, exc)
