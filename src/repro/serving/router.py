"""The front-end router: one admitted request → exactly one outcome.

The router is an :class:`~repro.cluster.rpc.RpcServer` with one
``infer`` method, whose handler returns a **deferred reply** (a
:class:`~repro._sim.scheduler.Completion`): the client parks on the
network's reply leg while the router, entirely event-driven,
dispatches the request to a replica, hedges it, retries it, or expires
it.  Toward the replicas it is an :class:`~repro.cluster.rpc.RpcClient`:
each attempt is one :meth:`~repro.cluster.rpc.RpcClient.send` carrying
the client's payload as the envelope's opaque bytes, stamped with a
call ID, the request's deadline and the router's routing epoch, and
settled from a waiter on the completion its reply lands on (the receive
runs there) — no activity, no retry loop: the router picks the next
replica itself.  The state machine per admitted request:

::

    arrive ── admission ──> pending ──┬── replica ok ────────> settle(ok)
      │           │                   ├── typed replica error > settle(err)
      │           └─ shed ──> OverloadError (raised, never queued)
      │                               ├── transport failure ──> retry
      ├─ deadline already past ──────>│    (different replica, while
      │     DeadlineExceededError     │     budget and replicas remain;
      │     (the server's shed)       │     else settle(that failure))
      │                               ├── hedge entry (p99-derived) due:
      │                               │     second attempt, first reply
      │                               │     wins, loser counted late
      │                               └── deadline entry due ─> settle(
      │                                     DeadlineExceededError)
      └─ duplicate call ID ──> the server's window: the recorded outcome,
                               or the same pending reply

A request's deadline and hedge are entries in the router's own small
heap, keyed ``(due, admission order)`` — deadline before hedge — under
**one** heap event armed at the earliest live entry.  A settled
request's entries are dropped lazily: unfired, leaving the router's
clock alone.  Same-instant entries fire in the order their own heap
events would have had.

``settle`` runs **exactly once** per request — an idempotent guard
makes late replies observational only, and the Completion's own
resolve-twice error is the hard backstop.  Every admitted request is
therefore accounted for: ``admitted == ok + typed failures``, an
invariant the chaos tests assert.

Per-replica circuit breakers (:class:`~repro.cluster.retry
.BreakerRegistry`) gate routing: the router asks one before each pick
and feeds it where the attempt settles — a transport failure is a
failure, a reply a success, a typed refusal neither.  Their state
census reaches ``collect_metrics`` through the same
:class:`RecoveryStats` channel as every other endpoint's.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from heapq import heappop, heappush
from typing import Callable, Dict, List, Optional, Tuple

from repro._sim import probe
from repro._sim.clock import SimClock
from repro._sim.scheduler import Completion, Event, Scheduler
from repro.cluster.epoch import EpochLease
from repro.cluster.network import Network
from repro.cluster.node import Node
from repro.cluster.retry import (
    BreakerRegistry,
    CircuitBreaker,
    RecoveryStats,
    is_retryable,
)
from repro.cluster.rpc import RpcClient, RpcServer
from repro.errors import (
    DeadlineExceededError,
    FencingError,
    OverloadError,
    RpcError,
    RpcTransportError,
    UpstreamTransportError,
)
from repro.observability.metrics import WindowedHistogram
from repro.runtime import stats_registry
from repro.serving.admission import AdmissionController
from repro.serving.scoreboard import ReplicaScoreboard

#: Sliding window of request latencies feeding the hedge delay (its
#: p99) and the autoscaler's SLO.
LATENCY_WINDOW = 256


@dataclass(frozen=True)
class RouterPolicy:
    """Routing, hedging, and retry knobs of the front end."""

    #: Max queued + executing requests per replica (the bounded queue).
    per_replica_limit: int = 8
    #: Max replicas one request may be attempted on (first try included).
    max_attempts: int = 3
    #: Hedging: issue a second attempt when the first has been out for
    #: the window-p99 latency (never sooner than ``hedge_min_delay``).
    hedge: bool = True
    hedge_min_delay: float = 0.05


@dataclass
class RouterStats:
    """Every admitted request lands in exactly one terminal counter."""

    completed_ok: int = 0
    failed_deadline: int = 0
    failed_transport: int = 0
    failed_other: int = 0
    retries: int = 0
    hedges_fired: int = 0
    hedges_won: int = 0
    late_replies: int = 0
    #: The router's ``RpcServer`` counters (its at-most-once window).
    server: RecoveryStats = field(default_factory=RecoveryStats)

    @property
    def dedup_replays(self) -> int:
        """Client resends and duplicates answered from the window."""
        return self.server.dedup_hits

    @property
    def terminal(self) -> int:
        return (
            self.completed_ok
            + self.failed_deadline
            + self.failed_transport
            + self.failed_other
        )


class _PendingRequest:
    """One admitted request's in-router state."""

    __slots__ = (
        "request_id",
        "payload",
        "deadline",
        "admitted_at",
        "completion",
        "tried",
        "outstanding",
        "settled",
        "hedge_addresses",
    )

    def __init__(
        self,
        request_id: str,
        payload: bytes,
        deadline: Optional[float],
        admitted_at: float,
    ) -> None:
        self.request_id = request_id
        self.payload = payload
        self.deadline = deadline
        self.admitted_at = admitted_at
        self.completion = Completion(f"serve:{request_id}")
        self.tried: List[str] = []
        self.outstanding = 0
        self.settled = False
        self.hedge_addresses: List[str] = []


#: A request's deadline or hedge: ``(due, order, fire, request)``.
_TimerEntry = Tuple[float, int, Callable[[_PendingRequest], None], _PendingRequest]


class FrontEndRouter:
    """The serving plane's front door: an endpoint on a core of ``node``
    (forwarding takes microseconds and must not queue behind a replica
    placed on the same machine), held until :meth:`close`."""

    def __init__(
        self,
        network: Network,
        node: Node,
        address: str,
        scoreboard: ReplicaScoreboard,
        admission: AdmissionController,
        policy: Optional[RouterPolicy] = None,
        breaker_failure_threshold: int = 3,
        breaker_reset_timeout: float = 1.0,
    ) -> None:
        self.network = network
        self.node = node
        self.address = address
        self.scoreboard = scoreboard
        self.admission = admission
        self.policy = policy if policy is not None else RouterPolicy()
        #: Per-replica breakers; census + trip counters flow into
        #: ``collect_metrics`` via the standard recovery-stats channel.
        self.recovery = RecoveryStats()
        stats_registry.register("recovery", self.recovery, node.clock)
        self.breakers = BreakerRegistry(
            failure_threshold=breaker_failure_threshold,
            reset_timeout=breaker_reset_timeout,
            stats=self.recovery,
        )
        self.latency = WindowedHistogram(
            f"{address}.latency", window=LATENCY_WINDOW
        )
        self._pending: Dict[_PendingRequest, None] = {}
        #: Every request's deadline and hedge, a heap ordered as their
        #: own heap events would be (admission order, deadline before
        #: hedge), under one heap event armed at the earliest live entry
        #: (:meth:`_arm`).
        self._timers: List[_TimerEntry] = []
        self._timer_order = itertools.count()
        self._timer: Optional[Event] = None
        self._timer_label = f"timers:{address}"
        #: Decision log; :meth:`trace_bytes` canonicalizes it for the
        #: two-seeded-runs byte-identity check.
        self.events: List[str] = []
        self.scheduler: Scheduler = network.scheduler
        self._core = node.take_core(address)
        #: The router's own core clock: its handler, timers and socket
        #: charges run there.
        self.clock: SimClock = self._core.clock
        #: Toward clients: the ``infer`` endpoint, whose window answers
        #: a resent or duplicated request with its recorded outcome.
        self.server = RpcServer(network, address, self._core)
        self.server.register("infer", self._infer)
        self.stats = RouterStats(server=self.server.stats)
        #: Toward replicas: each attempt is one :meth:`RpcClient.send` —
        #: the router picks the next replica and feeds the breakers
        #: itself.
        self._client = RpcClient(network, address, self._core)
        self.server.start()

    @property
    def fence(self) -> Optional[EpochLease]:
        """Routing-epoch lease (set by the serving plane when fencing is
        on), stamped into every replica dispatch.  A router that has
        been superseded keeps stamping its *stale* epoch — which is
        exactly what lets the replica-side guards fence it."""
        return self._client.fence

    @fence.setter
    def fence(self, lease: Optional[EpochLease]) -> None:
        self._client.fence = lease

    def record(self, event: str) -> None:
        self.events.append(event)

    def trace_bytes(self) -> bytes:
        """Canonical decision trace (compared across seeded runs)."""
        return "\n".join(self.events).encode()

    # -- the infer method ------------------------------------------------

    def _infer(self, payload: bytes, peer: Optional[str]) -> Completion:
        """Admit one request (or raise its typed shed) and return its
        deferred reply.  The server has already answered duplicates
        from its window and shed a request that arrived past its
        deadline."""
        call = self.server.current_call
        request_id = call.get("call_id")
        deadline = call.get("deadline")
        now = self.clock.now
        self.admission.admit(now, self.scoreboard.has_capacity(self.policy.per_replica_limit))

        info = _PendingRequest(request_id, payload, deadline, now)
        self._pending[info] = None
        self.record(f"admit {request_id} @{now:.6f}")
        timers, order = self._timers, self._timer_order
        if deadline is not None:
            heappush(timers, (deadline, next(order), self._expire, info))
        if self.policy.hedge:
            delay = max(
                self.policy.hedge_min_delay,
                self.latency.percentile(99.0),
            )
            if deadline is None or now + delay < deadline:
                heappush(timers, (now + delay, next(order), self._hedge, info))
        self._arm()
        self._launch_attempt(info, hedge=False)
        return info.completion

    # -- attempts --------------------------------------------------------

    def _launch_attempt(
        self,
        info: _PendingRequest,
        hedge: bool,
        after: Optional[RpcTransportError] = None,
    ) -> None:
        """Dispatch one attempt to the best untried routable replica
        (``after``: the transport error this attempt is the retry of)."""
        if info.settled:
            return
        now = self.clock.now
        exclude = frozenset(info.tried)
        entry = None
        candidates_left = True
        while True:
            entry = self.scoreboard.pick(self.policy.per_replica_limit, exclude)
            if entry is None:
                candidates_left = False
                break
            breaker = self.breakers.get(entry.address)
            if breaker.allow(now):
                break
            self.recovery.breaker_rejections += 1
            exclude = exclude | {entry.address}
        if not candidates_left:
            # No replica to try: settle only if nothing is outstanding —
            # an earlier attempt may still come back with the answer.
            # A retry that finds nobody left died of its last transport
            # error; overload is a request that was never dispatched.
            if info.outstanding == 0 and not hedge:
                self._settle_error(
                    info,
                    after
                    if after is not None
                    else OverloadError(
                        f"no routable replica for {info.request_id!r} at "
                        f"t={now:.6f}"
                    ),
                )
            return

        address = entry.address
        info.tried.append(address)
        if hedge:
            info.hedge_addresses.append(address)
        self.scoreboard.on_dispatch(address)
        self.record(
            f"{'hedge' if hedge else 'dispatch'} {info.request_id} -> "
            f"{address} @{now:.6f}"
        )
        # A send-leg loss settles the attempt before send() returns,
        # same as a socket write failing under us.
        info.outstanding += 1
        self.recovery.calls += 1
        self.recovery.attempts += 1
        self._client.send(address, "infer", info.payload, info.deadline).add_waiter(
            lambda landed: self._on_attempt_done(info, address, breaker, landed)
        )

    def _on_attempt_done(
        self,
        info: _PendingRequest,
        address: str,
        breaker: CircuitBreaker,
        landed: Completion,
    ) -> None:
        """Settle one attempt from its reply's landing (or its send's
        failure): read the reply, feed ``address``'s breaker, then decide
        for the request."""
        error = landed.error
        if error is None:
            try:
                reply = self._client.receive(landed.value)
            except Exception as exc:  # a typed remote error, or a malformed reply
                error = exc
        if error is None:
            breaker.on_success()
        elif is_retryable(error):
            breaker.on_failure(self.clock.now)
            self.recovery.giveups += 1  # this replica's one attempt
            probe.flight(self.clock, "giveup", address, "attempts=1")
        elif isinstance(error, FencingError):
            self.recovery.fenced_calls += 1  # authoritative: never retried
            probe.flight(self.clock, "fenced", address, type(error).__name__)
        info.outstanding -= 1
        self.scoreboard.on_complete(address, ok=error is None)
        if error is not None:
            self._attempt_failed(info, address, error)
            return
        self.scoreboard.mark_healthy(address)
        if info.settled:
            self.stats.late_replies += 1
            self.record(f"late-reply {info.request_id} from {address}")
            return
        if address in info.hedge_addresses:
            self.stats.hedges_won += 1
        self.latency.observe(self.clock.now - info.admitted_at)
        self._settle_ok(info, reply)

    def _attempt_failed(
        self, info: _PendingRequest, address: str, error: BaseException
    ) -> None:
        transport = isinstance(error, RpcTransportError)
        if transport:
            self.scoreboard.mark_degraded(address)
        if info.settled:
            self.stats.late_replies += 1
            return
        if not transport:
            # A typed remote error (replica-side deadline shed, replica
            # overload, an application failure): authoritative — the
            # replica *answered*; retrying elsewhere would risk a second
            # execution of non-idempotent work.
            self._settle_error(info, error)
            return
        now = self.clock.now
        budget_left = info.deadline is None or now < info.deadline
        if len(info.tried) < self.policy.max_attempts and budget_left:
            self.stats.retries += 1
            self.record(f"retry {info.request_id} after {address} @{now:.6f}")
            self._launch_attempt(info, hedge=False, after=error)
        elif info.outstanding == 0:
            self._settle_error(info, error)
        # else: another attempt is still in flight; let it decide.

    # -- timers ----------------------------------------------------------

    def _arm(self) -> None:
        """Arm the router's one heap event at its earliest live timer
        entry (a settled request's entries on top are dropped here; one
        further down is dropped when it surfaces)."""
        timers = self._timers
        while timers and timers[0][3].settled:
            heappop(timers)
        if not timers:
            return
        due = timers[0][0]
        if self._timer is not None:
            if self._timer.time <= due:
                return
            self._timer.cancel()
        self._timer = self.scheduler.schedule(due, self._fire, label=self._timer_label)

    def _fire(self) -> None:
        """The timer event: every entry now due, in its order — a settled
        request's is dropped unfired and leaves the router's clock
        alone —, then re-arm."""
        self._timer = None
        now = self.scheduler.now
        timers = self._timers
        while timers and timers[0][0] <= now:
            _, _, fire, info = heappop(timers)
            if not info.settled:
                fire(info)
        self._arm()

    def _hedge(self, info: _PendingRequest) -> None:
        if info.outstanding == 0:
            return
        due = self.scheduler.now
        self.clock.advance_to(due)
        self.stats.hedges_fired += 1
        self.record(f"hedge-fire {info.request_id} @{due:.6f}")
        self._launch_attempt(info, hedge=True)

    def _expire(self, info: _PendingRequest) -> None:
        due = self.scheduler.now
        self.clock.advance_to(due)
        self.record(f"deadline {info.request_id} @{due:.6f}")
        self._settle_error(
            info,
            DeadlineExceededError(
                f"request {info.request_id!r} missed its deadline "
                f"({due:.6f})"
            ),
        )

    # -- settlement (exactly once) ---------------------------------------

    def _settle_ok(self, info: _PendingRequest, reply: bytes) -> None:
        if info.settled:
            return
        self._finish(info)
        self.stats.completed_ok += 1
        self.record(f"ok {info.request_id} @{self.clock.now:.6f}")
        info.completion.resolve(reply)

    def _settle_error(self, info: _PendingRequest, error: BaseException) -> None:
        if info.settled:
            return
        self._finish(info)
        if isinstance(error, DeadlineExceededError):
            self.stats.failed_deadline += 1
        elif isinstance(error, RpcTransportError):
            self.stats.failed_transport += 1
            # The replica legs lost it: this router's answer, not a lost client leg.
            error = UpstreamTransportError(f"{info.request_id!r}: {error}")
        else:
            self.stats.failed_other += 1
        self.record(
            f"fail {info.request_id} {type(error).__name__} "
            f"@{self.clock.now:.6f}"
        )
        info.completion.fail(error)

    def _finish(self, info: _PendingRequest) -> None:
        info.settled = True  # its timer entries are now dropped unfired
        self._pending.pop(info, None)

    # -- teardown --------------------------------------------------------

    def pending_count(self) -> int:
        return len(self._pending)

    def close(self) -> None:
        self.server.stop()
        self.node.release_core(self._core)
        for info in list(self._pending):
            self._settle_error(
                info, RpcError(f"router {self.address!r} shut down")
            )
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None
        self._timers.clear()
