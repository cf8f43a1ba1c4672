"""The front-end router: one admitted request → exactly one outcome.

The router is a network endpoint whose handler returns a **deferred
reply** (a :class:`~repro._sim.scheduler.Completion`): the client parks
on the network's reply leg while the router, entirely event-driven,
dispatches the request to a replica, hedges it, retries it, or expires
it.  The state machine per admitted request:

::

    arrive ── admission ──> pending ──┬── replica ok ────────> settle(ok)
      │           │                   ├── typed replica error > settle(err)
      │           └─ shed ──> OverloadError (raised, never queued)
      │                               ├── transport failure ──> retry
      ├─ deadline already past ──────>│    (different replica, while
      │     DeadlineExceededError     │     budget and replicas remain;
      │                               │     else settle(that failure))
      │                               ├── hedge timer (p99-derived) fires
      │                               │     second attempt, first reply
      │                               │     wins, loser counted late
      │                               └── deadline event ─> settle(
      │                                     DeadlineExceededError)
      └─ duplicate id ──> cached outcome / the same pending completion

``settle`` runs **exactly once** per request — an idempotent guard
makes late replies observational only, and the Completion's own
resolve-twice error is the hard backstop.  Every admitted request is
therefore accounted for: ``admitted == ok + typed failures``, an
invariant the chaos tests assert.

Per-replica circuit breakers (shared :class:`~repro.cluster.retry
.BreakerRegistry` machinery) gate routing; their state census reaches
``collect_metrics`` through the same :class:`RecoveryStats` channel as
every other endpoint's.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro._sim.clock import SimClock
from repro._sim.scheduler import Completion, Event, Scheduler
from repro.cluster.dedup import DedupWindow
from repro.cluster.epoch import EpochLease
from repro.cluster.network import Network
from repro.cluster.node import Node
from repro.cluster.retry import BreakerRegistry, RecoveryStats
from repro.errors import (
    DeadlineExceededError,
    OverloadError,
    RpcError,
    RpcTransportError,
)
from repro.observability.metrics import WindowedHistogram
from repro.runtime import stats_registry
from repro.serving import messages
from repro.serving.admission import AdmissionController
from repro.serving.scoreboard import ReplicaScoreboard


#: Router-side at-most-once window (duplicate client *sends* of a
#: settled request replay the recorded outcome; the per-replica window
#: is ``REPLICA_DEDUP_*`` in :mod:`repro.serving.pool`).
ROUTER_DEDUP_CAPACITY = 1024
ROUTER_DEDUP_TTL = 60.0

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
    dedup_replays: int = 0

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
        "hedge_event",
        "deadline_event",
        "settled",
        "hedged",
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
        self.hedge_event: Optional[Event] = None
        self.deadline_event: Optional[Event] = None
        self.settled = False
        self.hedged = False
        self.hedge_addresses: List[str] = []


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
        self.stats = RouterStats()
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
        #: Routing-epoch lease (set by the serving plane when fencing is
        #: on).  Every replica dispatch is stamped with it; a router that
        #: has been superseded keeps stamping its *stale* epoch — which
        #: is exactly what lets the replica-side guards fence it.
        self.fence: Optional[EpochLease] = None
        self._pending: Dict[str, _PendingRequest] = {}
        #: request id -> (ok?, reply bytes or typed error) of every
        #: settled request: duplicate client sends replay the recorded
        #: outcome instead of re-executing.
        self._replied = DedupWindow(ROUTER_DEDUP_CAPACITY, ROUTER_DEDUP_TTL)
        #: Decision log; :meth:`trace_bytes` canonicalizes it for the
        #: two-seeded-runs byte-identity check.
        self.events: List[str] = []
        self._core = node.take_core(address)
        network.register(
            address, self._core.clock, self._handle, syscalls=self._core.syscalls
        )

    # -- scheduler access ------------------------------------------------

    @property
    def scheduler(self) -> Scheduler:
        return self.network.scheduler

    @property
    def clock(self) -> SimClock:
        return self._core.clock

    def record(self, event: str) -> None:
        self.events.append(event)

    def trace_bytes(self) -> bytes:
        """Canonical decision trace (compared across seeded runs)."""
        return "\n".join(self.events).encode()

    # -- endpoint handler ------------------------------------------------

    def _handle(self, raw: bytes) -> object:
        """The network endpoint: returns reply bytes, a deferred-reply
        Completion, or raises a typed error (shed)."""
        msg = messages.decode_request(raw)
        request_id = msg["id"]
        now = self.clock.now

        # At-most-once toward the client: a duplicate send of a settled
        # request replays the recorded outcome; a duplicate of a still-
        # pending one shares the pending completion (both deliveries get
        # their own reply leg when it settles).
        hit = self._replied.get(request_id, now)
        if hit is not None:
            self.stats.dedup_replays += 1
            ok, outcome = hit
            if ok:
                return outcome
            raise outcome  # type: ignore[misc]  # the recorded typed error
        pending = self._pending.get(request_id)
        if pending is not None:
            self.stats.dedup_replays += 1
            return pending.completion

        deadline = msg.get("deadline")
        if deadline is not None and now > deadline:
            # Expired on arrival: shed before spending a token or a
            # replica slot on work nobody is waiting for.
            self.admission.stats.shed_expired += 1
            self.record(f"expire-on-arrival {request_id} @{now:.6f}")
            raise DeadlineExceededError(
                f"request {request_id!r} arrived after its deadline "
                f"({now:.6f} > {deadline:.6f})"
            )

        self.admission.admit(now, self.scoreboard.has_capacity(self.policy.per_replica_limit))

        info = _PendingRequest(request_id, msg["payload"], deadline, now)
        self._pending[request_id] = info
        self.record(f"admit {request_id} @{now:.6f}")
        if deadline is not None:
            info.deadline_event = self.scheduler.schedule(
                deadline,
                lambda: self._expire(info, deadline),
                label=f"deadline:{request_id}",
            )
        if self.policy.hedge:
            delay = max(
                self.policy.hedge_min_delay,
                self.latency.percentile(99.0),
            )
            if deadline is None or now + delay < deadline:
                info.hedge_event = self.scheduler.schedule(
                    now + delay,
                    lambda: self._hedge(info, now + delay),
                    label=f"hedge:{request_id}",
                )
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
            if self.breakers.get(entry.address).allow(now):
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
        request = messages.encode_request(
            info.request_id,
            info.payload,
            deadline=info.deadline,
            fence=self.fence.stamp() if self.fence is not None else None,
        )
        self.record(
            f"{'hedge' if hedge else 'dispatch'} {info.request_id} -> "
            f"{address} @{now:.6f}"
        )
        try:
            attempt = self.network.call_async(
                self.address, self.clock, address, request
            )
        except RpcTransportError as exc:
            # Send-leg loss: charged synchronously, same as a socket
            # write failing under us.
            self._attempt_failed(info, address, exc)
            return
        info.outstanding += 1
        attempt.add_waiter(
            lambda completion: self._on_attempt_done(info, address, completion)
        )

    def _on_attempt_done(
        self, info: _PendingRequest, address: str, completion: Completion
    ) -> None:
        info.outstanding -= 1
        self.scoreboard.on_complete(address, ok=completion.error is None)
        if completion.error is not None:
            self._attempt_failed(info, address, completion.error, outstanding=True)
            return
        self.breakers.get(address).on_success()
        self.scoreboard.mark_healthy(address)
        if info.settled:
            self.stats.late_replies += 1
            self.record(f"late-reply {info.request_id} from {address}")
            return
        if address in info.hedge_addresses:
            self.stats.hedges_won += 1
        self.latency.observe(self.clock.now - info.admitted_at)
        self._settle_ok(info, completion.value)

    def _attempt_failed(
        self,
        info: _PendingRequest,
        address: str,
        error: BaseException,
        outstanding: bool = False,
    ) -> None:
        transport = isinstance(error, RpcTransportError)
        if transport:
            self.breakers.get(address).on_failure(self.clock.now)
            self.scoreboard.mark_degraded(address)
        if not outstanding:
            # Send-leg failure: the dispatch was counted, un-count it.
            self.scoreboard.on_complete(address, ok=False)
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

    def _hedge(self, info: _PendingRequest, due: float) -> None:
        if info.settled or info.outstanding == 0:
            return
        self.clock.advance_to(due)
        info.hedged = True
        self.stats.hedges_fired += 1
        self.record(f"hedge-fire {info.request_id} @{due:.6f}")
        self._launch_attempt(info, hedge=True)

    def _expire(self, info: _PendingRequest, due: float) -> None:
        if info.settled:
            return
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
        self._replied.put(info.request_id, self.clock.now, (True, reply))
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
        else:
            self.stats.failed_other += 1
        self._replied.put(info.request_id, self.clock.now, (False, error))
        self.record(
            f"fail {info.request_id} {type(error).__name__} "
            f"@{self.clock.now:.6f}"
        )
        info.completion.fail(error)

    def _finish(self, info: _PendingRequest) -> None:
        info.settled = True
        if info.hedge_event is not None:
            info.hedge_event.cancel()
            info.hedge_event = None
        if info.deadline_event is not None:
            info.deadline_event.cancel()
            info.deadline_event = None
        self._pending.pop(info.request_id, None)

    # -- teardown --------------------------------------------------------

    def pending_count(self) -> int:
        return len(self._pending)

    def close(self) -> None:
        self.network.unregister(self.address)
        self.node.release_core(self._core)
        for info in list(self._pending.values()):
            self._settle_error(
                info, RpcError(f"router {self.address!r} shut down")
            )
