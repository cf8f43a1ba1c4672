"""Retry/backoff, deadlines, and circuit breaking for cluster RPC.

The chaos plane (:mod:`repro.cluster.faults`) makes message loss and
transient partitions routine; this module is the client-side policy that
turns them from run-ending crashes into bounded latency:

- :class:`RetryPolicy` — exponential backoff with deterministic jitter
  (seeded through :class:`~repro._sim.rng.DeterministicRng`) and a
  per-call deadline in simulated seconds, never past
  :data:`RETRY_HORIZON`.
- :class:`CircuitBreaker` / :class:`BreakerRegistry` — per-endpoint
  failure shedding: after ``failure_threshold`` consecutive failures the
  breaker opens and calls fail fast with
  :class:`~repro.errors.CircuitOpenError` until ``reset_timeout``
  elapses, then a half-open probe decides.
- :class:`RetryingExecutor` — drives the loop: only *transport* faults
  (:class:`~repro.errors.RpcTransportError` and friends) are retried;
  security failures (``PolicyError``, ``IntegrityError``, …) and remote
  application errors are never retried — a denied request does not
  become allowed by asking again, and the paper's threat model requires
  tampering to surface, not to be smoothed over.
- :class:`RecoveryStats` — the counters every resilience layer (client
  retries, server dedup, session reconnects) reports through
  :mod:`repro.runtime.stats_registry` into ``collect_metrics``.

Backoff advances the caller's *simulated* clock, so retry storms cost
simulated time exactly like they cost wall-clock time in production.
Every wait of the loop — the reply of an attempt, a backoff — is a
``yield`` of a completion on the global heap: each backoff is a **timer
event** whose wake-up advances the caller's clock to ``now + delay``,
and meanwhile the rest of the fleet executes whatever deliveries and
probes come first.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Generator, Optional, TypeVar

from repro._sim import probe
from repro._sim.clock import SimClock
from repro._sim.rng import DeterministicRng
from repro._sim.scheduler import Activity, Completion, Scheduler
from repro.errors import (
    CircuitOpenError,
    ConfigurationError,
    FencingError,
    RpcTransportError,
    SecurityError,
    StaleConnectionError,
    UpstreamTransportError,
)
from repro.runtime.stats_registry import gauge

S = TypeVar("S")
T = TypeVar("T")

#: The longest a client keeps resending one call ID, in simulated
#: seconds from the call's start.  No :class:`RetryPolicy` may resend
#: past it and :class:`RetryingExecutor` caps every call's deadline at
#: it, so a server's at-most-once window
#: (:attr:`~repro.cluster.rpc.RpcServer.DEDUP_TTL`) can be derived from
#: it instead of guessed.
RETRY_HORIZON = 30.0

#: Failures worth retrying: the message may simply not have arrived.
RETRYABLE_ERRORS = (RpcTransportError, StaleConnectionError, CircuitOpenError)

#: Failures that are *authoritative*: the rejection IS the answer, and
#: re-asking (this endpoint or another) must never happen.  Security
#: errors because a denied request does not become allowed by asking
#: again; fencing errors because the caller has provably lost its
#: leadership epoch — retrying a fenced write is exactly the split-brain
#: commit that fencing exists to prevent; a front end's upstream loss
#: because it is that front end's recorded outcome for the request.
AUTHORITATIVE_ERRORS = (SecurityError, FencingError, UpstreamTransportError)


def is_retryable(exc: BaseException) -> bool:
    """Transport-level faults are retryable; security and fencing
    failures never are."""
    if isinstance(exc, AUTHORITATIVE_ERRORS):
        return False
    return isinstance(exc, RETRYABLE_ERRORS)


@dataclass(frozen=True)
class RetryPolicy:
    """Exponential (doubling) backoff with jitter and a per-call deadline.

    ``deadline=None`` means "no budget of its own" and is only allowed
    for a policy that never resends (``max_attempts=1``): any policy
    that could resend past :data:`RETRY_HORIZON` is refused.
    """

    max_attempts: int = 5
    base_delay: float = 0.02
    max_delay: float = 2.0
    jitter: float = 0.1            # ± fraction of the computed delay
    deadline: Optional[float] = RETRY_HORIZON  # sim-seconds budget per call

    def __post_init__(self) -> None:
        if self.deadline is None and self.max_attempts > 1:
            raise ConfigurationError(
                f"a policy with {self.max_attempts} attempts needs a deadline "
                f"(at most the {RETRY_HORIZON} s retry horizon)"
            )
        if self.deadline is not None and self.deadline > RETRY_HORIZON:
            raise ConfigurationError(
                f"deadline {self.deadline} s is past the {RETRY_HORIZON} s "
                "retry horizon"
            )

    def backoff(self, retry_index: int, rng: Optional[DeterministicRng] = None) -> float:
        """Delay before retry number ``retry_index`` (0-based)."""
        delay = min(self.base_delay * 2.0 ** retry_index, self.max_delay)
        if self.jitter and rng is not None:
            delay *= 1.0 + self.jitter * rng.uniform(-1.0, 1.0)
        return delay


@dataclass
class RecoveryStats:
    """Resilience counters, aggregated platform-wide by ``collect_metrics``."""

    calls: int = 0
    attempts: int = 0
    retries: int = 0
    giveups: int = 0
    backoff_time: float = 0.0
    reconnects: int = 0
    breaker_trips: int = 0
    breaker_rejections: int = 0
    dedup_hits: int = 0
    handshakes_expired: int = 0
    # Calls that died with a typed fencing rejection (FencedError /
    # LeaseExpiredError).  Counted client-side where the authoritative
    # error surfaces and the retry loop refuses to re-execute: a nonzero
    # value here means some sender was operating past the end of its
    # leadership epoch and the fence held.
    fenced_calls: int = 0
    # Live per-state breaker census (gauges, not cumulative counters):
    # how many of this endpoint set's circuit breakers currently sit in
    # each state.  Kept incrementally by every breaker transition so the
    # monitoring plane can show *which way* the fleet is leaning, not
    # just how often breakers tripped historically.
    breakers_closed: int = gauge(0)
    breakers_open: int = gauge(0)
    breakers_half_open: int = gauge(0)
    # A server's at-most-once window right now: live (call ID → reply)
    # entries, and the bytes of the distinct replies they hold.
    dedup_window_entries: int = gauge(0)
    dedup_window_bytes: int = gauge(0)


#: RecoveryStats gauge field per public breaker state name.
_STATE_GAUGES = {
    "closed": "breakers_closed",
    "open": "breakers_open",
    "half-open": "breakers_half_open",
}


class CircuitBreaker:
    """Per-endpoint failure shedding (closed → open → half-open)."""

    def __init__(
        self,
        failure_threshold: int = 5,
        reset_timeout: float = 5.0,
        stats: Optional[RecoveryStats] = None,
    ) -> None:
        self.failure_threshold = failure_threshold
        self.reset_timeout = reset_timeout
        self._stats = stats
        self._consecutive_failures = 0
        self._open_until: Optional[float] = None
        self._half_open = False
        if stats is not None:
            stats.breakers_closed += 1  # born closed

    @property
    def state(self) -> str:
        if self._open_until is None:
            return "half-open" if self._half_open else "closed"
        return "open"

    def _transition(self, before: str) -> None:
        after = self.state
        if self._stats is not None and after != before:
            setattr(
                self._stats,
                _STATE_GAUGES[before],
                getattr(self._stats, _STATE_GAUGES[before]) - 1,
            )
            setattr(
                self._stats,
                _STATE_GAUGES[after],
                getattr(self._stats, _STATE_GAUGES[after]) + 1,
            )

    def allow(self, now: float) -> bool:
        if self._open_until is None:
            return True
        if now >= self._open_until:
            # Cooldown elapsed: let one probe through.
            before = self.state
            self._open_until = None
            self._half_open = True
            self._transition(before)
            return True
        return False

    def on_success(self) -> None:
        before = self.state
        self._consecutive_failures = 0
        self._open_until = None
        self._half_open = False
        self._transition(before)

    def on_failure(self, now: float) -> None:
        before = self.state
        self._consecutive_failures += 1
        if self._half_open or self._consecutive_failures >= self.failure_threshold:
            self._open_until = now + self.reset_timeout
            self._half_open = False
            self._transition(before)
            if self._stats is not None:
                self._stats.breaker_trips += 1

    def reset(self) -> None:
        self.on_success()


class BreakerRegistry:
    """One :class:`CircuitBreaker` per remote endpoint."""

    def __init__(
        self,
        failure_threshold: int = 5,
        reset_timeout: float = 5.0,
        stats: Optional[RecoveryStats] = None,
    ) -> None:
        self._failure_threshold = failure_threshold
        self._reset_timeout = reset_timeout
        self._stats = stats
        self._breakers: Dict[str, CircuitBreaker] = {}

    def get(self, endpoint: str) -> CircuitBreaker:
        breaker = self._breakers.get(endpoint)
        if breaker is None:
            breaker = CircuitBreaker(
                self._failure_threshold, self._reset_timeout, stats=self._stats
            )
            self._breakers[endpoint] = breaker
        return breaker

    def reset(self, endpoint: str) -> None:
        breaker = self._breakers.get(endpoint)
        if breaker is not None:
            breaker.reset()


class RetryingExecutor:
    """Runs an RPC's attempts under a retry policy and breaker."""

    def __init__(
        self,
        policy: RetryPolicy,
        clock: SimClock,
        rng: DeterministicRng,
        scheduler: Scheduler,
        breakers: Optional[BreakerRegistry] = None,
        stats: Optional[RecoveryStats] = None,
    ) -> None:
        self.policy = policy
        self._clock = clock
        self._rng = rng
        self._scheduler = scheduler
        self.stats = stats if stats is not None else RecoveryStats()
        self.breakers = breakers if breakers is not None else BreakerRegistry(
            stats=self.stats
        )

    def begin(
        self,
        endpoint: str,
        send: Callable[[], Generator[Completion, Any, S]],
        receive: Callable[[S], Generator[Completion, Any, T]],
        deadline: Optional[float] = None,
    ) -> Generator[Completion, Any, Activity]:
        """Open one call whose attempts are ``receive(send())`` (both
        halves activities): an activity that counts the call, fixes its
        deadline, admits and **sends** attempt 1, and returns the
        activity settling the call — ``receive`` on that attempt, then a
        fresh ``send`` + ``receive`` per retry.  A failed (or rejected)
        first send is attempt 1's outcome, raised when the call settles.

        ``deadline`` (absolute simulated seconds) overrides the policy's
        budget, so a doomed call is abandoned instead of backing off past
        the point anyone still cares about the answer; no attempt is sent
        past :data:`RETRY_HORIZON` from the call's start.
        """
        policy = self.policy
        breaker = self.breakers.get(endpoint)
        now = self._clock.now
        if deadline is None:
            budget = RETRY_HORIZON if policy.deadline is None else policy.deadline
            deadline = now + budget
        deadline = min(deadline, now + RETRY_HORIZON)
        self.stats.calls += 1
        first = yield from self._send(endpoint, breaker, send)
        return self._settle(endpoint, breaker, send, receive, deadline, first)

    def _send(self, endpoint: str, breaker: CircuitBreaker, send):
        """One attempt's send half: ``(admitted, in flight, failure)``."""
        if not breaker.allow(self._clock.now):
            self.stats.breaker_rejections += 1
            probe.flight(self._clock, "breaker", endpoint, "rejected: open")
            return False, None, CircuitOpenError(
                f"circuit for endpoint {endpoint!r} is open"
            )
        self.stats.attempts += 1
        try:
            return True, (yield from send()), None
        except Exception as exc:
            return True, None, exc

    def _settle(self, endpoint, breaker, send, receive, deadline, first):
        """The rest of the retry loop, from attempt 1's receive half."""
        policy = self.policy
        admitted, sent, failure = first
        retry_index = 0
        while True:
            if admitted:
                if failure is None:
                    try:
                        result = yield from receive(sent)
                    except Exception as exc:
                        failure = exc
                    else:
                        breaker.on_success()
                        return result
                if not is_retryable(failure):
                    if isinstance(failure, FencingError):
                        self.stats.fenced_calls += 1
                        probe.flight(
                            self._clock, "fenced", endpoint, type(failure).__name__
                        )
                    raise failure
                breaker.on_failure(self._clock.now)
            retry_index += 1
            if retry_index >= policy.max_attempts:
                self.stats.giveups += 1
                probe.flight(
                    self._clock, "giveup", endpoint, f"attempts={retry_index}"
                )
                raise failure
            delay = policy.backoff(retry_index - 1, self._rng)
            if self._clock.now + delay > deadline:
                self.stats.giveups += 1
                probe.flight(
                    self._clock, "giveup", endpoint, f"deadline attempts={retry_index}"
                )
                raise failure
            self.stats.retries += 1
            self.stats.backoff_time += delay
            probe.flight(
                self._clock, "retry", endpoint, f"attempt={retry_index + 1}"
            )
            # Backoff as a heap event: park until the wake-up timer
            # advances this clock to now + delay; other nodes' events
            # scheduled inside the window execute first.
            yield self._scheduler.timer(
                self._clock, self._clock.now + delay, label=f"backoff:{endpoint}"
            )
            if probe.SINK is not None:
                probe.SINK.charge(self._clock, "retry_backoff", delay)
                attrs = {"endpoint": endpoint, "attempt": retry_index + 1}
                with probe.span(self._clock, "retry", "event", attrs):
                    pass  # an instant: the retry fired here
            admitted, sent, failure = yield from self._send(endpoint, breaker, send)


__all__ = [
    "AUTHORITATIVE_ERRORS",
    "BreakerRegistry",
    "CircuitBreaker",
    "RecoveryStats",
    "RetryPolicy",
    "RetryingExecutor",
    "RETRYABLE_ERRORS",
    "is_retryable",
]
