"""Retry/backoff, deadlines, and circuit breaking for cluster RPC.

The chaos plane (:mod:`repro.cluster.faults`) makes message loss and
transient partitions routine; this module is the client-side policy that
turns them from run-ending crashes into bounded latency:

- :class:`RetryPolicy` — exponential backoff with deterministic jitter
  (seeded through :class:`~repro._sim.rng.DeterministicRng`) and a
  per-call deadline in simulated seconds.
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
With a :class:`~repro._sim.scheduler.Scheduler` attached (the normal
case — RPC clients pass their network's scheduler), each backoff is a
**timer event on the global heap** rather than an inline advance: the
sleeping caller parks, the rest of the fleet keeps executing whatever
deliveries and probes come first, and the wake-up event advances the
caller's clock to the exact same instant the inline advance reached.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Generator, Optional, TypeVar

from repro._sim import probe
from repro._sim.clock import SimClock
from repro._sim.rng import DeterministicRng
from repro._sim.scheduler import Scheduler
from repro.errors import (
    CircuitOpenError,
    FencingError,
    RpcTransportError,
    SecurityError,
    StaleConnectionError,
)
from repro.runtime.stats_registry import gauge

S = TypeVar("S")
T = TypeVar("T")

#: Failures worth retrying: the message may simply not have arrived.
RETRYABLE_ERRORS = (RpcTransportError, StaleConnectionError, CircuitOpenError)

#: Failures that are *authoritative*: the rejection IS the answer, and
#: re-asking (this endpoint or another) must never happen.  Security
#: errors because a denied request does not become allowed by asking
#: again; fencing errors because the caller has provably lost its
#: leadership epoch — retrying a fenced write is exactly the split-brain
#: commit that fencing exists to prevent.
AUTHORITATIVE_ERRORS = (SecurityError, FencingError)


def is_retryable(exc: BaseException) -> bool:
    """Transport-level faults are retryable; security and fencing
    failures never are."""
    if isinstance(exc, AUTHORITATIVE_ERRORS):
        return False
    return isinstance(exc, RETRYABLE_ERRORS)


@dataclass(frozen=True)
class RetryPolicy:
    """Exponential backoff with jitter and a per-call deadline."""

    max_attempts: int = 5
    base_delay: float = 0.02
    multiplier: float = 2.0
    max_delay: float = 2.0
    jitter: float = 0.1            # ± fraction of the computed delay
    deadline: Optional[float] = 30.0  # sim-seconds budget per call

    def backoff(self, retry_index: int, rng: Optional[DeterministicRng] = None) -> float:
        """Delay before retry number ``retry_index`` (0-based)."""
        delay = min(self.base_delay * self.multiplier ** retry_index, self.max_delay)
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
    """Runs an RPC attempt function under a retry policy and breaker."""

    def __init__(
        self,
        policy: RetryPolicy,
        clock: SimClock,
        rng: DeterministicRng,
        breakers: Optional[BreakerRegistry] = None,
        stats: Optional[RecoveryStats] = None,
        on_event: Optional[Callable[[str], None]] = None,
        scheduler: Optional[Scheduler] = None,
    ) -> None:
        self.policy = policy
        self._clock = clock
        self._rng = rng
        self._scheduler = scheduler
        self.stats = stats if stats is not None else RecoveryStats()
        self.breakers = breakers if breakers is not None else BreakerRegistry(
            stats=self.stats
        )
        self._on_event = on_event

    def _event(self, message: str) -> None:
        if self._on_event is not None:
            self._on_event(message)

    def run(
        self,
        endpoint: str,
        attempt_fn: Callable[[], T],
        deadline: Optional[float] = None,
    ) -> T:
        """Run ``attempt_fn`` with retries.  ``deadline`` (absolute
        simulated seconds) overrides the policy-derived budget — the
        propagated request deadline bounds the retry loop, so a doomed
        call is abandoned instead of backing off past the point anyone
        still cares about the answer."""
        return self.begin(
            endpoint, lambda: None, lambda _sent: attempt_fn(), deadline
        )()

    def begin(
        self,
        endpoint: str,
        send: Callable[[], S],
        receive: Callable[[S], T],
        deadline: Optional[float] = None,
    ) -> Callable[[], T]:
        """Open one call whose attempts are ``receive(send())``.

        The call is counted, its deadline fixed and attempt 1 admitted
        by the breaker and **sent** before this returns; the returned
        ``settle`` function runs the rest of the loop — ``receive`` on
        that in-flight attempt, then a fresh ``send`` + ``receive`` per
        retry.  A failed (or breaker-rejected) first send is not raised
        here: it is attempt 1's outcome, handled when the call settles.
        """
        attempts = self._attempts(endpoint, send, receive, deadline)
        next(attempts)  # runs to the park point after attempt 1's send

        def settle() -> T:
            try:
                next(attempts)
            except StopIteration as done:
                return done.value
            raise AssertionError("retry loop parked twice")

        return settle

    def _attempts(
        self,
        endpoint: str,
        send: Callable[[], S],
        receive: Callable[[S], T],
        deadline: Optional[float],
    ) -> Generator[None, None, T]:
        """The retry loop, as a generator that parks exactly once:
        between the send and the receive half of attempt 1."""
        policy = self.policy
        breaker = self.breakers.get(endpoint)
        if deadline is None:
            deadline = (
                self._clock.now + policy.deadline
                if policy.deadline is not None
                else None
            )
        self.stats.calls += 1
        retry_index = 0
        while True:
            sent = None
            failure: Optional[Exception] = None
            admitted = breaker.allow(self._clock.now)
            if admitted:
                self.stats.attempts += 1
                try:
                    sent = send()
                except Exception as exc:
                    failure = exc
            else:
                self.stats.breaker_rejections += 1
                probe.flight(self._clock, "breaker", endpoint, "rejected: open")
                failure = CircuitOpenError(
                    f"circuit for endpoint {endpoint!r} is open"
                )
            if retry_index == 0:
                yield
            if admitted:
                if failure is None:
                    try:
                        result = receive(sent)
                    except Exception as exc:
                        failure = exc
                    else:
                        breaker.on_success()
                        return result
                if not is_retryable(failure):
                    if isinstance(failure, FencingError):
                        self.stats.fenced_calls += 1
                        self._event(f"fenced {endpoint}")
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
            if deadline is not None and self._clock.now + delay > deadline:
                self.stats.giveups += 1
                probe.flight(
                    self._clock, "giveup", endpoint, f"deadline attempts={retry_index}"
                )
                raise failure
            self.stats.retries += 1
            self.stats.backoff_time += delay
            self._event(f"retry {endpoint} attempt={retry_index + 1}")
            probe.flight(
                self._clock, "retry", endpoint, f"attempt={retry_index + 1}"
            )
            if self._scheduler is not None:
                # Backoff as a heap event: park until the wake-up timer
                # advances this clock to now + delay.  Identical clock
                # trajectory to the inline advance, but other nodes'
                # events scheduled inside the window execute first.
                self._scheduler.run_until(
                    self._scheduler.timer(
                        self._clock, delay, label=f"backoff:{endpoint}"
                    )
                )
            else:
                self._clock.advance(delay)
            if probe.ACTIVE is not None:
                probe.ACTIVE.charge(self._clock, "retry_backoff", delay)
                probe.ACTIVE.event(
                    self._clock,
                    "retry",
                    attrs={"endpoint": endpoint, "attempt": retry_index + 1},
                )


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
