"""Admission control: shed load *explicitly* at the front door.

An overloaded secure service has exactly two honest choices: queue the
request (bounded — unbounded queues just convert overload into timeout
storms) or refuse it with a typed error the client can act on.  This
module implements the refuse half:

- :class:`TokenBucket` — a rate limiter refilled by **simulated time**,
  so a traffic spike above the provisioned rate sheds deterministically
  at the same simulated instants every seeded run.
- :class:`AdmissionController` — the router's front door: rate check
  first (cheapest), then the capacity check the caller derives from the
  replica scoreboard.  Every shed raises
  :class:`~repro.errors.OverloadError` and increments a counter — load
  shedding is an observable decision, never a silent drop.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError, OverloadError


class TokenBucket:
    """A token bucket refilled continuously by simulated seconds."""

    def __init__(self, rate: float, burst: float) -> None:
        if rate <= 0 or burst < 1:
            raise ConfigurationError(
                f"token bucket needs rate > 0 and burst >= 1: rate={rate}, "
                f"burst={burst}"
            )
        self.rate = float(rate)
        self.burst = float(burst)
        self._tokens = float(burst)
        self._refilled_at = 0.0

    def allow(self, now: float) -> bool:
        """Spend one token at simulated time ``now`` if one is available."""
        if now > self._refilled_at:
            self._tokens = min(
                self.burst, self._tokens + (now - self._refilled_at) * self.rate
            )
            self._refilled_at = now
        if self._tokens >= 1.0:
            self._tokens -= 1.0
            return True
        return False


@dataclass
class AdmissionStats:
    """Front-door accounting: every arrival lands in exactly one bucket."""

    admitted: int = 0
    shed_rate: int = 0       # token bucket empty
    shed_capacity: int = 0   # every routable replica's queue is full

    @property
    def arrivals(self) -> int:
        """Requests the router's handler saw.  One that arrived past its
        deadline was shed by the router's server before it got there, and
        is counted in that server's ``shed_expired``."""
        return self.admitted + self.shed_rate + self.shed_capacity


class AdmissionController:
    """The router's front door: rate limit, then capacity."""

    def __init__(self, bucket: TokenBucket) -> None:
        self.bucket = bucket
        self.stats = AdmissionStats()

    def admit(self, now: float, has_capacity: bool) -> None:
        """Admit one arrival or raise :class:`OverloadError`.

        Rate is checked before capacity so a flood beyond the
        provisioned rate is shed without consuming queue headroom that
        conforming traffic could use.
        """
        if not self.bucket.allow(now):
            self.stats.shed_rate += 1
            raise OverloadError(
                f"rate limit exceeded at t={now:.6f} (bucket empty)"
            )
        if not has_capacity:
            self.stats.shed_capacity += 1
            raise OverloadError(
                f"all replica queues full at t={now:.6f}"
            )
        self.stats.admitted += 1
