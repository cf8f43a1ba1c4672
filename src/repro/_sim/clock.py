"""Virtual time.

A :class:`SimClock` is a monotonically advancing float of simulated
seconds.  Components never read the wall clock; they ``advance`` the sim
clock by amounts derived from the cost model
(:mod:`repro.enclave.cost_model`).  Benchmarks read ``clock.now`` before
and after a workload to obtain the simulated latency that the paper's
figures report.

A process-global clock is provided for convenience (the common case is a
single simulated deployment per test/benchmark), but every component also
accepts an explicit clock so independent simulations can coexist.
"""

from __future__ import annotations

from typing import Callable, List, Optional


class SimClock:
    """Monotonic simulated clock measured in seconds."""

    def __init__(self, start: float = 0.0) -> None:
        if not start >= 0:  # also refuses NaN, which no comparison orders
            raise ValueError(f"clock cannot start in the past: {start}")
        #: Current simulated time in seconds (read often, so a plain
        #: attribute; only the ``advance`` methods move it).
        self.now = float(start)
        self._observers: List[Callable[[float, float], None]] = []

    @property
    def observed(self) -> bool:
        """True while some observer is subscribed to every advance."""
        return bool(self._observers)

    def advance(self, seconds: float) -> float:
        """Advance the clock by ``seconds`` and return the new time.

        Negative and NaN advances are rejected: simulated time is
        monotonic, and such a charge is always a cost-model bug.
        """
        if not seconds >= 0:
            raise ValueError(f"cannot advance clock by negative time: {seconds}")
        before = self.now
        self.now += seconds
        for observer in self._observers:
            observer(before, self.now)
        return self.now

    def advance_each(self, seconds: float, times: int) -> float:
        """``times`` successive ``advance(seconds)``, validated once: the
        same additions in the same order (a float sum of *n* equal terms is
        not *n* times the term), stored once when nobody is subscribed."""
        if not seconds >= 0:
            raise ValueError(f"cannot advance clock by negative time: {seconds}")
        if self._observers:
            for _ in range(times):
                self.advance(seconds)
        else:
            now = self.now
            for _ in range(times):
                now += seconds
            self.now = now
        return self.now

    def advance_to(self, timestamp: float) -> float:
        """Advance the clock to an absolute ``timestamp`` (no-op if past)."""
        if timestamp > self.now:
            self.advance(timestamp - self.now)
        return self.now

    def subscribe(self, observer: Callable[[float, float], None]) -> None:
        """Register ``observer(old, new)`` to be called on every advance."""
        self._observers.append(observer)

    def unsubscribe(self, observer: Callable[[float, float], None]) -> None:
        """Remove a previously subscribed observer (no-op if absent)."""
        try:
            self._observers.remove(observer)
        except ValueError:
            pass

    def measure(self) -> "ClockSpan":
        """Return a context manager that records elapsed simulated time."""
        return ClockSpan(self)

    def __repr__(self) -> str:
        return f"SimClock(now={self.now:.6f}s)"


class ClockSpan:
    """Context manager capturing elapsed simulated time over a block."""

    def __init__(self, clock: SimClock) -> None:
        self._clock = clock
        self._start: Optional[float] = None
        self.elapsed: float = 0.0

    def __enter__(self) -> "ClockSpan":
        self._start = self._clock.now
        return self

    def __exit__(self, *exc_info: object) -> None:
        assert self._start is not None
        self.elapsed = self._clock.now - self._start
