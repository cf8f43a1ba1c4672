"""Drive a :class:`~repro.cluster.retry.RetryingExecutor` over plain
functions: each attempt is ``attempt()``, an activity that never waits."""

from __future__ import annotations

from repro._sim import Scheduler


def _at_once(fn):
    return fn()
    yield  # unreachable: makes this an activity


def run_attempts(executor, scheduler: Scheduler, endpoint, attempt, deadline=None):
    """One call through ``executor``; ``attempt``'s result or error."""

    def call():
        settle = yield from executor.begin(
            endpoint,
            lambda: _at_once(lambda: None),
            lambda _sent: _at_once(attempt),
            deadline,
        )
        return (yield from settle)

    return scheduler.drive(call())
