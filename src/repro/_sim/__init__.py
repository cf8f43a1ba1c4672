"""Simulation substrate: virtual time, deterministic randomness, tracing.

Everything in this reproduction that *computes* is real (crypto, numerics,
serialization), but *time and hardware* are simulated.  This package holds
the shared machinery: a :class:`~repro._sim.clock.SimClock` that components
charge costs to, the global event-heap
:class:`~repro._sim.scheduler.Scheduler` all fleet concurrency runs on,
unit helpers, and an event tracer used by benchmarks to produce
per-phase breakdowns (e.g. Figure 4's attestation breakdown).
"""

from repro._sim.clock import SimClock
from repro._sim.rng import DeterministicRng
from repro._sim.scheduler import Completion, Event, Scheduler, SchedulerError
from repro._sim.trace import EventTrace, TraceEvent
from repro._sim.units import GiB, KiB, MiB, Gbps, microseconds, milliseconds

__all__ = [
    "SimClock",
    "Scheduler",
    "SchedulerError",
    "Completion",
    "Event",
    "DeterministicRng",
    "EventTrace",
    "TraceEvent",
    "KiB",
    "MiB",
    "GiB",
    "Gbps",
    "microseconds",
    "milliseconds",
]
