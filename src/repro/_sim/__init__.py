"""Simulation substrate: virtual time, deterministic randomness, the probe.

Everything in this reproduction that *computes* is real (crypto, numerics,
serialization), but *time and hardware* are simulated.  This package holds
the shared machinery: a :class:`~repro._sim.clock.SimClock` that components
charge costs to, the global event-heap
:class:`~repro._sim.scheduler.Scheduler` all fleet concurrency runs on,
unit helpers, and the telemetry probe point (:mod:`repro._sim.probe`)
every span and layer charge goes through — Figure 4's attestation
breakdown included.
"""

from repro._sim.clock import SimClock
from repro._sim.rng import DeterministicRng
from repro._sim.scheduler import Completion, Event, Scheduler, SchedulerError
from repro._sim.units import GiB, KiB, MiB, Gbps, microseconds, milliseconds

__all__ = [
    "SimClock",
    "Scheduler",
    "SchedulerError",
    "Completion",
    "Event",
    "DeterministicRng",
    "KiB",
    "MiB",
    "GiB",
    "Gbps",
    "microseconds",
    "milliseconds",
]
