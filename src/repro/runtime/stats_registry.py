"""Process-wide registry of the layers' statistics objects.

The platform object doesn't own its shields — containers construct them
inside :class:`~repro.runtime.scone.SconeRuntime`, handshakes mint
:class:`~repro.runtime.net_shield.ShieldedChannel` pairs on the fly, and
owner-side deploy helpers build throwaway shields — so monitoring has no
object graph to walk to find counters.  Instead every layer registers
its plain ``*Stats`` dataclass here under its layer name and the
simulation clock of the node it runs on.  :func:`stats_for` then filters
by clock, which scopes a snapshot to one platform even when several
platforms live in the same test process.

A counter's *kind* is declared on its field and read from there by
:mod:`repro.core.monitoring` and the exporters: an unmarked numeric
field is a cumulative counter (sources sum, an interval diff subtracts),
:func:`gauge` a level (sources sum, a diff keeps the later value),
:func:`peak` a high-water mark (sources combine by max, likewise kept).
The mark is class-level metadata; counting stays an attribute write.

The registry is weakly keyed by *clock*: entries disappear when a
platform (and its node clocks) is garbage-collected, but stats outlive
their shield — a short-lived owner-side shield still shows up in the
platform snapshot after the deploy helper returned.
"""

from __future__ import annotations

import dataclasses
import weakref
from dataclasses import dataclass
from typing import Iterable, List

from repro._sim.clock import SimClock

COUNTER, GAUGE, PEAK = "counter", "gauge", "peak"

#: clock → {layer: [stats objects]}
_REGISTRY: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


def register(layer: str, stats: object, clock: SimClock) -> None:
    """Track ``stats`` as one of ``layer``'s sources on ``clock``'s node."""
    _REGISTRY.setdefault(clock, {}).setdefault(layer, []).append(stats)


def stats_for(layer: str, clocks: Iterable[SimClock]) -> List[object]:
    """Every stats object registered for ``layer`` under one of ``clocks``."""
    return [
        stats for clock in clocks for stats in _REGISTRY.get(clock, {}).get(layer, ())
    ]


def gauge(default=dataclasses.MISSING):
    """A dataclass field holding a level, not a cumulative count."""
    return dataclasses.field(default=default, metadata={"kind": GAUGE})


def peak(default=dataclasses.MISSING):
    """A dataclass field holding a high-water mark."""
    return dataclasses.field(default=default, metadata={"kind": PEAK})


def kind_of(field: dataclasses.Field) -> str:
    return field.metadata.get("kind", COUNTER)


@dataclass
class MonitoringStats:
    """SLO-engine / flight-recorder / incident-pipeline counters of one
    :class:`~repro.observability.slo.MonitoringSession`.  Declared here,
    not beside the session, so that :mod:`repro.core.monitoring` can
    publish it without importing :mod:`repro.observability`."""

    slo_evaluations: int = 0
    alerts_pending: int = 0
    alerts_fired: int = 0
    alerts_resolved: int = 0
    flight_events: int = 0
    incidents_triggered: int = 0
    incidents_suppressed: int = 0
    bundles_emitted: int = 0
