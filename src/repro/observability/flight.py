"""The black-box flight recorder: bounded per-node event rings.

An aircraft flight recorder keeps the *last few minutes* of everything,
always, so that when something goes wrong the evidence of why is already
on disk.  This module is the platform equivalent: fixed-capacity ring
buffers — one per node clock, plus a control ring for events with no
owning node — that capture recent spans, layer charges, and
RPC/fence/watchdog events at near-zero cost.

Cost discipline mirrors :mod:`repro._sim.probe`'s tracer slot:

- instrumentation sites call :func:`probe.flight`, whose fast path is a
  single module-global load and a None comparison; the recorder is one
  of the sink's consumers, and hears of spans and charges only while a
  tracer is installed beside it;
- recording never advances a clock, never draws randomness, and never
  allocates per-event objects beyond one tuple — a run with the
  recorder installed has byte-identical simulated results, and a run
  without it is byte-identical to an interpreter that never imported
  this package;
- rings overwrite their oldest entry when full (``overwritten`` counts
  the loss), so memory is O(nodes * capacity) no matter how long the
  run is.

The :mod:`repro.observability.incident` pipeline freezes these rings
into a deterministic snapshot when a trigger fires — the ring contents
are a pure function of the seeded run, so two seeded runs freeze
byte-identical evidence.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional

from repro._sim.clock import SimClock
from repro._sim.probe import Sink

#: Label of the ring that receives clock-less (control-plane) events.
CONTROL_RING = "control"


class FlightEvent(NamedTuple):
    """One recorded event: global order is ``(time, seq)``."""

    time: float
    seq: int
    node: str
    kind: str
    name: str
    detail: str

    def line(self) -> str:
        """Canonical one-line encoding (stable across runs)."""
        parts = [f"{self.seq}", f"{self.time:.6f}", self.node, self.kind, self.name]
        if self.detail:
            parts.append(self.detail)
        return " ".join(parts)


class _Ring:
    """A fixed-capacity overwrite-oldest buffer of FlightEvents."""

    __slots__ = ("capacity", "_events", "_head", "overwritten")

    def __init__(self, capacity: int) -> None:
        self.capacity = capacity
        self._events: List[FlightEvent] = []
        self._head = 0  # next write slot once the ring is full
        self.overwritten = 0

    def append(self, event: FlightEvent) -> None:
        if len(self._events) < self.capacity:
            self._events.append(event)
        else:
            self._events[self._head] = event
            self._head = (self._head + 1) % self.capacity
            self.overwritten += 1

    def events(self) -> List[FlightEvent]:
        """Retained events, oldest first."""
        return self._events[self._head:] + self._events[: self._head]

    def __len__(self) -> int:
        return len(self._events)


class FlightRecorder(Sink):
    """Per-node ring buffers of recent span/charge/fault events.

    Register node clocks up front (:meth:`register_clock`) so events
    carry node labels; an unregistered clock is auto-labelled
    ``clock-N`` in registration order, exactly like the tracer.  All
    sequence numbers come from one shared counter, so merging every
    ring by ``(time, seq)`` yields a deterministic total order — the
    incident bundle's cross-node timeline.
    """

    def __init__(self, capacity: int = 256, stats=None) -> None:
        if capacity < 1:
            raise ValueError(f"ring capacity must be positive: {capacity}")
        self.capacity = capacity
        self._rings: Dict[SimClock, _Ring] = {}
        self._labels: Dict[SimClock, str] = {}
        self._control = _Ring(capacity)
        self._seq = 0
        #: Optional MonitoringStats: counters surface via collect_metrics.
        self.stats = stats
        self.events_recorded = 0
        self._frozen = False

    # -- clock registry --------------------------------------------------

    def register_clock(self, clock: SimClock, label: str) -> None:
        """Name the node behind ``clock`` (first registration wins)."""
        if clock not in self._rings:
            self._rings[clock] = _Ring(self.capacity)
            self._labels[clock] = label

    def _ring(self, clock: Optional[SimClock]) -> _Ring:
        if clock is None:
            return self._control
        ring = self._rings.get(clock)
        if ring is None:
            ring = _Ring(self.capacity)
            self._rings[clock] = ring
            self._labels[clock] = f"clock-{len(self._labels)}"
        return ring

    def label_of(self, clock: Optional[SimClock]) -> str:
        if clock is None:
            return CONTROL_RING
        self._ring(clock)
        return self._labels[clock]

    def clocks(self) -> List[SimClock]:
        return list(self._rings)

    # -- recording -------------------------------------------------------

    def now(self) -> float:
        """Fleet time: max over registered clocks (control-ring events
        with no clock of their own are stamped with it)."""
        return max((c.now for c in self._rings), default=0.0)

    def record(
        self,
        clock: Optional[SimClock],
        kind: str,
        name: str,
        detail: str = "",
    ) -> None:
        """Append one event (the :func:`probe.flight` target).

        Frozen recorders drop events: an incident bundle under assembly
        must not observe the assembly's own side effects.
        """
        if self._frozen:
            return
        time = clock.now if clock is not None else self.now()
        event = FlightEvent(
            time=time,
            seq=self._seq,
            node=self.label_of(clock),
            kind=kind,
            name=name,
            detail=str(detail),
        )
        self._seq += 1
        self._ring(clock).append(event)
        self.events_recorded += 1
        if self.stats is not None:
            self.stats.flight_events += 1

    flight = record

    # -- what the tracer records (forwarded by the sink's fan-out) -------

    def on_span_end(self, span) -> None:
        """A tracer span closed: the ring keeps the recent span tail even
        after the tracer's own buffer would have scrolled far past it."""
        self.record(
            span.clock,
            "span",
            span.name,
            f"{span.trace_id}/{span.span_id}"
            + (f"<-{span.parent_id}" if span.parent_id else ""),
        )

    def on_charge(self, clock: SimClock, layer: str, duration: float) -> None:
        """The tracer took a charge (one line per call: a run of EPC
        faults charged at once is one line with the run's total)."""
        self.record(clock, "charge", layer, f"{duration:.6f}")

    # -- freezing --------------------------------------------------------

    def freeze(self) -> Dict[str, List[FlightEvent]]:
        """Stop recording and snapshot every ring, label -> events.

        Labels are emitted in deterministic registration order; call
        :meth:`unfreeze` to resume recording after bundle assembly.
        """
        self._frozen = True
        snapshot: Dict[str, List[FlightEvent]] = {}
        for clock, ring in self._rings.items():
            snapshot[self._labels[clock]] = ring.events()
        if len(self._control):
            snapshot[CONTROL_RING] = self._control.events()
        return snapshot

    def unfreeze(self) -> None:
        self._frozen = False

    def timeline(
        self, until: Optional[float] = None, window: Optional[float] = None
    ) -> List[FlightEvent]:
        """All retained events merged into one (time, seq) order,
        optionally restricted to the last ``window`` seconds before
        ``until`` (the incident bundle's last-N-seconds view)."""
        events: List[FlightEvent] = []
        for ring in self._rings.values():
            events.extend(ring.events())
        events.extend(self._control.events())
        if until is not None:
            events = [e for e in events if e.time <= until]
            if window is not None:
                events = [e for e in events if e.time >= until - window]
        return sorted(events, key=lambda e: (e.time, e.seq))


__all__ = ["CONTROL_RING", "FlightEvent", "FlightRecorder"]
