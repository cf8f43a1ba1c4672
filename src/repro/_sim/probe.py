"""The telemetry probe point: one module-level slot, checked inline.

Instrumentation sites across the runtime/cluster layers guard every
recording call with ``if probe.SINK is not None`` — a single global
load and comparison.  When nothing is installed (the default), the
instrumented code paths never construct a span, never touch an
envelope, never advance a clock, and never import
:mod:`repro.observability`; a run with telemetry off is therefore
byte-identical (simulated time *and* stats counters) to a run on a
build without the telemetry subsystem at all.

The consumers — tracer, flight recorder, incident pipeline — are
:class:`Sink`\\ s.  :func:`install` adds one and :func:`remove` takes it
out again, both by identity, so sessions may close in any order.
``SINK`` is the consumer itself while it is alone, and a
:class:`FanOut` over all of them only while two or more are installed.

This module deliberately has no dependencies (not even on the tracer's
type) so that core modules can import it without pulling in the
observability package.
"""

from __future__ import annotations

import contextlib
from typing import Optional, Tuple

_NULL_SCOPE = contextlib.nullcontext()


class _Scope:
    """``with sink.span(...)``: ``start_span`` on entry, ``end_span`` on exit."""

    __slots__ = ("_sink", "_args", "span")

    def __init__(self, sink: "Sink", args: tuple) -> None:
        self._sink = sink
        self._args = args
        self.span = None

    def __enter__(self):
        self.span = self._sink.start_span(*self._args)
        return self.span

    def __exit__(self, *exc_info: object) -> None:
        self._sink.end_span(self.span)


class Sink:
    """Everything a site may call on ``SINK``.  Each hook does nothing
    here; a consumer overrides the ones it serves.  ``on_span_end`` and
    ``on_charge`` are how a fan-out tells the other consumers what the
    tracer recorded."""

    #: True for the consumer that keeps spans and charges (the tracer),
    #: which also has ``start_span``/``end_span``.
    records_spans = False

    def span(self, clock, name, category="", attrs=None, parent_context=None):
        if not self.records_spans:
            return _NULL_SCOPE
        return _Scope(self, (clock, name, category, attrs, parent_context))

    def register_clock(self, clock, label) -> None:
        pass

    def current_context(self, clock):
        return None

    def charge(self, clock, layer, duration, count=1, histogram=None) -> None:
        pass

    def charge_each(self, clock, layer, each, count, histogram=None) -> None:
        pass

    def flight(self, clock, kind, name, detail="") -> None:
        pass

    def incident(self, kind, name, clock=None, detail="") -> None:
        pass

    def on_span_end(self, span) -> None:
        pass

    def on_charge(self, clock, layer, duration) -> None:
        pass


class FanOut(Sink):
    """Two or more consumers behind the one slot.

    Clock names, flight events and incident triggers reach every
    consumer, in install order.  Spans and charges have one owner, the
    newest consumer that records them; while there is one, every other
    consumer hears of each span as it closes and of each charge as it
    lands (that is how the flight recorder keeps its span/charge tail).
    An older tracer records nothing until the newer one is removed.
    """

    def __init__(self, consumers: Tuple[Sink, ...]) -> None:
        self.consumers = consumers
        owners = [c for c in consumers if c.records_spans]
        self.records_spans = bool(owners)
        self._owner = owners[-1] if owners else Sink()
        self._observers = [c for c in consumers if owners and not c.records_spans]

    def register_clock(self, clock, label) -> None:
        for consumer in self.consumers:
            consumer.register_clock(clock, label)

    def start_span(self, clock, name, category="", attrs=None, parent_context=None):
        return self._owner.start_span(clock, name, category, attrs, parent_context)

    def end_span(self, span) -> None:
        self._owner.end_span(span)
        for observer in self._observers:
            observer.on_span_end(span)

    def current_context(self, clock):
        return self._owner.current_context(clock)

    def charge(self, clock, layer, duration, count=1, histogram=None) -> None:
        self._owner.charge(clock, layer, duration, count, histogram)
        if duration > 0.0:
            for observer in self._observers:
                observer.on_charge(clock, layer, duration)

    def charge_each(self, clock, layer, each, count, histogram=None) -> None:
        self._owner.charge_each(clock, layer, each, count, histogram)
        if each > 0.0 and count > 0:
            for observer in self._observers:
                observer.on_charge(clock, layer, each * count)

    def flight(self, clock, kind, name, detail="") -> None:
        for consumer in self.consumers:
            consumer.flight(clock, kind, name, detail)

    def incident(self, kind, name, clock=None, detail="") -> None:
        for consumer in self.consumers:
            consumer.incident(kind, name, clock, detail)


#: The installed sink, or None when telemetry is off.  Read directly at
#: instrumentation sites; changed only by :func:`install`/:func:`remove`.
SINK: Optional[Sink] = None
_installed: Tuple[Sink, ...] = ()


def installed() -> Tuple[Sink, ...]:
    """The installed consumers, oldest first."""
    return _installed


def install(consumer: Sink) -> None:
    """Add ``consumer`` to the sink (a no-op when it is already in)."""
    if not any(c is consumer for c in _installed):
        _publish(_installed + (consumer,))


def remove(consumer: Sink) -> None:
    """Take ``consumer`` out of the sink, wherever it sits (a no-op when
    it is not in)."""
    _publish(tuple(c for c in _installed if c is not consumer))


def _publish(consumers: Tuple[Sink, ...]) -> None:
    global SINK, _installed
    _installed = consumers
    if not consumers:
        SINK = None
    elif len(consumers) == 1:
        SINK = consumers[0]
    else:
        SINK = FanOut(consumers)


def span(clock, name, category="", attrs=None, parent_context=None):
    """A span scope on the sink, or a shared no-op context when nothing
    records spans.  Lets call sites keep one code path:
    ``with probe.span(clock, "rpc.call", ...):``."""
    sink = SINK
    if sink is None:
        return _NULL_SCOPE
    return sink.span(clock, name, category, attrs, parent_context)


def flight(clock, kind, name, detail="") -> None:
    """Record one flight-recorder event, if a recorder is installed.

    ``clock`` may be None for control-plane events with no owning node
    (acceptor-side fence rejections); the recorder files those under its
    control ring.  Recording is read-only: no clock moves, no RNG draws.
    """
    sink = SINK
    if sink is not None:
        sink.flight(clock, kind, name, detail)


def incident(kind, name, clock=None, detail="") -> None:
    """Fire an incident trigger, if a pipeline is installed."""
    sink = SINK
    if sink is not None:
        sink.incident(kind, name, clock, detail)
