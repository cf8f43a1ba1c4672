"""Distributed span tracing over simulated time.

A :class:`Tracer` records two kinds of evidence about a run:

- **Spans**: named intervals of simulated time on one node's clock,
  forming a tree via parent IDs.  A span's context (trace ID + span ID)
  travels inside the RPC envelope, so the server handler's span on one
  node is parented by the client's call span on another — one trace ID
  across the cluster, exactly like W3C trace-context propagation.
- **Charges**: compact leaf attributions — "this clock just advanced
  ``duration`` seconds doing ``layer`` work" — recorded by the
  mechanism that did the advancing (EPC fault service, shield crypto,
  syscall ring, backpressure stalls, retry backoff, network waits).
  Charges are three parallel float lists per clock, not span objects,
  because hot paths (a paging storm is millions of EPC faults) cannot
  afford an object per event; a run of identical charges (one scan's
  faults) is one entry, via :meth:`Tracer.charge_each`.

Both are pure recordings: the tracer never advances a clock, never
draws randomness (IDs come from a counter), and never mutates the
payloads it observes, so enabling tracing cannot change simulated
results, and two identical runs trace identically.

Everything is keyed by the ``SimClock`` instance doing the work — the
simulation's stand-in for "which process" — mirroring how
``runtime.stats_registry`` scopes its counters.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro._sim import probe
from repro._sim.clock import SimClock
from repro.observability.metrics import Histogram

#: The exclusive layers of the per-node profile.  Everything a charge
#: does not claim is attributed to ``compute`` by the profiler.
LAYERS = (
    "compute",
    "crypto",
    "epc_faults",
    "syscall_ring",
    "backpressure",
    "network_wait",
    "retry_backoff",
)

#: Span names whose durations feed a latency histogram.
_SPAN_HISTOGRAMS = {
    "rpc.call": "rpc.latency",
    "rpc.server": "rpc.server_latency",
    "ps.push": "ps.push_latency",
    "ps.pull": "ps.pull_latency",
    "ps.dequantize": "ps.dequantize_latency",
    "train.quantize": "train.quantize_latency",
    "secure_agg.mask": "secure_agg.mask_latency",
    "secure_agg.combine": "secure_agg.combine_latency",
}


@dataclass
class Span:
    """One named interval of simulated time on one clock."""

    name: str
    trace_id: str
    span_id: str
    parent_id: Optional[str]
    clock: SimClock
    start: float
    end: Optional[float] = None
    category: str = ""
    attrs: Dict[str, object] = field(default_factory=dict)
    #: True when the parent span lives on another node (propagated
    #: context): kept in the trace tree but excluded from same-node
    #: exclusive-time subtraction.
    remote_parent: bool = False

    @property
    def duration(self) -> float:
        return (self.end if self.end is not None else self.start) - self.start

    def context(self) -> Dict[str, str]:
        """The propagation context carried in RPC envelopes."""
        return {"t": self.trace_id, "s": self.span_id}


class _ClockRecord:
    """Per-clock recording state: label, origin, span stack, charges."""

    __slots__ = (
        "label",
        "t0",
        "stack",
        "charge_starts",
        "charge_cum",
        "charge_layers",
        "layer_totals",
    )

    def __init__(self, label: str, t0: float) -> None:
        self.label = label
        self.t0 = t0
        self.stack: List[Span] = []
        #: Parallel arrays of charge intervals, in nondecreasing start
        #: order (charges are recorded immediately after the advance
        #: they describe, and clocks are monotonic).
        self.charge_starts: List[float] = []
        self.charge_cum: List[float] = []  # prefix sums of durations
        self.charge_layers: List[str] = []
        self.layer_totals: Dict[str, float] = {}


class Tracer(probe.Sink):
    """Deterministic span/charge recorder for one telemetry session."""

    records_spans = True

    #: Ceiling on retained span objects; further spans still nest (the
    #: stack stays coherent) but are not kept, and ``dropped_spans``
    #: counts them.
    MAX_SPANS = 200_000

    def __init__(self, max_spans: int = MAX_SPANS) -> None:
        self.max_spans = max_spans
        self.spans: List[Span] = []
        self.dropped_spans = 0
        self.histograms: Dict[str, Histogram] = {}
        self._clocks: Dict[SimClock, _ClockRecord] = {}
        self._next_trace = 1
        self._next_span = 1

    # -- clock registry --------------------------------------------------

    def register_clock(self, clock: SimClock, label: str) -> None:
        """Name the process behind ``clock`` (first registration wins:
        containers share their node's clock and must not relabel it)."""
        record = self._clocks.get(clock)
        if record is None:
            self._clocks[clock] = _ClockRecord(label, clock.now)

    def clock_record(self, clock: SimClock) -> _ClockRecord:
        record = self._clocks.get(clock)
        if record is None:
            record = _ClockRecord(f"clock-{len(self._clocks)}", clock.now)
            self._clocks[clock] = record
        return record

    def clocks(self) -> List[SimClock]:
        return list(self._clocks)

    def label_of(self, clock: SimClock) -> str:
        return self.clock_record(clock).label

    # -- spans -----------------------------------------------------------

    def start_span(
        self,
        clock: SimClock,
        name: str,
        category: str = "",
        attrs: Optional[Dict[str, object]] = None,
        parent_context: Optional[Dict[str, str]] = None,
    ) -> Span:
        """Open a span on ``clock``.

        Parentage: an explicit ``parent_context`` (extracted from an RPC
        envelope) wins and marks the parent remote; otherwise the
        innermost open span on the same clock is the parent; otherwise
        the span roots a fresh trace.
        """
        record = self.clock_record(clock)
        remote = False
        if parent_context is not None:
            trace_id = parent_context["t"]
            parent_id: Optional[str] = parent_context["s"]
            remote = True
        elif record.stack:
            top = record.stack[-1]
            trace_id = top.trace_id
            parent_id = top.span_id
        else:
            trace_id = f"T{self._next_trace}"
            self._next_trace += 1
            parent_id = None
        span = Span(
            name=name,
            trace_id=trace_id,
            span_id=f"S{self._next_span}",
            parent_id=parent_id,
            clock=clock,
            start=clock.now,
            category=category,
            attrs=dict(attrs) if attrs else {},
            remote_parent=remote,
        )
        self._next_span += 1
        record.stack.append(span)
        if len(self.spans) < self.max_spans:
            self.spans.append(span)
        else:
            self.dropped_spans += 1
        return span

    def end_span(self, span: Span) -> None:
        span.end = span.clock.now
        stack = self.clock_record(span.clock).stack
        if span in stack:
            # Pop through to this span (robust to a child left open by
            # an exception unwinding past its end_span).
            while stack:
                if stack.pop() is span:
                    break
        hist_name = _SPAN_HISTOGRAMS.get(span.name)
        if hist_name is not None:
            self.observe(hist_name, span.duration)

    def current_context(self, clock: SimClock) -> Optional[Dict[str, str]]:
        """Context of the innermost open span on ``clock`` (for envelope
        injection), or None outside any span."""
        stack = self.clock_record(clock).stack
        return stack[-1].context() if stack else None

    # -- charges ---------------------------------------------------------

    def charge(
        self,
        clock: SimClock,
        layer: str,
        duration: float,
        count: int = 1,
        histogram: Optional[str] = None,
    ) -> None:
        """Attribute the ``duration`` seconds that just elapsed on
        ``clock`` (i.e. the interval ending at ``clock.now``) to
        ``layer``.  ``count``/``histogram`` feed a per-item latency
        histogram (e.g. per-chunk decrypt from one n-chunk charge)."""
        if duration <= 0.0:
            return
        record = self.clock_record(clock)
        record.charge_starts.append(clock.now - duration)
        previous = record.charge_cum[-1] if record.charge_cum else 0.0
        record.charge_cum.append(previous + duration)
        record.charge_layers.append(layer)
        record.layer_totals[layer] = record.layer_totals.get(layer, 0.0) + duration
        if histogram is not None and count > 0:
            self.observe(histogram, duration / count, count=count)

    def charge_each(
        self,
        clock: SimClock,
        layer: str,
        each: float,
        count: int,
        histogram: Optional[str] = None,
    ) -> None:
        """``count`` successive ``charge(each)`` calls (a run of EPC faults)
        recorded as one: the layer total, running sum and histogram sum
        take the same additions in the same order (``advance_each``'s rule)."""
        if each <= 0.0 or count <= 0:
            return
        record = self._clocks.get(clock) or self.clock_record(clock)  # hot: inline
        cum = previous = record.charge_cum[-1] if record.charge_cum else 0.0
        total = record.layer_totals.get(layer, 0.0)
        for _ in range(count):
            cum += each
            total += each
        record.charge_starts.append(clock.now - (cum - previous))
        record.charge_cum.append(cum)
        record.charge_layers.append(layer)
        record.layer_totals[layer] = total
        if histogram is not None:
            hist = self.histograms.get(histogram) or self._histogram(histogram)
            hist.observe_each(each, count)

    # -- histograms ------------------------------------------------------

    def observe(self, name: str, value: float, count: int = 1) -> None:
        self._histogram(name).observe(value, count=count)

    def _histogram(self, name: str) -> Histogram:
        hist = self.histograms.get(name)
        if hist is None:
            hist = self.histograms[name] = Histogram(name)
        return hist


def active_tracer() -> Optional[Tracer]:
    """The installed tracer that owns spans (the newest), or None."""
    for consumer in reversed(probe.installed()):
        if isinstance(consumer, Tracer):
            return consumer
    return None
