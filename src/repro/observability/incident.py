"""Automatic incident bundles: frozen evidence plus a causal timeline.

When something goes wrong — an SLO alert fires, an acceptor rejects a
fenced zombie, the watchdog quarantines a crash-looping lineage, a
chaos invariant is violated, a replica crashes — the evidence of *why*
lives in ring buffers that keep overwriting themselves.  The
:class:`IncidentPipeline` turns a trigger into a deterministic
:class:`IncidentBundle`:

1. the flight recorder's rings are frozen (recording pauses so bundle
   assembly cannot observe its own side effects);
2. the last-``window`` seconds of events before the trigger are merged
   across every node into one ``(time, seq)``-ordered **cross-node
   timeline**, with trace IDs from the PR 5 tracer linking spans across
   RPC hops;
3. when a tracer is active, the same window of spans is exported as a
   Chrome ``trace_event`` document (loadable in Perfetto next to the
   full-run trace);
4. an optional metrics probe contributes a counter snapshot;
5. a structured **root-cause summary** names the first fault-kind event
   preceding the trigger on the causal chain — preferring events that
   share the trigger's causal trace, falling back to the nearest
   preceding fault on any node.

Everything in a bundle is a pure function of the seeded run: incident
IDs come from a counter, times from simulated clocks, ordering from the
recorder's sequence numbers — two seeded runs emit byte-identical
bundles (:meth:`IncidentBundle.dump` is the canonical encoding the
tests compare).

:func:`bundle_from_scenario` builds the same bundle shape from a chaos
campaign's recorded history, so every schedule that reproduces a
violation (or survives a fault fenced) ships an explanatory bundle.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro._sim.clock import SimClock
from repro._sim.probe import Sink
from repro.observability.flight import FlightEvent, FlightRecorder
from repro.observability.tracer import active_tracer

#: Event kinds that can be a root cause (the faults, not the symptoms).
FAULT_KINDS = (
    "crash",
    "partition",
    "fault",
    "fence",
    "watchdog",
    "giveup",
    "violation",
)


@dataclass
class IncidentBundle:
    """One deterministic, self-contained incident report."""

    incident_id: str
    trigger_kind: str
    trigger_name: str
    trigger_detail: str
    trigger_time: float
    trigger_node: str
    window: float
    #: Cross-node causal timeline: canonical event lines in (time, seq)
    #: order, restricted to the last ``window`` seconds.
    timeline: List[str] = field(default_factory=list)
    #: Full frozen rings, label -> canonical event lines (the black box).
    rings: Dict[str, List[str]] = field(default_factory=dict)
    #: Last-N-seconds Chrome trace_event document (None without tracer).
    chrome_trace: Optional[Dict[str, object]] = None
    #: Counter snapshot at trigger time (None without a metrics probe).
    metrics: Optional[Dict[str, object]] = None
    #: Structured root-cause summary (see :func:`find_root_cause`).
    root_cause: Dict[str, object] = field(default_factory=dict)

    def to_json(self) -> Dict[str, object]:
        return {
            "incident_id": self.incident_id,
            "trigger": {
                "kind": self.trigger_kind,
                "name": self.trigger_name,
                "detail": self.trigger_detail,
                "time": round(self.trigger_time, 9),
                "node": self.trigger_node,
            },
            "window": self.window,
            "timeline": list(self.timeline),
            "rings": {label: list(lines) for label, lines in self.rings.items()},
            "chrome_trace": self.chrome_trace,
            "metrics": self.metrics,
            "root_cause": dict(self.root_cause),
        }

    def dump(self) -> bytes:
        """Canonical byte encoding (compared across seeded runs)."""
        return json.dumps(self.to_json(), sort_keys=True, indent=2).encode()

    def summary(self) -> str:
        cause = self.root_cause.get("summary", "unknown")
        return (
            f"{self.incident_id}: [{self.trigger_kind}] {self.trigger_name} "
            f"at t={self.trigger_time:.6f} on {self.trigger_node} — "
            f"root cause: {cause}"
        )


def find_root_cause(
    events: List[FlightEvent],
    trigger_kind: str,
    trigger_name: str,
    trigger_time: float,
    trigger_trace: Optional[str] = None,
) -> Dict[str, object]:
    """The first fault-kind event preceding the trigger on the causal
    chain.

    Preference order: the *earliest* fault event sharing the trigger's
    trace ID (when span context is available), else the earliest fault
    event in the window, else the trigger itself ("no prior fault
    observed" — the trigger is the first evidence).
    """
    faults = [
        e
        for e in events
        if e.time <= trigger_time and any(e.kind.startswith(k) for k in FAULT_KINDS)
    ]
    chosen: Optional[FlightEvent] = None
    if trigger_trace:
        on_chain = [e for e in faults if trigger_trace in e.detail]
        if on_chain:
            chosen = on_chain[0]
    if chosen is None and faults:
        chosen = faults[0]
    if chosen is None:
        return {
            "summary": f"no prior fault observed before {trigger_name}",
            "kind": trigger_kind,
            "name": trigger_name,
            "time": round(trigger_time, 9),
            "node": "",
        }
    return {
        "summary": (
            f"{chosen.kind} {chosen.name} on {chosen.node} "
            f"at t={chosen.time:.6f}"
            + (f" ({chosen.detail})" if chosen.detail else "")
        ),
        "kind": chosen.kind,
        "name": chosen.name,
        "detail": chosen.detail,
        "time": round(chosen.time, 9),
        "node": chosen.node,
    }


class IncidentPipeline(Sink):
    """Turns triggers into bundles; dedups so each distinct trigger key
    emits exactly one bundle per run.  The trace side of a bundle comes
    from the tracer installed when the trigger fires."""

    def __init__(
        self,
        recorder: FlightRecorder,
        metrics_probe: Optional[Callable[[], Dict[str, object]]] = None,
        window: float = 5.0,
        stats=None,
        max_bundles: int = 64,
    ) -> None:
        self.recorder = recorder
        self.metrics_probe = metrics_probe
        self.window = window
        self.stats = stats
        self.max_bundles = max_bundles
        self.bundles: List[IncidentBundle] = []
        self._seen: set = set()
        self._next_id = 1
        self.triggers = 0
        self.suppressed = 0

    def trigger(
        self,
        kind: str,
        name: str,
        clock: Optional[SimClock] = None,
        detail: str = "",
    ) -> Optional[IncidentBundle]:
        """Fire one trigger; returns the bundle, or None when suppressed
        (duplicate trigger key or bundle cap reached)."""
        self.triggers += 1
        if self.stats is not None:
            self.stats.incidents_triggered += 1
        key = (kind, name)
        if key in self._seen or len(self.bundles) >= self.max_bundles:
            self.suppressed += 1
            if self.stats is not None:
                self.stats.incidents_suppressed += 1
            return None
        self._seen.add(key)

        trigger_time = clock.now if clock is not None else self.recorder.now()
        trigger_node = self.recorder.label_of(clock)
        frozen = self.recorder.freeze()
        try:
            timeline_events = self.recorder.timeline(
                until=trigger_time, window=self.window
            )
            tracer = active_tracer()
            # The trace of the innermost open span on the trigger's clock:
            # the causal chain the root-cause search prefers.
            trigger_trace = None
            if tracer is not None and clock is not None:
                context = tracer.current_context(clock)
                trigger_trace = context["t"] if context else None
            bundle = IncidentBundle(
                incident_id=f"I{self._next_id}",
                trigger_kind=kind,
                trigger_name=name,
                trigger_detail=str(detail),
                trigger_time=trigger_time,
                trigger_node=trigger_node,
                window=self.window,
                timeline=[e.line() for e in timeline_events],
                rings={
                    label: [e.line() for e in events]
                    for label, events in frozen.items()
                },
                chrome_trace=self._chrome_window(tracer, trigger_time),
                metrics=self.metrics_probe() if self.metrics_probe else None,
                root_cause=find_root_cause(
                    timeline_events, kind, name, trigger_time, trigger_trace
                ),
            )
            self._next_id += 1
            self.bundles.append(bundle)
            if self.stats is not None:
                self.stats.bundles_emitted += 1
            return bundle
        finally:
            self.recorder.unfreeze()

    incident = trigger

    def _chrome_window(self, tracer, until: float) -> Optional[Dict[str, object]]:
        """Last-N-seconds Chrome trace from the installed tracer."""
        if tracer is None:
            return None
        start = until - self.window
        windowed = [
            span
            for span in tracer.spans
            if span.start <= until
            and (span.end if span.end is not None else span.start) >= start
        ]
        from repro.observability.exporters import to_chrome_trace

        return to_chrome_trace(tracer, spans=windowed)


# -- chaos-campaign bundles ----------------------------------------------


def bundle_from_scenario(schedule, run, fencing: bool) -> IncidentBundle:
    """An incident bundle distilled from a chaos schedule's history.

    The chaos families drive their own schedulers and histories rather
    than the live probe slots, so their bundles are built after the
    fact from the recorded :class:`~repro.chaos.history.History` — which
    is already the run's canonical causal record (total ``(seq, time)``
    order across every actor).  The injected fault is synthesized into
    the timeline where the run recorded it striking
    (``run.injected_at``), so the causal timeline names it even though
    the history only records its *consequences*.

    Trigger selection:

    - unfenced runs with violations: the first invariant violation;
    - fenced runs: the fault injection itself (the bundle shows the
      fence absorbing it — ``fenced`` ops in the timeline).
    """
    ops = run.history.ops
    injection_line = (
        f"fault-injection {schedule.kind} {schedule.family} "
        f"step={schedule.crash_step}"
        + (" +duplicate-storm" if schedule.duplicate_storm else "")
    )
    if run.violations:
        trigger_kind = "violation"
        trigger_name = run.violations[0].split("]", 1)[0].lstrip("[")
        trigger_detail = run.violations[0]
    else:
        trigger_kind = "fault-injection"
        trigger_name = schedule.kind
        trigger_detail = injection_line
    trigger_time = ops[-1].time if ops else 0.0

    timeline = [op.line() for op in ops]
    # Synthesize the injection marker at its causal position: before the
    # first op the run recorded after the fault struck.
    timeline.insert(run.injected_at, f"* {injection_line}")

    root_cause = {
        "summary": (
            f"{schedule.kind} of {schedule.family} leader at protocol "
            f"step {schedule.crash_step}"
            + (" under duplicate storm" if schedule.duplicate_storm else "")
            + ("" if fencing else " with fencing disabled")
        ),
        "kind": schedule.kind,
        "name": schedule.family,
        "detail": schedule.schedule_id,
        "time": round(trigger_time, 9),
        "node": schedule.family,
    }
    return IncidentBundle(
        incident_id=f"I:{schedule.schedule_id}:{'fenced' if fencing else 'unfenced'}",
        trigger_kind=trigger_kind,
        trigger_name=trigger_name,
        trigger_detail=trigger_detail,
        trigger_time=trigger_time,
        trigger_node=schedule.family,
        window=float("inf"),
        timeline=timeline,
        rings={"history": [op.line() for op in ops]},
        chrome_trace=None,
        metrics={
            "ops_recorded": len(ops),
            "fenced_ops": len(run.history.of_kind("fenced")),
            "violations": list(run.violations),
        },
        root_cause=root_cause,
    )


__all__ = [
    "FAULT_KINDS",
    "IncidentBundle",
    "IncidentPipeline",
    "bundle_from_scenario",
    "find_root_cause",
]
