"""Continuous SLO monitoring with multi-window burn-rate alerting.

The PR 5 telemetry plane *records*; this module *watches*.  A
:class:`SloMonitor` is a recurring event-heap activity that evaluates
declarative :class:`SloSpec` objects — serving p99 latency, shed rate,
training steps/s, CAS failovers, breaker-open fraction — over sliding
windows of its own samples, and drives a deterministic alert state
machine (``ok → pending → firing → resolved → ok``).

Alerting is **multi-window burn-rate**, the SRE-workbook shape: every
evaluation classifies the current sample as in- or out-of-objective,
and an alert becomes *eligible* only when the violation fraction burns
the error budget faster than ``burn_threshold`` over **both** a short
window (are we failing *right now*?) and a long window (have we been
failing long enough to matter?).  The two windows together reject
one-sample blips without missing slow sustained burns.

Determinism contract: evaluation is read-only — probes may only *read*
platform state; the monitor never advances a clock, so enabling it does
not perturb simulated results, and two seeded runs produce identical
alert transition logs.  All counters flow through
:mod:`repro.runtime.stats_registry` into
:func:`repro.core.monitoring.collect_metrics` / ``format()``.

:class:`MonitoringSession` bundles the full subsystem — flight
recorder (:mod:`.flight`), incident pipeline (:mod:`.incident`), SLO
monitor — installs the probe slots, and restores them on ``close()``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro._sim import probe
from repro._sim.clock import SimClock
from repro._sim.scheduler import Completion, Scheduler
from repro.observability.flight import FlightRecorder
from repro.observability.incident import IncidentBundle, IncidentPipeline
from repro.runtime.stats_registry import MonitoringStats, register

#: Alert states (the machine is ok -> pending -> firing -> ok; the
#: firing -> ok edge records a "resolved" transition).
STATE_OK = "ok"
STATE_PENDING = "pending"
STATE_FIRING = "firing"


@dataclass(frozen=True)
class SloSpec:
    """One declarative service-level objective.

    ``value_probe`` reads the *current* value of the signal (it must be
    a deterministic, read-only function of platform state); the sample
    violates the objective when it falls on the wrong side of
    ``objective`` per ``comparison`` (``"<="``: values above the
    objective are violations; ``">="``: values below are).  A probe may
    return None to mean "no signal yet" — those evaluations are skipped
    entirely (they neither burn nor refill the budget).
    """

    name: str
    value_probe: Callable[[], Optional[float]]
    objective: float
    comparison: str = "<="
    #: Error budget: the violation fraction the SLO tolerates (e.g.
    #: 0.01 = 1% of evaluation windows may violate).
    budget: float = 0.01
    #: Sliding windows, in simulated seconds of monitor samples.
    short_window: float = 2.0
    long_window: float = 10.0
    #: Fire only when the budget burns at >= this multiple of its
    #: sustainable rate over *both* windows.
    burn_threshold: float = 2.0
    #: Consecutive eligible evaluations before pending -> firing.
    for_intervals: int = 2
    #: Consecutive calm evaluations before firing -> resolved.
    clear_intervals: int = 2
    description: str = ""

    def violated(self, value: float) -> bool:
        if self.comparison == "<=":
            return value > self.objective
        if self.comparison == ">=":
            return value < self.objective
        raise ValueError(f"unknown comparison {self.comparison!r}")


@dataclass
class Alert:
    """One SLO's alert state, with its full transition history."""

    spec_name: str
    state: str = STATE_OK
    #: (simulated time, new state) — "resolved" appears as a transition
    #: even though the machine lands back in "ok".
    transitions: List[Tuple[float, str]] = field(default_factory=list)
    fired_count: int = 0
    resolved_count: int = 0
    last_value: Optional[float] = None
    burn_short: float = 0.0
    burn_long: float = 0.0


class _SloState:
    """Per-spec evaluation state: sample window + state machine."""

    __slots__ = ("spec", "alert", "samples", "eligible_streak", "calm_streak")

    def __init__(self, spec: SloSpec) -> None:
        self.spec = spec
        self.alert = Alert(spec_name=spec.name)
        #: (time, violated) samples; trimmed to the long window.
        self.samples: List[Tuple[float, bool]] = []
        self.eligible_streak = 0
        self.calm_streak = 0

    def _burn(self, now: float, window: float) -> float:
        cutoff = now - window
        total = 0
        bad = 0
        for t, violated in self.samples:
            if t >= cutoff:
                total += 1
                if violated:
                    bad += 1
        if total == 0:
            return 0.0
        fraction = bad / total
        return fraction / self.spec.budget if self.spec.budget > 0 else (
            float("inf") if bad else 0.0
        )

    def observe(self, now: float, value: Optional[float]) -> None:
        spec = self.spec
        alert = self.alert
        if value is None:
            return
        alert.last_value = value
        self.samples.append((now, spec.violated(value)))
        cutoff = now - spec.long_window
        while self.samples and self.samples[0][0] < cutoff:
            self.samples.pop(0)
        alert.burn_short = self._burn(now, spec.short_window)
        alert.burn_long = self._burn(now, spec.long_window)
        eligible = (
            alert.burn_short >= spec.burn_threshold
            and alert.burn_long >= spec.burn_threshold
        )
        if eligible:
            self.eligible_streak += 1
            self.calm_streak = 0
        else:
            self.eligible_streak = 0
            self.calm_streak += 1


class SloMonitor:
    """Evaluates SloSpecs on a recurring event-heap schedule.

    Like the orchestrator's :class:`~repro.cluster.orchestrator
    .Watchdog`, the monitor is an activity that sleeps until each
    evaluation's due time, every ``interval`` simulated seconds; unlike
    the watchdog it never advances its clock — evaluation happens *at*
    the due time but is purely observational, so the simulated run is
    unchanged by monitoring.
    """

    def __init__(
        self,
        scheduler: Scheduler,
        clock: SimClock,
        specs: Sequence[SloSpec],
        interval: float = 0.25,
        stats: Optional[MonitoringStats] = None,
        on_fire: Optional[Callable[[Alert, float], None]] = None,
        on_resolve: Optional[Callable[[Alert, float], None]] = None,
    ) -> None:
        if interval <= 0:
            raise ValueError(f"evaluation interval must be positive: {interval}")
        names = [spec.name for spec in specs]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate SLO names: {names}")
        self._scheduler = scheduler
        self._clock = clock
        self.interval = interval
        self.stats = stats if stats is not None else MonitoringStats()
        self._on_fire = on_fire
        self._on_resolve = on_resolve
        self._states: List[_SloState] = [_SloState(spec) for spec in specs]
        self._stopped = True
        self.evaluations = 0

    # -- lifecycle -------------------------------------------------------

    def start(self) -> None:
        self._stopped = False
        self._scheduler.start(self._evaluating(), name="slo-monitor").add_waiter(
            Completion.result  # an evaluation that raises ends the run
        )

    def stop(self) -> None:
        """No further evaluations (the pending wake-up exits)."""
        self._stopped = True

    def _evaluating(self):
        due = self._clock.now + self.interval
        while True:
            yield self._scheduler.timer(None, due, label="slo:evaluate")
            if self._stopped:
                return
            self.evaluate(due)
            due += self.interval

    # -- evaluation ------------------------------------------------------

    def evaluate(self, now: Optional[float] = None) -> None:
        """One evaluation pass (read-only; callable directly in tests)."""
        if now is None:
            now = self._clock.now
        self.evaluations += 1
        self.stats.slo_evaluations += 1
        for state in self._states:
            spec = state.spec
            alert = state.alert
            state.observe(now, spec.value_probe())
            if alert.state == STATE_OK:
                if state.eligible_streak >= 1:
                    alert.state = STATE_PENDING
                    alert.transitions.append((now, STATE_PENDING))
                    self.stats.alerts_pending += 1
            elif alert.state == STATE_PENDING:
                if state.eligible_streak == 0:
                    alert.state = STATE_OK
                    alert.transitions.append((now, STATE_OK))
                elif state.eligible_streak >= spec.for_intervals:
                    alert.state = STATE_FIRING
                    alert.transitions.append((now, STATE_FIRING))
                    alert.fired_count += 1
                    self.stats.alerts_fired += 1
                    if self._on_fire is not None:
                        self._on_fire(alert, now)
            elif alert.state == STATE_FIRING:
                if state.calm_streak >= spec.clear_intervals:
                    alert.state = STATE_OK
                    alert.transitions.append((now, "resolved"))
                    alert.resolved_count += 1
                    self.stats.alerts_resolved += 1
                    if self._on_resolve is not None:
                        self._on_resolve(alert, now)

    # -- introspection ---------------------------------------------------

    def alerts(self) -> List[Alert]:
        return [state.alert for state in self._states]

    def alert(self, name: str) -> Alert:
        for state in self._states:
            if state.spec.name == name:
                return state.alert
        raise KeyError(f"no SLO named {name!r}")

    def transition_log(self) -> str:
        """Canonical transition log, merged across alerts in time order
        (ties break by spec order) — the byte-identity surface."""
        lines: List[Tuple[float, int, str]] = []
        for index, state in enumerate(self._states):
            for t, new_state in state.alert.transitions:
                lines.append((t, index, f"{t:.6f} {state.spec.name} {new_state}"))
        return "\n".join(line for _, _, line in sorted(lines, key=lambda x: (x[0], x[1])))


# -- probe helpers -------------------------------------------------------


def rate_probe(
    counter_fn: Callable[[], float], interval: float
) -> Callable[[], Optional[float]]:
    """A probe turning a cumulative counter into a per-second rate.

    Keeps the previous reading in a closure; the first evaluation
    returns None (no baseline yet).  Deterministic because the monitor
    calls probes exactly once per evaluation, on a fixed schedule.
    """
    last: List[Optional[float]] = [None]

    def probe_fn() -> Optional[float]:
        current = float(counter_fn())
        previous, last[0] = last[0], current
        if previous is None:
            return None
        return (current - previous) / interval

    return probe_fn


def fraction_probe(
    numerator_fn: Callable[[], float], denominator_fn: Callable[[], float]
) -> Callable[[], Optional[float]]:
    """A probe for interval fractions of two cumulative counters
    (e.g. sheds / offered requests per evaluation interval)."""
    last: List[Tuple[float, float]] = [(0.0, 0.0)]

    def probe_fn() -> Optional[float]:
        num, den = float(numerator_fn()), float(denominator_fn())
        (p_num, p_den), last[0] = last[0], (num, den)
        d_den = den - p_den
        if d_den <= 0:
            return None
        return (num - p_num) / d_den

    return probe_fn


def serving_slos(
    router,
    p99_objective: float = 0.5,
    shed_objective: float = 0.05,
    breaker_objective: float = 0.5,
    interval: float = 0.25,
) -> List[SloSpec]:
    """The serving plane's standard SLO set over a FrontEndRouter."""
    admission = router.admission.stats

    def breaker_open_fraction() -> Optional[float]:
        breakers = list(router.breakers._breakers.values())
        if not breakers:
            return None
        open_count = sum(1 for b in breakers if b.state == "open")
        return open_count / len(breakers)

    return [
        SloSpec(
            name="serving.p99_latency",
            value_probe=lambda: (
                router.latency.percentile(99) if len(router.latency) else None
            ),
            objective=p99_objective,
            description="windowed p99 of admitted-request latency",
        ),
        SloSpec(
            name="serving.shed_rate",
            value_probe=fraction_probe(
                lambda: admission.shed_rate
                + admission.shed_capacity
                + admission.shed_expired,
                lambda: admission.arrivals,
            ),
            objective=shed_objective,
            description="sheds / offered requests per interval",
        ),
        SloSpec(
            name="serving.breaker_open_fraction",
            value_probe=breaker_open_fraction,
            objective=breaker_objective,
            description="fraction of per-replica breakers currently open",
        ),
    ]


def training_slos(
    steps_fn: Callable[[], float],
    steps_per_s_objective: float,
    interval: float = 0.25,
) -> List[SloSpec]:
    """Training-plane SLO: sustained steps/s above an objective floor."""
    return [
        SloSpec(
            name="training.steps_per_s",
            value_probe=rate_probe(steps_fn, interval),
            objective=steps_per_s_objective,
            comparison=">=",
            description="training steps per simulated second",
        )
    ]


def cas_slos(platform, failover_objective: float = 0.0) -> List[SloSpec]:
    """CAS availability SLO: failovers per interval stays at zero."""
    pair = platform.cas_pair

    def failovers() -> Optional[float]:
        return float(pair.stats.failovers) if pair is not None else None

    last: List[Optional[float]] = [None]

    def failover_delta() -> Optional[float]:
        current = failovers()
        if current is None:
            return None
        previous, last[0] = last[0], current
        if previous is None:
            return None
        return current - previous

    return [
        SloSpec(
            name="cas.failovers",
            value_probe=failover_delta,
            objective=failover_objective,
            budget=0.001,
            description="CAS primary failovers per evaluation interval",
        )
    ]


# -- the assembled subsystem ---------------------------------------------


class MonitoringSession:
    """SLO monitor + flight recorder + incident pipeline, one handle.

    Installs the recorder and pipeline into :mod:`repro._sim.probe`'s
    sink (removed again on :meth:`close`, in whatever order sessions and
    telemetry planes close), registers
    one shared :class:`MonitoringStats` under ``clock`` in the stats
    registry, and wires alert firings into incident bundles.
    """

    def __init__(
        self,
        scheduler: Scheduler,
        clock: SimClock,
        specs: Sequence[SloSpec] = (),
        interval: float = 0.25,
        ring_capacity: int = 256,
        incident_window: float = 5.0,
        node_clocks: Sequence[Tuple[SimClock, str]] = (),
        metrics_probe: Optional[Callable[[], Dict[str, object]]] = None,
        max_bundles: int = 64,
    ) -> None:
        self._clock = clock
        self.stats = MonitoringStats()
        register("monitoring", self.stats, clock)
        self.recorder = FlightRecorder(capacity=ring_capacity, stats=self.stats)
        for node_clock, label in node_clocks:
            self.recorder.register_clock(node_clock, label)
        self.recorder.register_clock(clock, self.recorder.label_of(clock))
        self.pipeline = IncidentPipeline(
            self.recorder,
            metrics_probe=metrics_probe,
            window=incident_window,
            stats=self.stats,
            max_bundles=max_bundles,
        )
        probe.install(self.recorder)
        probe.install(self.pipeline)
        self.monitor = SloMonitor(
            scheduler,
            clock,
            specs,
            interval=interval,
            stats=self.stats,
            on_fire=self._on_alert_fire,
        )
        if specs:
            self.monitor.start()

    def _on_alert_fire(self, alert: Alert, now: float) -> None:
        self.pipeline.trigger(
            "alert",
            alert.spec_name,
            clock=self._clock,
            detail=(
                f"burn_short={alert.burn_short:.2f} "
                f"burn_long={alert.burn_long:.2f} value={alert.last_value}"
            ),
        )

    @property
    def bundles(self) -> List[IncidentBundle]:
        return self.pipeline.bundles

    def close(self) -> None:
        """Stop evaluating and remove the recorder and pipeline (again:
        a no-op)."""
        self.monitor.stop()
        probe.remove(self.recorder)
        probe.remove(self.pipeline)

    def __enter__(self) -> "MonitoringSession":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


__all__ = [
    "Alert",
    "MonitoringSession",
    "MonitoringStats",
    "STATE_FIRING",
    "STATE_OK",
    "STATE_PENDING",
    "SloMonitor",
    "SloSpec",
    "cas_slos",
    "fraction_probe",
    "rate_probe",
    "serving_slos",
    "training_slos",
]
