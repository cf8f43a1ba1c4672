"""The control plane's ticks keep their times, their order and their events.

The watchdog, the SLO autoscaler and the SLO monitor each tick on a
simulated period.  This pins one seeded plane's whole tick timeline —
every fired tick as (label, time) in execution order — together with
the number of events the heap executed and the plane's decision trace.
A change to how the tickers arm, sleep or run must leave all three
exactly as they are: a tick that moved by one ulp, or swapped places
with a same-time event, changes the digest.
"""

import hashlib

import pytest

from repro._sim.scheduler import Scheduler
from repro.serving.autoscaler import AutoscalerPolicy
from repro.serving.service import ServingPlane
from repro.serving.traffic import DiurnalProfile

pytestmark = pytest.mark.serving

TICK_LABELS = ("watchdog:probe", "autoscaler:tick", "slo:evaluate")


def record_ticks(monkeypatch):
    """Wrap every tick event scheduled from here on so that firing it
    appends ``(label, time)``; the list of fired ticks."""
    fired = []
    schedule = Scheduler.schedule

    def recording(self, when, fn, label=""):
        if label in TICK_LABELS:
            inner = fn

            def fn():
                fired.append((label, float(when)))
                inner()

        return schedule(self, when, fn, label)

    monkeypatch.setattr(Scheduler, "schedule", recording)
    return fired


def run_plane():
    plane = ServingPlane(
        seed=21,
        n_nodes=3,
        initial_replicas=2,
        autoscaler_policy=AutoscalerPolicy(
            slo_p99=0.012, min_replicas=2, max_replicas=4
        ),
        monitoring=True,
    )
    crash_at = plane.time + 1.0
    plane.platform.scheduler.schedule(
        crash_at, lambda: plane.pool.crash("replica-0"), label="test:crash"
    )
    stats = plane.run_traffic(
        4,
        plane.time + 3.0,
        profile=DiurnalProfile(base_think=0.01, phases=((1.0, 1.0),)),
    )
    plane.check_invariants()
    return plane, stats


def test_the_tick_timeline_is_pinned(monkeypatch, request):
    fired = record_ticks(monkeypatch)
    plane, stats = run_plane()
    # Its monitoring session installed a flight recorder and an incident
    # pipeline in the probe sink; closing the plane takes them out.
    request.addfinalizer(plane.close)
    # The plane did what the pin is for: the autoscaler scaled out twice
    # from its ticks and the watchdog restarted the crashed replica.
    assert [e.split()[0] for e in plane.autoscaler.events] == ["scale-out"] * 2
    assert plane.platform.orchestrator.events == [
        "restart replica-0 -> replica-3 budget=2"
    ]
    assert stats.ok == stats.sent == 559
    counts = {label: [l for l, _ in fired].count(label) for label in TICK_LABELS}
    assert counts == {"watchdog:probe": 13, "autoscaler:tick": 7, "slo:evaluate": 13}
    assert fired[:3] == [
        ("watchdog:probe", 0.6886697995555555),
        ("slo:evaluate", 0.6886697995555555),
        ("autoscaler:tick", 0.9386697995555555),
    ]
    assert fired[-1] == ("autoscaler:tick", 3.9386697995555555)
    assert hashlib.sha256(repr(fired).encode()).hexdigest() == (
        "2c4e5bc8be0d88fd657eb55072ab3f66897cd4cdca254f229933671471f11084"
    )
    # The router's deadline and hedge entries share one timer event: the
    # run schedules 2924 events and cancels none; 73 of them are the
    # timer's stale fires.  (With an event per deadline and per hedge it
    # scheduled 3969, cancelled 1118 and fired 2851.)
    scheduler = plane.platform.scheduler
    assert scheduler.events_processed == 2924
    assert scheduler.events_scheduled == 2924
    assert scheduler.events_cancelled == 0
    assert hashlib.sha256(plane.trace_bytes()).hexdigest() == (
        "58c67f24370851e438398c2006cf6ab055bdf79c0fbd4cbc86d6206932e641c2"
    )
