"""The router's one timer: every request's deadline and hedge ride one
heap event.

The router keeps ``(due, admission order)`` entries — a request's
deadline, then its hedge — and arms one heap event at the earliest live
entry.  Same-instant entries must fire in the order their own heap
events would have (admission order, deadline before hedge, which the
event digests depend on); a settled request's entries are dropped
unfired and leave the router's clock alone; closing the router leaves
nothing of it on the heap.
"""

import pytest

from repro._sim.clock import SimClock
from repro.cluster import Network, make_cluster
from repro.enclave.cost_model import DEFAULT_COST_MODEL as CM
from repro.errors import DeadlineExceededError
from tests.serving._client import submit
from tests.serving.test_router import add_replica, make_router
from tests.serving.test_router_attempts import chaos_plane, run_traffic

pytestmark = pytest.mark.serving


@pytest.fixture
def cluster(provisioning):
    return make_cluster(3, CM, provisioning, seed=4)


def slow_router(cluster, hedge_min_delay=0.05):
    """A hedging router over two replicas that each take a second."""
    network = Network(CM)
    router = make_router(network, cluster[0], hedge=True, hedge_min_delay=hedge_min_delay)
    add_replica(network, router, cluster[1], "r-a", service_time=1.0)
    add_replica(network, router, cluster[2], "r-b", service_time=1.0)
    return network, router


def live_timer_events(router):
    """The router's timer events still live on the heap."""
    label = f"timers:{router.address}"
    return [
        event for _, _, event in router.scheduler._heap
        if event.label == label and not event.cancelled
    ]


def hedge_due(router, request_id):
    """When the router's hedge entry for ``request_id`` falls due."""
    (due,) = [
        due for due, _, fire, info in router._timers
        if fire == router._hedge and info.request_id.split("#")[0] == request_id
    ]
    return due


def fired(router, due):
    """(kind, request) of the timer decisions logged at ``due``."""
    stamp = f"@{due:.6f}"
    return [
        (event.split()[0], event.split()[1].split("#")[0])
        for event in router.events
        if event.startswith(("hedge-fire ", "deadline ")) and event.endswith(stamp)
    ]


def drain(network, *completions):
    for completion in completions:
        try:
            network.scheduler.run_until(completion)
        except DeadlineExceededError:
            pass
    network.scheduler.run()


def test_an_earlier_hedge_fires_before_a_later_deadline_due_at_the_same_instant(cluster):
    network, router = slow_router(cluster)
    clock = SimClock()
    first = submit(network, clock, "q1", deadline=5.0)
    network.scheduler.run(until=0.005)
    due = hedge_due(router, "q1")
    clock.advance_to(0.01)
    second = submit(network, clock, "q2", deadline=due)
    drain(network, first, second)
    assert fired(router, due) == [("hedge-fire", "q1"), ("deadline", "q2")]


def test_an_earlier_deadline_fires_before_a_later_hedge_due_at_the_same_instant(cluster):
    # A dry run on an identical router learns when q2's hedge falls due.
    network, router = slow_router(cluster)
    clock = SimClock(0.01)
    submit(network, clock, "q2", deadline=5.0)
    network.scheduler.run(until=0.015)
    due = hedge_due(router, "q2")

    network, router = slow_router(cluster)
    clock = SimClock()
    first = submit(network, clock, "q1", deadline=due)
    clock.advance_to(0.01)
    second = submit(network, clock, "q2", deadline=5.0)
    network.scheduler.run(until=0.015)
    assert hedge_due(router, "q2") == due
    drain(network, first, second)
    assert fired(router, due) == [("deadline", "q1"), ("hedge-fire", "q2")]


def test_a_request_settled_before_its_hedge_fires_nothing_and_moves_no_clock(cluster):
    network = Network(CM)
    router = make_router(network, cluster[0], hedge=True, hedge_min_delay=0.5)
    add_replica(network, router, cluster[1], "r-a", service_time=0.01)
    add_replica(network, router, cluster[2], "r-b", service_time=0.01)
    network.scheduler.run_until(submit(network, SimClock(), "q1", deadline=2.0))
    settled_at = router.clock.now
    # The timer is still armed at the settled request's hedge: it fires
    # stale, drops both entries and leaves nothing armed.
    assert len(live_timer_events(router)) == 1
    network.scheduler.run()
    assert router.stats.hedges_fired == 0
    assert not [e for e in router.events if e.startswith(("hedge", "deadline"))]
    assert router.clock.now == settled_at
    assert live_timer_events(router) == [] and router._timers == []
    assert network.scheduler.events_cancelled == 0


def test_close_leaves_no_live_router_event(cluster):
    network, router = slow_router(cluster)
    clock = SimClock()
    submit(network, clock, "q1", deadline=5.0)
    submit(network, clock, "q2")
    network.scheduler.run(until=0.005)
    assert router.pending_count() == 2
    assert len(live_timer_events(router)) == 1
    router.close()
    assert router.pending_count() == 0
    assert live_timer_events(router) == [] and router._timers == []


def test_heap_events_per_request_are_pinned_on_a_seeded_plane():
    """The chaos plane's traffic: 49 requests, 323 events scheduled, 324
    fired (one was armed before the traffic), 1 cancelled.  With a heap
    event per deadline and per hedge the same traffic scheduled 391,
    fired 296 and cancelled 97."""
    plane = chaos_plane()
    scheduler = plane.platform.scheduler
    before = (
        scheduler.events_scheduled, scheduler.events_processed, scheduler.events_cancelled
    )
    run_traffic(plane)
    after = (
        scheduler.events_scheduled, scheduler.events_processed, scheduler.events_cancelled
    )
    assert plane.router.admission.stats.admitted == 49
    assert [a - b for a, b in zip(after, before)] == [323, 324, 1]
