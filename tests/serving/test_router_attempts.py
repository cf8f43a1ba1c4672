"""The router's attempts keep their outcomes.

Each attempt is one :meth:`~repro.cluster.rpc.RpcClient.send` settled
from its reply's landing, and the router feeds its own breakers and
:class:`~repro.cluster.retry.RecoveryStats` where the attempt settles.
These pin what that path counts — on a seeded chaos plane, and for the
two outcomes the retry rules single out: a fenced attempt, and the
transport failures that open a replica's breaker.
"""

import dataclasses

import pytest

from repro._sim.clock import SimClock
from repro.cluster import Network, make_cluster
from repro.cluster.faults import FaultPlan, FaultSpec, TransientPartition
from repro.enclave.cost_model import DEFAULT_COST_MODEL as CM
from repro.serving.router import RouterPolicy
from repro.serving.service import ServingPlane
from tests.serving.test_router import add_replica, dispatches, make_router, served
from tests.serving.test_router_fencing import make_plane
from tests.serving.test_router_fencing import submit as submit_to
from tests.serving._client import submit

pytestmark = pytest.mark.serving


def chaos_plane(seed=11):
    """Three replicas under loss, delay and duplication on the replica
    legs, one transient partition and one crash."""
    plane = ServingPlane(
        seed=seed,
        n_nodes=4,
        initial_replicas=3,
        router_policy=RouterPolicy(max_attempts=5),
    )
    plane.add_faults(FaultPlan(
        seed + 1,
        FaultSpec(loss=0.03, delay=0.02, delay_seconds=0.05, duplication=0.01,
                  targets=frozenset(f"replica-{i}" for i in range(16))),
        partitions=[TransientPartition("replica-1", 1.0, 2.0)],
    ))
    plane.platform.scheduler.schedule(
        2.5, lambda: plane.pool.crash("replica-0"), label="chaos:crash"
    )
    return plane


def run_traffic(plane):
    """Eight clients for four simulated seconds, every outcome accounted."""
    plane.run_traffic(clients=8, duration=4.0, deadline_budget=0.5)
    plane.check_invariants()
    return plane


def test_a_seeded_chaos_plane_counts_every_attempt_as_before():
    """Calls, attempts, give-ups, breaker trips and rejections, fenced
    calls and the breaker census, as the spawned-attempt router counted
    them on the same seed."""
    router = run_traffic(chaos_plane()).router
    assert dataclasses.asdict(router.recovery) == {
        "calls": 59,
        "attempts": 59,
        "retries": 0,
        "giveups": 9,
        "backoff_time": 0.0,
        "reconnects": 0,
        "breaker_trips": 1,
        "breaker_rejections": 1,
        "dedup_hits": 0,
        "shed_expired": 0,
        "handshakes_expired": 0,
        "fenced_calls": 0,
        "breakers_closed": 4,
        "breakers_open": 0,
        "breakers_half_open": 0,
        "dedup_window_entries": 0,
        "dedup_window_bytes": 0,
    }
    stats = router.stats
    assert (stats.completed_ok, stats.retries, stats.hedges_fired, stats.hedges_won,
            stats.late_replies) == (49, 9, 1, 1, 1)
    assert stats.terminal == router.admission.stats.admitted == 49


def test_a_fenced_attempt_counts_and_is_never_retried():
    plane = make_plane(seed=5, n_nodes=2, initial_replicas=2, fencing=True)
    submit_to(plane, plane.router, "r1")
    zombie = plane.replace_router()
    submit_to(plane, plane.router, "r2")
    submit_to(plane, zombie, "r3")
    # One dispatch, refused by the replica's guard: the authoritative
    # error settles the request, no second replica is asked.
    assert [e.split()[0] for e in zombie.events if " r3 " in e] == [
        "admit", "dispatch", "fail"
    ]
    assert zombie.recovery.fenced_calls == 1
    assert zombie.recovery.giveups == 0
    assert zombie.stats.retries == 0 and zombie.stats.failed_other == 1
    assert zombie.recovery.breakers_closed == 1  # a refusal is not a failure


@pytest.fixture
def cluster(provisioning):
    return make_cluster(3, CM, provisioning, seed=4)


def test_three_transport_failures_open_the_breaker_and_the_next_pick_skips_it(cluster):
    """``r-b`` is partitioned and ``r-a`` slow, so load-first routing
    keeps offering ``r-b`` the lighter share until its third failure
    opens its breaker; every pick after that goes to ``r-a``."""
    network = Network(CM)
    router = make_router(network, cluster[0], per_replica_limit=8)
    add_replica(network, router, cluster[1], "r-a", service_time=0.2)
    add_replica(network, router, cluster[2], "r-b")
    network.partition("r-b")
    clock = SimClock()
    pending = [submit(network, clock, f"q{i}") for i in range(6)]
    for completion in pending:
        network.scheduler.run_until(completion)

    picks = [replica for _, replica in dispatches(router)]
    third = [i for i, replica in enumerate(picks) if replica == "r-b"][2]
    assert picks.count("r-b") == 3
    assert set(picks[third + 1:]) == {"r-a"}
    assert router.breakers.get("r-b").state == "open"
    recovery = router.recovery
    assert recovery.giveups == 3 and recovery.breaker_trips == 1
    assert recovery.calls == recovery.attempts == len(picks) == 9
    assert (recovery.breakers_open, recovery.breakers_closed) == (1, 1)
    assert (served(router, "r-a"), served(router, "r-b")) == (6, 0)
