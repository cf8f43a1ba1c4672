"""S3: watchdog-driven recovery — restart budgets, quarantine, drains.

These tests crash *running* replicas and let the orchestrator watchdog
(not a manual ``supervise`` call) do the recovery, then assert the
scoreboard and the routing plane converge on the supervision outcome.
"""

import pytest

from repro.serving.scoreboard import ReplicaState
from repro.serving.service import ServingPlane
from tests.serving._client import submit

pytestmark = pytest.mark.serving


def make_plane(seed=3, initial_replicas=2, restart_budget=None, **kwargs):
    plane = ServingPlane(
        seed=seed,
        n_nodes=4,
        initial_replicas=initial_replicas,
        watchdog_interval=0.25,
        **kwargs,
    )
    if restart_budget is not None:
        plane.platform.orchestrator.restart_budget = restart_budget
    return plane


def submit_to(plane, request_id):
    return submit(plane.platform.network, plane.platform.nodes[-1].clock, request_id)


def send(plane, request_id):
    return plane.platform.scheduler.run_until(submit_to(plane, request_id))


def served(plane):
    """Replica → requests it served, for every replica on the scoreboard."""
    return {e.address: e.served for e in plane.scoreboard.entries()}


def states(plane):
    return {e.address: e.state for e in plane.scoreboard.entries()}


def test_watchdog_restarts_crashed_replica_and_reattests_it():
    plane = make_plane()
    scheduler = plane.platform.scheduler
    attested_before = len(plane.pool.cold_starts)
    plane.pool.crash("replica-0")
    assert states(plane)["replica-0"] is ReplicaState.FAILED
    scheduler.run(until=plane.time + 2.0)
    # The replacement came up under a fresh name, re-ran the full
    # attestation path (fresh enclave memory ⇒ fresh proof), and the
    # reconcile pass reaped the dead entry.
    board = states(plane)
    assert "replica-0" not in board
    assert board["replica-2"] is ReplicaState.HEALTHY
    assert len(plane.pool.cold_starts) == attested_before + 1
    assert any("restart replica-0" in e for e in plane.platform.orchestrator.events)
    before = served(plane)
    assert send(plane, "after-recovery") == b"after-recovery"
    after = served(plane)
    assert after["replica-1"] + after["replica-2"] == (
        before["replica-1"] + before["replica-2"] + 1
    )
    plane.quiesce()


def test_restart_budget_exhaustion_quarantines_the_lineage():
    plane = make_plane(restart_budget=1)
    scheduler = plane.platform.scheduler
    plane.pool.crash("replica-0")
    scheduler.run(until=plane.time + 2.0)
    assert states(plane)["replica-2"] is ReplicaState.HEALTHY
    # Crash the *running* replacement: the lineage's budget (1) is now
    # spent, so the watchdog must quarantine instead of restarting.
    plane.pool.crash("replica-2")
    scheduler.run(until=plane.time + 2.0)
    board = states(plane)
    assert board["replica-2"] is ReplicaState.QUARANTINED
    quarantined = {
        c.name for c in plane.platform.orchestrator.quarantined("replica")
    }
    assert "replica-2" in quarantined
    # No further replacements appear for the quarantined lineage.
    assert "replica-3" not in board
    plane.quiesce()


def test_routing_avoids_quarantined_replicas():
    plane = make_plane(restart_budget=0)
    scheduler = plane.platform.scheduler
    plane.pool.crash("replica-0")
    scheduler.run(until=plane.time + 2.0)
    assert states(plane)["replica-0"] is ReplicaState.QUARANTINED
    # Every request lands on the one surviving replica; the quarantined
    # entry is not in the routable set.
    before = served(plane)["replica-1"]
    for i in range(4):
        send(plane, f"q{i}")
    assert served(plane)["replica-1"] == before + 4
    routable = {e.address for e in plane.scoreboard.routable(per_replica_limit=8)}
    assert routable == {"replica-1"}
    plane.quiesce()


def test_drain_finishes_inflight_work_before_stopping():
    plane = make_plane(initial_replicas=1, service_time=0.2)
    scheduler = plane.platform.scheduler
    completion = submit_to(plane, "slow")
    # Let the request reach the replica, then begin the drain while it
    # is still being served.
    scheduler.run(until=plane.time + 0.01)
    assert plane.scoreboard.in_flight("replica-0") == 1
    assert plane.pool.drain_one() == "replica-0"
    assert scheduler.run_until(completion) == b"slow"
    assert served(plane)["replica-0"] == 1  # admitted work completed
    scheduler.run(until=plane.time + 2.0)
    assert states(plane)["replica-0"] is ReplicaState.STOPPED
    assert "drained replica-0" in plane.pool.events
    plane.quiesce()


def test_lost_provision_reply_fails_the_boot_not_the_tick():
    """Unscoped loss reaches the CAS leg: a watchdog restart whose
    un-retried ``provision`` reply is dropped must not abort the run.
    The boot activity marks that replica FAILED, the watchdog restarts
    (or quarantines) it, and every admitted request still terminates."""
    from repro.cluster.faults import FaultPlan, FaultSpec

    plane = make_plane(seed=1, initial_replicas=3)
    plane.add_faults(FaultPlan(101, FaultSpec(loss=0.2)))
    for i, at in enumerate((1.0, 2.0, 3.0)):
        plane.platform.scheduler.schedule(
            at, lambda i=i: plane.pool.crash(f"replica-{i}"), label="chaos:crash"
        )
    stats = plane.run_traffic(4, 6.0)
    plane.check_invariants()
    stats.assert_accounted()
    failed_boots = [e for e in plane.pool.events if e.startswith("boot-failed")]
    assert failed_boots, "the seed must drop a provision message"
    assert all("RpcTransportError" in e for e in failed_boots)
    # Each failed boot is a FAILED container the watchdog acted on.
    assert plane.watchdog.restarts > 3
    assert plane.router.admission.stats.admitted == plane.router.stats.terminal
    assert stats.ok > 0
    assert any(
        e.state is ReplicaState.HEALTHY for e in plane.scoreboard.entries()
    )
