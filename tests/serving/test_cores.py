"""The serving plane runs on the cores its nodes have.

The router and every attested replica take a core of their node
(:meth:`repro.cluster.node.Node.take_core`); container start,
attestation and the control plane stay on the node's clock.  These
tests hold the consequences: replicas added past the node count add
capacity, a node out of cores degrades to the shared clock it always
was, a cold start happens on the timeline without stalling the
neighbour, and none of it costs determinism or an open ledger.
"""

import pytest

from repro.cluster.faults import FaultPlan, FaultSpec, TransientPartition
from repro.observability import Telemetry
from repro.serving.router import RouterPolicy
from repro.serving.scoreboard import ReplicaState
from repro.serving.service import ServingPlane
from repro.serving.traffic import DiurnalProfile

pytestmark = pytest.mark.serving

#: One service time (10 ms + 20 % jitter) plus forwarding and the wire.
ONE_SERVICE_TIME = 0.0135


def saturated_throughput(replicas):
    """Requests a 2-node plane answers in 3 simulated seconds when 16
    closed-loop clients never think."""
    plane = ServingPlane(
        seed=5,
        n_nodes=2,
        initial_replicas=replicas,
        router_policy=RouterPolicy(hedge=False),
        rate_limit=1e6,
        rate_burst=1e6,
    )
    stats = plane.run_traffic(
        16,
        plane.time + 3.0,
        profile=DiurnalProfile(base_think=0.001, phases=((1.0, 1.0),)),
    )
    plane.check_invariants()
    assert stats.ok == stats.sent
    return stats.ok


def test_replicas_past_the_node_count_add_capacity():
    assert saturated_throughput(4) >= 1.8 * saturated_throughput(2)


def latencies_by_replica(plane, since, until):
    """Router-side latency of every request admitted in the window,
    grouped by the replica it was dispatched to."""
    admitted, sent_to, out = {}, {}, {}
    for event in plane.router.events:
        parts = event.split()
        when = float(parts[-1].lstrip("@"))
        if parts[0] == "admit":
            admitted[parts[1]] = when
        elif parts[0] == "dispatch":
            sent_to[parts[1]] = parts[3]
        elif parts[0] == "ok" and since <= admitted[parts[1]] <= until:
            out.setdefault(sent_to[parts[1]], []).append(when - admitted[parts[1]])
    return out


def test_a_cold_start_is_on_the_timeline_and_beside_its_neighbour():
    """replica-0 and replica-2 share node-1.  replica-0 is crashed at
    t = 5; the watchdog's next tick restarts it on node-1, whose clock
    nothing has touched since the plane was built."""
    crash_at = 5.0
    plane = ServingPlane(seed=9, n_nodes=2, initial_replicas=3)
    placed = {c.name: c.node.node_id for c in plane.pool.containers()}
    assert placed["replica-0"] == placed["replica-2"] == "node-1"
    orchestrator = plane.platform.orchestrator
    ticks, restart = [], orchestrator.restart

    def restart_and_note_the_tick(spec, container, reason="", at=None):
        ticks.append(at)
        return restart(spec, container, reason, at=at)

    orchestrator.restart = restart_and_note_the_tick
    plane.platform.scheduler.schedule(
        crash_at, lambda: plane.pool.crash("replica-0"), label="test:crash"
    )
    stats = plane.run_traffic(
        3, 8.0, profile=DiurnalProfile(base_think=0.03, phases=((1.0, 1.0),))
    )
    plane.check_invariants()
    assert stats.ok == stats.sent

    (tick,) = ticks
    assert crash_at <= tick <= crash_at + 0.25
    cold = plane.pool.cold_starts[-1]
    assert cold > plane.platform.cost_model.container_start_cost
    first_dispatch = min(
        float(event.split()[-1].lstrip("@"))
        for event in plane.router.events
        if event.startswith("dispatch ") and event.split()[3] == "replica-3"
    )
    assert first_dispatch >= tick + cold
    window = latencies_by_replica(plane, tick, tick + cold)
    # The neighbour kept serving through the container start and the
    # attestation next door: three clients on the two replicas left put
    # a request behind at most one other, never behind the cold start.
    assert len(window["replica-2"]) > 5
    assert max(window["replica-2"]) < 2 * ONE_SERVICE_TIME
    assert plane.scoreboard.get("replica-3").served > 0


def test_a_node_out_of_cores_shares_its_clock_and_a_dead_replica_returns_its_core():
    plane = ServingPlane(seed=3, n_nodes=1, initial_replicas=4)
    node = plane.platform.nodes[0]
    assert node.cores == 4
    on_node_clock = {
        c.name: c.core.clock is node.clock for c in plane.pool.containers()
    }
    # The router and the first two replicas hold the three cores.
    assert on_node_clock == {
        "replica-0": False, "replica-1": False, "replica-2": True, "replica-3": True,
    }
    assert [core.label for core in node.cores_out] == [
        "router", "replica-0@node-0", "replica-1@node-0",
    ]
    assert plane.router.clock is node.cores_out[0].clock

    plane.pool.crash("replica-0")
    assert [core.label for core in node.cores_out] == ["router", "replica-1@node-0"]
    plane.platform.scheduler.run(until=plane.time + 1.0)
    # The watchdog's replacement found the core free.
    assert plane.scoreboard.get("replica-4").state is ReplicaState.HEALTHY
    assert node.cores_out[-1].label == "replica-4@node-0"
    plane.close()
    assert node.cores_out == []


def chaos_plane(seed, **flags):
    plane = ServingPlane(seed=seed, n_nodes=3, initial_replicas=3, **flags)
    plane.add_faults(FaultPlan(
        seed + 1,
        FaultSpec(loss=0.02, delay=0.02, delay_seconds=0.05, duplication=0.01,
                  targets=frozenset(f"replica-{i}" for i in range(8))),
        partitions=[TransientPartition("replica-1", 1.0, 1.5)],
    ))
    plane.platform.scheduler.schedule(
        2.0, lambda: plane.pool.crash("replica-0"), label="test:crash"
    )
    stats = plane.run_traffic(clients=6, duration=4.0, deadline_budget=0.5)
    plane.check_invariants()
    bundles = (
        [bundle.dump() for bundle in plane.monitoring.bundles]
        if plane.monitoring is not None
        else []
    )
    plane.close()
    return plane.trace_bytes(), stats.outcomes, bundles


@pytest.mark.parametrize("flags", [{"fencing": True}, {"monitoring": True}])
def test_seeded_replay_is_byte_identical(flags):
    first, second = chaos_plane(31, **flags), chaos_plane(31, **flags)
    assert first == second
    assert b"crash replica-0" in first[0] and b"attested replica-3" in first[0]
    if "monitoring" in flags:
        assert first[2]  # the crash produced a bundle, and it replayed


def test_a_traced_lap_closes_on_every_clock_cores_included():
    plane = ServingPlane(seed=17, n_nodes=2, initial_replicas=2)
    with Telemetry(plane.platform) as telemetry:
        plane.platform.scheduler.schedule(
            1.5, lambda: plane.pool.crash("replica-0"), label="test:crash"
        )
        stats = plane.run_traffic(clients=4, duration=3.0)
        profiles = telemetry.profile()
    assert stats.ok == stats.sent
    # Cores taken before the trace opened and the one taken during it.
    assert {
        "node-0", "node-1", "router", "replica-0@node-1", "replica-1@node-0",
        "replica-2@node-1", "clients",
    } <= set(profiles)
    for label, node in profiles.items():
        assert node.elapsed >= 0
        if node.elapsed:
            assert abs(node.total - node.elapsed) / node.elapsed < 0.01, label
    assert profiles["replica-2@node-1"].layers["compute"] > 0
    # The plane's time is the latest of its clocks, cores included.
    assert plane.time >= plane.router.clock.now


def test_flight_rings_and_incidents_name_the_cores():
    plane = ServingPlane(seed=17, n_nodes=2, initial_replicas=2, monitoring=True)
    recorder = plane.monitoring.recorder
    plane.platform.scheduler.schedule(
        1.0, lambda: plane.pool.crash("replica-0"), label="test:crash"
    )
    plane.run_traffic(clients=4, duration=2.0, deadline_budget=0.5)
    labels = {recorder.label_of(clock) for clock in recorder.clocks()}
    crashes = [
        bundle for bundle in plane.monitoring.bundles
        if bundle.trigger_kind == "replica.crash"
    ]
    plane.close()
    assert {"router", "replica-0@node-1", "replica-2@node-1"} <= labels
    # The crash is filed under the replica's core.
    (crash,) = crashes
    assert crash.trigger_node == "replica-0@node-1"
