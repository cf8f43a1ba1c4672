"""Router unit tests: shed, deadline, retry, hedge, settle-exactly-once.

These drive the :class:`FrontEndRouter` on a bare :class:`Network` with
hand-built replica servers (no platform, no attestation) so each state
transition of the request state machine is observable in isolation.
"""

import pytest

from repro._sim.clock import SimClock
from repro._sim.rng import DeterministicRng
from repro.cluster import Network, make_cluster
from repro.cluster.network import FaultAction
from repro.cluster.rpc import RpcServer
from repro.enclave.cost_model import DEFAULT_COST_MODEL as CM
from repro.errors import DeadlineExceededError, OverloadError, RpcTransportError
from repro.observability.slo import serving_slos
from repro.serving.admission import AdmissionController, TokenBucket
from repro.serving.router import FrontEndRouter, RouterPolicy
from repro.serving.scoreboard import ReplicaScoreboard, ReplicaState
from repro.serving.traffic import DiurnalProfile, TrafficGenerator
from tests.serving._client import request_of, submit

pytestmark = pytest.mark.serving


@pytest.fixture
def cluster(provisioning):
    return make_cluster(3, CM, provisioning, seed=4)


@pytest.fixture
def network():
    return Network(CM)


def make_router(network, node, per_replica_limit=2, max_attempts=3, hedge=False,
                hedge_min_delay=0.05, rate=1000.0, burst=100.0,
                breaker_failure_threshold=3):
    return FrontEndRouter(
        network,
        node,
        "router",
        ReplicaScoreboard(),
        AdmissionController(TokenBucket(rate, burst)),
        breaker_failure_threshold=breaker_failure_threshold,
        policy=RouterPolicy(
            per_replica_limit=per_replica_limit,
            max_attempts=max_attempts,
            hedge=hedge,
            hedge_min_delay=hedge_min_delay,
        ),
    )


def add_replica(network, router, node, address, service_time=0.01):
    """An ``infer`` server on ``node`` that takes ``service_time`` and
    echoes the payload; returns the requests it executed, in order."""
    executions = []

    def infer(payload, peer):
        executions.append(payload.decode())
        node.clock.advance(service_time)
        return payload

    server = RpcServer(network, address, node)
    server.register("infer", infer)
    server.start()
    router.scoreboard.add(address, state=ReplicaState.HEALTHY)
    return executions


def send(network, clock, request_id, deadline=None, attempts=1):
    """One request, driven to its reply payload (or its typed error)."""
    return network.scheduler.run_until(
        submit(network, clock, request_id, deadline=deadline, attempts=attempts)
    )


def served(router, address):
    return router.scoreboard.get(address).served


def drop_first_message_to(network, address):
    """Lose exactly one message addressed to ``address``."""
    dropped = []

    def fault(src, dst, n_bytes, now):
        if dst == address and not dropped:
            dropped.append(src)
            return FaultAction(drop=True, reason="test drop")
        return None

    network.faults.append(fault)


def dispatches(router):
    """(request id, replica) of every attempt the router sent, in order."""
    return [
        (request_of(event), event.split()[3])
        for event in router.events
        if event.startswith(("dispatch ", "hedge "))
    ]


def test_ok_roundtrip_returns_the_replica_reply(cluster, network):
    router = make_router(network, cluster[0])
    add_replica(network, router, cluster[1], "r-a")
    assert send(network, cluster[2].clock, "q1") == b"q1"
    assert dispatches(router) == [("q1", "r-a")]
    assert router.stats.completed_ok == 1
    assert router.admission.stats.admitted == 1
    assert router.scoreboard.get("r-a").served == 1


def test_queue_bound_sheds_with_typed_overload(cluster, network):
    """Second concurrent request to a full single-replica queue is shed
    explicitly — a typed OverloadError, not a timeout, not a drop."""
    router = make_router(network, cluster[0], per_replica_limit=1)
    add_replica(network, router, cluster[1], "r-a", service_time=1.0)
    clock = cluster[2].clock
    first = submit(network, clock, "q1")
    second = submit(network, clock, "q2")
    with pytest.raises(OverloadError):
        network.scheduler.run_until(second)
    network.scheduler.run_until(first)
    assert router.admission.stats.admitted == 1
    assert router.admission.stats.shed_capacity == 1


def test_rate_limit_sheds_with_typed_overload(cluster, network):
    router = make_router(network, cluster[0], rate=1.0, burst=1.0)
    add_replica(network, router, cluster[1], "r-a")
    clock = cluster[2].clock
    send(network, clock, "q1")
    with pytest.raises(OverloadError):
        send(network, clock, "q2")
    assert router.admission.stats.shed_rate == 1


def test_expired_on_arrival_is_shed_server_side(cluster, network):
    router = make_router(network, cluster[0])
    executions = add_replica(network, router, cluster[1], "r-a")
    clock = cluster[2].clock
    clock.advance(1.0)
    with pytest.raises(DeadlineExceededError):
        send(network, clock, "q1", deadline=0.5)
    # Shed by the router's server before its handler ran: never
    # admitted, never dispatched, no replica time burned.
    assert executions == []
    assert router.admission.stats.arrivals == 0
    assert router.stats.server.shed_expired == 1
    assert router.pending_count() == 0
    # ...but it is offered load the shed-rate SLO sees, shed in full.
    (shed_rate,) = [s for s in serving_slos(router) if s.name == "serving.shed_rate"]
    assert shed_rate.value_probe() == 1.0


def test_replica_side_deadline_shed_propagates(cluster, network):
    """The deadline travels in the envelope: a replica whose clock is
    already past it sheds instead of executing, and the typed error is
    authoritative (no retry on another replica)."""
    router = make_router(network, cluster[0])
    executions_a = add_replica(network, router, cluster[1], "r-a")
    executions_b = add_replica(network, router, cluster[2], "r-b")
    cluster[1].clock.advance(5.0)  # r-a is far ahead: arrival beats deadline
    clock = cluster[2].clock
    # r-a wins the pick (tie on load, address order) but sheds.
    with pytest.raises(DeadlineExceededError):
        send(network, clock, "q1", deadline=clock.now + 0.5)
    assert executions_a == [] and executions_b == []
    assert router.stats.failed_deadline == 1


def test_router_deadline_event_fires_before_slow_reply(cluster, network):
    router = make_router(network, cluster[0])
    add_replica(network, router, cluster[1], "r-a", service_time=2.0)
    clock = cluster[2].clock
    with pytest.raises(DeadlineExceededError):
        send(network, clock, "q1", deadline=clock.now + 0.3)
    # The client learned its fate at the deadline, not after 2 s.
    assert clock.now < 1.0
    assert router.stats.failed_deadline == 1
    # The slow reply still arrives later; it must be observational only.
    network.scheduler.run()
    assert router.stats.late_replies == 1
    assert router.stats.terminal == 1  # settled exactly once


def test_transport_failure_retries_on_another_replica(cluster, network):
    router = make_router(network, cluster[0])
    add_replica(network, router, cluster[1], "r-a")
    add_replica(network, router, cluster[2], "r-b")

    drop_first_message_to(network, "r-a")
    send(network, cluster[2].clock, "q1")
    assert dispatches(router) == [("q1", "r-a"), ("q1", "r-b")]
    assert (served(router, "r-a"), served(router, "r-b")) == (0, 1)
    assert router.stats.retries == 1
    assert router.stats.completed_ok == 1
    # The lost attempt degraded r-a and fed its breaker.
    assert router.scoreboard.get("r-a").state is ReplicaState.DEGRADED
    assert router.recovery.breakers_closed == 2


def test_one_lost_message_does_not_starve_a_replica(cluster, network):
    """The starvation regression: r-a is DEGRADED by one lost message
    and the healthy r-b holds a request — the next dispatch goes to the
    lighter r-a, and its reply heals it.  (With state rank ahead of load
    it went to r-b until r-b held ``per_replica_limit`` requests, and
    r-a, never tried, never healed.)"""
    router = make_router(network, cluster[0], per_replica_limit=4)
    add_replica(network, router, cluster[1], "r-a", service_time=0.01)
    add_replica(network, router, cluster[2], "r-b", service_time=1.0)
    drop_first_message_to(network, "r-a")
    clock = SimClock()
    first = submit(network, clock, "q1")
    network.scheduler.run(until=0.1)
    assert dispatches(router) == [("q1", "r-a"), ("q1", "r-b")]
    assert router.scoreboard.get("r-a").state is ReplicaState.DEGRADED
    assert router.scoreboard.in_flight("r-b") == 1

    clock.advance_to(0.1)
    send(network, clock, "q2")
    assert dispatches(router)[-1] == ("q2", "r-a")
    assert served(router, "r-a") == 1
    assert router.scoreboard.get("r-a").state is ReplicaState.HEALTHY
    network.scheduler.run_until(first)
    assert served(router, "r-b") == 1


def test_partitioned_replica_is_cut_off_by_its_breaker(cluster, network):
    """Load-first routing keeps offering a failing replica its share, so
    exclusion is the breaker's job: three failures open it, and from
    then on no attempt is sent to the partitioned replica."""
    router = make_router(network, cluster[0], per_replica_limit=8)
    add_replica(network, router, cluster[1], "r-a", service_time=0.2)
    add_replica(network, router, cluster[2], "r-b")
    network.partition("r-b")
    clock = SimClock()
    pending = [submit(network, clock, f"q{i}") for i in range(6)]
    for completion in pending:
        network.scheduler.run_until(completion)
    assert (served(router, "r-a"), served(router, "r-b")) == (6, 0)
    # q0 ties and goes to r-a; q1..q3 find r-b lighter and fail on it.
    assert [r for _, r in dispatches(router)].count("r-b") == 3
    assert router.recovery.breaker_trips == 1
    assert router.recovery.breakers_open == 1
    assert router.recovery.breaker_rejections == 2  # q4, q5: not even tried
    assert router.stats.completed_ok == 6 and router.stats.retries == 3


def test_no_routable_replica_is_typed_overload(cluster, network):
    make_router(network, cluster[0])
    with pytest.raises(OverloadError):
        send(network, cluster[2].clock, "q1")


def test_every_replica_lost_is_a_transport_error_not_overload(cluster, network):
    """Both routable replicas lose the request and attempts remain: the
    request died of transport, and both ledgers must say so — overload
    means nothing was ever dispatched."""
    # Breakers held shut: an open breaker is "never dispatched", which is
    # overload, and this test is about requests that were.
    router = make_router(
        network, cluster[0], max_attempts=5, breaker_failure_threshold=1000
    )
    add_replica(network, router, cluster[1], "r-a")
    add_replica(network, router, cluster[2], "r-b")
    network.faults.append(
        lambda src, dst, n_bytes, now: FaultAction(drop=True, reason="test drop")
        if dst in ("r-a", "r-b")
        else None
    )
    with pytest.raises(RpcTransportError):
        send(network, SimClock(), "q1")
    assert dispatches(router) == [("q1", "r-a"), ("q1", "r-b")]
    assert router.stats.failed_transport == 1 and router.stats.failed_other == 0
    assert router.admission.stats.admitted == router.stats.terminal == 1

    # The client-side half of the ledger files it under transport too.
    traffic = TrafficGenerator(
        network, "router", clients=2, duration=2.0,
        rng=DeterministicRng(7), profile=DiurnalProfile(base_think=0.2),
    )
    stats = traffic.run()
    stats.assert_accounted()
    assert stats.sent > 0 and stats.transport == stats.sent
    assert stats.overload == 0
    assert router.stats.failed_transport == 1 + stats.sent


def test_hedge_second_attempt_first_reply_wins(cluster, network):
    router = make_router(network, cluster[0], hedge=True, hedge_min_delay=0.05)
    executions_a = add_replica(network, router, cluster[1], "r-a", service_time=1.0)
    executions_b = add_replica(network, router, cluster[2], "r-b", service_time=0.01)
    clock = cluster[2].clock
    send(network, clock, "q1", deadline=clock.now + 5.0)
    # The hedge (to the other replica) answered long before the slow
    # primary; its reply settled the request.
    assert dispatches(router) == [("q1", "r-a"), ("q1", "r-b")]
    assert (served(router, "r-a"), served(router, "r-b")) == (0, 1)
    assert router.stats.hedges_fired == 1
    assert router.stats.hedges_won == 1
    assert router.stats.completed_ok == 1
    assert executions_a == ["q1"] and executions_b == ["q1"]
    # First-reply-wins: the loser's reply is late, the request settled once.
    network.scheduler.run()
    assert router.stats.late_replies == 1
    assert router.stats.terminal == 1


def test_hedge_not_fired_when_primary_is_fast(cluster, network):
    router = make_router(network, cluster[0], hedge=True, hedge_min_delay=0.5)
    add_replica(network, router, cluster[1], "r-a", service_time=0.01)
    add_replica(network, router, cluster[2], "r-b", service_time=0.01)
    send(network, cluster[2].clock, "q1")
    network.scheduler.run()
    assert router.stats.hedges_fired == 0
    assert router.stats.completed_ok == 1


def test_duplicate_request_replays_cached_outcome(cluster, network):
    """The router's reply is lost; the client resends under the same
    call ID and the router's window answers it."""
    router = make_router(network, cluster[0])
    executions = add_replica(network, router, cluster[1], "r-a")
    drop_first_message_to(network, "q1")
    assert send(network, cluster[2].clock, "q1", attempts=2) == b"q1"
    assert executions == ["q1"]  # executed once, replayed once
    assert router.stats.dedup_replays == 1
    assert router.admission.stats.admitted == 1


def test_duplicate_of_failed_request_replays_the_typed_error(cluster, network):
    router = make_router(network, cluster[0])
    add_replica(network, router, cluster[1], "r-a", service_time=2.0)
    drop_first_message_to(network, "q1")
    clock = cluster[2].clock
    with pytest.raises(DeadlineExceededError):
        send(network, clock, "q1", deadline=clock.now + 0.3, attempts=2)
    assert router.stats.dedup_replays == 1
    assert router.stats.terminal == 1


def test_admitted_equals_terminal_over_a_mixed_run(cluster, network):
    """The core accounting invariant: every admitted request reaches
    exactly one terminal outcome."""
    router = make_router(network, cluster[0], per_replica_limit=1)
    add_replica(network, router, cluster[1], "r-a", service_time=0.05)
    clock = cluster[2].clock
    outcomes = {"ok": 0, "err": 0}
    pending = []
    for i in range(10):
        deadline = clock.now + (0.02 if i % 3 == 0 else 1.0)
        pending.append(submit(network, clock, f"q{i}", deadline=deadline))
    for completion in pending:
        try:
            network.scheduler.run_until(completion)
            outcomes["ok"] += 1
        except (OverloadError, DeadlineExceededError, RpcTransportError):
            outcomes["err"] += 1
    network.scheduler.run()
    assert outcomes["ok"] + outcomes["err"] == 10
    assert router.admission.stats.admitted == router.stats.terminal
    assert router.pending_count() == 0
