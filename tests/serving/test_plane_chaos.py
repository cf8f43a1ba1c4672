"""End-to-end chaos: the plane's promise under loss, partition, crash.

One seeded chaos plan (message loss + latency spikes + duplicate
delivery), one transient partition, and one scheduled replica crash run
against the full :class:`ServingPlane`.  The suite asserts the plane's
core promise — every admitted request terminates in exactly one reply
or one typed error — and that the entire run (router decisions, pool
lifecycle, fault injections) replays byte-for-byte from the seed.
"""

import pytest

from repro.cluster.faults import FaultPlan, FaultSpec, TransientPartition
from repro.serving.router import RouterPolicy
from repro.serving.service import ServingPlane

pytestmark = pytest.mark.serving


def run_chaos_plane(seed):
    plane = ServingPlane(seed=seed, n_nodes=4, initial_replicas=2)
    plan = FaultPlan(
        seed + 1,
        FaultSpec(loss=0.02, delay=0.02, delay_seconds=0.05, duplication=0.01),
        partitions=[TransientPartition("replica-1", 1.0, 2.0)],
    )
    plane.add_faults(plan)
    plane.platform.scheduler.schedule(
        2.5, lambda: plane.pool.crash("replica-0"), label="chaos:crash"
    )
    stats = plane.run_traffic(clients=6, duration=4.0, deadline_budget=0.5)
    plane.check_invariants()
    return plane, plan, stats


@pytest.fixture(scope="module")
def runs():
    """Memoized chaos runs keyed by (seed, copy) so the replay tests do
    not pay for the simulation more often than needed."""
    cache = {}

    def get(seed, copy=0):
        key = (seed, copy)
        if key not in cache:
            cache[key] = run_chaos_plane(seed)
        return cache[key]

    return get


def test_chaos_actually_fired(runs):
    plane, plan, _ = runs(11)
    counters = plan.counters
    assert counters.losses + counters.delays + counters.duplicates > 0
    assert counters.partition_drops > 0
    # The scheduled crash hit a *running* replica and the watchdog
    # replaced it with a freshly attested container.
    assert "crash replica-0" in plane.pool.events
    assert any(e.startswith("attested replica-2") for e in plane.pool.events)


def test_every_admitted_request_terminates_exactly_once(runs):
    plane, _, stats = runs(11)
    # Client-side: every sent request landed in exactly one outcome
    # bucket (reply, overload, deadline, transport) — no silent drops.
    stats.assert_accounted()
    assert stats.sent > 0 and stats.ok > 0
    # Router-side: admitted == terminal and nothing is still pending
    # (check_invariants in the helper enforces it; re-state the ledger
    # here so a regression fails with the numbers visible).
    router = plane.router
    assert plane.router.admission.stats.admitted == router.stats.terminal
    assert router.pending_count() == 0


def test_resilience_machinery_engaged(runs):
    plane, _, stats = runs(11)
    router = plane.router
    # Chaos at these rates must exercise the recovery paths, not just
    # the happy path: lost legs retried, duplicates replayed, and the
    # clients saw typed errors only.
    assert router.stats.retries > 0
    assert router.stats.dedup_replays >= 0  # duplicates may all dedup at replicas
    assert stats.other_errors == 0


def test_same_seed_replays_byte_identically(runs):
    plane_a, plan_a, stats_a = runs(11)
    plane_b, plan_b, stats_b = runs(11, copy=1)
    assert plane_a.trace_bytes() == plane_b.trace_bytes()
    assert plan_a.trace_bytes() == plan_b.trace_bytes()
    assert stats_a.outcomes == stats_b.outcomes
    assert stats_a.sent == stats_b.sent


def test_different_seed_diverges(runs):
    plane_a, _, _ = runs(11)
    plane_c, _, _ = runs(12)
    assert plane_a.trace_bytes() != plane_c.trace_bytes()


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_a_request_lost_on_the_client_leg_is_resent(seed):
    """Loss on the client↔router legs only: a lost send or a lost reply
    is resent under the same request id while its deadline holds, and
    the router's at-most-once window answers the resend — nothing is
    lost to ``transport`` and nothing runs twice."""
    plane = ServingPlane(
        seed=seed,
        n_nodes=4,
        initial_replicas=5,
        router_policy=RouterPolicy(max_attempts=5),
    )
    clients = frozenset(f"client-{i}" for i in range(16))
    plan = FaultPlan(seed + 1, FaultSpec(loss=0.02, targets=clients))
    plane.add_faults(plan)
    stats = plane.run_traffic(16, 10.0)
    plane.check_invariants()
    assert plan.counters.losses > 0
    assert stats.transport == 0
    assert stats.ok == stats.sent
    assert stats.recovery.retries > 0
    # Every request the router admitted settled once: resends were
    # answered from its window, not admitted again.
    assert plane.router.admission.stats.admitted == plane.router.stats.completed_ok
