"""Tier-1 tail pin: the serving plane does not queue behind itself.

Deterministic (simulated clock only, no host timing), so it runs in
tier 1.  One seeded plane provisioned like the ``serve_chaos`` workload
of ``benchmarks/e2e`` — 5 replicas on 4 nodes, autoscaler up to 8, 16
closed-loop clients for 40 simulated seconds under 1 % loss, latency
spikes, duplicates, a 2 s partition of one replica and a crash of
another: every request is answered and the clients' p95 stays under
20 ms — inside two service times; it reads 12.4 ms.  A router that
ranks replica state ahead of load (one lost message starves a replica
until every healthy one holds 8 requests), or a placement that stacks
replicas on the router's node, reads 54–61 ms; endpoints that share
their node's one clock instead of taking a core each (the router stalls
a service time behind the replica placed beside it) read 26 ms.
"""

import pytest

from repro.cluster.faults import FaultPlan, FaultSpec, TransientPartition
from repro.serving.autoscaler import AutoscalerPolicy
from repro.serving.router import RouterPolicy
from repro.serving.service import ServingPlane
from repro.serving.traffic import DiurnalProfile

pytestmark = pytest.mark.serving

SEED = 11000
CLIENTS = 16
DURATION = 40.0
REPLICAS = 5
MAX_REPLICAS = 8
P95_CEILING = 0.020


def test_chaos_plane_p95_stays_off_the_self_inflicted_queue():
    plane = ServingPlane(
        seed=SEED,
        n_nodes=4,
        initial_replicas=REPLICAS,
        router_policy=RouterPolicy(max_attempts=5),
        autoscaler_policy=AutoscalerPolicy(
            slo_p99=0.2, min_replicas=REPLICAS, max_replicas=MAX_REPLICAS
        ),
    )
    replicas = frozenset(f"replica-{i}" for i in range(4 * MAX_REPLICAS))
    plane.add_faults(FaultPlan(
        SEED + 1,
        FaultSpec(loss=0.01, delay=0.02, delay_seconds=0.05,
                  duplication=0.01, targets=replicas),
        partitions=[TransientPartition("replica-1", 10.0, 12.0)],
    ))
    plane.platform.scheduler.schedule(
        20.0, lambda: plane.pool.crash("replica-0"), label="chaos:crash"
    )
    stats = plane.run_traffic(
        CLIENTS, DURATION, profile=DiurnalProfile(), deadline_budget=1.0
    )
    plane.check_invariants()
    stats.assert_accounted()
    assert stats.sent > 2000 and stats.ok == stats.sent
    # The chaos fired and was absorbed by the router, not by luck.
    assert plane.platform.network.stats.dropped > 20
    assert plane.router.stats.retries > 20
    assert stats.latency.percentile(95) < P95_CEILING
    # No routable replica sits out the run.
    served = [entry.served for entry in plane.scoreboard.entries()]
    assert min(served) > 0.02 * sum(served)
