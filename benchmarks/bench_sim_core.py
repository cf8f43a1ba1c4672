"""Event-heap simulation core: throughput as the replica fleet grows.

A fleet of replicas with irregular (jittered) heartbeat timers, each
heartbeat an RPC to a ring peer, runs as stackless activities on the
global event heap (:class:`repro.cluster.fleet.ReplicaFleet` through the
real ``Network``).  Cost is O(events · log events), independent of how
much simulated time passes between events, so the simulated-events/s
rate should hold roughly flat from 8 to 256 replicas.

Records to ``BENCH.json`` under ``sim_core``: the fleet-size sweep
(8 → 256 replicas) of simulated-events/s and wall time, keeping the
section it replaces under ``previous``.
"""

import time

from harness import load_bench, print_table, record, run_once, save_bench

from repro._sim import DeterministicRng, Scheduler
from repro.cluster import ReplicaFleet
from repro.cluster.network import Network
from repro.cluster.node import make_cluster
from repro.enclave.attestation import ProvisioningAuthority
from repro.enclave.cost_model import DEFAULT_COST_MODEL as CM

FLEET_SIZES = (8, 16, 32, 64, 128, 256)
ROUNDS = 10
PAYLOAD = 128
SPACING = 1.0       # mean heartbeat period (sim-seconds), ±50% jitter
SEED = 9


def _nodes(n, scheduler):
    rng = DeterministicRng(SEED, label="sim-core-bench")
    return make_cluster(
        n,
        CM,
        ProvisioningAuthority(rng.child("intel")),
        seed=SEED,
        scheduler=scheduler,
    )


def _run_event_core(n_replicas):
    scheduler = Scheduler()
    nodes = _nodes(n_replicas, scheduler)
    network = Network(CM, scheduler=scheduler)
    fleet = ReplicaFleet(
        network, nodes, n_replicas, rounds=ROUNDS, payload=PAYLOAD, spacing=SPACING
    )
    started = time.perf_counter()
    stats = fleet.run()
    wall = time.perf_counter() - started
    return {
        "events": scheduler.events_processed,
        "wall_s": wall,
        "events_per_s": scheduler.events_processed / wall,
        "heartbeats": stats.responses,
    }


def _collect():
    return {n: _run_event_core(n) for n in FLEET_SIZES}


def test_sim_core_throughput(benchmark):
    sweep = run_once(benchmark, _collect)

    print_table(
        "Event-heap core, simulated events/s by fleet size "
        f"({ROUNDS} heartbeat rounds, {SPACING:.1f}s mean spacing)",
        ("replicas", "events", "ev/s", "wall"),
        [
            [
                n,
                sweep[n]["events"],
                f"{sweep[n]['events_per_s']:,.0f}",
                f"{sweep[n]['wall_s'] * 1e3:.0f}ms",
            ]
            for n in FLEET_SIZES
        ],
    )

    for n in FLEET_SIZES:
        assert sweep[n]["heartbeats"] == n * ROUNDS
    # The event core's rate holds flat as the fleet grows (O(log N)).
    assert sweep[256]["events_per_s"] > sweep[8]["events_per_s"] * 0.3
    # The 256-replica fleet stays well inside a 2-minute budget.
    assert sweep[256]["wall_s"] < 120.0

    record(
        benchmark,
        core_ev_s_64=sweep[64]["events_per_s"],
        core_wall_256=sweep[256]["wall_s"],
    )
    previous = load_bench("sim_core")
    previous.pop("previous", None)
    save_bench(
        "sim_core",
        {
            "rounds": ROUNDS,
            "spacing_s": SPACING,
            "fleet_sweep": {
                str(n): {
                    "core_events_per_s": round(sweep[n]["events_per_s"]),
                    "core_wall_s": round(sweep[n]["wall_s"], 4),
                    "events": sweep[n]["events"],
                }
                for n in FLEET_SIZES
            },
            "previous": previous,
        },
    )
