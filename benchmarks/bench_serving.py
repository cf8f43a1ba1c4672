"""Resilient serving plane under diurnal load and seeded chaos.

Drives the full :class:`ServingPlane` (attested router, elastic replica
pool, watchdog supervision, SLO autoscaler) with a closed-loop client
fleet through a diurnal spike profile, twice: fault-free and under a
seeded chaos plan (message loss + latency spikes + duplicate delivery,
one transient partition, one replica crash mid-spike).  Headline
numbers — sustained requests/s, client p99 under chaos, and the
cold-start → attested latency that makes elastic scaling practical
(paper challenge ❹) — land in ``BENCH.json`` under ``serving``, the
section they replace kept under ``previous``.  Two more say whether the
plane queues behind itself: the share of requests answered within one
service time, and what doubling the replicas on a fixed pair of nodes
does to saturated throughput.

The bench also *asserts* the plane's contract while measuring it:
every admitted request terminates in exactly one reply or one typed
error, and the chaos run replays byte-for-byte from its seed.
"""

import pytest

from harness import (
    fmt_ms,
    fmt_s,
    load_bench,
    print_table,
    record,
    run_once,
    save_bench,
)

from repro.cluster.faults import FaultPlan, FaultSpec, TransientPartition
from repro.serving.autoscaler import AutoscalerPolicy
from repro.serving.router import RouterPolicy
from repro.serving.service import ServingPlane
from repro.serving.traffic import DiurnalProfile

SEED = 21
CLIENTS = 12
DURATION = 8.0
DEADLINE_BUDGET = 0.5
#: The slowest service time (10 ms + 20 % jitter) plus forwarding and
#: four wire legs: a request that takes longer waited for something.
ONE_SERVICE_TIME = 0.0135


def _saturated_throughput(replicas: int) -> int:
    """Requests a 2-node plane answers in 3 simulated seconds when 16
    closed-loop clients never think (no hedging, no rate limit)."""
    plane = ServingPlane(
        seed=SEED,
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


def _run(seed: int, chaos: bool):
    plane = ServingPlane(
        seed=seed,
        n_nodes=4,
        initial_replicas=2,
        autoscaler_policy=AutoscalerPolicy(
            slo_p99=0.2, min_replicas=2, max_replicas=6
        ),
    )
    plan = None
    if chaos:
        plan = FaultPlan(
            seed + 1,
            FaultSpec(loss=0.02, delay=0.02, delay_seconds=0.05, duplication=0.01),
            partitions=[TransientPartition("replica-1", 3.0, 4.0)],
        )
        plane.add_faults(plan)
        # replica-0 is never a drain target (scale-in drains the newest
        # replica first), so this always kills a *running* enclave.
        plane.platform.scheduler.schedule(
            5.0, lambda: plane.pool.crash("replica-0"), label="chaos:crash"
        )
    start = plane.time
    stats = plane.run_traffic(
        CLIENTS,
        DURATION,
        profile=DiurnalProfile(),
        deadline_budget=DEADLINE_BUDGET,
    )
    elapsed = plane.time - start
    # The contract the numbers ride on: no silent drops, no double
    # execution — every admitted request has exactly one outcome.
    plane.check_invariants()
    stats.assert_accounted()
    return plane, plan, stats, elapsed


def test_serving_plane(benchmark):
    def scenario():
        clean = _run(SEED, chaos=False)
        chaos = _run(SEED, chaos=True)
        replay = _run(SEED, chaos=True)
        capacity = _saturated_throughput(4) / _saturated_throughput(2)
        return clean, chaos, replay, capacity

    clean, chaos, replay, capacity = run_once(benchmark, scenario)

    # Determinism: the chaos run replays byte-for-byte from its seed —
    # router decisions, pool lifecycle, autoscaler moves, injected
    # faults, all of it.
    assert chaos[0].trace_bytes() == replay[0].trace_bytes()
    assert chaos[1].trace_bytes() == replay[1].trace_bytes()
    assert chaos[2].outcomes == replay[2].outcomes

    def measures(run):
        plane, _, stats, elapsed = run
        return {
            "req_per_s": stats.ok / elapsed,
            "p50": stats.latency.percentile(50),
            "p95": stats.latency.percentile(95),
            "p99": stats.latency.percentile(99),
            "within": stats.latency.share_within(ONE_SERVICE_TIME),
            "ok": stats.ok,
            "sent": stats.sent,
            "typed_errors": stats.overload + stats.deadline + stats.transport,
            "retries": plane.router.stats.retries,
            "hedges": plane.router.stats.hedges_fired,
            "hedges_won": plane.router.stats.hedges_won,
            "replicas_attested": len(plane.pool.cold_starts),
            "cold_starts": list(plane.pool.cold_starts),
        }

    m_clean, m_chaos = measures(clean), measures(chaos)
    cold = m_chaos["cold_starts"]
    cold_mean = sum(cold) / len(cold)

    def row(label, m):
        return (
            label,
            f"{m['req_per_s']:.0f}",
            fmt_ms(m["p50"]),
            fmt_ms(m["p99"]),
            f"{m['ok']}/{m['sent']}",
            str(m["typed_errors"]),
            str(m["retries"]),
            f"{m['hedges_won']}/{m['hedges']}",
        )

    print_table(
        f"Serving plane: {CLIENTS} clients, {fmt_s(DURATION)} diurnal spike, "
        f"{fmt_s(DEADLINE_BUDGET)} deadline budget",
        ("scenario", "req/s", "p50", "p99", "ok/sent", "typed err",
         "retries", "hedge won"),
        [
            row("fault-free", m_clean),
            row("chaos (loss+part+crash)", m_chaos),
        ],
        notes=[
            "chaos: 2% loss, 2% latency spikes, 1% duplication, 1s partition "
            f"of replica-1, replica-0 crashed mid-spike (seed {SEED + 1})",
            f"{m_chaos['replicas_attested']} replicas attested over the chaos "
            f"run; cold start -> attested mean {fmt_ms(cold_mean)}, "
            f"max {fmt_ms(max(cold))}",
            "every admitted request terminated in exactly one reply or one "
            "typed error; chaos run replays byte-identically from its seed",
            f"answered within one service time ({fmt_ms(ONE_SERVICE_TIME)}): "
            f"{m_clean['within']:.1%} fault-free, {m_chaos['within']:.1%} "
            f"under chaos; 4 replicas on 2 nodes serve {capacity:.2f}x what "
            "2 do (saturating closed loop)",
        ],
    )

    record(
        benchmark,
        clean_req_per_s=m_clean["req_per_s"],
        chaos_req_per_s=m_chaos["req_per_s"],
        chaos_p99_s=m_chaos["p99"],
        cold_start_mean_s=cold_mean,
    )
    previous = load_bench("serving")
    previous.pop("previous", None)
    save_bench(
        "serving",
        {
            "clients": CLIENTS,
            "duration_s": DURATION,
            "deadline_budget_s": DEADLINE_BUDGET,
            "clean_requests_per_sec": round(m_clean["req_per_s"], 1),
            "clean_p50_ms": round(m_clean["p50"] * 1e3, 3),
            "clean_p95_ms": round(m_clean["p95"] * 1e3, 3),
            "clean_p99_ms": round(m_clean["p99"] * 1e3, 3),
            "chaos_requests_per_sec": round(m_chaos["req_per_s"], 1),
            "chaos_p50_ms": round(m_chaos["p50"] * 1e3, 3),
            "chaos_p95_ms": round(m_chaos["p95"] * 1e3, 3),
            "chaos_p99_ms": round(m_chaos["p99"] * 1e3, 3),
            "chaos_ok": m_chaos["ok"],
            "chaos_sent": m_chaos["sent"],
            "chaos_typed_errors": m_chaos["typed_errors"],
            "chaos_retries": m_chaos["retries"],
            "chaos_hedges_fired": m_chaos["hedges"],
            "chaos_hedges_won": m_chaos["hedges_won"],
            "cold_start_to_attested_ms_mean": round(cold_mean * 1e3, 3),
            "cold_start_to_attested_ms_max": round(max(cold) * 1e3, 3),
            "replicas_attested_under_chaos": m_chaos["replicas_attested"],
            "replay_byte_identical": True,
            "share_within_one_service_time": {
                "clean": round(m_clean["within"], 4),
                "chaos": round(m_chaos["within"], 4),
            },
            "scale_out_capacity_ratio": round(capacity, 3),
            "previous": previous,
        },
    )
