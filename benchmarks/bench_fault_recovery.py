"""Fault-recovery overhead of the hardened distributed plane.

Trains the same Fig. 8-style job three ways — fault-free, under
message-level chaos (loss + latency + duplication), and under chaos plus
container crashes (one worker, one PS) — and reports goodput, the
makespan overhead the faults cost, and how much retry/recovery machinery
it took to absorb them.  All three runs converge to the same weights;
the benchmark measures the *price* of that guarantee.
"""

import numpy as np
import pytest

from harness import fmt_s, load_bench, print_table, record, run_once, save_bench

from repro.cluster.faults import CrashFault, FaultPlan, FaultSpec
from repro.cluster.retry import RetryPolicy
from repro.core.monitoring import collect_metrics
from repro.core.platform import PlatformConfig, SecureTFPlatform
from repro.core.training import TrainingJob, TrainingJobConfig
from repro.data import synthetic_mnist
from repro.enclave.sgx import SgxMode

STEPS = 16  # 8 rounds of 2 workers
CHAOS_SEED = 71


def _chaos_plan(ps_address: str, crashes: bool) -> FaultPlan:
    return FaultPlan(
        CHAOS_SEED,
        FaultSpec(
            loss=0.05,
            delay=0.1,
            delay_seconds=0.02,
            duplication=0.05,
            targets=frozenset({ps_address}),
        ),
        crashes=[
            CrashFault("worker-1", at_round=2),
            CrashFault("ps", at_round=5),
        ]
        if crashes
        else [],
    )


def _run(session: str, batches, chaos: bool = False, crashes: bool = False):
    platform = SecureTFPlatform(PlatformConfig(n_nodes=3, seed=70))
    job = TrainingJob(
        platform,
        TrainingJobConfig(
            session=session,
            n_workers=2,
            mode=SgxMode.SIM,
            network_shield=True,
            learning_rate=0.05,
            retry_policy=RetryPolicy(max_attempts=6, base_delay=0.02),
        ),
    )
    job.start()
    plan = None
    if chaos:
        plan = _chaos_plan(job.ps_service.shard(0).address, crashes)
        job.attach_chaos(plan)
    start = platform.time
    job.train(batches, steps=STEPS)
    makespan = platform.time - start
    metrics = collect_metrics(platform)
    return {
        "makespan": makespan,
        "goodput": STEPS / makespan,
        "retries": metrics.recovery.retries,
        "reconnects": metrics.recovery.reconnects,
        "dedup_hits": metrics.recovery.dedup_hits,
        "restarts": metrics.recovery.restarts,
        "backoff_time": metrics.recovery.backoff_time,
        "weights": job.weights(),
        "updates": job.ps_service.shard(0).updates_applied,
    }


def test_fault_recovery(benchmark):
    train, _ = synthetic_mnist(n_train=800, n_test=10, seed=70)
    batches = list(train.batches(50))

    def scenario():
        clean = _run("bench-clean", batches)
        chaos = _run("bench-chaos", batches, chaos=True)
        crash = _run("bench-crash", batches, chaos=True, crashes=True)
        return clean, chaos, crash

    clean, chaos, crash = run_once(benchmark, scenario)

    # Correctness invariants the benchmark rides on: every scenario
    # applies each gradient exactly once and lands on the same weights.
    for run in (chaos, crash):
        assert run["updates"] == STEPS
        for name, value in clean["weights"].items():
            np.testing.assert_array_equal(value, run["weights"][name])

    def row(label, run):
        return (
            label,
            fmt_s(run["makespan"]),
            f"{run['goodput']:.1f}",
            f"{run['makespan'] / clean['makespan'] - 1.0:+.1%}",
            str(run["retries"]),
            str(run["restarts"]),
        )

    print_table(
        f"Fault recovery: {STEPS} steps, 2 workers, secure channels",
        ("scenario", "makespan", "steps/s", "overhead", "retries", "restarts"),
        [
            row("fault-free", clean),
            row("chaos (loss+delay+dup)", chaos),
            row("chaos + 2 crashes", crash),
        ],
        notes=[
            f"chaos: 5% loss, 10% latency spikes, 5% duplication on PS traffic "
            f"(seed {CHAOS_SEED})",
            f"crash run: {crash['reconnects']} secure-session reconnects, "
            f"{crash['dedup_hits']} dedup hits, "
            f"{fmt_s(crash['backoff_time'])} spent in backoff",
            "identical final weights in all three scenarios",
        ],
    )
    record(
        benchmark,
        clean_goodput=clean["goodput"],
        chaos_goodput=chaos["goodput"],
        crash_goodput=crash["goodput"],
    )
    previous = load_bench("fault_recovery")
    previous.pop("previous", None)
    save_bench(
        "fault_recovery",
        {
            "previous": previous,
            "steps": STEPS,
            "clean_makespan_s": round(clean["makespan"], 4),
            "chaos_makespan_s": round(chaos["makespan"], 4),
            "crash_makespan_s": round(crash["makespan"], 4),
            "clean_goodput_steps_per_s": round(clean["goodput"], 2),
            "chaos_goodput_steps_per_s": round(chaos["goodput"], 2),
            "crash_goodput_steps_per_s": round(crash["goodput"], 2),
            "chaos_overhead_pct": round(
                100.0 * (chaos["makespan"] / clean["makespan"] - 1.0), 1
            ),
            "crash_overhead_pct": round(
                100.0 * (crash["makespan"] / clean["makespan"] - 1.0), 1
            ),
            "crash_retries": crash["retries"],
            "crash_reconnects": crash["reconnects"],
            "crash_dedup_hits": crash["dedup_hits"],
            "crash_restarts": crash["restarts"],
            "weights_identical": True,
        },
    )
