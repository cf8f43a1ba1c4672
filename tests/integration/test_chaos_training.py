"""Chaos-plane acceptance: training under injected faults is *correct*
(same weights as a fault-free run), *at-most-once* (no duplicate
gradient applications), and *replayable* (same seed, same recovery
trace, byte for byte).
"""

import numpy as np
import pytest

from repro.cluster.faults import CrashFault, FaultPlan, FaultSpec
from repro.cluster.retry import RetryPolicy
from repro.core import SecureTFPlatform, TrainingJob
from repro.core.monitoring import collect_metrics
from repro.core.platform import PlatformConfig
from repro.core.training import TrainingJobConfig
from repro.data import synthetic_mnist
from repro.enclave.sgx import SgxMode

STEPS = 8  # 4 rounds of 2 workers


@pytest.fixture(scope="module")
def batches():
    train, _ = synthetic_mnist(n_train=400, n_test=10, seed=60)
    return list(train.batches(50))


def make_plan(ps_address, seed=61):
    """Loss + latency + duplication on PS traffic, one worker crash and
    one PS crash at mid-training round boundaries."""
    return FaultPlan(
        seed,
        FaultSpec(
            loss=0.05,
            delay=0.1,
            delay_seconds=0.02,
            duplication=0.05,
            # Scope to the PS endpoint: every worker<->PS leg has the PS
            # on one side; control-plane (CAS) traffic stays clean.
            targets=frozenset({ps_address}),
        ),
        crashes=[
            CrashFault("worker-1", at_round=1),
            CrashFault("ps", at_round=2),
        ],
    )


def run_job(batches, session, chaos=False, platform_seed=62):
    """Run one job; with ``chaos`` the fault plan targets the PS shard's
    own address and is returned in place of ``None``."""
    platform = SecureTFPlatform(PlatformConfig(n_nodes=3, seed=platform_seed))
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
        plan = make_plan(job.ps_service.shard(0).address)
        job.attach_chaos(plan)
    result = job.train(batches, steps=STEPS)
    return platform, job, result, plan


def test_chaos_run_matches_fault_free_run(batches):
    """THE acceptance test: loss + latency + duplication + a PS crash +
    a worker crash, and training still converges to bit-identical
    weights with zero duplicate gradient applications."""
    _, clean_job, clean_result, _ = run_job(batches, "chaos-clean")
    platform, chaos_job, chaos_result, plan = run_job(
        batches, "chaos-hit", chaos=True
    )

    # The chaos actually happened.
    assert plan.counters.crashes == 2
    assert plan.counters.losses + plan.counters.delays + plan.counters.duplicates > 0
    assert chaos_job.recovery_events  # recovery was exercised

    # Same steps, same data order -> byte-identical final weights.
    assert chaos_result.steps == clean_result.steps == STEPS
    clean_weights = clean_job.weights()
    chaos_weights = chaos_job.weights()
    assert set(clean_weights) == set(chaos_weights)
    for name in clean_weights:
        np.testing.assert_array_equal(clean_weights[name], chaos_weights[name])

    # At-most-once: despite retries and duplicate deliveries, exactly
    # one gradient application per step — same as the clean run.
    clean_ps = clean_job.ps_service.shard(0)
    chaos_ps = chaos_job.ps_service.shard(0)
    assert clean_ps.updates_applied == STEPS
    assert chaos_ps.updates_applied == STEPS
    assert chaos_ps.version == clean_ps.version

    # The PS came back as a *different* container at the same address.
    assert any(
        e.startswith("ps-shard-restart shard=0") for e in chaos_job.recovery_events
    )
    assert any(e.startswith("worker-restart") for e in chaos_job.recovery_events)

    # Monitoring surfaces the whole story.
    metrics = collect_metrics(platform)
    assert metrics.recovery.restarts == 2
    assert metrics.recovery.retries > 0
    assert metrics.network_duplicated + metrics.network_delayed > 0
    assert metrics.network_dropped > 0
    assert "recovery:" in metrics.format()


def test_same_seed_reproduces_recovery_trace_byte_for_byte(batches):
    _, job_a, _, plan_a = run_job(batches, "chaos-rep", chaos=True)
    _, job_b, _, plan_b = run_job(batches, "chaos-rep", chaos=True)
    assert plan_a.trace_bytes() == plan_b.trace_bytes()
    assert job_a.recovery_events == job_b.recovery_events
    assert plan_a.counters == plan_b.counters


def test_partition_mid_round_heals_and_round_completes(batches):
    """Satellite: one worker is partitioned mid-round; its backoff
    carries it past the heal and the round still completes."""
    platform = SecureTFPlatform(PlatformConfig(n_nodes=3, seed=63))
    job = TrainingJob(
        platform,
        TrainingJobConfig(
            session="midround",
            n_workers=2,
            mode=SgxMode.SIM,
            network_shield=True,
            learning_rate=0.05,
            retry_policy=RetryPolicy(max_attempts=8, base_delay=0.5),
        ),
    )
    job.start()
    job.train(batches, steps=2)  # one clean round first

    # Partition the PS mid-round; heal while the first worker backs off.
    ps = job.ps_service.shard(0)
    caller_clock = job.workers[0].node.clock
    heal_at = caller_clock.now + 1.0
    state = {"on": True}

    def observer(old, new):
        if state["on"] and new >= heal_at:
            platform.network.heal(ps.address)
            state["on"] = False

    caller_clock.subscribe(observer)
    platform.network.partition(ps.address)

    result = job.train(batches, steps=2)  # the partitioned round
    assert result.steps == 2
    assert not state["on"]  # the heal actually fired mid-round
    assert ps.updates_applied == 4
    metrics = collect_metrics(platform)
    assert metrics.recovery.retries > 0
    job.stop()
