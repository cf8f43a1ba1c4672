"""Sharded-PS acceptance: N-shard training is *equivalent* (weights
byte-identical to the single-PS plane at the same seed), *correct under
chaos* (crash + transient partition + duplicate storm leave the weights
byte-identical to a fault-free same-seed run), and *observable* (per-
shard counters flow into the monitoring plane).
"""

import numpy as np
import pytest

from repro.cluster.faults import CrashFault, FaultPlan, FaultSpec, TransientPartition
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


def run_job(batches, session, shards, plan=None, bits=None, fencing=False):
    platform = SecureTFPlatform(
        PlatformConfig(n_nodes=3, seed=62, fencing=fencing)
    )
    job = TrainingJob(
        platform,
        TrainingJobConfig(
            session=session,
            n_workers=2,
            mode=SgxMode.SIM,
            network_shield=True,
            learning_rate=0.05,
            ps_shards=shards,
            gradient_quantization_bits=bits,
            retry_policy=RetryPolicy(max_attempts=6, base_delay=0.02),
        ),
    )
    job.start()
    if plan is not None:
        job.attach_chaos(plan)
    result = job.train(batches, steps=STEPS)
    return platform, job, result


def test_shard_count_does_not_change_weights(batches):
    """Row-wise SGD is value-identical to whole-tensor SGD: 1, 2 and 4
    shards converge to byte-identical weights at the same seed.  With
    8-bit gradients the quantizer is live at every shard count — one
    shard included — and each run lands within rounding error of the
    float32 weights (scales are per shard *piece*, so quantized runs at
    different shard counts are close, not byte-equal)."""
    weights, wire_bytes = {}, {}
    for bits in (None, 8):
        for shards in (1, 2, 4):
            platform, job, result = run_job(
                batches, f"eq{shards}", shards, bits=bits
            )
            assert result.steps == STEPS
            weights[bits, shards] = job.weights()
            wire_bytes[bits, shards] = platform.network.stats.bytes_transferred
            training = collect_metrics(platform).training
            if bits is None:
                assert training.quantized_pushes == 0
                assert training.gradient_bytes_saved == 0
            else:
                assert training.quantized_pushes == training.pushes > 0
                assert training.gradient_bytes_saved > 0
            job.stop()
    base = weights[None, 1]
    for shards in (2, 4):
        assert set(base) == set(weights[None, shards])
        for name in base:
            np.testing.assert_array_equal(base[name], weights[None, shards][name])
    for shards in (1, 2, 4):
        assert wire_bytes[8, shards] < 0.7 * wire_bytes[None, shards]
        assert set(base) == set(weights[8, shards])
        for name in base:
            np.testing.assert_allclose(
                weights[8, shards][name], base[name], rtol=0, atol=5e-3
            )


def test_every_shard_rpc_is_counted_and_tried_once_when_clean(batches):
    """Attempt 1 of a fanned-out call runs inside the retry executor, so
    monitoring sees every pull and push — not only the handshakes."""
    for shards in (1, 2):
        platform, job, _ = run_job(batches, f"seen{shards}", shards)
        recovery = collect_metrics(platform).recovery
        # Per worker and shard: one session handshake, then one pull and
        # one push per step that worker ran.
        assert recovery.calls == shards * (2 + 2 * STEPS)
        assert recovery.attempts == recovery.calls  # clean: one try each
        assert recovery.retries == recovery.giveups == 0
        job.stop()


def make_plan(session, seed=61):
    """Duplicate storm + loss + latency on all four shard endpoints, a
    worker crash, a shard crash, and a transient partition of shard 2
    across a cross-shard checkpoint barrier window."""
    targets = frozenset({f"{session}-ps{k}" for k in range(4)})
    return FaultPlan(
        seed,
        FaultSpec(
            loss=0.05,
            delay=0.1,
            delay_seconds=0.02,
            duplication=0.25,
            targets=targets,
        ),
        partitions=[TransientPartition(f"{session}-ps2", 1.30, 1.45)],
        crashes=[
            CrashFault("worker-1", at_round=1),
            CrashFault("ps-1", at_round=2),
        ],
    )


def test_four_shard_chaos_matches_fault_free_run(batches):
    """THE sharded acceptance test: a 4-shard quantized, fenced run
    under crash + partition + duplicate storm produces byte-identical
    weights to the fault-free run at the same seed."""
    _, clean_job, clean_result = run_job(
        batches, "shardchaos", 4, bits=8, fencing=True
    )
    plan = make_plan("shardchaos")
    platform, chaos_job, chaos_result = run_job(
        batches, "shardchaos", 4, plan=plan, bits=8, fencing=True
    )

    # All three fault kinds actually fired.
    assert plan.counters.crashes == 2
    assert plan.counters.duplicates > 0
    assert plan.counters.partition_drops > 0
    assert plan.counters.losses + plan.counters.delays > 0

    # Same steps, same data order -> byte-identical final weights.
    assert chaos_result.steps == clean_result.steps == STEPS
    clean_weights = clean_job.weights()
    chaos_weights = chaos_job.weights()
    assert set(clean_weights) == set(chaos_weights)
    for name in clean_weights:
        np.testing.assert_array_equal(clean_weights[name], chaos_weights[name])

    # At-most-once per shard: every shard applied exactly one update per
    # step despite retries, duplicate deliveries and the restart.
    for shard in chaos_job.ps_service.shards:
        assert shard.updates_applied == STEPS

    # The crashed shard came back as a different container, fence-first.
    assert any(
        e.startswith("ps-shard-restart shard=1")
        for e in chaos_job.recovery_events
    )
    assert any(
        e.startswith("worker-restart") for e in chaos_job.recovery_events
    )
    # Epochs: shard 1 was granted twice (launch + restart), others once.
    assert platform.epochs.current("ps-1") == 2
    assert platform.epochs.current("ps-0") == 1

    # The cross-shard barrier committed consistent vectors throughout.
    vector = chaos_job._ps_store.latest_vector()
    assert vector is not None
    assert len(set(vector.values())) == 1  # all shards at the same version

    # The crashed shard cost exactly one exhausted retry budget: the
    # call that found it dead recovers it straight away (3.107 s and two
    # give-ups when the fallback burned a second budget first).
    metrics = collect_metrics(platform)
    assert metrics.recovery.giveups == 1
    assert metrics.recovery.attempts <= 6 * metrics.recovery.calls
    assert chaos_result.wall_clock < 2.6

    # Monitoring surfaces the sharded training plane.
    assert metrics.training.pushes == 4 * STEPS
    assert metrics.training.quantized_pushes == 4 * STEPS
    assert metrics.training.restarts == 1
    assert metrics.training.gradient_bytes_saved > 0
    assert metrics.training.barrier_commits > 0
    assert "training:" in metrics.format()


def test_one_shard_crash_costs_one_retry_budget(batches):
    """The same recovery at one shard: a scheduled crash of the only PS
    is absorbed with one give-up, byte-identical weights, and every
    update applied exactly once."""
    _, clean_job, clean_result = run_job(batches, "solo", 1)
    plan = FaultPlan(61, FaultSpec(), crashes=[CrashFault("ps", at_round=2)])
    platform, chaos_job, chaos_result = run_job(batches, "solo", 1, plan=plan)

    assert plan.counters.crashes == 1
    assert chaos_result.steps == clean_result.steps == STEPS
    clean_weights, chaos_weights = clean_job.weights(), chaos_job.weights()
    for name in clean_weights:
        np.testing.assert_array_equal(clean_weights[name], chaos_weights[name])
    assert chaos_job.ps_service.shard(0).updates_applied == STEPS
    assert [e.split(" container=")[0] for e in chaos_job.recovery_events] == [
        "ps-shard-restart shard=0"
    ]

    recovery = collect_metrics(platform).recovery
    assert recovery.giveups == 1
    # One budget of backoff (0.02 + 0.04 + 0.08 + 0.16 + 0.32 s, ±10 %
    # jitter) on top of the clean run — not two.
    assert recovery.backoff_time < 0.7
    assert chaos_result.wall_clock - clean_result.wall_clock < 1.0


def test_sharded_recovery_trace_replays_byte_for_byte(batches):
    plan_a = make_plan("shardrep")
    _, job_a, _ = run_job(batches, "shardrep", 4, plan=plan_a, bits=8, fencing=True)
    plan_b = make_plan("shardrep")
    _, job_b, _ = run_job(batches, "shardrep", 4, plan=plan_b, bits=8, fencing=True)
    assert plan_a.trace_bytes() == plan_b.trace_bytes()
    assert job_a.recovery_events == job_b.recovery_events
    assert plan_a.counters == plan_b.counters


# -- tier 2: heavier sweeps (run via -m sharded_training) -----------------


@pytest.mark.sharded_training
def test_eight_shard_equivalence_and_chaos(batches):
    """The full sweep at 8 shards: equivalence to the single-PS plane
    (unquantized — quantization scales are per piece, so only runs at
    the *same* shard count are byte-comparable) and byte-identity under
    the chaos plan with quantization on."""
    _, base_job, _ = run_job(batches, "wide1", 1, fencing=True)
    _, wide_job, wide_result = run_job(batches, "wide8", 8, fencing=True)
    assert wide_result.steps == STEPS
    base, wide = base_job.weights(), wide_job.weights()
    assert set(base) == set(wide)
    for name in base:
        np.testing.assert_array_equal(base[name], wide[name])

    _, clean_job, _ = run_job(batches, "wchaos", 8, bits=8, fencing=True)
    plan = make_plan("wchaos")
    _, chaos_job, _ = run_job(batches, "wchaos", 8, plan=plan, bits=8, fencing=True)
    assert plan.counters.crashes == 2
    clean_weights, chaos_weights = clean_job.weights(), chaos_job.weights()
    for name in clean_weights:
        np.testing.assert_array_equal(clean_weights[name], chaos_weights[name])


@pytest.mark.sharded_training
@pytest.mark.parametrize("bits", [4, 8, 16])
def test_quantization_width_sweep(batches, bits):
    """Every supported width trains deterministically; wider lattices
    track the float32 run tighter."""
    _, float_job, float_result = run_job(batches, "sw-f", 2)
    _, quant_job, quant_result = run_job(batches, f"sw-q{bits}", 2, bits=bits)
    assert quant_result.steps == float_result.steps == STEPS
    tolerance = {4: 0.3, 8: 0.05, 16: 0.01}[bits]
    assert abs(quant_result.final_loss - float_result.final_loss) < tolerance


def test_quantized_run_stays_close_to_float_run(batches):
    """8-bit gradient quantization shrinks the wire without derailing
    training: the final loss tracks the float32 run."""
    _, float_job, float_result = run_job(batches, "qfloat", 2)
    _, quant_job, quant_result = run_job(batches, "qint8", 2, bits=8)
    assert quant_result.steps == float_result.steps
    assert abs(quant_result.final_loss - float_result.final_loss) < 0.05
    saved = sum(
        s.shard_stats.gradient_bytes_saved for s in quant_job.ps_service.shards
    )
    assert saved > 0
