"""Sharded parameter-server scaling and secure-aggregation overhead.

Not a paper figure — the sharded training plane extends §5.4's
single-PS architecture — but benched to the same standard: simulated
steps/s must improve monotonically from 1 to 4 shards (the dominant
``fc1`` kernel is row-split, so per-push PS work parallelizes), 8-bit
gradient quantization must cut the bytes the shield's record crypto is
charged for, and the secure-aggregation committee's masking overhead
over plain federated averaging is recorded.

A long run also records what the shards' at-most-once windows hold
after ``LONG_ROUNDS`` rounds (HW mode, so the run spans several dedup
TTLs of simulated time): live entries and the tracemalloc peak of the
training loop, which must not grow with run length.
"""

import tracemalloc

import numpy as np
import pytest

from harness import fmt_s, load_bench, print_table, record, run_once, save_bench

from repro.core import FederatedLearning, Hospital, SecureTFPlatform, TrainingJob
from repro.core.monitoring import collect_metrics
from repro.core.platform import PlatformConfig
from repro.core.training import TrainingJobConfig
from repro.cluster.retry import RetryPolicy
from repro.data import synthetic_mnist
from repro.enclave.sgx import SgxMode

STEPS = 8
SHARD_COUNTS = (1, 2, 4, 8)
LONG_ROUNDS = 150


def _started_job(seed, session, shards, bits, mode):
    platform = SecureTFPlatform(PlatformConfig(n_nodes=3, seed=seed))
    job = TrainingJob(
        platform,
        TrainingJobConfig(
            session=session,
            n_workers=2,
            mode=mode,
            network_shield=True,
            learning_rate=0.05,
            ps_shards=shards,
            gradient_quantization_bits=bits,
            retry_policy=RetryPolicy(max_attempts=4, base_delay=0.02),
        ),
    )
    job.start()
    return platform, job


def _run_sharded(batches, shards, bits):
    platform, job = _started_job(
        90, f"bench-s{shards}-q{bits or 0}", shards, bits, SgxMode.SIM
    )
    result = job.train(batches, steps=STEPS)
    metrics = collect_metrics(platform)
    job.stop()
    return {
        "wall_s": result.wall_clock,
        "steps_per_s": STEPS / result.wall_clock,
        "wire_bytes": metrics.training.gradient_bytes_in,
        "bytes_saved": metrics.training.gradient_bytes_saved,
    }


def _run_long(batches):
    """``LONG_ROUNDS`` rounds of the ``train_sharded`` configuration:
    simulated span, live dedup-window entries summed over the shards,
    and the tracemalloc peak while training."""
    _, job = _started_job(93, "bench-long", 2, 8, SgxMode.HW)
    steps = 2 * LONG_ROUNDS
    rounds = (batches * (steps // len(batches) + 1))[:steps]
    tracemalloc.start()
    try:
        result = job.train(rounds)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    entries = sum(len(shard._server.dedup) for shard in job.ps_service.shards)
    job.stop()
    return {
        "sim_span_s": result.wall_clock,
        "window_entries": entries,
        "tracemalloc_peak_mb": peak / 1e6,
    }


def _run_federated(secure):
    platform = SecureTFPlatform(PlatformConfig(n_nodes=3, seed=91))
    train, _ = synthetic_mnist(n_train=300, n_test=10, seed=92)
    hospitals = [
        Hospital(
            f"hospital-{i}", platform.node(i), train.take(100),
            learning_rate=0.1, seed=3,
        )
        for i in range(3)
    ]
    fl = FederatedLearning(
        platform, "bench-fl", hospitals, mode=SgxMode.SIM,
        secure_aggregation=secure, n_aggregators=3 if secure else 2,
    )
    fl.start()
    clocks = [platform.node(i).clock for i in range(3)]
    before = max(c.now for c in clocks)
    for round_index in range(2):
        fl.run_round(local_steps=3, round_seed=round_index)
    wall = max(c.now for c in clocks) - before
    fl.stop()
    return wall


def _collect():
    train, _ = synthetic_mnist(n_train=400, n_test=10, seed=60)
    batches = list(train.batches(50))
    quantized = {s: _run_sharded(batches, s, 8) for s in SHARD_COUNTS}
    float32 = _run_sharded(batches, 4, None)
    plain_wall = _run_federated(secure=False)
    secure_wall = _run_federated(secure=True)
    long_run = _run_long(batches)
    return quantized, float32, plain_wall, secure_wall, long_run


def test_sharded_training_scaling(benchmark):
    quantized, float32, plain_wall, secure_wall, long_run = run_once(
        benchmark, _collect
    )

    rows = [
        [
            shards,
            fmt_s(r["wall_s"]),
            f"{r['steps_per_s']:.3f}",
            r["wire_bytes"],
            r["bytes_saved"],
        ]
        for shards, r in quantized.items()
    ]
    print_table(
        "Sharded PS scaling (8 steps, 2 workers, q8 gradients)",
        ["shards", "sim wall", "steps/s", "gradient bytes", "bytes saved"],
        rows,
        notes=[
            f"float32 @4 shards: {float32['wire_bytes']} gradient bytes "
            f"({fmt_s(float32['wall_s'])})",
            f"secure aggregation: {fmt_s(secure_wall)} vs plain "
            f"{fmt_s(plain_wall)} for 2 federated rounds",
            f"{LONG_ROUNDS} HW rounds ({fmt_s(long_run['sim_span_s'])} simulated): "
            f"{long_run['window_entries']} live dedup-window entries, "
            f"tracemalloc peak {long_run['tracemalloc_peak_mb']:.1f} MB",
        ],
    )

    # Steps/s improves monotonically 1 -> 4 shards (the acceptance bar).
    assert (
        quantized[1]["steps_per_s"]
        < quantized[2]["steps_per_s"]
        < quantized[4]["steps_per_s"]
    )
    # Quantization cuts the wire ~4x against the float32 run.
    assert quantized[4]["wire_bytes"] < float32["wire_bytes"] / 3
    assert quantized[4]["bytes_saved"] > 0
    # Masking costs something — each hospital sends every committee
    # member a uint64 share of the whole model (twice its float32 bytes)
    # instead of one shard its pieces, and every owner pulls the other
    # members' sums — but stays within a small constant factor of plain
    # averaging.
    overhead = secure_wall / plain_wall
    assert 1.0 <= overhead < 6.0

    metrics = {
        "steps": STEPS,
        "workers": 2,
        "steps_per_s": {
            str(s): round(r["steps_per_s"], 4) for s, r in quantized.items()
        },
        "wire_bytes_q8": {
            str(s): int(r["wire_bytes"]) for s, r in quantized.items()
        },
        "wire_bytes_float32_4shards": int(float32["wire_bytes"]),
        "quantization_bytes_saved_4shards": int(quantized[4]["bytes_saved"]),
        "secure_agg_wall_s": round(secure_wall, 4),
        "plain_agg_wall_s": round(plain_wall, 4),
        "secure_agg_overhead": round(overhead, 3),
        "long_run_rounds": LONG_ROUNDS,
        "long_run_sim_span_s": round(long_run["sim_span_s"], 2),
        "long_run_window_entries": long_run["window_entries"],
        "long_run_tracemalloc_peak_mb": round(long_run["tracemalloc_peak_mb"], 1),
    }
    record(benchmark, **metrics)
    previous = load_bench("sharded_training")
    previous.pop("previous", None)
    save_bench("sharded_training", {**metrics, "previous": previous})
