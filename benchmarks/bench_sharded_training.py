"""Sharded parameter-server scaling and secure-aggregation overhead.

Not a paper figure — the sharded training plane extends §5.4's
single-PS architecture — but benched to the same standard: simulated
steps/s must improve monotonically from 1 to 4 shards (the dominant
``fc1`` kernel is row-split, so per-push PS work parallelizes), 8-bit
gradient quantization must cut the bytes the shield's record crypto is
charged for, and the secure-aggregation committee's masking overhead
over plain federated averaging is recorded.
"""

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


def _run_sharded(batches, shards, bits):
    platform = SecureTFPlatform(PlatformConfig(n_nodes=3, seed=90))
    job = TrainingJob(
        platform,
        TrainingJobConfig(
            session=f"bench-s{shards}-q{bits or 0}",
            n_workers=2,
            mode=SgxMode.SIM,
            network_shield=True,
            learning_rate=0.05,
            ps_shards=shards,
            gradient_quantization_bits=bits,
            retry_policy=RetryPolicy(max_attempts=4, base_delay=0.02),
        ),
    )
    job.start()
    result = job.train(batches, steps=STEPS)
    metrics = collect_metrics(platform)
    job.stop()
    return {
        "wall_s": result.wall_clock,
        "steps_per_s": STEPS / result.wall_clock,
        "wire_bytes": metrics.training.gradient_bytes_in,
        "bytes_saved": metrics.training.gradient_bytes_saved,
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
    return quantized, float32, plain_wall, secure_wall


def test_sharded_training_scaling(benchmark):
    quantized, float32, plain_wall, secure_wall = run_once(benchmark, _collect)

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
    # Masking costs something — each hospital opens one attested
    # channel per committee member instead of one total, and the
    # primary pulls every partial — but stays within a small constant
    # factor of plain averaging.
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
    }
    record(benchmark, **metrics)
    previous = load_bench("sharded_training")
    previous.pop("previous", None)
    save_bench("sharded_training", {**metrics, "previous": previous})
