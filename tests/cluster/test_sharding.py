"""Shard map, gradient quantization, and the cross-shard commit barrier.

These are the deterministic building blocks of the sharded training
plane: every worker, shard, and restarted replacement must derive the
identical shard map from its own copy of the model; the quantizer must
round-trip within its declared bound and byte-identically across runs;
and the shared store's barrier must be all-or-nothing under fencing.
"""

import numpy as np
import pytest

from repro._sim.rng import DeterministicRng
from repro.cluster import (
    GradientQuantizer,
    InMemoryCheckpointStore,
    Network,
    ParameterServer,
    PSCheckpoint,
    ShardedParameterService,
    ShardMap,
    make_cluster,
)
from repro.cluster.epoch import EpochService
from repro.enclave.cost_model import DEFAULT_COST_MODEL as CM
from repro.errors import ClusterError, ConfigurationError, FencedError


def model_like():
    """Shapes mimicking mnist_cnn: one kernel dominates the byte count."""
    rng = np.random.default_rng(7)
    return {
        "conv1/kernel": rng.normal(size=(5, 5, 1, 8)).astype(np.float32),
        "conv1/bias": rng.normal(size=(8,)).astype(np.float32),
        "fc1/kernel": rng.normal(size=(1568, 32)).astype(np.float32),
        "fc1/bias": rng.normal(size=(32,)).astype(np.float32),
        "fc2/kernel": rng.normal(size=(32, 10)).astype(np.float32),
        "fc2/bias": rng.normal(size=(10,)).astype(np.float32),
    }


# -- shard map ------------------------------------------------------------


def test_shard_map_is_deterministic():
    weights = model_like()
    a = ShardMap.build(weights, 4)
    b = ShardMap.build(weights, 4)
    assert [(p.key, p.shard, p.nbytes) for p in a.pieces] == [
        (p.key, p.shard, p.nbytes) for p in b.pieces
    ]


def test_shard_map_splits_dominant_tensor_and_balances():
    weights = model_like()
    mapping = ShardMap.build(weights, 4)
    # The fc1 kernel is >90% of the model: it must be row-split, and no
    # shard may end up holding more than ~40% of the bytes with 4 shards.
    assert len({p.shard for p in mapping.pieces if p.var == "fc1/kernel"}) > 1
    loads = mapping.shard_nbytes()
    total = sum(v.nbytes for v in weights.values())
    assert sum(loads) == total
    assert max(loads) <= 0.4 * total
    # Piece keys carry contiguous, disjoint row ranges covering axis 0.
    splits = [p for p in mapping.pieces if p.var == "fc1/kernel"]
    splits.sort(key=lambda p: p.start)
    assert splits[0].start == 0 and splits[-1].stop == 1568
    for prev, cur in zip(splits, splits[1:]):
        assert prev.stop == cur.start


def test_single_shard_map_keeps_variables_whole():
    mapping = ShardMap.build(model_like(), 1)
    assert all(not p.is_split for p in mapping.pieces)
    assert mapping.active_shards == [0]


def test_partition_merge_round_trip():
    weights = model_like()
    mapping = ShardMap.build(weights, 3)
    parts = {}
    for shard_dict in mapping.partition(weights):
        parts.update(shard_dict)
    merged = mapping.merge(parts)
    assert set(merged) == set(weights)
    for name in weights:
        np.testing.assert_array_equal(merged[name], weights[name])


def test_merge_refuses_partial_variables():
    weights = model_like()
    mapping = ShardMap.build(weights, 4)
    parts = {}
    for shard_dict in mapping.partition(weights):
        parts.update(shard_dict)
    split_keys = [p.key for p in mapping.pieces if p.var == "fc1/kernel"]
    del parts[split_keys[0]]
    with pytest.raises(ClusterError, match="missing pieces"):
        mapping.merge(parts)


def test_shard_map_rejects_bad_inputs():
    with pytest.raises(ClusterError):
        ShardMap.build(model_like(), 0)
    with pytest.raises(ClusterError):
        ShardMap.build({}, 2)
    mapping = ShardMap.build(model_like(), 2)
    with pytest.raises(ClusterError):
        mapping.partition({"nope/kernel": np.zeros(1)})


# -- gradient quantization ------------------------------------------------


@pytest.mark.parametrize("bits", [4, 8, 16])
def test_quantizer_round_trip_stays_within_declared_bound(bits):
    quantizer = GradientQuantizer(bits=bits)
    rng = np.random.default_rng(11)
    tensors = {
        "a": rng.normal(scale=0.3, size=(64, 32)).astype(np.float32),
        "b": rng.normal(scale=3.0, size=(128,)).astype(np.float32),
        "zero": np.zeros((16,), dtype=np.float32),
    }
    quantized, scales = quantizer.quantize(tensors)
    restored = quantizer.dequantize(quantized, scales)
    for name, value in tensors.items():
        err = float(np.max(np.abs(restored[name] - value)))
        # Half a quantum: scale / 2 with scale = max|g| / qmax.
        bound = float(np.max(np.abs(value))) / quantizer.qmax / 2.0
        assert err <= bound + 1e-7, (name, err, bound)
    # All-zero tensors round-trip exactly (scale 0, no division).
    np.testing.assert_array_equal(restored["zero"], tensors["zero"])


def test_quantizer_is_byte_identical_across_seeded_runs():
    def one_run():
        rng = np.random.default_rng(23)
        tensors = {
            "g": rng.normal(size=(200, 17)).astype(np.float32),
            "h": rng.normal(scale=0.01, size=(31,)).astype(np.float32),
        }
        quantized, scales = GradientQuantizer(bits=8).quantize(tensors)
        return (
            b"".join(quantized[k].tobytes() for k in sorted(quantized)),
            tuple(sorted(scales.items())),
        )

    assert one_run() == one_run()


def test_quantizer_shrinks_declared_wire_bytes():
    quantizer = GradientQuantizer(bits=8)
    float_bytes = 4 * 1568 * 32
    declared = quantizer.declared_bytes(float_bytes, n_tensors=2)
    assert declared < float_bytes / 3  # ~4x smaller, plus scale overhead


def test_quantizer_rejects_bad_bit_widths():
    for bits in (1, 0, 17, 32):
        with pytest.raises(ClusterError):
            GradientQuantizer(bits=bits)


# -- cross-shard commit barrier -------------------------------------------


def snapshot(version):
    return PSCheckpoint(
        weights={"w": np.zeros(1, dtype=np.float32)},
        version=version,
        updates_applied=version,
        dedup=[],
    )


def test_commit_vector_is_all_or_nothing_under_fencing():
    store = InMemoryCheckpointStore()
    epochs = EpochService()
    store.guards["s0"] = epochs.make_guard("ps-0", name="s0")
    store.guards["s1"] = epochs.make_guard("ps-1", name="s1")
    lease0 = epochs.grant("ps-0", holder="a")
    lease1 = epochs.grant("ps-1", holder="b")
    store.save("s0", snapshot(3), epoch=lease0.epoch)
    store.save("s1", snapshot(3), epoch=lease1.epoch)
    assert store.commit_vector(
        {"s0": 3, "s1": 3}, {"s0": lease0.epoch, "s1": lease1.epoch}
    ) == 1

    # Shard 0 fails over: its old epoch is fenced store-wide.
    epochs.grant("ps-0", holder="a2")
    with pytest.raises(FencedError):
        store.commit_vector(
            {"s0": 4, "s1": 4}, {"s0": lease0.epoch, "s1": lease1.epoch}
        )
    # The rejected vector left no partial barrier behind.
    assert store.barrier_commits == 1
    assert store.latest_vector() == {"s0": 3, "s1": 3}
    # And the zombie's per-shard save is refused too.
    with pytest.raises(FencedError):
        store.save("s0", snapshot(4), epoch=lease0.epoch)


def test_verify_resume_refuses_a_shard_behind_the_barrier(provisioning):
    nodes = make_cluster(2, CM, provisioning, seed=41)
    network = Network(CM)
    store = InMemoryCheckpointStore()
    shards = [
        ParameterServer(
            nodes[i], f"vps-{i}", network, learning_rate=0.1,
            checkpoint_store=store,
        )
        for i in (0, 1)
    ]
    service = ShardedParameterService(shards, barrier_store=store)
    service.initialize(
        {"w": np.arange(8, dtype=np.float32).reshape(4, 2)}
    )
    assert service.commit_barrier() is not None
    assert service.verify_resume(0) is None  # consistent lineage

    # A barrier recorded ahead of shard 0's restored snapshot means the
    # durable store lost state the other shards already agreed on.
    vector = store.latest_vector()
    vector["vps-0"] += 5
    store.commit_vector(vector)
    with pytest.raises(ClusterError, match="behind committed barrier"):
        service.verify_resume(0)


# -- secure-aggregation masking (crypto layer round-trip) -----------------


def test_additive_shares_sum_exactly_and_leak_nothing():
    from repro.crypto.masking import (
        additive_shares,
        combine_shares,
        decode_fixed,
        encode_fixed,
    )

    rng = DeterministicRng(5, label="mask-test")
    values = np.array([-2.5, 0.0, 1.0 / 3.0, 417.25], dtype=np.float32)
    encoded = encode_fixed(values)
    shares = additive_shares(encoded, 3, rng)
    # The wrapping sum reconstructs the encoding bit for bit ...
    np.testing.assert_array_equal(combine_shares(shares), encoded)
    # ... but no share (or proper subset) equals the encoding.
    assert not np.array_equal(shares[0], encoded)
    assert not np.array_equal(combine_shares(shares[:2]), encoded)
    # Fixed-point decode is within half a quantum of the plaintext.
    np.testing.assert_allclose(decode_fixed(encoded), values, atol=2 ** -17)
    with pytest.raises(ConfigurationError):
        additive_shares(encoded, 1, rng)


def test_share_tensors_round_trip_is_deterministic():
    from repro.crypto.masking import combine_tensor_shares, share_tensors

    tensors = {
        "b": np.array([[1.5, -0.25]], dtype=np.float32),
        "a": np.linspace(-1, 1, 7).astype(np.float32),
    }

    def one_run():
        rng = DeterministicRng(9, label="mask-run")
        parts = share_tensors(tensors, 4, rng)
        return parts, combine_tensor_shares(parts)

    parts_a, combined_a = one_run()
    parts_b, combined_b = one_run()
    for part_a, part_b in zip(parts_a, parts_b):
        for name in tensors:
            np.testing.assert_array_equal(part_a[name], part_b[name])
    from repro.crypto.masking import encode_fixed

    for name, value in tensors.items():
        np.testing.assert_array_equal(combined_a[name], encode_fixed(value))
        np.testing.assert_array_equal(combined_a[name], combined_b[name])
