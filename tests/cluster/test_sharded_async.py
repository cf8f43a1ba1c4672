"""Sharded parameter service and asynchronous training."""

import numpy as np
import pytest

from repro.cluster import (
    AsyncTrainer,
    Network,
    ParameterServer,
    ShardedParameterService,
    SyncTrainer,
    TrainingWorker,
    make_cluster,
)
from repro.cluster.container import Container
from repro.data import synthetic_mnist
from repro.enclave.cost_model import DEFAULT_COST_MODEL as CM
from repro.enclave.sgx import SgxMode
from repro.errors import ClusterError
from repro.runtime.scone import RuntimeConfig
from repro.tensor.engine import FULL_TF_PROFILE


@pytest.fixture
def cluster(provisioning):
    return make_cluster(3, CM, provisioning, seed=40)


@pytest.fixture
def network():
    return Network(CM)


def make_worker(node, name):
    config = RuntimeConfig(
        name=name, mode=SgxMode.SIM,
        binary_size=FULL_TF_PROFILE.binary_size, fs_shield_enabled=False,
    )
    runtime = Container(name, node, config).start()
    return TrainingWorker(name, node, runtime, seed=40, threads=2)


def test_sharded_service_partitions_all_weights(cluster, network):
    worker = make_worker(cluster[0], "w0")
    shards = [
        ParameterServer(cluster[i], f"ps-{i}", network, learning_rate=0.1)
        for i in (1, 2)
    ]
    service = ShardedParameterService(shards)
    weights = worker.initial_weights()
    service.initialize(weights)

    # Every weight round-trips intact through the piece-keyed partition.
    merged = service.weights
    assert set(merged) == set(weights)
    for name, value in weights.items():
        np.testing.assert_array_equal(merged[name], value)
    # The shard map byte-balances: with the dominant fc1 kernel
    # row-split, neither shard holds more than ~60% of the bytes.
    loads = service.shard_map.shard_nbytes()
    assert sum(loads) == sum(v.nbytes for v in weights.values())
    assert max(loads) <= 0.6 * sum(loads)


def test_sharded_gradient_partitioning(cluster, network):
    worker = make_worker(cluster[0], "w0")
    shards = [
        ParameterServer(cluster[i], f"ps-{i}", network, learning_rate=0.1)
        for i in (1, 2)
    ]
    service = ShardedParameterService(shards)
    weights = worker.initial_weights()
    service.initialize(weights)
    gradients = {name: np.zeros_like(value) for name, value in weights.items()}
    grouped = service.partition_gradients(gradients)
    assert set(grouped) == {"ps-1", "ps-2"}
    # Every variable is covered, possibly as row-slice pieces
    # ("var#start:stop"); merging the groups reconstructs the model.
    parts = {}
    for group in grouped.values():
        parts.update(group)
    remerged = service.shard_map.merge(parts)
    assert set(remerged) == set(weights)
    for name, value in weights.items():
        assert remerged[name].shape == value.shape
    with pytest.raises(ClusterError):
        service.shard_of("nonexistent")


def test_sharded_service_requires_shards():
    with pytest.raises(ClusterError):
        ShardedParameterService([])


def test_async_training_converges(cluster, network):
    workers = [make_worker(cluster[i], f"w{i}") for i in range(2)]
    ps = ParameterServer(cluster[2], "ps", network, learning_rate=0.1)
    service = ShardedParameterService([ps])
    service.initialize(workers[0].initial_weights())
    train, _ = synthetic_mnist(n_train=800, n_test=10, seed=41)
    batches = list(train.batches(100))

    images, labels = batches[0]
    workers[0].load_weights(ps.weights)
    before = workers[0].evaluate_loss(images, labels)
    trainer = AsyncTrainer(network, service, workers)
    result = trainer.train(batches)
    workers[0].load_weights(ps.weights)
    after = workers[0].evaluate_loss(images, labels)
    assert result.steps == len(batches)
    assert ps.updates_applied == len(batches)
    assert after < before


def test_async_no_slower_than_sync_wall_clock(cluster, network):
    """Without stragglers async ≈ sync; it must never be slower (no
    barriers to wait on)."""
    train, _ = synthetic_mnist(n_train=600, n_test=10, seed=42)
    batches = list(train.batches(100))

    def run(trainer_cls, seed_offset):
        nodes = make_cluster(3, CM, ProvisioningAuthorityLocal(), seed=43 + seed_offset)
        net = Network(CM)
        workers = [make_worker(nodes[i], f"w{i}") for i in range(2)]
        service = ShardedParameterService(
            [ParameterServer(nodes[2], "ps", net, learning_rate=0.05)]
        )
        service.initialize(workers[0].initial_weights())
        return trainer_cls(net, service, workers).train(batches).wall_clock

    from repro._sim import DeterministicRng
    from repro.enclave.attestation import ProvisioningAuthority

    def ProvisioningAuthorityLocal():
        return ProvisioningAuthority(DeterministicRng(99))

    sync_time = run(SyncTrainer, 0)
    async_time = run(AsyncTrainer, 1)
    assert async_time <= sync_time * 1.05
