"""Sharded parameter service: partitioning and lookups."""

import numpy as np
import pytest

from repro.cluster import (
    Network,
    ParameterServer,
    ShardedParameterService,
    TrainingWorker,
    make_cluster,
)
from repro.cluster.container import Container
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
    weights = worker.weights()
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
    weights = worker.weights()
    service.initialize(weights)
    gradients = {name: np.zeros_like(value) for name, value in weights.items()}
    grouped = {
        service.shard(k).address: part
        for k, part in enumerate(service.shard_map.partition(gradients))
        if part
    }
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
        service.shard_map.partition({"nonexistent": np.zeros(1)})


def test_sharded_service_requires_shards():
    with pytest.raises(ClusterError):
        ShardedParameterService([])
