"""Parameter server + synchronous trainer semantics."""

import numpy as np
import pytest

from repro.cluster import (
    Network,
    ParameterServer,
    ShardedParameterService,
    SyncTrainer,
    TrainingWorker,
    make_cluster,
)
from repro.cluster.container import Container
from repro.crypto import encoding
from repro.data import synthetic_mnist
from repro.enclave.cost_model import DEFAULT_COST_MODEL as CM
from repro.enclave.sgx import SgxMode
from repro.errors import ClusterError
from repro.runtime.scone import RuntimeConfig
from repro.tensor.arrays import encode_array_dict
from repro.tensor.engine import FULL_TF_PROFILE


@pytest.fixture
def cluster(provisioning):
    return make_cluster(3, CM, provisioning, seed=6)


@pytest.fixture
def network():
    return Network(CM)


def make_worker(node, name, threads=2):
    config = RuntimeConfig(
        name=name,
        mode=SgxMode.SIM,
        binary_size=FULL_TF_PROFILE.binary_size,
        fs_shield_enabled=False,
    )
    runtime = Container(name, node, config).start()
    return TrainingWorker(name, node, runtime, seed=9, threads=threads)


def test_pull_push_updates_weights(cluster, network):
    worker = make_worker(cluster[0], "w0")
    ps = ParameterServer(cluster[2], "ps", network, learning_rate=0.1)
    service = ShardedParameterService([ps])
    service.initialize(worker.weights())
    v0 = ps.version

    train, _ = synthetic_mnist(n_train=100, n_test=10, seed=0)
    batches = list(train.batches(50))
    trainer = SyncTrainer(network, service, [worker])
    result = trainer.train(batches, steps=2)
    assert result.steps == 2
    assert ps.version == v0 + 2
    assert ps.updates_applied == 2
    assert result.wall_clock > 0


def test_training_reduces_loss(cluster, network):
    worker = make_worker(cluster[0], "w0")
    ps = ParameterServer(cluster[2], "ps", network, learning_rate=0.1)
    service = ShardedParameterService([ps])
    service.initialize(worker.weights())
    train, _ = synthetic_mnist(n_train=800, n_test=10, seed=0)
    batches = list(train.batches(100))
    trainer = SyncTrainer(network, service, [worker])
    images, labels = batches[0]
    worker.load_weights(ps.weights)
    _, before = worker.compute_update((images, labels))
    trainer.train(batches)
    worker.load_weights(ps.weights)
    _, after = worker.compute_update((images, labels))
    assert after < before


def test_two_workers_split_batches(cluster, network):
    workers = [make_worker(cluster[i], f"w{i}") for i in range(2)]
    ps = ParameterServer(cluster[2], "ps", network, learning_rate=0.05)
    service = ShardedParameterService([ps])
    service.initialize(workers[0].weights())
    train, _ = synthetic_mnist(n_train=400, n_test=10, seed=0)
    batches = list(train.batches(100))
    trainer = SyncTrainer(network, service, workers)
    result = trainer.train(batches)
    assert result.steps == 4
    assert ps.updates_applied == 4


def test_gradient_shape_mismatch_rejected(cluster, network):
    worker = make_worker(cluster[0], "w0")
    ps = ParameterServer(cluster[2], "ps", network, learning_rate=0.1)
    ps.initialize(worker.weights())
    bad = {name: np.zeros((1, 1), np.float32) for name in ps.weights}
    payload = encoding.encode(
        {"gradients": encode_array_dict(bad), "declared_flops": 0}
    )
    from repro.cluster.rpc import RpcClient

    client = RpcClient(network, "direct", cluster[0])
    # Remote ClusterErrors keep their type across the RPC boundary.
    with pytest.raises(ClusterError):
        client.call("ps", "push", payload)


def test_unknown_gradient_name_rejected(cluster, network):
    worker = make_worker(cluster[0], "w0")
    ps = ParameterServer(cluster[2], "ps", network, learning_rate=0.1)
    ps.initialize(worker.weights())
    payload = encoding.encode(
        {
            "gradients": encode_array_dict(
                {"nonexistent": np.zeros(3, np.float32)}
            ),
            "declared_flops": 0,
        }
    )
    from repro.cluster.rpc import RpcClient

    client = RpcClient(network, "direct", cluster[0])
    # Remote ClusterErrors keep their type across the RPC boundary.
    with pytest.raises(ClusterError):
        client.call("ps", "push", payload)


def test_pull_before_initialize_fails(cluster, network):
    ParameterServer(cluster[2], "ps", network, learning_rate=0.1)
    from repro.cluster.rpc import RpcClient

    client = RpcClient(network, "direct", cluster[0])
    with pytest.raises(ClusterError):
        client.call("ps", "pull", b"")


def test_invalid_learning_rate(cluster, network):
    with pytest.raises(ClusterError):
        ParameterServer(cluster[2], "ps", network, learning_rate=0.0)


def test_trainer_requires_workers(cluster, network):
    ps = ParameterServer(cluster[2], "ps", network, learning_rate=0.1)
    with pytest.raises(ClusterError):
        SyncTrainer(network, ShardedParameterService([ps]), [])
