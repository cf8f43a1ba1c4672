"""Fault-tolerant training: crash mid-job, recover from a secure
checkpoint on a fresh (re-attested) deployment — challenges ❹ + ❺
combined: elastic recovery with stateful security.
"""

import numpy as np
import pytest

from repro.core import SecureTFPlatform, TrainingJob
from repro.core.platform import PlatformConfig
from repro.core.training import TrainingJobConfig
from repro.data import synthetic_mnist
from repro.enclave.sgx import SgxMode


@pytest.fixture(scope="module")
def batches():
    train, _ = synthetic_mnist(n_train=800, n_test=10, seed=50)
    return list(train.batches(100))


def test_crash_and_recover_from_secure_checkpoint(batches):
    platform = SecureTFPlatform(PlatformConfig(n_nodes=3, seed=51))
    config = TrainingJobConfig(
        session="resilient",
        n_workers=2,
        mode=SgxMode.SIM,  # SIM keeps the test fast; the flow is identical
        network_shield=True,
        learning_rate=0.05,
    )

    # Phase 1: train half the batches, checkpoint, then crash everything.
    job = TrainingJob(platform, config)
    job.start()
    job.train(batches, steps=4)
    version_at_checkpoint = job.ps_service.shard(0).version
    weights_at_checkpoint = {k: v.copy() for k, v in job.weights().items()}
    path = job.save_checkpoint()
    for container in job._containers:
        container.fail()  # the adversary (or the cloud) kills the job
    job.ps_service.shard(0).stop()

    # Phase 2: a fresh deployment re-attests and resumes from the
    # checkpoint.  The PS address is free again; CAS still holds the
    # session policy, keys, and the audit record of the checkpoint.
    job2 = TrainingJob(platform, config)  # same session, new containers
    job2.start()  # session registration is idempotent for resumed jobs
    restored_version = job2.restore_checkpoint()
    assert restored_version == version_at_checkpoint
    for name, value in job2.weights().items():
        np.testing.assert_array_equal(value, weights_at_checkpoint[name])

    # Training continues and keeps improving.
    images, labels = batches[0]
    job2.workers[0].load_weights(job2.weights())
    loss_before = job2.workers[0].evaluate_loss(images, labels)
    job2.train(batches, steps=4)
    job2.workers[0].load_weights(job2.weights())
    loss_after = job2.workers[0].evaluate_loss(images, labels)
    assert loss_after < loss_before
    job2.stop()


def test_worker_node_partition_fails_fast(batches):
    """A partitioned PS surfaces as an RPC error, not a hang or silent
    data loss."""
    from repro.errors import RpcError

    platform = SecureTFPlatform(PlatformConfig(n_nodes=3, seed=52))
    job = TrainingJob(
        platform,
        TrainingJobConfig(
            session="partition", mode=SgxMode.SIM, network_shield=False,
            learning_rate=0.05,
        ),
    )
    job.start()
    job.train(batches, steps=1)
    ps_address = job.ps_service.shard(0).address
    platform.network.partition(ps_address)
    with pytest.raises(RpcError):
        job.train(batches, steps=1)
    platform.network.heal(ps_address)
    result = job.train(batches, steps=1)
    assert result.steps == 1
    job.stop()
