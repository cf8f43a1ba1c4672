"""Secure training checkpoints (stateful computing, challenge ❺)."""

import copy

import numpy as np
import pytest

from repro.core import SecureTFPlatform, TrainingJob
from repro.core.platform import PlatformConfig
from repro.core.training import TrainingJobConfig
from repro.data import synthetic_mnist
from repro.enclave.sgx import SgxMode
from repro.errors import ConfigurationError, FreshnessError, ShieldError


@pytest.fixture(scope="module")
def batches():
    train, _ = synthetic_mnist(n_train=400, n_test=10, seed=15)
    return list(train.batches(100))


def make_job(session="ckpt", mode=SgxMode.SIM):
    platform = SecureTFPlatform(PlatformConfig(n_nodes=2, seed=16))
    job = TrainingJob(
        platform,
        TrainingJobConfig(
            session=session, mode=mode, network_shield=False,
            learning_rate=0.05,
        ),
    )
    job.start()
    return platform, job


def test_checkpoint_roundtrip(batches):
    platform, job = make_job()
    job.train(batches, steps=2)
    trained = {k: v.copy() for k, v in job.weights().items()}
    version = job.ps_service.shard(0).version
    path = job.save_checkpoint()

    # Wipe and restore.
    job.ps_service.initialize({k: np.zeros_like(v) for k, v in trained.items()})
    restored_version = job.restore_checkpoint()
    assert restored_version == version
    for name, value in job.weights().items():
        np.testing.assert_array_equal(value, trained[name])
    job.stop()


def test_checkpoint_is_encrypted_at_rest(batches):
    platform, job = make_job()
    job.train(batches, steps=1)
    path = job.save_checkpoint()
    raw = job.ps_service.shard(0).node.vfs.read(path).content
    from repro.tensor.arrays import encode_array_dict

    assert encode_array_dict(job.weights())[:64] not in raw
    job.stop()


def test_checkpoint_tamper_detected(batches):
    platform, job = make_job()
    job.train(batches, steps=1)
    path = job.save_checkpoint()
    node = job.ps_service.shard(0).node
    raw = bytearray(node.vfs.read(path).content)
    raw[len(raw) // 2] ^= 1
    node.vfs.tamper(path, bytes(raw))
    with pytest.raises((ShieldError, FreshnessError)):
        job.restore_checkpoint()
    job.stop()


def test_checkpoint_rollback_detected(batches):
    platform, job = make_job()
    job.train(batches, steps=1)
    path = job.save_checkpoint()
    node = job.ps_service.shard(0).node
    snapshot = copy.deepcopy(node.vfs.read(path))
    job.train(batches, steps=1)
    job.save_checkpoint()  # newer version committed to the audit log
    node.vfs.rollback(path, snapshot)
    with pytest.raises(FreshnessError):
        job.restore_checkpoint()
    job.stop()


def test_native_mode_has_no_secure_checkpoints(batches):
    platform = SecureTFPlatform(PlatformConfig(n_nodes=2, seed=17))
    job = TrainingJob(
        platform,
        TrainingJobConfig(
            session="nat", mode=SgxMode.NATIVE, network_shield=False
        ),
    )
    job.start()
    with pytest.raises(ConfigurationError):
        job.save_checkpoint()
    job.stop()
