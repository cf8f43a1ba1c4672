"""Storage-chaos acceptance: training with journaled checkpoints survives
torn checkpoint writes, bit-rotted replicas, and a CAS failover — and
still produces weights identical to a fault-free run — while a restored
old disk image is rejected as a rollback.
"""

import numpy as np
import pytest

from repro.cluster.retry import RetryPolicy
from repro.core import SecureTFPlatform, TrainingJob
from repro.core.monitoring import collect_metrics
from repro.core.platform import PlatformConfig
from repro.core.training import TrainingJobConfig
from repro.data import synthetic_mnist
from repro.enclave.sgx import SgxMode
from repro.errors import FreshnessError, StorageCrash
from repro.runtime.fs_shield import CHUNK_MARKER
from repro.runtime.storage_faults import StorageFaultPlan, StorageFaultSpec

STEPS = 8
CKPT_PREFIX = "/secure/checkpoints/"


@pytest.fixture(scope="module")
def batches():
    train, _ = synthetic_mnist(n_train=400, n_test=10, seed=70)
    return list(train.batches(50))


def make_job(session, backup=False, seed=71):
    retry = RetryPolicy(max_attempts=6, base_delay=0.02)
    platform = SecureTFPlatform(
        PlatformConfig(
            n_nodes=3,
            seed=seed,
            cas_backup_node=1 if backup else None,
            cas_retry=retry if backup else None,
        )
    )
    job = TrainingJob(
        platform,
        TrainingJobConfig(
            session=session,
            n_workers=2,
            mode=SgxMode.SIM,
            learning_rate=0.05,
            retry_policy=retry,
            checkpoint_replicas=2,
        ),
    )
    job.start()
    return platform, job


def replica_files(vfs, replica=1):
    return [
        p for p in vfs.listdir() if CHUNK_MARKER in p and p.endswith(f".{replica}")
    ]


def test_training_survives_storage_chaos_and_cas_failover(batches):
    """THE acceptance run: a torn checkpoint write mid-training, rotted
    chunk replicas, and a CAS primary loss — the job completes, the
    restored checkpoint equals the fault-free run's weights, and every
    repair/failover shows up in the metrics snapshot."""
    _, clean_job = make_job("storage-clean")
    clean_job.train(batches, steps=STEPS)
    clean_weights = clean_job.weights()

    platform, job = make_job("storage-hit", backup=True)
    job.train(batches[:4], steps=4)
    vfs = job.ps_service.shard(0).node.vfs

    # 1. The checkpoint write tears mid-commit and the process dies.
    StorageFaultPlan(
        7, StorageFaultSpec(torn_write=1.0, prefixes=(CKPT_PREFIX,))
    ).attach(vfs)
    with pytest.raises(StorageCrash):
        job.save_checkpoint()
    vfs.faults = None

    # Mount-time recovery rolls the half-written generation back; the
    # retried save then commits cleanly.
    report = job._checkpoint_shield().recover()
    assert report.get(job.checkpoint_path()) == "rolled-back"
    job.save_checkpoint()

    # 2. The CAS primary dies mid-run; the orchestrator watchdog promotes
    # the standby and training (and checkpointing) continues against it.
    platform.cas_pair.fail_primary()
    assert platform.orchestrator.supervise_services() == {"cas": False}
    assert platform.active_cas is platform.cas_pair.backup
    job.train(batches[4:STEPS], steps=STEPS - 4)
    job.save_checkpoint()

    # 3. Bit-rot eats one replica of several chunks at rest; the restore
    # reads through it, healing each damaged copy from its twin.
    victims = replica_files(vfs, replica=1)[:3]
    assert victims, "journaled checkpoints must leave replica chunks"
    for path in victims:
        raw = vfs.read(path).content
        vfs.tamper(path, raw[: max(1, len(raw) // 2)])
    job.restore_checkpoint()

    # Same steps, same data: the chaos run's restored weights are
    # byte-identical to the fault-free run's.
    chaos_weights = job.weights()
    assert set(chaos_weights) == set(clean_weights)
    for name in clean_weights:
        np.testing.assert_array_equal(clean_weights[name], chaos_weights[name])

    # The whole story is visible to monitoring.
    metrics = collect_metrics(platform)
    assert metrics.shields.fs_chunks_repaired >= len(victims)
    assert metrics.shields.fs_torn_writes_detected >= len(victims)
    assert metrics.shields.fs_recovery_scans >= 1
    assert metrics.shields.fs_recoveries_rolled_back >= 1
    assert metrics.recovery.cas_failovers == 1
    assert metrics.recovery.cas_ops_replicated >= 1
    assert metrics.recovery.cas_records_replicated >= 1
    snapshot = metrics.format()
    assert "storage:" in snapshot and "cas ha:" in snapshot


def test_disk_image_rollback_of_checkpoints_rejected(batches):
    """Restoring the PS disk to an older (validly encrypted) checkpoint
    is detected through the CAS audit chain, not trusted storage."""
    _, job = make_job("storage-rollback")
    job.train(batches[:2], steps=2)
    job.save_checkpoint()
    snapshot = job.ps_service.shard(0).node.vfs.capture_state()
    job.train(batches[2:4], steps=2)
    job.save_checkpoint()

    job.ps_service.shard(0).node.vfs.restore_state(snapshot)
    with pytest.raises(FreshnessError):
        job.restore_checkpoint()
    # The recovery scan refuses to bless the stale generation either.
    report = job._checkpoint_shield().recover()
    assert report.get(job.checkpoint_path()) == "stale"


@pytest.mark.storage_chaos
@pytest.mark.parametrize("seed", range(6))
def test_randomized_storage_chaos_sweep(batches, seed):
    """Tier-2 sweep: the randomized analog of the exhaustive crash-point
    sweep — torn writes kill random checkpoint commits across repeated
    cycles, and every recovered state is exactly a committed one."""
    _, job = make_job("storage-sweep-%d" % seed, seed=80 + seed)
    job.train(batches[:2], steps=2)
    vfs = job.ps_service.shard(0).node.vfs
    committed = None
    crashes = 0
    for cycle in range(8):
        StorageFaultPlan(
            seed * 97 + cycle,
            StorageFaultSpec(torn_write=0.3, prefixes=(CKPT_PREFIX,)),
        ).attach(vfs)
        try:
            job.save_checkpoint()
            committed = job.ps_service.shard(0).version
        except StorageCrash:
            crashes += 1
            vfs.faults = None
            job._checkpoint_shield().recover()
        finally:
            vfs.faults = None
        if committed is not None:
            assert job.restore_checkpoint() == committed
    assert crashes > 0, "the sweep never injected a torn commit"
