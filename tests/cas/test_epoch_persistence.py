"""Epoch authority state: bumps land as ``epoch/<role>`` records in the
(replicated) CAS secrets database and survive a CAS failover.

The epoch registry is what stops a zombie after the control plane itself
restarts — so it is control-plane state, double-written to both CAS
instances through the administrative channel (a bump *during* failover
cannot depend on the broken replication stream), and restores must be
forward-only so a stale replica can never un-fence a zombie.  A record
is a ``db.put``: it reaches a CAS's disk only at that CAS's next
``persist()``.
"""

import pytest

from repro.cluster.epoch import EPOCH_KEY_PREFIX, EpochService
from repro.cluster.retry import RetryPolicy
from repro.core import SecureTFPlatform
from repro.core.platform import PlatformConfig
from repro.errors import FencedError


def load_epochs(db):
    """The ``epoch/<role>`` records of a CAS secrets database, as the
    ``{role: epoch}`` map ``EpochService.restore`` takes."""
    return {
        key[len(EPOCH_KEY_PREFIX):]: int(db.get(key).decode())
        for key in db.keys(EPOCH_KEY_PREFIX)
    }


def make_platform(backup=True):
    retry = RetryPolicy(max_attempts=6, base_delay=0.02)
    return SecureTFPlatform(
        PlatformConfig(
            n_nodes=3,
            seed=83,
            fencing=True,
            cas_backup_node=1 if backup else None,
            cas_retry=retry if backup else None,
        )
    )


def test_epoch_bumps_persist_to_the_cas_database():
    platform = make_platform(backup=False)
    platform.epochs.grant("ps-0", holder="a")
    platform.epochs.grant("ps-0", holder="b")
    platform.epochs.grant("router", holder="r")
    assert platform.cas.db.get(f"{EPOCH_KEY_PREFIX}ps-0") == b"2"
    assert load_epochs(platform.active_cas.db) == {"ps-0": 2, "router": 1}


def test_epoch_registry_survives_cas_failover():
    platform = make_platform(backup=True)
    pair = platform.cas_pair
    platform.epochs.grant("ps-0", holder="a")
    platform.epochs.grant("router", holder="r")

    # Every bump is double-written: both instances hold the records
    # before any failure (the pair itself holds a fenced ``cas-primary``
    # lease, so that role rides along).
    for db in (pair.primary.db, pair.backup.db):
        persisted = load_epochs(db)
        assert persisted["ps-0"] == 1
        assert persisted["router"] == 1

    # The primary dies; a bump lands mid-failover (the exact moment the
    # replication stream is broken) and must still be durable on the
    # survivor.
    pair.fail_primary()
    platform.epochs.grant("ps-0", holder="a2")
    assert not pair.probe()
    pair.promote()
    persisted = load_epochs(platform.active_cas.db)
    assert persisted["ps-0"] == 2
    assert persisted["router"] == 1
    assert pair.stats.epochs_replicated >= 3

    # A restarted control plane rebuilds its authority from the
    # surviving replica's records: guards advance to the persisted
    # epochs and the zombie's stale stamp is rejected.
    restored = EpochService()
    guard = restored.make_guard("ps-0", name="restored-store")
    restored.restore(load_epochs(platform.active_cas.db))
    assert restored.current("ps-0") == 2
    assert restored.current("router") == 1
    with pytest.raises(FencedError):
        guard.check(1)  # the pre-failover holder's epoch
    guard.check(2)

    # Forward-only: a stale registry copy cannot roll the epoch back.
    restored.restore({"ps-0": 1})
    assert restored.current("ps-0") == 2
    # And the next bump after restore is strictly newer than anything
    # ever granted.
    assert restored.grant("ps-0", holder="a3").epoch == 3
