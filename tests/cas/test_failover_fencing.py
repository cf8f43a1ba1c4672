"""CAS failover racing an in-flight seal.

The rollback-protection protocol is write-first/bump-last: a primary
takes a snapshot carrying ``counter + 1`` and only bumps the shared
monotonic counter once it is durably persisted
(``acknowledge_persisted`` — the commit point).  A primary that is
partitioned away *between* those two steps still holds an unacknowledged
claim on ``counter + 1``; if it completes the bump after a replacement
was promoted, either two snapshots claim one counter value (double
issue) or the replacement's acknowledged snapshots read as rollbacks.
Epoch fencing on the shared counter closes the race.
"""

import pytest

from repro.cas import CasService, ReplicatedCasPair
from repro.cas.secrets_db import HardwareCounter
from repro.cluster import Network, make_cluster
from repro.cluster.epoch import EpochService
from repro.cluster.faults import FaultPlan, TransientPartition
from repro.enclave.cost_model import DEFAULT_COST_MODEL as CM
from repro.errors import FencedError


@pytest.fixture
def cluster(provisioning):
    return make_cluster(2, CM, provisioning, seed=23)


def make_pair(cluster, provisioning, fencing):
    network = Network(CM)
    counter = HardwareCounter()
    primary = CasService(cluster[0], provisioning.public_key(), counter=counter)
    backup = CasService(cluster[1], provisioning.public_key(), counter=counter)
    epochs = EpochService() if fencing else None
    pair = ReplicatedCasPair(network, primary, backup, epochs=epochs)
    pair.attach_probe(cluster[1])
    return network, counter, pair


def partition_primary(network, pair, cluster, start, duration=5.0):
    plan = FaultPlan(
        7,
        partitions=[
            TransientPartition("cas", start, start + duration),
            TransientPartition(
                pair._repl_client.address, start, start + duration
            ),
        ],
    )
    network.faults.append(plan.inject)
    return plan


def run_seal_race(cluster, provisioning, fencing):
    """Drive the race; return (pair, zombie_outcome, claimed_value)."""
    network, counter, pair = make_pair(cluster, provisioning, fencing)
    primary, backup = pair.primary, pair.backup

    # Healthy primary commits one full seal cycle.
    primary.db.put("k0", b"v0")
    primary.db.snapshot()
    primary.db.acknowledge_persisted()

    # The in-flight seal: the snapshot claims counter+1, then the partition
    # hits BEFORE the acknowledgement.
    primary.db.put("k1", b"v1")
    claimed = counter.value + 1
    primary.db.snapshot()
    t0 = max(n.clock.now for n in cluster)
    partition_primary(network, pair, cluster, t0)

    # Watchdog: probe fails through the partition, promote the standby.
    assert not pair.probe()
    pair.promote()
    assert pair.active is backup

    # The new primary seals its own snapshot — claiming the same value
    # the zombie's unacknowledged export did.
    backup.db.put("k1", b"v1")
    backup_claim = counter.value + 1
    blob = backup.db.snapshot()
    backup_version = backup.db.acknowledge_persisted()

    # The zombie wakes up and completes its bump.
    try:
        primary.db.acknowledge_persisted()
        zombie_outcome = "committed"
    except FencedError:
        zombie_outcome = "fenced"
    return pair, counter, zombie_outcome, claimed, backup_claim, backup_version, blob


def test_fenced_new_primary_never_double_issues(cluster, provisioning):
    pair, counter, zombie, claimed, backup_claim, version, blob = run_seal_race(
        cluster, provisioning, fencing=True
    )
    # Both sides raced for the same counter value...
    assert claimed == backup_claim
    # ...the new primary won it, and the zombie's late bump was fenced:
    # exactly one snapshot owns the value, and it is the acknowledged one.
    assert zombie == "fenced"
    assert version == backup_claim
    assert counter.value == version
    # The acknowledged snapshot still verifies as fresh.
    pair.backup.db.load(blob)


def test_unfenced_zombie_bump_orphans_the_acknowledged_snapshot(
    cluster, provisioning
):
    pair, counter, zombie, claimed, backup_claim, version, blob = run_seal_race(
        cluster, provisioning, fencing=False
    )
    # Without fencing the zombie's bump lands: the counter has now moved
    # PAST the new primary's acknowledged snapshot...
    assert zombie == "committed"
    assert counter.value == version + 1
    # ...which is the double-issue damage this test pins down: the same
    # counter value was claimed by both sides, so freshness arithmetic
    # can no longer tell the acknowledged snapshot from a rollback.
    assert claimed == backup_claim


def test_promotion_is_fence_first(cluster, provisioning):
    # The epoch bump happens BEFORE the replacement activates: once
    # promote() returns, the zombie's very next guarded operation is
    # already rejected — there is no window for a late commit.
    network, counter, pair = make_pair(cluster, provisioning, fencing=True)
    t0 = max(n.clock.now for n in cluster)
    partition_primary(network, pair, cluster, t0)
    pair.promote()
    pair.primary.db.put("k", b"v")
    pair.primary.db.snapshot()
    with pytest.raises(FencedError):
        pair.primary.db.acknowledge_persisted()
