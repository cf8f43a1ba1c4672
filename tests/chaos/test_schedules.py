"""Fault-schedule enumeration: identity, seeds, and the campaign floor."""

import pytest

from repro.chaos import (
    FAMILIES,
    FAULT_KINDS,
    FaultSchedule,
    STEPS_PER_FAMILY,
    default_campaign,
    enumerate_schedules,
)


def test_default_campaign_meets_the_schedule_floor():
    campaign = default_campaign()
    # The acceptance floor: a sweep of at least 200 distinct schedules
    # across all three leader roles.
    assert len(campaign) >= 200
    assert len({s.schedule_id for s in campaign}) == len(campaign)
    assert {s.family for s in campaign} == set(FAMILIES)
    assert {s.kind for s in campaign} == set(FAULT_KINDS)
    assert {s.crash_step for s in campaign} == set(range(STEPS_PER_FAMILY))
    assert {s.duplicate_storm for s in campaign} == {False, True}


def test_enumeration_order_is_deterministic():
    assert list(enumerate_schedules()) == list(enumerate_schedules())


def test_schedule_ids_and_seeds_are_stable():
    s = FaultSchedule("cas-failover", 3, "partition-inbound", True)
    assert s.schedule_id == "cas-failover/step3/partition-inbound+dup"
    # CRC32 of the id string: immune to process-randomized hashing, so
    # a schedule replays from its identity alone.
    assert s.seed == FaultSchedule(
        "cas-failover", 3, "partition-inbound", True
    ).seed
    other = FaultSchedule("cas-failover", 3, "partition-inbound", False)
    assert s.seed != other.seed


def test_partition_direction_mapping():
    mk = lambda kind: FaultSchedule("ps-restart", 0, kind, False)
    assert mk("partition-both").partition_direction == "both"
    assert mk("partition-inbound").partition_direction == "inbound"
    assert mk("partition-outbound").partition_direction == "outbound"
    assert mk("crash").is_crash
    assert not mk("partition-both").is_crash


def test_invalid_schedules_rejected():
    with pytest.raises(ValueError):
        FaultSchedule("cas-failover", 0, "meteor-strike", False)
    with pytest.raises(ValueError):
        FaultSchedule("cas-failover", -1, "crash", False)
    with pytest.raises(ValueError):
        FaultSchedule("raft-election", 0, "crash", False)
