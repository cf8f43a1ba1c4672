"""Chaos campaigns over the epoch-fenced control plane.

Tier-1 keeps a fast representative slice (one partition schedule per
family plus every partition kind at the boundary steps 0 and 8, both
fencing settings, replay identity).  The exhaustive
``chaos_campaign``-marked sweeps run the full 288-schedule grid in both
configurations and assert the acceptance shape end to end:

- fencing ON  → zero invariant violations across the whole grid;
- fencing OFF → the same grid reproduces split-brain violations;
- every schedule replays byte-identically from its identity seed.
"""

import pytest

from repro.chaos import (
    FAMILIES,
    FAULT_KINDS,
    FaultSchedule,
    STEPS_PER_FAMILY,
    default_campaign,
    run_campaign,
    run_schedule,
)

ZOMBIE_SCHEDULES = [
    FaultSchedule("cas-failover", 2, "partition-outbound", False),
    FaultSchedule("ps-restart", 3, "partition-inbound", False),
    FaultSchedule("router-handoff", 4, "partition-both", False),
    FaultSchedule("sharded-ps", 5, "partition-outbound", False),
]

# The first and last steps, where the rigs branch: at step 0 no op
# precedes the fault; at step 8 the last op is the one in flight, so
# the replacement serves none (and commits no barrier) before the
# zombies retry.
BOUNDARY_SCHEDULES = [
    FaultSchedule(family, step, kind, False)
    for family in FAMILIES
    for step in (0, STEPS_PER_FAMILY - 1)
    for kind in FAULT_KINDS
    if kind != "crash"
]


# -- tier-1 slice ----------------------------------------------------------


@pytest.mark.parametrize(
    "schedule", ZOMBIE_SCHEDULES + BOUNDARY_SCHEDULES, ids=lambda s: s.schedule_id
)
def test_fencing_holds_and_its_absence_is_detected(schedule):
    fenced = run_schedule(schedule, fencing=True)
    assert fenced.violations == ()
    # The fence actually fired (the zombie tried and was told no) —
    # a run where nothing was fenced proves nothing about fencing.
    assert fenced.history.of_kind("fenced")

    unfenced = run_schedule(schedule, fencing=False)
    assert unfenced.violations
    assert any("single-writer-per-epoch" in v for v in unfenced.violations)


@pytest.mark.parametrize(
    "schedule", ZOMBIE_SCHEDULES, ids=lambda s: s.schedule_id
)
@pytest.mark.parametrize("fencing", [True, False], ids=["fenced", "unfenced"])
def test_schedules_replay_byte_identically(schedule, fencing):
    first = run_schedule(schedule, fencing=fencing)
    second = run_schedule(schedule, fencing=fencing)
    assert first.trace == second.trace
    assert first.violations == second.violations


def test_crash_schedules_are_clean_in_both_configs():
    # A genuinely dead leader cannot be a zombie: crash-kind schedules
    # must hold the invariants even without fencing — if they did not,
    # the unfenced violations would be measuring harness bugs, not
    # split-brain.
    for family in FAMILIES:
        schedule = FaultSchedule(family, 2, "crash", False)
        assert run_schedule(schedule, fencing=True).violations == ()
        assert run_schedule(schedule, fencing=False).violations == ()


def test_duplicate_storms_do_not_break_dedup():
    # Delivery duplication alone (fencing on, so no zombie damage) must
    # be fully absorbed by the at-most-once dedup windows.
    for family in FAMILIES:
        schedule = FaultSchedule(family, 3, "partition-both", True)
        run = run_schedule(schedule, fencing=True)
        assert run.violations == ()


# -- exhaustive sweeps (tier 2) -------------------------------------------


@pytest.mark.chaos_campaign
def test_full_campaign_with_fencing_finds_zero_violations():
    campaign = default_campaign()
    assert len(campaign) >= 200  # the acceptance floor
    report = run_campaign(campaign, fencing=True, verify_replay=True)
    assert report.schedules_run == len(campaign)
    assert report.violations == []
    assert report.replay_mismatches == []
    # Every partition schedule exercised the fence at least once.
    assert report.fenced_ops >= sum(
        1 for s in campaign if not s.is_crash
    )


@pytest.mark.chaos_campaign
def test_full_campaign_without_fencing_reproduces_split_brain():
    campaign = default_campaign()
    report = run_campaign(campaign, fencing=False, verify_replay=True)
    assert report.replay_mismatches == []
    by_invariant = report.violations_by_invariant()
    # Every partition schedule (27 steps x 3 directions x 2 storms per
    # family would over-count; what matters: the zombie commits) is a
    # split-brain; crash schedules stay clean.
    assert by_invariant.get("single-writer-per-epoch", 0) > 0
    assert by_invariant.get("no-acked-write-loss", 0) > 0
    assert by_invariant.get("unique-counter-issue", 0) > 0
    violating_families = {
        o.schedule.family for o in report.violating_schedules
    }
    assert violating_families == set(FAMILIES)
    for outcome in report.outcomes:
        if outcome.schedule.is_crash:
            assert outcome.violations == ()
        else:
            assert outcome.violations
