"""Chaos campaigns as incident producers: one deterministic bundle per
schedule, naming the injected fault.

The acceptance shape ISSUE 10 adds to the chaos plane: every unfenced
schedule whose invariants break yields exactly one bundle triggered by
the **first violation**, every fenced fault-injection yields one bundle
triggered by the injection itself, and re-running a campaign from the
same identity seeds reproduces byte-identical bundles.
"""

import json
import os
from pathlib import Path

import pytest

from repro.chaos import FAMILIES, FaultSchedule, run_campaign

pytestmark = pytest.mark.monitoring

# One partition schedule per family: the tier-1 slice that provably
# splits the brain when unfenced (same shape as test_campaign.py).
SCHEDULES = [
    FaultSchedule("cas-failover", 2, "partition-outbound", False),
    FaultSchedule("ps-restart", 3, "partition-inbound", False),
    FaultSchedule("router-handoff", 4, "partition-both", False),
    FaultSchedule("sharded-ps", 5, "partition-outbound", True),
]


def campaign(fencing):
    return run_campaign(
        SCHEDULES, fencing=fencing, verify_replay=False, emit_incidents=True
    )


def bundles(report):
    return [o.incident for o in report.outcomes if o.incident is not None]


class TestUnfencedViolationBundles:
    def test_every_violating_schedule_gets_exactly_one_bundle(self):
        report = campaign(fencing=False)
        assert len(bundles(report)) == len(SCHEDULES)
        for outcome in report.outcomes:
            assert outcome.violations  # the slice is chosen to break
            bundle = outcome.incident
            assert bundle is not None
            assert bundle.trigger_kind == "violation"
            # Triggered by the first recorded violation, verbatim.
            assert bundle.trigger_detail == outcome.violations[0]
            assert bundle.trigger_name in outcome.violations[0]

    def test_bundle_names_the_injected_fault(self):
        report = campaign(fencing=False)
        for outcome in report.outcomes:
            schedule = outcome.schedule
            bundle = outcome.incident
            cause = bundle.root_cause
            assert cause["kind"] == schedule.kind
            assert cause["name"] == schedule.family
            assert cause["detail"] == schedule.schedule_id
            assert f"step {schedule.crash_step}" in cause["summary"]
            assert "fencing disabled" in cause["summary"]

    def test_timeline_carries_the_injection_marker_in_causal_position(self):
        report = campaign(fencing=False)
        for outcome in report.outcomes:
            schedule = outcome.schedule
            timeline = outcome.incident.timeline
            markers = [l for l in timeline if l.startswith("* fault-injection")]
            assert len(markers) == 1
            assert schedule.kind in markers[0]
            assert schedule.family in markers[0]
            assert f"step={schedule.crash_step}" in markers[0]
            # After the ack of every client op before crash_step (op{i},
            # push/{i} or r{i}), and before the replacement's promote:
            # the first promote of a role that already had a leader.
            at = timeline.index(markers[0])
            kinds = [line.split()[2:5:2] for line in timeline]
            promoted = set()
            for handoff, (kind, key) in enumerate(kinds):
                if handoff != at and kind == "promote":
                    if key in promoted:
                        break
                    promoted.add(key)
            pre_fault = {
                f"{prefix}{i}"
                for prefix in ("op", "push/", "r")
                for i in range(schedule.crash_step)
            }
            pre_fault_acks = [
                i for i, (kind, key) in enumerate(kinds)
                if kind == "ack" and key in pre_fault
            ]
            assert len(pre_fault_acks) == schedule.crash_step
            assert max(pre_fault_acks) < at < handoff
            if schedule.duplicate_storm:
                assert "+duplicate-storm" in markers[0]

    def test_trigger_time_is_the_last_ops_stamp(self):
        for fencing in (False, True):
            for outcome in campaign(fencing).outcomes:
                bundle = outcome.incident
                last_stamp = bundle.rings["history"][-1].split()[1]
                assert bundle.trigger_time > 0
                assert f"{bundle.trigger_time:.6f}" == last_stamp
                assert bundle.root_cause["time"] == round(bundle.trigger_time, 9)


class TestFencedInjectionBundles:
    def test_fenced_runs_bundle_the_absorbed_injection(self):
        report = campaign(fencing=True)
        assert len(bundles(report)) == len(SCHEDULES)
        for outcome in report.outcomes:
            assert outcome.violations == ()
            bundle = outcome.incident
            assert bundle.trigger_kind == "fault-injection"
            assert bundle.trigger_name == outcome.schedule.kind
            # The fence visibly absorbed the fault inside the bundle.
            assert bundle.metrics["fenced_ops"] > 0
            assert bundle.metrics["violations"] == []

    def test_crash_schedules_bundle_cleanly_without_fencing(self):
        # A genuinely dead leader violates nothing even unfenced: the
        # bundle records the injection, not a violation.
        schedules = [FaultSchedule(f, 2, "crash", False) for f in FAMILIES]
        report = run_campaign(
            schedules, fencing=False, verify_replay=False, emit_incidents=True
        )
        for outcome in report.outcomes:
            assert outcome.incident.trigger_kind == "fault-injection"


class TestBundleDeterminism:
    def test_two_campaign_runs_emit_byte_identical_bundles(self):
        first = [b.dump() for b in bundles(campaign(fencing=False))]
        second = [b.dump() for b in bundles(campaign(fencing=False))]
        assert first == second

    def test_bundle_ids_encode_schedule_and_mode(self):
        unfenced = campaign(fencing=False)
        fenced = campaign(fencing=True)
        for report, mode in ((unfenced, "unfenced"), (fenced, "fenced")):
            ids = [b.incident_id for b in bundles(report)]
            assert ids == [f"I:{s.schedule_id}:{mode}" for s in SCHEDULES]

    def test_bundle_dump_is_canonical_json(self):
        for bundle in bundles(campaign(fencing=False)):
            payload = json.loads(bundle.dump())
            assert payload["incident_id"] == bundle.incident_id
            assert payload["rings"]["history"]  # the black box rode along


class TestPlainCampaignsUnchanged:
    def test_no_emit_means_no_bundles_and_no_probe_installed(self):
        import subprocess
        import sys

        # A plain campaign in a fresh interpreter must leave every probe
        # slot empty (the recorder-off contract) and emit no bundles.
        code = (
            "from repro._sim import probe\n"
            "from repro.chaos import FaultSchedule, run_campaign\n"
            "s = FaultSchedule('cas-failover', 2, 'partition-outbound', False)\n"
            "r = run_campaign([s], fencing=True, verify_replay=False)\n"
            "assert [o.incident for o in r.outcomes] == [None]\n"
            "assert probe.SINK is None and probe.installed() == ()\n"
        )
        result = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": "src"},
            cwd=Path(__file__).resolve().parents[2],
        )
        assert result.returncode == 0, result.stderr
