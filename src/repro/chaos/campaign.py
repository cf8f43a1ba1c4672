"""Campaign driver: sweep fault schedules, check invariants, verify replay.

A campaign runs every schedule in a grid (by default the full
:func:`~repro.chaos.schedule.default_campaign` — 288 schedules) under
one fencing setting, collecting per-schedule outcomes:

- the family's invariant violations over the recorded history;
- a **replay identity** check: each schedule is executed twice from its
  identity-derived seed and the two canonical trace byte strings must
  match exactly.  A schedule that cannot replay byte-identically is
  useless as a regression reproducer, so the campaign treats a mismatch
  as a first-class failure, not a warning.

The acceptance shape (asserted by the tier-2 suite and recorded by the
bench): with fencing **enabled** the full sweep finds zero violations;
with fencing **disabled** the *same* sweep reproduces split-brain
violations — proving the invariant suite detects the bug the fence
closes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.chaos.schedule import FaultSchedule, default_campaign
from repro.chaos.scenarios import ScenarioRun, run_schedule


@dataclass
class ScheduleOutcome:
    """One schedule's result within a campaign."""

    schedule: FaultSchedule
    fencing: bool
    violations: Tuple[str, ...]
    replay_identical: bool
    ops_recorded: int
    fenced_ops: int
    #: History-derived incident bundle (``emit_incidents`` runs only).
    #: Unfenced runs with violations get one triggered by the first
    #: violation; fenced runs get one triggered by the fault injection.
    incident: Optional[object] = None

    @property
    def ok(self) -> bool:
        return not self.violations and self.replay_identical


@dataclass
class CampaignReport:
    """Aggregate result of one campaign sweep."""

    fencing: bool
    outcomes: List[ScheduleOutcome] = field(default_factory=list)

    @property
    def schedules_run(self) -> int:
        return len(self.outcomes)

    @property
    def violations(self) -> List[str]:
        """All violations, each prefixed with its schedule id."""
        out = []
        for outcome in self.outcomes:
            for violation in outcome.violations:
                out.append(f"{outcome.schedule.schedule_id}: {violation}")
        return out

    @property
    def violating_schedules(self) -> List[ScheduleOutcome]:
        return [o for o in self.outcomes if o.violations]

    @property
    def replay_mismatches(self) -> List[ScheduleOutcome]:
        return [o for o in self.outcomes if not o.replay_identical]

    @property
    def fenced_ops(self) -> int:
        return sum(o.fenced_ops for o in self.outcomes)

    def violations_by_invariant(self) -> Dict[str, int]:
        """Violation counts keyed by invariant name (the ``[name]``
        prefix every checker stamps on its findings)."""
        counts: Dict[str, int] = {}
        for outcome in self.outcomes:
            for violation in outcome.violations:
                name = violation.split("]", 1)[0].lstrip("[")
                counts[name] = counts.get(name, 0) + 1
        return counts

    def summary(self) -> str:
        mode = "fenced" if self.fencing else "unfenced"
        lines = [
            f"chaos campaign ({mode}): {self.schedules_run} schedules, "
            f"{len(self.violations)} violations, "
            f"{len(self.replay_mismatches)} replay mismatches, "
            f"{self.fenced_ops} fenced ops"
        ]
        for name, count in sorted(self.violations_by_invariant().items()):
            lines.append(f"  {name}: {count} violations")
        return "\n".join(lines)


def run_campaign(
    schedules: Optional[Sequence[FaultSchedule]] = None,
    fencing: bool = True,
    verify_replay: bool = True,
    progress: Optional[Callable[[ScheduleOutcome], None]] = None,
    emit_incidents: bool = False,
) -> CampaignReport:
    """Run every schedule (twice, when ``verify_replay``) and report.

    ``progress`` is called after each schedule — benches use it for
    throughput accounting without re-running the sweep.  With
    ``emit_incidents`` each schedule also distills its recorded history
    into exactly one deterministic incident bundle (lazy import: plain
    campaigns never load the observability package).
    """
    if schedules is None:
        schedules = default_campaign()
    report = CampaignReport(fencing=fencing)
    for schedule in schedules:
        first = run_schedule(schedule, fencing=fencing)
        identical = True
        if verify_replay:
            second = run_schedule(schedule, fencing=fencing)
            identical = second.trace == first.trace
        incident = None
        if emit_incidents:
            from repro.observability.incident import bundle_from_scenario

            incident = bundle_from_scenario(schedule, first, fencing)
        outcome = ScheduleOutcome(
            schedule=schedule,
            fencing=fencing,
            violations=first.violations,
            replay_identical=identical,
            ops_recorded=len(first.history),
            fenced_ops=len(first.history.of_kind("fenced")),
            incident=incident,
        )
        report.outcomes.append(outcome)
        if progress is not None:
            progress(outcome)
    return report


__all__ = ["CampaignReport", "ScheduleOutcome", "run_campaign"]
