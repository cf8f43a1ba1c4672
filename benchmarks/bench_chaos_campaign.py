"""Chaos-campaign throughput and detection yield.

Runs the full fault-schedule grid twice — fencing on and fencing off —
and records the acceptance numbers into ``BENCH.json``:

- ``schedules_swept`` (the >= 200 floor) and ``schedules_per_s``
  (wall-clock throughput of the sweep, replay verification included —
  every schedule is executed twice and byte-compared);
- ``violations_fenced`` (must be 0) vs ``violations_unfenced`` (the
  detection yield: how much split-brain damage the same grid produces
  when the fence is off), broken down by invariant;
- ``replay_mismatches`` (must be 0 in both configurations).

A rerun keeps the section it replaces under ``previous``.
"""

import time

import pytest

from harness import load_bench, print_table, record, run_once, save_bench

from repro.chaos import default_campaign, run_campaign


def sweep(fencing):
    campaign = default_campaign()
    start = time.perf_counter()
    report = run_campaign(campaign, fencing=fencing, verify_replay=True)
    elapsed = time.perf_counter() - start
    return report, elapsed


def test_chaos_campaign(benchmark):
    def scenario():
        fenced, fenced_s = sweep(fencing=True)
        unfenced, unfenced_s = sweep(fencing=False)
        return fenced, fenced_s, unfenced, unfenced_s

    fenced, fenced_s, unfenced, unfenced_s = run_once(benchmark, scenario)

    # The acceptance shape the bench rides on — a throughput number for
    # a sweep that misses the bug (or breaks replay) is worthless.
    assert fenced.schedules_run >= 200
    assert fenced.violations == []
    assert fenced.replay_mismatches == []
    assert unfenced.replay_mismatches == []
    assert unfenced.violations_by_invariant().get("single-writer-per-epoch", 0) > 0

    n = fenced.schedules_run
    print_table(
        "Chaos campaign: epoch fencing on vs off",
        ["config", "schedules", "violations", "fenced ops", "sweep", "sched/s"],
        [
            ["fenced", n, len(fenced.violations), fenced.fenced_ops,
             f"{fenced_s:.1f}s", f"{n / fenced_s:.1f}"],
            ["unfenced", n, len(unfenced.violations), unfenced.fenced_ops,
             f"{unfenced_s:.1f}s", f"{n / unfenced_s:.1f}"],
        ],
        notes=[
            "each schedule runs twice per sweep (replay byte-identity check)",
            "unfenced violations by invariant: "
            + ", ".join(
                f"{k}={v}"
                for k, v in sorted(unfenced.violations_by_invariant().items())
            ),
        ],
    )
    record(
        benchmark,
        schedules_swept=n,
        schedules_per_s=n / fenced_s,
        violations_unfenced=len(unfenced.violations),
    )
    previous = load_bench("chaos_campaign")
    previous.pop("previous", None)
    save_bench(
        "chaos_campaign",
        {
            "schedules_swept": n,
            "schedules_per_s": round(n / fenced_s, 2),
            "fenced_sweep_s": round(fenced_s, 2),
            "unfenced_sweep_s": round(unfenced_s, 2),
            "violations_fenced": len(fenced.violations),
            "violations_unfenced": len(unfenced.violations),
            "violations_unfenced_by_invariant": unfenced.violations_by_invariant(),
            "split_brain_schedules_unfenced": len(unfenced.violating_schedules),
            "fenced_ops": fenced.fenced_ops,
            "replay_mismatches": 0,
            "previous": previous,
        },
    )
