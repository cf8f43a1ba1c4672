"""Deterministic enumeration of fault schedules.

A :class:`FaultSchedule` is one point in the campaign's fault grid:

- **family** — which leader-shaped protocol is under test
  (``cas-failover``, ``ps-restart``, ``router-handoff``,
  ``sharded-ps``);
- **crash_step** — the protocol step at which the leader is lost
  (crashed or partitioned away), sweeping the loss across every point
  of the write sequence;
- **kind** — how the leader is lost: a genuine crash, or a transient
  partition in one of three directions (symmetric, inbound-only,
  outbound-only — the one-way cases are where zombies live);
- **duplicate_storm** — whether the network additionally duplicates
  deliveries around the affected endpoints, stressing the at-most-once
  dedup windows while the handoff is in flight.

Every schedule derives a stable seed from its own identity (CRC32 of
the id string — no process-randomized hashing), so a schedule replays
byte-identically however the sweep is ordered or parallelized.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from itertools import product
from typing import Iterator, Sequence, Tuple

#: How the leader is lost at ``crash_step``.
KIND_CRASH = "crash"
KIND_PARTITION_BOTH = "partition-both"
KIND_PARTITION_INBOUND = "partition-inbound"
KIND_PARTITION_OUTBOUND = "partition-outbound"

FAULT_KINDS: Tuple[str, ...] = (
    KIND_CRASH,
    KIND_PARTITION_BOTH,
    KIND_PARTITION_INBOUND,
    KIND_PARTITION_OUTBOUND,
)

#: Protocol steps swept per family (crash_step in [0, STEPS_PER_FAMILY)).
STEPS_PER_FAMILY = 9

FAMILIES: Tuple[str, ...] = (
    "cas-failover",
    "ps-restart",
    "router-handoff",
    "sharded-ps",
)


@dataclass(frozen=True)
class FaultSchedule:
    """One deterministic fault schedule in a campaign grid."""

    family: str
    crash_step: int
    kind: str
    duplicate_storm: bool

    def __post_init__(self) -> None:
        if self.family not in FAMILIES:
            raise ValueError(f"unknown scenario family {self.family!r}")
        if self.kind not in FAULT_KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}")
        if self.crash_step < 0:
            raise ValueError(f"crash_step must be >= 0, got {self.crash_step}")

    @property
    def schedule_id(self) -> str:
        storm = "+dup" if self.duplicate_storm else ""
        return f"{self.family}/step{self.crash_step}/{self.kind}{storm}"

    @property
    def seed(self) -> int:
        """A stable seed derived from the schedule's identity."""
        return zlib.crc32(self.schedule_id.encode())

    @property
    def partition_direction(self) -> str:
        """The :class:`~repro.cluster.faults.TransientPartition` direction
        this schedule's kind maps to (meaningless for ``crash``)."""
        return {
            KIND_PARTITION_BOTH: "both",
            KIND_PARTITION_INBOUND: "inbound",
            KIND_PARTITION_OUTBOUND: "outbound",
        }.get(self.kind, "both")

    @property
    def is_crash(self) -> bool:
        return self.kind == KIND_CRASH


def enumerate_schedules(
    families: Sequence[str] = FAMILIES,
    steps: int = STEPS_PER_FAMILY,
    kinds: Sequence[str] = FAULT_KINDS,
    duplicate_storms: Sequence[bool] = (False, True),
) -> Iterator[FaultSchedule]:
    """The full campaign grid, in a fixed deterministic order."""
    for family, step, kind, storm in product(
        families, range(steps), kinds, duplicate_storms
    ):
        yield FaultSchedule(
            family=family, crash_step=step, kind=kind, duplicate_storm=storm
        )


def default_campaign() -> Tuple[FaultSchedule, ...]:
    """The standard sweep: every family x step x kind x storm —
    4 * 9 * 4 * 2 = 288 distinct schedules (the >= 200 floor the
    acceptance bench asserts)."""
    return tuple(enumerate_schedules())


__all__ = [
    "FAMILIES",
    "FAULT_KINDS",
    "FaultSchedule",
    "KIND_CRASH",
    "KIND_PARTITION_BOTH",
    "KIND_PARTITION_INBOUND",
    "KIND_PARTITION_OUTBOUND",
    "STEPS_PER_FAMILY",
    "default_campaign",
    "enumerate_schedules",
]
