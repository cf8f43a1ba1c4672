"""Deterministic storage fault injection (the chaos plane for *state*).

PR 2's :mod:`repro.cluster.faults` makes the network/process plane
chaos-testable; this module does the same for the storage plane.  An
actively hostile (or merely crashing) host does not give the shield
atomic writes: real disks tear multi-sector writes, kill -9 lands
between any two syscalls of a multi-chunk commit, media rots at rest,
and an attacker with a snapshot of the disk can restore it wholesale.
A crash-consistency claim is only testable if those faults can be
produced on demand and **reproduced exactly**, so — like the network
plan — every stochastic decision flows through a seeded
:class:`~repro._sim.rng.DeterministicRng` and every injection is
appended to a canonical event trace.

Faults modelled:

- **torn writes** — a write persists only a prefix of the payload and
  the process dies (:class:`~repro.errors.StorageCrash`), at a random
  length or (``CrashPoint.keep``) at an exact byte;
- **crash points** — kill the process immediately *before* or *after*
  mutating-storage operation #N, which lets tests sweep every syscall
  boundary of a multi-file commit exhaustively;
- **bit rot** — a stored byte flips at rest, discovered on read;
- **truncation** — a stored file loses its tail at rest;
- **snapshot-restore rollback** — the whole (prefix-scoped) store is
  captured at one operation index and restored at a later one, the
  classic rollback attack the freshness plane must reject.

The plan composes into :class:`~repro.runtime.vfs.VirtualFileSystem`
via :meth:`StorageFaultPlan.attach`; the VFS consults it on every
mutating operation and every read.  The plan draws a fixed number of
uniforms per in-scope operation (two per write, four per read)
regardless of outcome, keeping the random stream aligned no matter
which faults fire.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro._sim.rng import DeterministicRng
from repro.errors import StorageCrash

#: Mutating-storage operation names the plan counts as commit boundaries.
MUTATING_OPS = ("write", "delete", "rename")


@dataclass(frozen=True)
class StorageFaultSpec:
    """Per-operation fault probabilities (each op rolls independently)."""

    torn_write: float = 0.0       # P(write persists a prefix, process dies)
    torn_keep: float = 0.5        # fraction of the payload that survives a tear
    bit_rot: float = 0.0          # P(read finds one stored bit flipped)
    truncation: float = 0.0       # P(read finds the stored tail missing)
    #: Path prefixes the spec applies to; None = every path.
    prefixes: Optional[Tuple[str, ...]] = None

    def applies_to(self, path: str) -> bool:
        if self.prefixes is None:
            return True
        return any(path.startswith(prefix) for prefix in self.prefixes)


@dataclass(frozen=True)
class CrashPoint:
    """Kill the process at mutating-storage operation ``at_op``.

    ``after=False`` crashes *before* the operation applies (it never
    happened); ``after=True`` crashes immediately after it applied (the
    very next instruction never runs).  Sweeping ``at_op`` over a
    commit's operation count with both polarities visits every syscall
    boundary exactly once.  ``keep`` tears instead: when the operation is
    a write, exactly its first ``keep`` bytes persist and the process
    dies — the boundaries *inside* one large write.
    """

    at_op: int
    after: bool = False
    keep: Optional[int] = None


@dataclass(frozen=True)
class SnapshotRollback:
    """Capture the store at op ``capture_at_op``, restore it at
    ``restore_at_op`` (both indices on the mutating-op counter, checked
    before the operation applies)."""

    capture_at_op: int
    restore_at_op: int
    prefix: str = ""


@dataclass
class StorageFaultCounters:
    """Per-fault injection counts."""

    torn_writes: int = 0
    bit_rot: int = 0
    truncations: int = 0
    crashes: int = 0
    rollbacks: int = 0


@dataclass
class StorageAction:
    """What the VFS should do with one mutating operation."""

    crash_before: bool = False
    crash_after: bool = False
    content: Optional[bytes] = None  # replacement (torn) payload


class StorageFaultPlan:
    """A seeded, replayable schedule of storage faults for one VFS."""

    def __init__(
        self,
        seed: int,
        spec: StorageFaultSpec = StorageFaultSpec(),
        crash_points: Sequence[CrashPoint] = (),
        rollbacks: Sequence[SnapshotRollback] = (),
    ) -> None:
        self.seed = int(seed)
        self.spec = spec
        self.crash_points = sorted(crash_points, key=lambda c: (c.at_op, c.after))
        self.rollbacks = sorted(rollbacks, key=lambda r: r.restore_at_op)
        self.counters = StorageFaultCounters()
        self.events: List[str] = []
        self._rng = DeterministicRng(self.seed, label="storage-faults")
        self._fired: Set[CrashPoint] = set()
        self._rolled: Set[SnapshotRollback] = set()
        self._snapshots: Dict[SnapshotRollback, Dict[str, Tuple[bytes, Optional[int], int]]] = {}
        self._vfs = None
        #: Index of the next mutating operation (0-based).
        self.op_index = 0

    # -- composition -----------------------------------------------------

    def attach(self, vfs) -> "StorageFaultPlan":
        """Install this plan as ``vfs.faults`` (and remember the VFS for
        snapshot/restore rollbacks)."""
        self._vfs = vfs
        vfs.faults = self
        return self

    # -- trace ----------------------------------------------------------

    def record(self, event: str) -> None:
        self.events.append(event)

    def trace_bytes(self) -> bytes:
        """Canonical encoding of the injection trace (for replay tests)."""
        return "\n".join(self.events).encode()

    # -- snapshot/restore rollback ---------------------------------------

    def _capture(self, rollback: SnapshotRollback) -> None:
        assert self._vfs is not None
        self._snapshots[rollback] = self._vfs.capture_state(rollback.prefix)
        self.record(f"snapshot op={self.op_index} prefix={rollback.prefix!r}")

    def _restore(self, rollback: SnapshotRollback) -> None:
        assert self._vfs is not None
        self._vfs.restore_state(
            self._snapshots.pop(rollback), prefix=rollback.prefix
        )
        self.counters.rollbacks += 1
        self.record(f"rollback op={self.op_index} prefix={rollback.prefix!r}")

    # -- mutating operations (VFS hook) ----------------------------------

    def before_mutation(self, op: str, path: str, content: Optional[bytes]) -> StorageAction:
        """Consulted by the VFS before applying ``op``; may schedule a
        crash before/after and may replace a write's payload with a torn
        prefix.  Counts the operation either way."""
        action = StorageAction()
        index = self.op_index
        self.op_index += 1

        for rollback in self.rollbacks:
            if rollback not in self._snapshots and rollback not in self._rolled:
                if index >= rollback.capture_at_op:
                    self._capture(rollback)
            if rollback in self._snapshots and index >= rollback.restore_at_op:
                self._rolled.add(rollback)
                self._restore(rollback)

        for point in self.crash_points:
            if point.at_op == index and point not in self._fired:
                self._fired.add(point)
                if point.keep is not None and op == "write" and content is not None:
                    self.counters.torn_writes += 1
                    self.record(f"torn op={index} {path} kept={point.keep}/{len(content)}")
                    action.content = content[: point.keep]
                    action.crash_after = True
                    return action
                self.counters.crashes += 1
                side = "after" if point.after else "before"
                self.record(f"crash {side} op={index} {op} {path}")
                if point.after:
                    action.crash_after = True
                else:
                    action.crash_before = True
                    return action

        if op == "write" and content is not None and self.spec.applies_to(path):
            # Two draws per write, fixed order, whatever fires.
            u_torn = self._rng.uniform()
            u_keep = self._rng.uniform()
            if u_torn < self.spec.torn_write:
                keep = int(len(content) * self.spec.torn_keep * u_keep * 2) if content else 0
                keep = min(max(keep, 0), max(len(content) - 1, 0))
                self.counters.torn_writes += 1
                self.record(f"torn op={index} {path} kept={keep}/{len(content)}")
                action.content = content[:keep]
                action.crash_after = True
        return action

    # -- reads (VFS hook) -------------------------------------------------

    def on_read(self, path: str, content: bytes) -> Optional[bytes]:
        """Consulted by the VFS on every read; returns corrupted stored
        content (rot/truncation *at rest*) or None to leave it alone."""
        if not self.spec.applies_to(path):
            return None
        # Four draws per read, fixed order, whatever fires.
        u_rot = self._rng.uniform()
        u_pos = self._rng.uniform()
        u_trunc = self._rng.uniform()
        u_keep = self._rng.uniform()
        corrupted: Optional[bytes] = None
        if content and u_rot < self.spec.bit_rot:
            position = min(int(u_pos * len(content)), len(content) - 1)
            flipped = bytearray(content)
            flipped[position] ^= 1 << (position % 8)
            corrupted = bytes(flipped)
            self.counters.bit_rot += 1
            self.record(f"bitrot {path} byte={position}")
        if content and u_trunc < self.spec.truncation:
            base = corrupted if corrupted is not None else content
            keep = min(int(u_keep * len(base)), len(base) - 1)
            corrupted = base[:keep]
            self.counters.truncations += 1
            self.record(f"truncate {path} kept={keep}/{len(content)}")
        return corrupted


def crash() -> None:
    """Raise the canonical storage-crash exception (helper for tests
    and wrappers that simulate death at a non-VFS boundary, e.g. between
    a manifest flip and the freshness commit)."""
    raise StorageCrash("simulated process death at storage boundary")


__all__ = [
    "CrashPoint",
    "MUTATING_OPS",
    "SnapshotRollback",
    "StorageAction",
    "StorageFaultCounters",
    "StorageFaultPlan",
    "StorageFaultSpec",
    "crash",
]
