"""Recorded operation histories for chaos campaigns.

A scenario run produces a :class:`History`: a totally ordered list of
:class:`Op` records capturing what clients *observed* (admits, acks,
terminal outcomes) and what acceptors *did* (executions, durable
commits, promotions).  Invariant checkers (:mod:`repro.chaos
.invariants`) are pure functions over this history — the Jepsen split
of *generate a history under faults* from *check the history after the
fact*, specialized to the platform's leader-shaped roles.

The op kinds, by convention:

``admit``
    A client issued a logical operation (``key`` identifies it).
``ack``
    The client observed a success reply for ``key`` — from here on the
    operation's effects must survive anything the schedule does.
``terminal``
    The client's operation reached *some* final outcome (success, typed
    error, or a recorded give-up).  ``admitted == terminal`` is the
    serving plane's accounting invariant.
``execute``
    An acceptor actually ran the operation (recorded inside the
    handler, after dedup — duplicate deliveries that replay a cached
    reply do not count).
``commit``
    An acceptor durably applied leader-authored state (a checkpoint
    save, a replicated record, a sealed-snapshot acknowledgement).
    ``role`` names the leadership role the commit rode on.
``issue``
    A monotonic-counter value was bound to committed state (``key`` is
    the claimed value) — two issues of one value is the rollback
    ambiguity fencing exists to prevent.
``promote``
    The control plane made ``actor`` the leader for role ``key``.
``fenced``
    An acceptor rejected a stale-epoch request (the fence working).
``durable``
    Final readout: ``key`` was recoverable from durable state after
    the schedule finished.

Every op carries the simulated time it happened at: its actor's clock,
or for a readout the latest clock of the run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional


@dataclass(frozen=True)
class Op:
    """One recorded event in a scenario history."""

    seq: int
    time: float
    kind: str
    actor: str
    key: str
    value: str = ""
    epoch: Optional[int] = None
    role: str = ""

    def line(self) -> str:
        """Canonical one-line encoding (stable across runs)."""
        parts = [f"{self.seq}", f"{self.time:.6f}", self.kind, self.actor, self.key]
        if self.value:
            parts.append(f"v={self.value}")
        if self.epoch is not None:
            parts.append(f"e={self.epoch}")
        if self.role:
            parts.append(f"r={self.role}")
        return " ".join(parts)


class History:
    """An append-only, totally ordered operation history."""

    def __init__(self) -> None:
        self.ops: List[Op] = []

    def record(
        self,
        kind: str,
        actor: str,
        key: str,
        *,
        time: float,
        value: str = "",
        epoch: Optional[int] = None,
        role: str = "",
    ) -> Op:
        op = Op(
            seq=len(self.ops),
            time=time,
            kind=kind,
            actor=actor,
            key=key,
            value=value,
            epoch=epoch,
            role=role,
        )
        self.ops.append(op)
        return op

    def of_kind(self, kind: str) -> List[Op]:
        return [op for op in self.ops if op.kind == kind]

    def __len__(self) -> int:
        return len(self.ops)

    def trace_bytes(self) -> bytes:
        """Canonical encoding of the whole history — the byte string the
        replay-identity check compares across two runs of one seed."""
        return "\n".join(op.line() for op in self.ops).encode()


__all__ = ["History", "Op"]
