"""Epoch fencing: monotonic leadership tokens for leader-shaped roles.

The availability story so far (PR 2/3/7) assumes a failed leader is
*dead*: the watchdog probes, sees nothing, and promotes a replacement.
But a transiently partitioned CAS primary, parameter server, or serving
router stays alive — it keeps accepting writes from clients on its side
of the partition, keeps sealing state, keeps settling requests.  That is
the classic split-brain, and no amount of restart budgeting prevents it.

This module adds the standard cure — **fencing tokens**:

- :class:`EpochService` is the control-plane authority: a monotonic
  epoch per role name.  In production this registry lives in the
  replicated CAS database (epochs are ``epoch/<role>`` records that
  survive failover exactly like policies do — the ``backing`` hook
  persists every bump there); the service object here is the authority's
  interface.
- :class:`EpochLease` is what a leader holds: role + the epoch it was
  granted.  The lease **caches** its epoch — a zombie partitioned away
  from the authority keeps stamping its stale epoch, which is precisely
  the behaviour fencing exists to catch.  ``check()`` is the polite
  holder-side consult (raises :class:`~repro.errors.LeaseExpiredError`);
  ``stamp()`` never consults anything.
- :class:`EpochGuard` is acceptor-side state: the highest epoch this
  acceptor has seen for a role.  Requests stamped below it are rejected
  with a typed :class:`~repro.errors.FencedError` — authoritative, never
  retried (see :func:`repro.cluster.retry.is_retryable`).

The promotion protocol is **bump before promote**: the watchdog calls
:meth:`EpochService.bump` (which runs a *fence round*, advancing every
registered guard to the new epoch — in production an acked RPC to each
acceptor) and only then activates the replacement with the fresh lease.
From that instant, anything the zombie sends carries a dead epoch:
replication to the CAS standby, checkpoint saves to the shared store,
dispatches to serving replicas — every effector that matters says no.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro._sim import probe
from repro.errors import FencedError, LeaseExpiredError

#: Records a bump in control-plane state (the CAS database, in memory
#: until that CAS's next persist): called with ``(role, epoch)`` after
#: every grant/bump.
EpochBacking = Callable[[str, int], None]


@dataclass
class FencingStats:
    """Fencing counters (surfaced through ``collect_metrics``)."""

    grants: int = 0
    bumps: int = 0
    fenced_rejections: int = 0
    lease_expiries: int = 0


class EpochLease:
    """One leader's claim on a role at a specific epoch.

    Deliberately *not* self-invalidating: the holder caches the epoch it
    was granted and keeps stamping it.  Only an explicit :meth:`check`
    (possible when the holder can reach the authority) or an acceptor's
    :class:`~repro.errors.FencedError` reveals that the lease is dead.
    """

    __slots__ = ("role", "epoch", "holder", "_service")

    def __init__(
        self, service: "EpochService", role: str, epoch: int, holder: str = ""
    ) -> None:
        self._service = service
        self.role = role
        self.epoch = epoch
        self.holder = holder

    @property
    def stale(self) -> bool:
        """Authority consult: has this lease been superseded?"""
        return self._service.current(self.role) != self.epoch

    def stamp(self) -> dict:
        """Envelope fields for this lease — no authority consult, by
        design (a zombie must keep stamping its stale epoch)."""
        return {"role": self.role, "epoch": self.epoch}

    def check(self) -> None:
        """Holder-side validity check against the authority.

        Call this only where the holder legitimately has authority
        access (e.g. at a commit point on the control-plane side of the
        world); raises :class:`LeaseExpiredError` when superseded.
        """
        if self.stale:
            self._service.stats.lease_expiries += 1
            raise LeaseExpiredError(
                f"lease for role {self.role!r} held by "
                f"{self.holder or 'unknown'} at epoch {self.epoch} was "
                f"superseded (authority at {self._service.current(self.role)})"
            )

    def __repr__(self) -> str:
        return f"EpochLease({self.role!r}, epoch={self.epoch}, holder={self.holder!r})"


class EpochGuard:
    """Acceptor-side fencing state: highest epoch seen for one role.

    Each guard belongs to one downstream acceptor (the CAS standby's
    replication endpoint, the shared checkpoint store, a serving
    replica).  Guards learn new epochs two ways: a stamped request from
    the *new* leader, or the control plane's fence round at bump time
    (:meth:`EpochService.bump` advances every registered guard before
    the replacement is activated — that ordering is what closes the
    window where a zombie could still commit).
    """

    __slots__ = ("role", "name", "require", "highest_seen", "_stats")

    def __init__(
        self,
        role: str,
        name: str = "",
        require: bool = False,
        stats: Optional[FencingStats] = None,
    ) -> None:
        self.role = role
        self.name = name
        #: When True, unstamped requests are rejected too (an endpoint
        #: that only ever serves a fenced leader should insist on proof).
        self.require = require
        self.highest_seen = 0
        self._stats = stats

    def advance(self, epoch: int) -> None:
        """Control-plane fence round: remember the new epoch."""
        if epoch > self.highest_seen:
            self.highest_seen = epoch

    def check(self, epoch: Optional[int]) -> None:
        """Validate one request's stamped epoch (None = unstamped)."""
        if epoch is None:
            if self.require:
                if self._stats is not None:
                    self._stats.fenced_rejections += 1
                # Guards have no clock of their own: the recorder files
                # these under its control ring at fleet time.
                probe.flight(
                    None, "fence", self.role, f"unstamped acceptor={self.name or '?'}"
                )
                probe.incident(
                    "fence", self.role, detail=f"unstamped acceptor={self.name or '?'}"
                )
                raise FencedError(
                    f"acceptor {self.name or self.role!r} requires an epoch "
                    f"stamp for role {self.role!r}"
                )
            return
        if epoch < self.highest_seen:
            if self._stats is not None:
                self._stats.fenced_rejections += 1
            probe.flight(
                None,
                "fence",
                self.role,
                f"stale epoch={epoch} highest={self.highest_seen} "
                f"acceptor={self.name or '?'}",
            )
            probe.incident(
                "fence",
                self.role,
                detail=f"stale epoch={epoch} highest={self.highest_seen}",
            )
            raise FencedError(
                f"stale epoch {epoch} for role {self.role!r} at acceptor "
                f"{self.name or '?'} (highest seen {self.highest_seen}): "
                "sender was fenced"
            )
        self.highest_seen = epoch


class EpochService:
    """The fencing authority: one monotonic epoch per role name.

    Stands in for the epoch registry the replicated CAS database holds
    in production (``backing`` persists every bump there).  One service
    per deployment, owned by the control plane next to the orchestrator.
    """

    def __init__(self, backing: Optional[EpochBacking] = None) -> None:
        self._epochs: Dict[str, int] = {}
        self._guards: Dict[str, List[EpochGuard]] = {}
        self._leases: Dict[str, EpochLease] = {}
        self._backing = backing
        self.stats = FencingStats()
        #: Bump/grant log (canonical, for byte-identity replay checks).
        self.events: List[str] = []

    # -- queries ---------------------------------------------------------

    def current(self, role: str) -> int:
        return self._epochs.get(role, 0)

    def holder(self, role: str) -> Optional[EpochLease]:
        """The lease most recently granted for ``role`` (None = never)."""
        return self._leases.get(role)

    # -- guard registry --------------------------------------------------

    def register_guard(self, guard: EpochGuard) -> EpochGuard:
        """Enroll an acceptor's guard in the role's fence rounds."""
        self._guards.setdefault(guard.role, []).append(guard)
        guard.advance(self.current(guard.role))
        if guard._stats is None:
            guard._stats = self.stats
        return guard

    def make_guard(
        self, role: str, name: str = "", require: bool = False
    ) -> EpochGuard:
        """Create + register an acceptor guard in one step."""
        return self.register_guard(
            EpochGuard(role, name=name, require=require, stats=self.stats)
        )

    # -- mutations -------------------------------------------------------

    def bump(self, role: str) -> int:
        """Advance the role's epoch and fence every registered acceptor.

        This is the first half of every promotion: after it returns, any
        request stamped with the old epoch is rejected fleet-wide, so
        the replacement can be activated without a split-brain window.
        """
        epoch = self._epochs.get(role, 0) + 1
        self._epochs[role] = epoch
        self.stats.bumps += 1
        if self._backing is not None:
            self._backing(role, epoch)
        for guard in self._guards.get(role, []):
            guard.advance(epoch)
        self.events.append(f"bump {role} -> {epoch}")
        return epoch

    def grant(self, role: str, holder: str = "") -> EpochLease:
        """Bump the role's epoch and issue the lease for the new epoch.

        Granting *is* fencing: the previous holder's lease (if any) is
        stale the moment this returns.  The orchestrator calls this
        before activating a replacement leader.
        """
        epoch = self.bump(role)
        lease = EpochLease(self, role, epoch, holder=holder)
        self._leases[role] = lease
        self.stats.grants += 1
        self.events.append(f"grant {role} epoch={epoch} holder={holder}")
        return lease

    def trace_bytes(self) -> bytes:
        """Canonical grant/bump log (compared across seeded runs)."""
        return "\n".join(self.events).encode()


#: Key prefix epoch records use in the CAS secrets database.
EPOCH_KEY_PREFIX = "epoch/"


__all__ = [
    "EPOCH_KEY_PREFIX",
    "EpochBacking",
    "EpochGuard",
    "EpochLease",
    "EpochService",
    "FencingStats",
]
