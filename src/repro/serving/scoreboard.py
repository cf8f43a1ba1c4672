"""The replica scoreboard: health + load state the router routes by.

Each replica walks a lifecycle — ``COLD`` (container starting) →
``ATTESTING`` (proving itself to CAS) → ``HEALTHY`` — and may detour
through ``DEGRADED`` (its last attempt died of a transport failure;
fully routable, loses ties), ``DRAINING`` (scale-in: finishes in-flight
work, takes no new), ``QUARANTINED`` (restart budget exhausted) or
``FAILED``.  Only HEALTHY and DEGRADED replicas are routable, and among
those the router picks **least-loaded with deterministic tie-breaking**:
the ordering key is ``(in-flight, state rank, served, address)``, a
pure function of scoreboard state, so seeded runs route identically.

Load comes first because the request waits behind the queue, not
behind the label.  DEGRADED is a tie-break and nothing else: a replica
that lost one message takes its share again as soon as its peers are
busier, and heals on its first reply.  Exact ties go to the replica
that has served the fewest requests, so an idle plane spreads its
requests evenly instead of piling them on the lowest address.
*Excluding* a replica that is
really gone is the router's per-replica circuit breaker (3 failures →
open for 1 s), not this state: ranked ahead of the load it would keep a
replica out until every healthy one held ``per_replica_limit``
requests, and since only a reply heals, the replica would never come
back.

The scoreboard is fed from three directions: the pool's lifecycle hooks
(launch / attest / drain / crash), the router's per-attempt outcomes
(success heals DEGRADED, transport failure sets it), and the
orchestrator watchdog via :meth:`ReplicaPool.reconcile
<repro.serving.pool.ReplicaPool.reconcile>` (restart/quarantine
decisions land here so routing reflects supervision).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.errors import ClusterError


class ReplicaState(enum.Enum):
    COLD = "cold"
    ATTESTING = "attesting"
    HEALTHY = "healthy"
    DEGRADED = "degraded"
    DRAINING = "draining"
    QUARANTINED = "quarantined"
    FAILED = "failed"
    STOPPED = "stopped"


#: States a new request may be routed to, ranked (lower = preferred).
_ROUTABLE_RANK = {ReplicaState.HEALTHY: 0, ReplicaState.DEGRADED: 1}


@dataclass
class ReplicaEntry:
    address: str
    state: ReplicaState = ReplicaState.COLD
    in_flight: int = 0
    served: int = 0
    failures: int = 0
    #: Simulated cold-start → attested latency (None until attested).
    cold_start_latency: Optional[float] = None
    #: State transition log, for tests and the event trace.
    transitions: List[str] = field(default_factory=list)


class ReplicaScoreboard:
    """Insertion-ordered replica registry with load-aware picking."""

    def __init__(self) -> None:
        self._entries: Dict[str, ReplicaEntry] = {}

    # -- membership ------------------------------------------------------

    def add(self, address: str, state: ReplicaState = ReplicaState.COLD) -> ReplicaEntry:
        if address in self._entries:
            raise ClusterError(f"replica {address!r} is already on the scoreboard")
        entry = ReplicaEntry(address=address, state=state)
        entry.transitions.append(state.value)
        self._entries[address] = entry
        return entry

    def remove(self, address: str) -> None:
        self._entries.pop(address, None)

    def get(self, address: str) -> Optional[ReplicaEntry]:
        return self._entries.get(address)

    def entries(self) -> List[ReplicaEntry]:
        return list(self._entries.values())

    def addresses(self) -> List[str]:
        return list(self._entries)

    # -- state -----------------------------------------------------------

    def set_state(self, address: str, state: ReplicaState) -> None:
        entry = self._entries.get(address)
        if entry is None:
            return
        if entry.state is not state:
            entry.state = state
            entry.transitions.append(state.value)

    def mark_degraded(self, address: str) -> None:
        """A transport failure: lose ties, but keep routable — one lost
        message must not black-hole a healthy replica."""
        entry = self._entries.get(address)
        if entry is not None and entry.state is ReplicaState.HEALTHY:
            self.set_state(address, ReplicaState.DEGRADED)

    def mark_healthy(self, address: str) -> None:
        """A successful reply heals DEGRADED back to HEALTHY."""
        entry = self._entries.get(address)
        if entry is not None and entry.state is ReplicaState.DEGRADED:
            self.set_state(address, ReplicaState.HEALTHY)

    # -- load ------------------------------------------------------------

    def on_dispatch(self, address: str) -> None:
        entry = self._entries.get(address)
        if entry is not None:
            entry.in_flight += 1

    def on_complete(self, address: str, ok: bool) -> None:
        entry = self._entries.get(address)
        if entry is None:
            return
        entry.in_flight = max(0, entry.in_flight - 1)
        if ok:
            entry.served += 1
        else:
            entry.failures += 1

    def in_flight(self, address: str) -> int:
        entry = self._entries.get(address)
        return entry.in_flight if entry is not None else 0

    def total_in_flight(self) -> int:
        return sum(e.in_flight for e in self._entries.values())

    # -- routing ---------------------------------------------------------

    def routable(self, per_replica_limit: int, exclude: frozenset = frozenset()) -> List[ReplicaEntry]:
        """Replicas a new attempt may go to, in scoreboard order."""
        return [
            e
            for e in self._entries.values()
            if e.state in _ROUTABLE_RANK
            and e.in_flight < per_replica_limit
            and e.address not in exclude
        ]

    def pick(
        self, per_replica_limit: int, exclude: frozenset = frozenset()
    ) -> Optional[ReplicaEntry]:
        """Least-loaded routable replica, deterministic tie-break.

        Key = (in-flight, state rank, served, address): lighter beats
        heavier, HEALTHY beats DEGRADED at equal load, then the replica
        that has served least, and the address string settles what is
        left — a pure function of scoreboard state, no RNG, no identity
        ordering.
        """
        candidates = self.routable(per_replica_limit, exclude)
        if not candidates:
            return None
        return min(
            candidates,
            key=lambda e: (
                e.in_flight, _ROUTABLE_RANK[e.state], e.served, e.address
            ),
        )

    def has_capacity(self, per_replica_limit: int) -> bool:
        return bool(self.routable(per_replica_limit))

    def counts(self) -> Dict[str, int]:
        """State → replica count (for metrics and the autoscaler)."""
        out: Dict[str, int] = {}
        for entry in self._entries.values():
            out[entry.state.value] = out.get(entry.state.value, 0) + 1
        return out
