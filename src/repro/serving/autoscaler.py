"""SLO-driven autoscaling: scrape, decide, scale, repeat.

A scheduler activity (the orchestrator's
:class:`~repro.cluster.orchestrator.Watchdog` and the SLO monitor tick
the same way: sleep until the due time, tick, repeat) scrapes the
router every :data:`TICK_INTERVAL` simulated seconds and compares what
it sees against the SLO:

- **scale out** when the sliding-window p99 breaches the SLO or the
  router shed load since the last tick — capacity is the only honest
  answer to either signal;
- **scale in** (drain, never kill) when utilization has fallen low,
  nothing was shed, and latency sits comfortably inside the SLO.

Scale-out cost rides the real attestation path: a new replica is
routable only after CAS has provisioned it, so the controller's
reaction time includes the cold-start → attested latency the bench
measures — exactly the elasticity trade-off of paper challenge ❹.
A cooldown keeps the controller from thrashing on its own transient.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro._sim.clock import SimClock
from repro._sim.scheduler import Completion, Scheduler
from repro.errors import ConfigurationError
from repro.serving.pool import ReplicaPool
from repro.serving.router import FrontEndRouter

#: Simulated seconds between scrapes.
TICK_INTERVAL = 0.5
#: Scale in when in-flight / capacity falls below this (and nothing was
#: shed and p99 is under half the SLO).
SCALE_IN_UTILIZATION = 0.25
#: Ticks to hold fire after any scaling action.
COOLDOWN_TICKS = 2


@dataclass(frozen=True)
class AutoscalerPolicy:
    """The controller's SLO and actuation bounds."""

    #: Sliding-window p99 latency target (simulated seconds).
    slo_p99: float = 0.2
    min_replicas: int = 1
    max_replicas: int = 8


class SloAutoscaler:
    """The serving plane's capacity controller (a ticking activity)."""

    def __init__(
        self,
        pool: ReplicaPool,
        router: FrontEndRouter,
        scheduler: Scheduler,
        clock: SimClock,
        policy: Optional[AutoscalerPolicy] = None,
    ) -> None:
        self.pool = pool
        self.router = router
        self.policy = policy if policy is not None else AutoscalerPolicy()
        if self.policy.min_replicas < 1:
            raise ConfigurationError("autoscaler needs min_replicas >= 1")
        if self.policy.max_replicas < self.policy.min_replicas:
            raise ConfigurationError(
                "autoscaler needs max_replicas >= min_replicas"
            )
        self._scheduler = scheduler
        self._clock = clock
        self._stopped = True
        self._cooldown = 0
        self._last_sheds = 0
        #: Decision log (part of the serving plane's determinism trace).
        self.events: List[str] = []

    def trace_bytes(self) -> bytes:
        return "\n".join(self.events).encode()

    # -- lifecycle -------------------------------------------------------

    def start(self) -> None:
        self._stopped = False
        self._scheduler.start(self._ticking(), name="autoscaler").add_waiter(
            Completion.result  # a tick that raises ends the run
        )

    def stop(self) -> None:
        self._stopped = True

    def _ticking(self):
        """Sleep until each tick's due time; arm the next, then decide."""
        due = self._clock.now + TICK_INTERVAL
        tick = self._scheduler.timer(None, due, label="autoscaler:tick")
        while True:
            yield tick
            if self._stopped:
                return
            self._clock.advance_to(due)
            tick = self._scheduler.timer(
                None, due + TICK_INTERVAL, label="autoscaler:tick"
            )
            self._decide(due)
            due += TICK_INTERVAL

    # -- one control decision -------------------------------------------

    def _sheds_delta(self) -> int:
        total = (
            self.router.admission.stats.shed_rate
            + self.router.admission.stats.shed_capacity
        )
        delta = total - self._last_sheds
        self._last_sheds = total
        return delta

    def _decide(self, due: float) -> None:
        p99 = self.router.latency.percentile(99)
        sheds = self._sheds_delta()
        replicas = self.pool.size()
        capacity = max(1, replicas * self.router.policy.per_replica_limit)
        utilization = self.router.scoreboard.total_in_flight() / capacity

        if self._cooldown > 0:
            self._cooldown -= 1
            return
        policy = self.policy
        if (sheds > 0 or p99 > policy.slo_p99) and replicas < policy.max_replicas:
            self.pool.scale_out()
            self._cooldown = COOLDOWN_TICKS
            self.events.append(
                f"scale-out @{due:.6f} replicas={replicas + 1} "
                f"p99={p99:.6f} sheds={sheds}"
            )
        elif (
            sheds == 0
            and p99 < policy.slo_p99 / 2
            and utilization < SCALE_IN_UTILIZATION
            and replicas > policy.min_replicas
        ):
            drained = self.pool.drain_one()
            if drained is not None:
                self._cooldown = COOLDOWN_TICKS
                self.events.append(
                    f"scale-in @{due:.6f} drain={drained} "
                    f"p99={p99:.6f} util={utilization:.3f}"
                )
