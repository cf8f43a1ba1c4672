"""Closed-loop traffic: thousands of clients as heap activities.

Each simulated client is a coroutine activity on the global scheduler:
think (an exponential draw scaled by the diurnal profile), send one
request with a propagated deadline, park on the reply, classify the
outcome, repeat.  Clients are outside the cluster: they share one clock
of their own (it joins the timeline at the fleet's current time, so no
first request waits for the plane to finish being built), which nothing
but their own timers and replies advances — the event heap executes
events in global time order, so it reads exactly the reply time at each
resume and per-request latency is measured precisely even on a shared
clock.  (A cluster node's clock would not do: whatever else runs on it
advances it, and replies would land on a clock already past them.)

Each client is an :class:`~repro.cluster.rpc.RpcClient` calling the
router's ``infer`` method.  A request its leg to the router lost (a
dropped send or reply) is resent under the same call ID while its
deadline holds, through the client's
:class:`~repro.cluster.retry.RetryingExecutor`; the router's
at-most-once window answers a resend, so nothing runs twice.

Outcome accounting is total: every request a client sends terminates in
exactly one of {ok, overload-shed, deadline-exceeded, transport error,
other typed error} — the client-side half of the serving plane's
no-silent-drops invariant (the router's
:class:`~repro.serving.router.RouterStats` is the server-side half).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from repro._sim import probe
from repro._sim.clock import SimClock
from repro._sim.rng import DeterministicRng
from repro._sim.scheduler import Completion
from repro.cluster.network import Network
from repro.cluster.node import Core
from repro.cluster.retry import RecoveryStats, RetryingExecutor, RetryPolicy
from repro.cluster.rpc import RpcClient
from repro.errors import (
    ConfigurationError,
    DeadlineExceededError,
    OverloadError,
    RpcError,
    RpcTransportError,
)
from repro.observability.metrics import Histogram


@dataclass(frozen=True)
class DiurnalProfile:
    """Think-time scaling over a repeating day: (duration, factor) phases.

    ``factor < 1`` means *shorter* think times — a load spike.  The
    default models a quiet phase, a ramp, and a rush-hour spike.
    """

    base_think: float = 0.5
    phases: Sequence[Tuple[float, float]] = ((4.0, 1.0), (2.0, 0.5), (2.0, 0.2))

    def cycle(self) -> float:
        return sum(duration for duration, _ in self.phases)

    def factor_at(self, t: float) -> float:
        position = t % self.cycle()
        for duration, factor in self.phases:
            if position < duration:
                return factor
            position -= duration
        return self.phases[-1][1]

    def think(self, t: float, rng: DeterministicRng) -> float:
        """One exponential think-time draw at simulated time ``t``."""
        u = rng.uniform(0.0, 1.0)  # in [0, 1): log(1 - u) is finite
        return -self.base_think * self.factor_at(t) * math.log(1.0 - u)


@dataclass
class TrafficStats:
    """Client-side outcome accounting (every send lands in one bucket)."""

    sent: int = 0
    ok: int = 0
    overload: int = 0
    deadline: int = 0
    transport: int = 0
    other_errors: int = 0
    latency: Histogram = field(default_factory=lambda: Histogram("client.latency"))
    recovery: RecoveryStats = field(default_factory=RecoveryStats)

    @property
    def outcomes(self) -> int:
        return self.ok + self.overload + self.deadline + self.transport + self.other_errors

    def assert_accounted(self) -> None:
        """The no-silent-drops invariant, client side."""
        if self.sent != self.outcomes:
            raise AssertionError(
                f"{self.sent} requests sent but {self.outcomes} outcomes "
                "recorded: something was silently dropped"
            )


class TrafficGenerator:
    """A fleet of closed-loop clients driving the serving plane."""

    def __init__(
        self,
        network: Network,
        router_address: str,
        clients: int,
        duration: float,
        rng: DeterministicRng,
        profile: Optional[DiurnalProfile] = None,
        deadline_budget: float = 1.0,
        payload: bytes = b"\x00" * 64,
    ) -> None:
        if clients < 1:
            raise ConfigurationError(f"need at least one client: {clients}")
        if duration <= 0:
            raise ConfigurationError(f"duration must be positive: {duration}")
        self.network = network
        self.clock = SimClock(network.scheduler.fleet_time())
        network.scheduler.register_clock(self.clock)
        if probe.SINK is not None:
            probe.SINK.register_clock(self.clock, "clients")
        #: Where every client runs: the shared clock, no syscall charges.
        self._host = Core(self.clock, None, "clients")
        self.router_address = router_address
        self.clients = clients
        self.duration = duration
        self.profile = profile if profile is not None else DiurnalProfile()
        self.deadline_budget = deadline_budget
        self.payload = payload
        self._rng = rng
        self.stats = TrafficStats()

    def start(self) -> List[Completion]:
        """Spawn every client activity; completions resolve at client exit."""
        return [
            self.network.scheduler.spawn(
                self._client(index),
                name=f"client-{index}",
                clock=self.clock,
            )
            for index in range(self.clients)
        ]

    def run(self) -> TrafficStats:
        """Drive the simulation until every client finished.

        Parks on each client's completion rather than draining the heap:
        the recurring ticks (watchdog probes, autoscaler ticks) re-arm
        themselves forever, so "heap empty" never comes while they run.
        """
        completions = self.start()
        for completion in completions:
            # run_until re-raises any client programming error.
            self.network.scheduler.run_until(completion)
        self.stats.assert_accounted()
        return self.stats

    # -- one client ------------------------------------------------------

    def _client(self, index: int):
        rng = self._rng.child(f"client-{index}")
        clock = self.clock
        scheduler = self.network.scheduler
        stats = self.stats
        address = f"client-{index}"
        client = RpcClient(
            self.network,
            address,
            self._host,
            retry=RetryingExecutor(
                RetryPolicy(), clock, rng.child("resend"), scheduler, stats=stats.recovery
            ),
        )
        # Desynchronized start: clients phase in across one base think
        # time instead of stampeding at t=0.
        yield scheduler.timer(
            clock,
            clock.now + rng.uniform(0.0, self.profile.base_think),
            label=f"warmup:{address}",
        )
        while clock.now < self.duration:
            yield scheduler.timer(
                clock,
                clock.now + self.profile.think(clock.now, rng),
                label=f"think:{address}",
            )
            if clock.now >= self.duration:
                break
            sent_at = clock.now
            stats.sent += 1
            try:
                settle = yield from client.begin_call(
                    self.router_address,
                    "infer",
                    self.payload,
                    deadline=sent_at + self.deadline_budget,
                )
                yield from settle
            except OverloadError:
                stats.overload += 1
                continue
            except DeadlineExceededError:
                stats.deadline += 1
                continue
            except RpcTransportError:
                stats.transport += 1
                continue
            except RpcError:
                stats.other_errors += 1
                continue
            stats.ok += 1
            stats.latency.observe(clock.now - sent_at)
