"""Fleet-scale replica traffic as stackless scheduler activities.

This is the load pattern the event core exists for: *hundreds* of
replicas, each alternating think-time with RPC to a peer, all live at
once.  Under the old synchronous walk each replica's RPC nested the
callee's execution inside the caller's Python stack and something had
to min-scan every clock to decide who acts next; here every replica is
a generator **activity** on the global event heap
(:meth:`~repro._sim.scheduler.Scheduler.spawn`), parking stacklessly on
timers and :meth:`~repro.cluster.network.Network.call_async`
completions, so a 256-replica fleet costs O(events · log events) and
zero stacked frames.

:class:`ReplicaFleet` models the serving-style gossip/heartbeat
workload used by ``benchmarks/bench_sim_core.py`` and the tier-2 perf
smoke: each replica is an echo endpoint plus an activity that, per
round, sleeps a deterministically jittered spacing and then calls its
ring successor.  Determinism: jitter draws come from each node's
seeded RNG children in replica order, and all interleaving is heap
order — two seeded runs produce identical traffic, stats, and clocks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro._sim.scheduler import Completion, Scheduler
from repro.cluster.network import Network
from repro.cluster.node import Node
from repro.errors import ClusterError, RpcTransportError


@dataclass
class FleetStats:
    """Aggregate traffic counters across all replicas of a fleet."""

    replicas: int = 0
    rounds: int = 0
    calls: int = 0
    responses: int = 0
    transport_errors: int = 0
    #: Per-replica completed round counts (index = replica index).
    rounds_per_replica: List[int] = field(default_factory=list)


class ReplicaFleet:
    """N replicas exchanging ring traffic as scheduler activities.

    Each replica ``i`` lives on ``nodes[i % len(nodes)]`` (sharing that
    node's clock, like co-located containers do), registers an echo
    endpoint ``{name}-{i}``, and runs an activity: per round, park on a
    jittered timer, then RPC the ring successor and park on the reply.
    Replicas tolerate transport faults (a lost heartbeat is counted,
    not fatal), so the fleet composes with the chaos plane.
    """

    def __init__(
        self,
        network: Network,
        nodes: List[Node],
        n_replicas: int,
        rounds: int = 1,
        payload: int = 128,
        spacing: float = 0.01,
        jitter: float = 0.5,
        name: str = "replica",
    ) -> None:
        if not nodes:
            raise ClusterError("a fleet needs at least one node")
        if n_replicas < 2:
            raise ClusterError("ring traffic needs at least two replicas")
        self._network = network
        self._scheduler: Scheduler = network.scheduler
        self._nodes = list(nodes)
        self._n = n_replicas
        self._rounds = rounds
        self._payload = bytes(payload)
        self._spacing = spacing
        self._jitter = jitter
        self._name = name
        self.stats = FleetStats(
            replicas=n_replicas, rounds_per_replica=[0] * n_replicas
        )
        self._homes: List[Node] = []
        for index in range(n_replicas):
            node = self._nodes[index % len(self._nodes)]
            self._homes.append(node)
            self._network.register(
                self._address(index),
                node.clock,
                lambda request: request,  # echo: heartbeat ack
            )

    def _address(self, index: int) -> str:
        return f"{self._name}-{index}"

    def _activity(self, index: int):
        """One replica's life: (sleep, call successor) × rounds."""
        node = self._homes[index]
        rng = node.rng.child(f"fleet-{self._name}-{index}")
        self_addr = self._address(index)
        peer_addr = self._address((index + 1) % self._n)
        for _ in range(self._rounds):
            delay = self._spacing * (
                1.0 + self._jitter * rng.uniform(-1.0, 1.0)
            )
            yield self._scheduler.timer(
                node.clock, node.clock.now + delay, label=f"{self_addr}:pace"
            )
            self.stats.calls += 1
            try:
                completion: Completion = self._network.call_async(
                    self_addr, node.clock, peer_addr, self._payload
                )
            except RpcTransportError:
                self.stats.transport_errors += 1
                continue
            try:
                yield completion
            except RpcTransportError:
                self.stats.transport_errors += 1
                continue
            self.stats.responses += 1
            self.stats.rounds_per_replica[index] += 1
        self.stats.rounds += 1
        return self.stats.rounds_per_replica[index]

    def launch(self) -> List[Completion]:
        """Spawn every replica's activity (does not drain the heap)."""
        return [
            self._scheduler.spawn(
                self._activity(index),
                name=self._address(index),
                clock=self._homes[index].clock,
            )
            for index in range(self._n)
        ]

    def run(self) -> FleetStats:
        """Launch the fleet and drain the heap to quiescence."""
        completions = self.launch()
        self._scheduler.run()
        for completion in completions:
            completion.result()  # surface unexpected activity failures
        return self.stats

    def shutdown(self) -> None:
        """Unregister every replica endpoint."""
        for index in range(self._n):
            self._network.unregister(self._address(index))

    def fleet_time(self) -> float:
        """Max simulated time across the replicas' home clocks."""
        return max(node.clock.now for node in self._homes)


__all__ = ["FleetStats", "ReplicaFleet"]
