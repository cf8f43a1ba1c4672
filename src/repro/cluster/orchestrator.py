"""Elastic, fault-tolerant container orchestration (paper challenge ❹).

Public clouds spawn and kill service containers as load changes; every
new secureTF container must be attested and provisioned before it may
join.  The orchestrator handles the mechanical part — placement,
lifecycle, failure handling — and exposes an ``on_start`` hook where the
secureTF platform layer attaches attestation + secret provisioning
(:mod:`repro.core.platform`), keeping the layering of Fig. 2.

Supervision: :meth:`Orchestrator.supervise` sweeps a service for failed
replicas and restarts each on its original node, re-running the
``on_start`` hooks so a *replacement* container is attested and
provisioned exactly like the original — a restarted enclave has fresh
memory and must re-prove itself.  Restarts are budgeted per replica
lineage (a crash-looping container is quarantined, not restarted
forever), and every supervision decision is appended to
:attr:`Orchestrator.events` for the monitoring plane.

Health probing: a :class:`Watchdog` is a scheduler activity that runs
the same sweep on a simulated period, so a 256-replica deployment is
probed without a scan between drive-loop steps.  A start hook runs
inside such a tick, so a hook that must wait (attestation) starts an
activity and returns.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro._sim import probe as _probe
from repro._sim.clock import SimClock
from repro._sim.scheduler import Completion, Scheduler
from repro.cluster.container import Container, ContainerState
from repro.cluster.node import Node
from repro.errors import ClusterError
from repro.runtime.scone import RuntimeConfig

#: Builds the runtime config for replica ``index`` placed on ``node``.
ConfigFactory = Callable[[Node, int], RuntimeConfig]

#: Called after a container starts (attestation/provisioning hook).
StartHook = Callable[[Container], None]


@dataclass
class ContainerSpec:
    """A scalable service: a name prefix plus a per-replica config."""

    name: str
    config_factory: ConfigFactory


class Orchestrator:
    """Places containers on the least-occupied node; supports elastic scaling."""

    def __init__(
        self, nodes: List[Node], scheduler: Scheduler, restart_budget: int = 3
    ) -> None:
        if not nodes:
            raise ClusterError("orchestrator needs at least one node")
        self._nodes = list(nodes)
        self._scheduler = scheduler
        self._replicas: Dict[str, List[Container]] = {}
        self.on_start: List[StartHook] = []
        #: Max restarts per replica lineage before quarantine.
        self.restart_budget = restart_budget
        #: container name -> replica index it descends from (lineage root).
        self._lineage: Dict[str, int] = {}
        #: (spec name, lineage root index) -> restarts consumed.
        self._restarts: Dict[tuple, int] = {}
        #: Monotonic per-spec replica counter, so a replacement never
        #: reuses a crashed replica's name (names are identities in the
        #: network and the CAS session registry).
        self._spec_indices: Dict[str, int] = {}
        self._quarantined: Dict[str, List[Container]] = {}
        #: Supervision decisions, in order (restart/quarantine/failover).
        self.events: List[str] = []
        #: Singleton services under watchdog supervision:
        #: name -> (health probe, recovery action).
        self._services: Dict[str, tuple] = {}

    @property
    def nodes(self) -> List[Node]:
        return list(self._nodes)

    def replicas(self, spec_name: str) -> List[Container]:
        """Running replicas of a service."""
        return [
            c for c in self._replicas.get(spec_name, []) if c.running
        ]

    def all_containers(self) -> List[Container]:
        return [c for group in self._replicas.values() for c in group]

    def quarantined(self, spec_name: str) -> List[Container]:
        """Replicas whose lineage exhausted its restart budget."""
        return list(self._quarantined.get(spec_name, []))

    @property
    def restarts_total(self) -> int:
        return sum(self._restarts.values())

    @property
    def quarantined_total(self) -> int:
        return sum(len(group) for group in self._quarantined.values())

    # ------------------------------------------------------------------

    def _place(self, node: Optional[Node]) -> Node:
        """A pinned launch stays where the caller put it; an unpinned one
        goes to the node with the fewest running containers — pinned
        ones counted, ties in node order (so an empty cluster fills
        ``node-0, node-1, ...`` and wraps)."""
        if node is not None:
            return node
        occupancy = Counter(
            id(c.node) for c in self.all_containers() if c.running
        )
        return min(self._nodes, key=lambda candidate: occupancy[id(candidate)])

    def launch(self, spec: ContainerSpec, node: Optional[Node] = None) -> Container:
        """Start one replica (attestation hooks run before it is visible).

        Launched inside an event (a tick that ordered it), the cold start
        begins no earlier than that event.  Nothing else brings an idle
        node's clock up to the timeline — endpoints that serve traffic
        run on cores of their own.
        """
        group = self._replicas.setdefault(spec.name, [])
        index = self._spec_indices.get(spec.name, 0)
        self._spec_indices[spec.name] = index + 1
        target = self._place(node)
        now = self._scheduler.now
        if now is not None:
            target.clock.advance_to(now)
        container = Container(
            f"{spec.name}-{index}", target, spec.config_factory(target, index)
        )
        container.start()
        for hook in self.on_start:
            hook(container)
        group.append(container)
        self._lineage[container.name] = index
        return container

    def scale_to(self, spec: ContainerSpec, replicas: int) -> List[Container]:
        """Elastic scaling: launch or stop replicas to reach ``replicas``."""
        if replicas < 0:
            raise ClusterError(f"cannot scale to {replicas} replicas")
        current = self.replicas(spec.name)
        while len(current) < replicas:
            self.launch(spec)
            current = self.replicas(spec.name)
        while len(current) > replicas:
            current[-1].stop()
            current = self.replicas(spec.name)
        return current

    def fail_container(self, container: Container) -> None:
        """Inject a crash."""
        container.fail()

    # -- supervision ----------------------------------------------------

    def health(self, spec_name: str) -> Dict[str, ContainerState]:
        """Probe every tracked replica: name -> lifecycle state."""
        return {c.name: c.state for c in self._replicas.get(spec_name, [])}

    def probe(self, spec_name: str) -> bool:
        """True when no tracked replica of the service is failed."""
        return all(
            c.state is not ContainerState.FAILED
            for c in self._replicas.get(spec_name, [])
        )

    def restart(
        self, spec: ContainerSpec, container: Container, reason: str = ""
    ) -> Optional[Container]:
        """Replace one failed replica, consuming its lineage's budget.

        Returns the replacement (attested and provisioned via the
        ``on_start`` hooks), or ``None`` when the lineage is out of
        budget and the replica was quarantined instead.  ``reason`` (a
        short tag like ``ps-shard-2``) is recorded in the event log so
        a sharded service's restarts are attributable per shard.
        """
        if container.state is not ContainerState.FAILED:
            raise ClusterError(
                f"container {container.name!r} is {container.state.name}, "
                "not FAILED"
            )
        group = self._replicas.setdefault(spec.name, [])
        if container in group:
            group.remove(container)
        root = self._lineage.get(container.name, 0)
        key = (spec.name, root)
        used = self._restarts.get(key, 0)
        if used >= self.restart_budget:
            self._quarantined.setdefault(spec.name, []).append(container)
            self.events.append(
                f"quarantine {container.name} restarts={used}"
            )
            _probe.flight(
                container.node.clock,
                "watchdog",
                container.name,
                f"quarantine restarts={used}",
            )
            _probe.incident(
                "watchdog.quarantine",
                container.name,
                clock=container.node.clock,
                detail=f"restart budget exhausted after {used} restarts",
            )
            return None
        self._restarts[key] = used + 1
        replacement = self.launch(spec, node=container.node)
        # The replacement continues the crashed replica's lineage: its
        # future crashes draw down the same budget.
        self._lineage[replacement.name] = root
        self.events.append(
            f"restart {container.name} -> {replacement.name} "
            f"budget={self.restart_budget - used - 1}"
            + (f" reason={reason}" if reason else "")
        )
        _probe.flight(
            container.node.clock,
            "watchdog",
            container.name,
            f"restart -> {replacement.name}"
            + (f" reason={reason}" if reason else ""),
        )
        return replacement

    def supervise(self, spec: ContainerSpec) -> Dict[str, Optional[Container]]:
        """One supervision pass: restart (or quarantine) failed replicas.

        Returns failed-name -> replacement container (None = quarantined).
        """
        outcome: Dict[str, Optional[Container]] = {}
        for container in list(self._replicas.get(spec.name, [])):
            if container.state is ContainerState.FAILED:
                outcome[container.name] = self.restart(spec, container)
        return outcome

    # -- singleton-service watchdog -------------------------------------

    def register_service(
        self,
        name: str,
        probe: Callable[[], bool],
        recover: Callable[[], None],
    ) -> None:
        """Supervise a non-container service (e.g. the CAS pair): when
        ``probe()`` goes false, run ``recover()`` — typically a standby
        promotion rather than a restart."""
        self._services[name] = (probe, recover)

    def supervise_services(self) -> Dict[str, bool]:
        """One watchdog pass over registered services.

        Returns name -> health *before* recovery; unhealthy services had
        their recovery action run (and an event logged).
        """
        outcome: Dict[str, bool] = {}
        for name, (probe, recover) in self._services.items():
            healthy = bool(probe())
            outcome[name] = healthy
            if not healthy:
                recover()
                self.events.append(f"service-failover {name}")
                _probe.flight(None, "watchdog", name, "service-failover")
        return outcome

    def start_watchdog(
        self, interval: float, specs: Optional[List[ContainerSpec]] = None
    ) -> "Watchdog":
        """Probe health on a simulated period, as a scheduler activity.

        Every ``interval`` simulated seconds the watchdog runs one
        supervision pass (container restarts for ``specs``, singleton-
        service failovers for everything registered via
        :meth:`register_service`) on the first node's clock, standing in
        for the control-plane machine.  The probes interleave with
        whatever the fleet is doing purely by heap order.
        """
        watchdog = Watchdog(
            self, self._scheduler, self._nodes[0].clock, interval, specs or []
        )
        watchdog.start()
        return watchdog

    def stop_all(self) -> None:
        for container in self.all_containers():
            if container.running:
                container.stop()


class Watchdog:
    """Recurring orchestrator health probes: an activity that sleeps
    until each probe's due time, then supervises."""

    def __init__(
        self,
        orchestrator: Orchestrator,
        scheduler: Scheduler,
        clock: SimClock,
        interval: float,
        specs: List[ContainerSpec],
    ) -> None:
        if interval <= 0:
            raise ClusterError(f"probe interval must be positive: {interval}")
        self._orchestrator = orchestrator
        self._scheduler = scheduler
        self._clock = clock
        self._interval = interval
        self._specs = specs
        self._stopped = True
        self.restarts = 0

    def start(self) -> None:
        self._stopped = False
        self._scheduler.start(self._probing(), name="watchdog").add_waiter(
            Completion.result  # a probe that raises ends the run
        )

    def stop(self) -> None:
        """No further probes run (the pending one wakes and exits)."""
        self._stopped = True

    def _probing(self):
        due = self._clock.now + self._interval
        while True:
            yield self._scheduler.timer(None, due, label="watchdog:probe")
            if self._stopped:
                return
            self._clock.advance_to(due)
            for spec in self._specs:
                for replacement in self._orchestrator.supervise(spec).values():
                    if replacement is not None:
                        self.restarts += 1
            self._orchestrator.supervise_services()
            due += self._interval
