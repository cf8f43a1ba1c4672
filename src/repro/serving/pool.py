"""The attested replica pool: orchestrated, provisioned, drainable.

Every replica is launched through the
:class:`~repro.cluster.orchestrator.Orchestrator` (least-occupied-node
placement, restart budgets, quarantine) and becomes routable only after
it has **attested to CAS and been provisioned** — the pool's
``on_start`` hook starts a boot activity on the attestation path elastic
scaling rides in the paper (challenge ❹), measures the cold-start latency
the bench reports, registers the replica's endpoint, and flips its
scoreboard state to HEALTHY.  A replacement container launched by the
watchdog re-runs the identical hook: a restarted enclave has fresh
memory and must re-prove itself before it serves a single request.

Container start and attestation are charged to the node's clock (the
control plane's view of the node); once attested, the replica takes a
**core** of its node (:meth:`Container.take_core
<repro.cluster.container.Container.take_core>`) and its endpoint,
dedup window and service time run there, beside — not behind — the
node's other replicas.  A stopped or crashed replica gives the core
back.

Scale-in **drains**: the replica leaves the routable set immediately
(state DRAINING) but its endpoint stays registered until the router's
in-flight count for it reaches zero — admitted work finishes; it is
never killed mid-request.

:meth:`ReplicaPool.reconcile` runs on every watchdog tick (registered
as an orchestrator service) and syncs supervision outcomes into the
scoreboard: restarted lineages lose their dead entry, exhausted ones
show up QUARANTINED.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from repro._sim import probe as _probe
from repro._sim.scheduler import Completion
from repro.cluster.container import Container
from repro.cluster.dedup import DedupWindow
from repro.cluster.orchestrator import ContainerSpec, Orchestrator
from repro.core.inference import service_runtime_config
from repro.core.platform import SecureTFPlatform
from repro.enclave.sgx import SgxMode
from repro.errors import (
    ClusterError,
    DeadlineExceededError,
    ReproError,
    RpcTransportError,
)
from repro.serving import messages
from repro.serving.scoreboard import ReplicaScoreboard, ReplicaState

#: backend(request_payload) -> reply_payload, charging the replica's
#: clock for whatever compute it models.
Backend = Callable[[bytes], bytes]

#: Per-replica at-most-once window (duplicate *deliveries* of one
#: request replay the recorded reply instead of re-executing).
REPLICA_DEDUP_CAPACITY = 512
REPLICA_DEDUP_TTL = 30.0


class ReplicaPool:
    """An elastic pool of attested inference replicas."""

    def __init__(
        self,
        platform: SecureTFPlatform,
        session: str,
        scoreboard: ReplicaScoreboard,
        spec_name: str = "replica",
        mode: SgxMode = SgxMode.HW,
        service_time: float = 0.01,
        service_jitter: float = 0.2,
        drain_poll: float = 0.05,
    ) -> None:
        self.platform = platform
        self.session = session
        self.scoreboard = scoreboard
        self.spec_name = spec_name
        self.mode = mode
        self.service_time = service_time
        self.service_jitter = service_jitter
        self.drain_poll = drain_poll
        #: All replicas share one runtime config name → one measurement
        #: → one CAS policy line admits every replica, present and
        #: future (that is what makes elastic scaling practical).
        self.spec = ContainerSpec(
            name=spec_name,
            config_factory=lambda node, index: self.runtime_config(),
        )
        #: Cold-start → attested latency per attested replica, in
        #: attestation order (the bench's third headline metric).
        self.cold_starts: List[float] = []
        #: Replica name → completion of its boot activity.
        self.boots: Dict[str, Completion] = {}
        self.events: List[str] = []
        platform.orchestrator.on_start.append(self._on_container_start)

    def runtime_config(self):
        """The (single) runtime config every replica runs — register the
        CAS session policy against exactly this."""
        return service_runtime_config(self.spec_name, self.mode, fs_shield=False)

    @property
    def orchestrator(self) -> Orchestrator:
        return self.platform.orchestrator

    def record(self, event: str) -> None:
        self.events.append(event)

    def trace_bytes(self) -> bytes:
        return "\n".join(self.events).encode()

    # -- lifecycle hook --------------------------------------------------

    def _on_container_start(self, container: Container) -> None:
        """Orchestrator hook: the replica is ATTESTING until its boot
        activity (:meth:`_boot`, completion in :attr:`boots`) finishes."""
        if not container.name.startswith(f"{self.spec_name}-"):
            return  # another service's container
        self.scoreboard.add(container.name, state=ReplicaState.ATTESTING)
        self.boots[container.name] = self.platform.scheduler.start(
            self._boot(container), name=f"boot:{container.name}"
        )

    def _boot(self, container: Container):
        """Attest and provision, then take a core and join the routable
        set.  A boot that fails (a provision reply lost past the retry
        budget, a refused quote) fails the container: the scoreboard
        shows it FAILED and the watchdog restarts or quarantines it."""
        node = container.node
        attest_from = node.clock.now
        try:
            yield from self.platform.provision(
                container.runtime, node, self.session
            )
        except ReproError as exc:
            if container.running:
                container.fail()
            self.scoreboard.set_state(container.name, ReplicaState.FAILED)
            self.record(f"boot-failed {container.name} {type(exc).__name__}")
            return
        if not container.running:
            return  # crashed while it attested
        # Cold start = container image setup (already charged by
        # Container.start) + the attestation/provisioning round-trips
        # that just ran.  Measured here so watchdog-launched
        # replacements are timed identically to scale-outs.
        cold = self.platform.cost_model.container_start_cost + (
            node.clock.now - attest_from
        )
        entry = self.scoreboard.get(container.name)
        if entry is not None:
            entry.cold_start_latency = cold
        self.cold_starts.append(cold)
        core = container.take_core()
        self.platform.network.register(
            container.name,
            core.clock,
            self._make_handler(container),
            syscalls=core.syscalls,
        )
        self.scoreboard.set_state(container.name, ReplicaState.HEALTHY)
        self.record(f"attested {container.name} cold_start={cold:.6f}")

    def _backend(self, container: Container) -> Backend:
        """A service-time model: charge the replica's core a jittered
        per-request cost and echo the payload."""
        rng = container.node.rng.child(f"svc-{container.name}")
        clock = container.core.clock
        base = self.service_time
        jitter = self.service_jitter

        def backend(payload: bytes) -> bytes:
            clock.advance(base * (1.0 + jitter * rng.uniform(-1.0, 1.0)))
            return payload

        return backend

    def _make_handler(self, container: Container):
        clock = container.core.clock
        backend = self._backend(container)
        dedup = DedupWindow(REPLICA_DEDUP_CAPACITY, REPLICA_DEDUP_TTL)
        # Each replica is an acceptor for the routing epoch: requests
        # dispatched by a router that has since been superseded carry a
        # stale epoch and are rejected before the backend runs — a
        # zombie router cannot settle work through this replica.
        guard = (
            self.platform.epochs.make_guard("router", name=container.name)
            if self.platform.epochs is not None
            else None
        )

        def handler(raw: bytes) -> bytes:
            if not container.running:
                raise RpcTransportError(
                    f"replica {container.name!r} is not running"
                )
            msg = messages.decode_request(raw)
            request_id = msg["id"]
            now = clock.now
            hit = dedup.get(request_id, now)
            if hit is not None:
                return hit  # duplicate delivery: replay, don't re-run
            if guard is not None:
                fence = msg.get("fence")
                epoch = fence.get("epoch") if isinstance(fence, dict) else None
                guard.check(epoch if isinstance(epoch, int) else None)
            deadline = msg.get("deadline")
            if deadline is not None and now > deadline:
                # Server-side shed: the budget died in flight or in
                # queue; answer with the typed error instead of burning
                # enclave time on a reply nobody is waiting for.
                raise DeadlineExceededError(
                    f"deadline expired at replica {container.name!r} "
                    f"({now:.6f} > {deadline:.6f})"
                )
            reply = messages.encode_ok(
                request_id, backend(msg["payload"]), container.name
            )
            dedup.put(request_id, clock.now, reply)
            return reply

        return handler

    # -- membership ------------------------------------------------------

    def containers(self) -> List[Container]:
        return self.orchestrator.replicas(self.spec_name)

    def container(self, address: str) -> Optional[Container]:
        for candidate in self.orchestrator.all_containers():
            if candidate.name == address:
                return candidate
        return None

    def size(self) -> int:
        return len(self.containers())

    # -- elasticity ------------------------------------------------------

    def scale_out(self) -> Container:
        """Launch one fresh replica (it attests before joining)."""
        return self.orchestrator.launch(self.spec)

    def drain_one(self) -> Optional[str]:
        """Begin draining the most recently launched routable replica.

        The replica stops taking new work immediately; a scheduler
        activity polls its in-flight count and stops the container only
        once it reaches zero.  Returns the draining address (or None if
        nothing was drainable).
        """
        drainable = [
            e
            for e in self.scoreboard.entries()
            if e.state in (ReplicaState.HEALTHY, ReplicaState.DEGRADED)
        ]
        if not drainable:
            return None
        address = drainable[-1].address
        self.scoreboard.set_state(address, ReplicaState.DRAINING)
        self.record(f"drain {address}")
        container = self.container(address)
        clock = container.core.clock if container is not None else None

        def drain_activity():
            while self.scoreboard.in_flight(address) > 0:
                yield self.platform.scheduler.timer(
                    clock, clock.now + self.drain_poll, label=f"drain-poll:{address}"
                )
            self.platform.network.unregister(address)
            if container is not None and container.running:
                container.stop()
            self.scoreboard.set_state(address, ReplicaState.STOPPED)
            self.record(f"drained {address}")

        self.platform.scheduler.spawn(
            drain_activity(), name=f"drain:{address}", clock=clock
        )
        return address

    # -- chaos + supervision ---------------------------------------------

    def crash(self, address: str) -> None:
        """Kill one replica (no graceful teardown): the container fails,
        the endpoint vanishes, the scoreboard records it.  The watchdog's
        next tick restarts (or quarantines) the lineage."""
        container = self.container(address)
        if container is None:
            raise ClusterError(f"no replica named {address!r}")
        if container.running:
            container.fail()
        self.platform.network.unregister(address)
        self.scoreboard.set_state(address, ReplicaState.FAILED)
        self.record(f"crash {address}")
        # Stamped by the replica's own clock: the node's only moves when
        # the control plane touches the node.
        _probe.flight(container.core.clock, "crash", address, "replica failed")
        _probe.incident(
            "replica.crash", address, clock=container.core.clock,
            detail="replica killed without graceful teardown",
        )

    def reconcile(self) -> None:
        """Sync supervision outcomes into the scoreboard (watchdog tick).

        Dead entries whose lineage was restarted disappear (the
        replacement registered itself via the start hook under a fresh
        name); lineages that exhausted their budget show QUARANTINED.
        """
        quarantined = {
            c.name for c in self.orchestrator.quarantined(self.spec_name)
        }
        running = {c.name for c in self.containers()}
        for entry in self.scoreboard.entries():
            if entry.address in quarantined:
                if entry.state is not ReplicaState.QUARANTINED:
                    self.scoreboard.set_state(
                        entry.address, ReplicaState.QUARANTINED
                    )
                    self.record(f"quarantined {entry.address}")
                    _probe.flight(
                        None, "watchdog", entry.address, "scoreboard quarantine"
                    )
            elif entry.state is ReplicaState.FAILED and entry.address not in running:
                self.scoreboard.remove(entry.address)
                self.record(f"reap {entry.address}")

    def watch(self) -> None:
        """Register pool supervision with the orchestrator's watchdog:
        container restarts are handled by the watchdog's spec sweep; the
        scoreboard sync rides the service-probe pass of the same tick."""
        self.orchestrator.register_service(
            f"{self.spec_name}-scoreboard",
            probe=self._sync_probe,
            recover=lambda: None,
        )

    def _sync_probe(self) -> bool:
        self.reconcile()
        return True  # the sync itself never needs "recovery"
