"""One-call assembly of the resilient serving plane.

:class:`ServingPlane` wires the full deployment story on a
:class:`~repro.core.platform.SecureTFPlatform`:

1. the user attests CAS and registers one session whose policy admits
   the router measurement and the (single, shared) replica measurement;
2. the front-end router launches as an **attested container** on the
   control node and registers its endpoint;
3. the replica pool scales to its initial size — each replica attests
   to CAS before becoming routable;
4. the orchestrator watchdog supervises replica containers (restart
   budgets, quarantine) and syncs outcomes into the scoreboard every
   tick;
5. optionally, the SLO autoscaler starts scraping.

``run_traffic`` then drives a closed-loop client fleet (optionally
under a seeded chaos plan) and :meth:`check_invariants` asserts the
plane's core promise: every admitted request terminated in exactly one
reply or one typed error.
"""

from __future__ import annotations

from typing import List, Optional

from repro.cluster.faults import FaultPlan
from repro.cluster.orchestrator import ContainerSpec, Watchdog
from repro.core.inference import service_runtime_config
from repro.core.platform import PlatformConfig, SecureTFPlatform
from repro.enclave.sgx import SgxMode
from repro.serving.admission import AdmissionController, TokenBucket
from repro.serving.autoscaler import AutoscalerPolicy, SloAutoscaler
from repro.serving.pool import ReplicaPool
from repro.serving.router import FrontEndRouter, RouterPolicy
from repro.serving.scoreboard import ReplicaScoreboard
from repro.serving.traffic import DiurnalProfile, TrafficGenerator, TrafficStats

ROUTER_ADDRESS = "router"


class ServingPlane:
    """A deployed, supervised, optionally autoscaled inference service."""

    def __init__(
        self,
        seed: int = 0,
        n_nodes: int = 4,
        initial_replicas: int = 2,
        mode: SgxMode = SgxMode.HW,
        session: str = "serving",
        router_policy: Optional[RouterPolicy] = None,
        rate_limit: float = 500.0,
        rate_burst: float = 50.0,
        service_time: float = 0.01,
        service_jitter: float = 0.2,
        watchdog_interval: float = 0.25,
        autoscaler_policy: Optional[AutoscalerPolicy] = None,
        fencing: bool = False,
        monitoring: bool = False,
        slo_interval: float = 0.25,
    ) -> None:
        self.platform = SecureTFPlatform(
            PlatformConfig(n_nodes=n_nodes, seed=seed, fencing=fencing)
        )
        self.platform.user_attest_cas()
        self.session = session
        self.scoreboard = ReplicaScoreboard()
        self.pool = ReplicaPool(
            self.platform,
            session,
            self.scoreboard,
            mode=mode,
            service_time=service_time,
            service_jitter=service_jitter,
        )
        router_config = service_runtime_config(
            ROUTER_ADDRESS, mode, fs_shield=False
        )
        # One session, two measurements: the router's and the replicas'.
        # Every future replica (scale-out or watchdog replacement) is
        # admitted by the same policy line — no per-container ceremony.
        self.platform.register_session(
            session, [self.pool.runtime_config(), router_config]
        )

        # The router is itself an attested enclave on the control node.
        control = self.platform.nodes[0]
        router_spec = ContainerSpec(
            name=ROUTER_ADDRESS, config_factory=lambda node, index: router_config
        )
        self.router_container = self.platform.orchestrator.launch(
            router_spec, node=control
        )
        self.router_identity = self.platform.provision_runtime(
            self.router_container.runtime, control, session
        )
        self.router = FrontEndRouter(
            self.platform.network,
            control,
            ROUTER_ADDRESS,
            self.scoreboard,
            AdmissionController(TokenBucket(rate_limit, rate_burst)),
            policy=router_policy,
        )
        if self.platform.epochs is not None:
            # The routing epoch: replicas guard it (in the pool's
            # handler); the router stamps it into every dispatch.
            self.router.fence = self.platform.epochs.grant(
                "router", holder=self.router_container.name
            )

        self.pool.scale_out(initial_replicas)
        self.pool.watch()
        self.watchdog: Watchdog = self.platform.orchestrator.start_watchdog(
            self.platform.scheduler, watchdog_interval, specs=[self.pool.spec]
        )
        self.autoscaler: Optional[SloAutoscaler] = None
        if autoscaler_policy is not None:
            self.autoscaler = SloAutoscaler(
                self.pool,
                self.router,
                self.platform.scheduler,
                control.clock,
                policy=autoscaler_policy,
            )
            self.autoscaler.start()
        #: Optional continuous SLO monitoring + flight recorder + incident
        #: pipeline.  Lazy import: a plane without monitoring never loads
        #: the observability package (byte-identity with pre-monitoring
        #: interpreters is the perf smoke's contract).
        self.monitoring = None
        if monitoring:
            from repro.observability.slo import (
                MonitoringSession,
                serving_slos,
            )

            self.monitoring = MonitoringSession(
                self.platform.scheduler,
                control.clock,
                specs=serving_slos(self.router, interval=slo_interval),
                interval=slo_interval,
                node_clocks=[
                    labelled
                    for node in self.platform.nodes
                    for labelled in node.labelled_clocks()
                ],
                metrics_probe=self._metrics_probe,
            )

    # -- chaos -----------------------------------------------------------

    def add_faults(self, plan: FaultPlan) -> None:
        """Compose a seeded chaos plan into the network's fault chain."""
        self.platform.network.faults.append(plan.inject)

    def replace_router(self, router_policy: Optional[RouterPolicy] = None) -> FrontEndRouter:
        """Router handoff, fenced: bump the routing epoch **before** the
        replacement takes the address.

        The old router object is returned still holding its (now stale)
        lease — any dispatch it makes from here on is rejected by the
        replica-side guards, which is the whole point: a partitioned
        front end that the control plane has given up on can no longer
        settle work through the pool.
        """
        old = self.router
        lease = (
            self.platform.epochs.grant("router", holder=f"{ROUTER_ADDRESS}-next")
            if self.platform.epochs is not None
            else None
        )
        # VIP flip: the well-known address moves to the replacement even
        # if the old holder never acknowledged losing it.
        if self.platform.network.is_registered(ROUTER_ADDRESS):
            self.platform.network.unregister(ROUTER_ADDRESS)
        control = self.platform.nodes[0]
        self.router = FrontEndRouter(
            self.platform.network,
            control,
            ROUTER_ADDRESS,
            self.scoreboard,
            old.admission,
            policy=router_policy if router_policy is not None else old.policy,
        )
        self.router.fence = lease
        if self.autoscaler is not None:
            self.autoscaler.router = self.router
        return old

    # -- traffic ---------------------------------------------------------

    def make_traffic(
        self,
        clients: int,
        duration: float,
        profile: Optional[DiurnalProfile] = None,
        deadline_budget: float = 1.0,
    ) -> TrafficGenerator:
        return TrafficGenerator(
            self.platform.network,
            ROUTER_ADDRESS,
            clients,
            duration,
            self.platform.rng.child("traffic"),
            profile=profile,
            deadline_budget=deadline_budget,
        )

    def run_traffic(
        self,
        clients: int,
        duration: float,
        profile: Optional[DiurnalProfile] = None,
        deadline_budget: float = 1.0,
    ) -> TrafficStats:
        """Drive a closed-loop client fleet to completion, then stop the
        recurring probes so the heap drains."""
        traffic = self.make_traffic(
            clients, duration, profile=profile, deadline_budget=deadline_budget
        )
        stats = traffic.run()
        self.quiesce()
        return stats

    def quiesce(self) -> None:
        """Stop recurring events (watchdog, autoscaler, SLO monitor) and
        drain."""
        self.watchdog.stop()
        if self.autoscaler is not None:
            self.autoscaler.stop()
        if self.monitoring is not None and self.monitoring.monitor is not None:
            self.monitoring.monitor.stop()
        self.platform.scheduler.run()

    def _metrics_probe(self):
        """Flattened platform counter snapshot for incident bundles.

        Process-global caches and real-wall-clock counters are scrubbed:
        bundles promise byte-identity across seeded runs, and those two
        families depend on what else the interpreter ran.
        """
        from repro.core.monitoring import collect_metrics
        from repro.observability.metrics import flatten_metrics

        flat = flatten_metrics(collect_metrics(self.platform).to_json())
        return {
            key: value
            for key, value in flat.items()
            if "aead_cache" not in key and "real_crypto" not in key
        }

    # -- invariants + trace ----------------------------------------------

    def check_invariants(self) -> None:
        """Every admitted request terminated in exactly one outcome, and
        nothing is still pending once the heap has drained."""
        admitted = self.router.admission.stats.admitted
        terminal = self.router.stats.terminal
        if admitted != terminal:
            raise AssertionError(
                f"{admitted} requests admitted but {terminal} terminal "
                "outcomes recorded: a request was dropped or double-counted"
            )
        if self.router.pending_count() != 0:
            raise AssertionError(
                f"{self.router.pending_count()} requests still pending "
                "after quiesce"
            )

    def trace_bytes(self) -> bytes:
        """Canonical decision trace of the whole plane (router + pool +
        autoscaler), byte-identical across runs with the same seed."""
        sections: List[bytes] = [
            b"[router]",
            self.router.trace_bytes(),
            b"[pool]",
            self.pool.trace_bytes(),
        ]
        if self.autoscaler is not None:
            sections.extend([b"[autoscaler]", self.autoscaler.trace_bytes()])
        return b"\n".join(sections)

    # -- teardown --------------------------------------------------------

    def close(self) -> None:
        self.quiesce()
        if self.monitoring is not None:
            self.monitoring.close()
            self.monitoring = None
        self.router.close()
        self.platform.orchestrator.stop_all()

    @property
    def time(self) -> float:
        return self.platform.time
