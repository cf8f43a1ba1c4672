"""Platform assembly: cluster + CAS + orchestrator + user trust bootstrap.

The deployment story of Fig. 1: the user first attests the CAS instance
running in the untrusted cloud, then registers session policies and
secrets with it; afterwards, services launched on the cluster attest to
CAS and receive their keys without any user involvement — which is what
makes elastic scaling practical (challenge ❹).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro._sim.rng import DeterministicRng
from repro._sim.scheduler import Scheduler
from repro._sim.trace import EventTrace
from repro.cas import CasService, Policy
from repro.cas.client import RemoteCasClient, serve_cas
from repro.cas.failover import ReplicatedCasPair
from repro.cluster import Network, Node, Orchestrator, make_cluster
from repro.cluster.epoch import EPOCH_KEY_PREFIX, EpochService, load_epochs
from repro.cluster.retry import RetryPolicy
from repro.enclave.attestation import AttestationVerifier, ProvisioningAuthority, Report
from repro.enclave.cost_model import DEFAULT_COST_MODEL, CostModel
from repro.errors import AttestationError, ConfigurationError
from repro.runtime.scone import RuntimeConfig, SconeRuntime, expected_measurement


@dataclass
class PlatformConfig:
    """Deployment parameters (defaults mirror the paper's cluster §5.1)."""

    n_nodes: int = 3
    cost_model: CostModel = field(default_factory=lambda: DEFAULT_COST_MODEL)
    seed: int = 0
    #: Node index of a standby CAS replica (None = no HA pair).  CAS
    #: runs on node 0, so this is in ``[1, n_nodes)``: the pair exists
    #: to survive a node loss.
    cas_backup_node: Optional[int] = None
    #: Retry policy CAS clients use to ride out a failover window.
    cas_retry: Optional[RetryPolicy] = None
    #: Install a telemetry plane (distributed tracing + layer charges)
    #: for this platform's lifetime.  Off by default: a disabled run is
    #: byte-identical to one without the subsystem imported.
    tracing: bool = False
    #: Simulated seconds between metric samples (0 = no sampler; only
    #: meaningful with ``tracing=True``).
    metrics_interval: float = 0.0
    #: Epoch-fence every leader-shaped role (CAS primary, parameter
    #: server, serving router): leases stamped into envelopes, stale
    #: epochs rejected with FencedError, the watchdog bumps before it
    #: promotes.  Off by default so pre-fencing runs stay byte-identical;
    #: the chaos campaigns sweep both settings.
    fencing: bool = False


class SecureTFPlatform:
    """A deployed secureTF cluster."""

    def __init__(self, config: Optional[PlatformConfig] = None) -> None:
        self.config = config or PlatformConfig()
        if self.config.n_nodes < 1:
            raise ConfigurationError("platform needs at least one node")
        self.rng = DeterministicRng(self.config.seed, label="platform")
        self.provisioning = ProvisioningAuthority(self.rng.child("intel"))
        #: The global event heap every network delivery, retry timer and
        #: watchdog probe of this deployment runs on.
        self.scheduler = Scheduler()
        self.nodes: List[Node] = make_cluster(
            self.config.n_nodes,
            self.config.cost_model,
            self.provisioning,
            seed=self.config.seed,
            scheduler=self.scheduler,
        )
        self.network = Network(self.config.cost_model, scheduler=self.scheduler)
        self.cas = CasService(self.nodes[0], self.provisioning.public_key())
        self.orchestrator = Orchestrator(self.nodes, self.scheduler)
        #: The deployment's epoch-fencing authority (None = fencing off).
        #: In production this registry is ``epoch/<role>`` records in the
        #: replicated CAS database; the service object is its interface,
        #: owned by the control plane next to the orchestrator.
        self.epochs: Optional[EpochService] = (
            EpochService(backing=self._persist_epoch)
            if self.config.fencing
            else None
        )
        self.cas_pair: Optional[ReplicatedCasPair] = None
        backup_node = self.config.cas_backup_node
        if backup_node is not None:
            if not 1 <= backup_node < self.config.n_nodes:
                raise ConfigurationError(
                    f"cas_backup_node must name a node in [1, "
                    f"{self.config.n_nodes}) — CAS runs on node 0: {backup_node!r}"
                )
            backup = CasService(
                self.nodes[backup_node], self.provisioning.public_key()
            )
            self.cas_pair = ReplicatedCasPair(
                self.network,
                self.cas,
                backup,
                address="cas",
                retry=self.config.cas_retry,
                epochs=self.epochs,
            )
            self.cas_server = self.cas_pair.primary_server
            if self.epochs is not None:
                # Fenced supervision needs a partition-aware probe: ping
                # by RPC from a non-CAS node (falling back to the CAS
                # node when the cluster has only one), so a one-way
                # partitioned primary actually *fails* its probe.
                probe_node = next(
                    (n for n in self.nodes if n is not self.cas.node),
                    self.cas.node,
                )
                self.cas_pair.attach_probe(probe_node)
            self.orchestrator.register_service(
                "cas", self.cas_pair.probe, self.cas_pair.promote
            )
        else:
            self.cas_server = serve_cas(self.network, self.cas, address="cas")

        #: The platform's telemetry plane (None unless ``tracing=True``).
        #: The import is deliberately lazy: an untraced platform never
        #: loads the observability package at all.
        self.telemetry = None
        if self.config.tracing:
            from repro.observability import Telemetry

            self.telemetry = Telemetry(
                self, sample_interval=self.config.metrics_interval
            )

    def _persist_epoch(self, role: str, epoch: int) -> None:
        """Epoch-service backing: every bump is an ``epoch/<role>``
        record in the CAS database, so epochs survive CAS failover
        exactly like policies do.  It is a ``db.put``: it reaches disk
        at that CAS's next ``persist()``, not here — a persist from the
        control plane would have to bypass the old primary's lease.
        With an HA pair the record is double-written to both instances
        through the control plane's administrative channel (the
        authority must be able to bump *during* a failover, when the
        primary→standby replication stream is exactly what's
        broken)."""
        record = str(epoch).encode()
        if self.cas_pair is not None:
            self.cas_pair.put_control_record(f"{EPOCH_KEY_PREFIX}{role}", record)
        else:
            self.cas.db.put(f"{EPOCH_KEY_PREFIX}{role}", record)

    def persisted_epochs(self) -> Dict[str, int]:
        """The epoch registry as persisted in the *active* CAS replica —
        what a restarted control plane would rebuild its
        :class:`EpochService` from (``EpochService.restore``)."""
        return load_epochs(self.active_cas.db)

    def close_telemetry(self) -> None:
        """Detach the telemetry plane (its tracer leaves the probe sink)."""
        if self.telemetry is not None:
            self.telemetry.close()

    @property
    def cost_model(self) -> CostModel:
        return self.config.cost_model

    # ------------------------------------------------------------------
    # User trust bootstrap
    # ------------------------------------------------------------------

    def user_attest_cas(self) -> Report:
        """The user's first step: verify CAS itself runs the expected code
        inside a genuine enclave (Fig. 1, step 1)."""
        quote = self.cas.attest()
        verifier = AttestationVerifier(self.provisioning.public_key())
        report = verifier.verify(quote)
        if report.attributes.get("name") != "cas":
            raise AttestationError(
                f"expected the CAS enclave, got {report.attributes.get('name')!r}"
            )
        return report

    def register_session(
        self,
        session: str,
        configs: List[RuntimeConfig],
        secrets: Optional[Dict[str, bytes]] = None,
        accept_debug: bool = False,
        max_members: Optional[int] = None,
    ) -> Policy:
        """Register a policy admitting containers built from ``configs``."""
        measurements = [expected_measurement(c) for c in configs]
        policy = Policy(
            session=session,
            allowed_measurements=measurements,
            secret_names=sorted(secrets or {}),
            accept_debug=accept_debug,
            max_members=max_members,
        )
        self.cas.register_policy(policy, secrets=secrets)
        return policy

    @property
    def active_cas(self) -> CasService:
        """The CAS instance currently serving the well-known address."""
        return self.cas_pair.active if self.cas_pair is not None else self.cas

    def cas_client(
        self, node: Node, trace: Optional[EventTrace] = None
    ) -> RemoteCasClient:
        return RemoteCasClient(
            self.network, node, "cas", trace=trace, retry=self.config.cas_retry
        )

    def provision_runtime(self, runtime: SconeRuntime, node: Node, session: str):
        """Attest a running container to CAS and install its secrets."""
        return self.cas_client(node).provision(runtime, session)

    def provision(self, runtime: SconeRuntime, node: Node, session: str):
        """:meth:`provision_runtime` as an activity, for code inside the
        simulation (a boot, a supervisor's replacement)."""
        return self.cas_client(node).provisioning(runtime, session)

    def node(self, index: int) -> Node:
        return self.nodes[index]

    def barrier(self) -> float:
        """Synchronize all node clocks (end-of-experiment readout)."""
        return self.network.barrier([n.clock for n in self.nodes])

    @property
    def time(self) -> float:
        """Max simulated time across the cluster (cores included)."""
        return max(n.time for n in self.nodes)
