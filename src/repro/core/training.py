"""Distributed secure training (paper §3.3.4 training, §5.4 evaluation).

A training job launches ``ps_shards`` parameter servers and N workers as
attested containers, provisions them through CAS, and runs synchronous
data-parallel rounds.  The Fig. 8 configurations map directly:

- ``mode=NATIVE`` + ``network_shield=False`` → native TensorFlow,
- ``mode=SIM`` with/without the network shield,
- ``mode=HW`` with all features (the full secureTF stack).

Training always uses the full TensorFlow engine: Lite cannot train.

Containers are launched through the platform orchestrator, so elastic
recovery applies: with a ``retry_policy`` configured, the job doubles as
the :class:`~repro.cluster.parameter_server.SyncTrainer`'s recovery
supervisor — crashed workers are restarted (re-attested and
re-provisioned by the orchestrator's ``on_start`` hooks) and rejoin
their round, and a crashed PS shard is rebuilt from its checkpoint store
at the same network address, resuming at the exact version it reached.
Chaos plans (:class:`~repro.cluster.faults.FaultPlan`) attach via
:meth:`TrainingJob.attach_chaos`; their scheduled container crashes
fire at round boundaries through the trainer's ``tick``.

A job may be given its workers instead: data owners on their own
hardware (§6.2, :mod:`repro.core.federated`) that CAS certifies.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Union

from repro._sim.scheduler import Activity, Completion
from repro.cluster.container import Container
from repro.crypto import encoding
from repro.cluster.faults import FaultPlan
from repro.cluster.orchestrator import ContainerSpec
from repro.cluster.parameter_server import (
    InMemoryCheckpointStore,
    ParameterServer,
    ShardedParameterService,
    SyncTrainer,
    TrainingResult,
)
from repro.cluster.node import Node
from repro.cluster.sharding import GradientQuantizer, SecureAggregation
from repro.cluster.retry import RetryPolicy
from repro.cluster.worker import TrainingWorker
from repro.core.platform import SecureTFPlatform
from repro.crypto.certs import Certificate
from repro.crypto.ed25519 import Ed25519PrivateKey, Ed25519PublicKey
from repro.crypto.tls import TlsIdentity
from repro.enclave.sgx import SgxMode
from repro.errors import ClusterError, ConfigurationError
from repro.runtime.net_shield import NetworkShield
from repro.runtime.scone import RuntimeConfig
from repro.tensor.engine import FULL_TF_PROFILE


#: Application threads of a training worker: its enclave's
#: ``max_threads`` (measured) and its session's thread count.
WORKER_THREADS = 4


def training_runtime_config(
    name: str,
    mode: SgxMode,
    max_threads: int = 8,
    tracing: bool = False,
) -> RuntimeConfig:
    """Runtime config (→ measurement) of a training container.

    ``tracing`` does not enter the measurement (see
    :class:`~repro.runtime.scone.RuntimeConfig`), so traced and untraced
    containers satisfy the same CAS policy.
    """
    return RuntimeConfig(
        name=name,
        mode=mode,
        binary_size=FULL_TF_PROFILE.binary_size,
        binary_identity=f"{name}:tensorflow".encode(),
        heap_size=128 * 1024 * 1024,
        max_threads=max_threads,
        fs_shield_enabled=False,  # training inputs fed via the PS protocol
        tracing=tracing,
    )


@dataclass
class TrainingJobConfig:
    """Everything that defines one Fig. 8-style run."""

    session: str
    n_workers: int = 1
    mode: SgxMode = SgxMode.HW
    network_shield: bool = True
    learning_rate: float = 0.0005  # the paper's §5.4 setting
    seed: int = 0
    #: When set, worker→PS RPC retries with backoff AND the job
    #: supervises recovery (PS checkpoint/restore, container restarts).
    retry_policy: Optional[RetryPolicy] = None
    #: Replica count for checkpoint chunks (self-healing reads).
    checkpoint_replicas: int = 1
    #: Parameter-server enclaves the model is weight-sharded across:
    #: variables are partitioned with a deterministic byte-balanced
    #: shard map and every pull/push fans out per shard.
    ps_shards: int = 1
    #: Quantize gradient pushes to this many bits (None = float32).
    #: Cuts the bytes crossing the network shield per push at a bounded
    #: rounding error; deterministic, so seeded runs stay byte-identical.
    gradient_quantization_bits: Optional[int] = None


class TrainingJob:
    """A launched PS shards + workers deployment.

    ``workers``: data owners admitted in place of the worker containers;
    ``codec``: a push codec other than the config's quantizer; shard
    ``k`` runs ``k`` nodes before ``ps_node`` (default the last node).
    """

    def __init__(
        self,
        platform: SecureTFPlatform,
        config: TrainingJobConfig,
        workers: Optional[List[TrainingWorker]] = None,
        codec: Optional[SecureAggregation] = None,
        ps_node: Optional[Node] = None,
    ) -> None:
        if config.n_workers < 1:
            raise ConfigurationError("training needs at least one worker")
        if workers is not None and len(workers) != config.n_workers:
            raise ConfigurationError(
                f"{len(workers)} workers given for {config.n_workers} slots"
            )
        if codec is not None and config.gradient_quantization_bits is not None:
            raise ConfigurationError("a job pushes through one codec")
        if config.ps_shards < 1:
            raise ConfigurationError("training needs at least one PS shard")
        if config.network_shield and config.mode is SgxMode.NATIVE:
            raise ConfigurationError(
                "the network shield is part of the SCONE runtime; "
                "NATIVE mode cannot enable it"
            )
        self.platform = platform
        self.config = config
        self.workers: List[TrainingWorker] = []
        #: The PS plane: ``ps_shards`` servers behind one shard map.
        self.ps_service: Optional[ShardedParameterService] = None
        self.trainer: Optional[SyncTrainer] = None
        self.codec: Union[GradientQuantizer, SecureAggregation, None] = (
            GradientQuantizer(config.gradient_quantization_bits)
            if config.gradient_quantization_bits is not None
            else codec
        )
        self._owners = workers
        self._ps_node = ps_node
        self._containers: List[Container] = []
        self._worker_spec: Optional[ContainerSpec] = None
        self._shard_specs: List[ContainerSpec] = []
        self._shard_containers: List[Container] = []
        self._worker_containers: List[Container] = []
        self._worker_slots: Dict[str, int] = {}
        #: Container name → completion of its provisioning activity.
        self._provisioning: Dict[str, Completion] = {}
        self._ps_store: Optional[InMemoryCheckpointStore] = None
        self._hook_installed = False
        #: Attached chaos plan (None = fault-free run).
        self.chaos: Optional[FaultPlan] = None
        #: Recovery decisions, in order (also mirrored into the chaos
        #: plan's trace so replay tests can compare one byte stream).
        self.recovery_events: List[str] = []

    # ------------------------------------------------------------------

    def _worker_config(self) -> RuntimeConfig:
        return training_runtime_config(
            f"{self.config.session}-worker",
            self.config.mode,
            max_threads=WORKER_THREADS,
            tracing=self.platform.telemetry is not None,
        )

    def _ps_config(self) -> RuntimeConfig:
        return training_runtime_config(
            f"{self.config.session}-ps",
            self.config.mode,
            tracing=self.platform.telemetry is not None,
        )

    def register_session(self) -> None:
        """Register the CAS policy admitting this job's containers.

        Idempotent: a resumed job (crash recovery) reuses the session CAS
        already knows — its keys, secrets, and audit history must carry
        over for checkpoints to remain readable.
        """
        if self.config.session in self.platform.cas.policies.sessions():
            return
        self.platform.register_session(
            self.config.session,
            configs=[self._worker_config(), self._ps_config()],
            accept_debug=self.config.mode is not SgxMode.HW,
        )

    def _on_container_start(self, container: Container) -> None:
        """Orchestrator hook: attest + provision every container of this
        job — including *replacement* containers launched by supervision
        (a restarted enclave has fresh memory and must re-prove itself).
        """
        cfg = self.config
        if cfg.mode is SgxMode.NATIVE:
            return
        if not container.name.startswith(f"{cfg.session}-"):
            return
        self._provisioning[container.name] = self.platform.scheduler.start(
            self.platform.provision(container.runtime, container.node, cfg.session),
            name=f"provision:{container.name}",
        )

    def _shield_for(self, container: Container) -> Activity:
        """The container's network shield, once its provisioning (started
        by the hook) finished; None without one."""
        provisioned = self._provisioning.get(container.name)
        if provisioned is None:
            return None
        identity = yield provisioned
        if not self.config.network_shield:
            return None
        return container.runtime.make_net_shield(
            identity.tls_identity(),
            [Ed25519PublicKey(identity.trusted_root)],
        )

    def _build_shard_ps(self, shard: int, container: Container) -> Activity:
        """PS shard ``shard`` for ``container`` — the address doubles as
        the checkpoint-store key, so a replacement restores its own
        shard's snapshot lineage (and only that shard's)."""
        return ParameterServer(
            container.node,
            f"{self.config.session}-ps{shard}",
            self.platform.network,
            learning_rate=self.config.learning_rate,
            shield=(yield from self._shield_for(container)),
            checkpoint_store=self._ps_store,
            syscalls=container.runtime.syscalls,
            codec=self.codec,
        )

    def _build_worker(self, slot: int, container: Container) -> Activity:
        worker = TrainingWorker(
            f"{self.config.session}-w{slot}",
            container.node,
            container.runtime,
            seed=self.config.seed,
            threads=WORKER_THREADS,
            shield=(yield from self._shield_for(container)),
        )
        self._worker_slots[worker.name] = slot
        return worker

    def _admit(self, worker: TrainingWorker) -> TrainingWorker:
        """Enrol a data owner: it has no container to attest, so CAS
        certifies it as ``{session}/owner/{name}`` — a peer of this
        session's shards and of no other session's."""
        if self.config.network_shield:
            keys, node = self.platform.active_cas.keys, worker.node
            key, cert = keys.new_tls_identity(
                f"{self.config.session}/owner/{worker.name}", now=node.clock.now
            )
            worker.shield = NetworkShield(
                TlsIdentity(Ed25519PrivateKey(key), Certificate.from_bytes(cert)),
                [keys.ca.public_key()],
                self.platform.cost_model,
                node.clock,
                node.rng.child(f"owner-{worker.name}"),
            )
        return worker

    def start(self) -> None:
        """Launch PS + workers via the orchestrator; attest and provision
        each (unless NATIVE).  Synchronous: the launches are one
        activity, driven from outside the simulation."""
        self.platform.scheduler.drive(self._starting())

    def _starting(self) -> Activity:
        cfg = self.config
        nodes = self.platform.nodes
        orchestrator = self.platform.orchestrator
        if cfg.mode is not SgxMode.NATIVE:
            self.register_session()
        if not self._hook_installed:
            orchestrator.on_start.append(self._on_container_start)
            self._hook_installed = True
        if cfg.retry_policy is not None:
            self._ps_store = InMemoryCheckpointStore()
            if self.platform.epochs is not None:
                # The checkpoint store is the durable acceptor shared by
                # a crashed shard and its replacement: fence each shard's
                # snapshot slot under its own role, so a zombie cannot
                # overwrite its successor's snapshots and restarting
                # shard k never disturbs the other shards' epochs.
                for k in range(cfg.ps_shards):
                    key = f"{cfg.session}-ps{k}"
                    self._ps_store.guards[key] = self.platform.epochs.make_guard(
                        f"ps-{k}", name=f"{key}-checkpoint-store"
                    )

        self._worker_spec = ContainerSpec(
            f"{cfg.session}-worker", lambda node, index: self._worker_config()
        )

        # Shard enclaves spread across nodes from the tail (the paper
        # runs PS/workers on the same 3 machines; shard 0 on the last
        # node matches Fig. 2).  Each shard gets its own spec so the
        # orchestrator tracks restart lineage per shard.
        shards: List[ParameterServer] = []
        first = (
            nodes.index(self._ps_node) if self._ps_node is not None else len(nodes) - 1
        )
        for k in range(cfg.ps_shards):
            spec = ContainerSpec(
                f"{cfg.session}-ps{k}", lambda node, index: self._ps_config()
            )
            self._shard_specs.append(spec)
            node = nodes[(first - k) % len(nodes)]
            container = orchestrator.launch(spec, node=node)
            self._containers.append(container)
            self._shard_containers.append(container)
            ps = yield from self._build_shard_ps(k, container)
            if self.platform.epochs is not None:
                ps.lease = self.platform.epochs.grant(
                    f"ps-{k}", holder=container.name
                )
            shards.append(ps)
        self.ps_service = ShardedParameterService(
            shards, barrier_store=self._ps_store
        )

        if self._owners is not None:
            self.workers = [self._admit(worker) for worker in self._owners]
        for index in range(len(self.workers), cfg.n_workers):
            # One worker per node, wrapping (the paper's 3-machine cluster
            # colocates the PS with a worker; PS work is microseconds).
            node = nodes[index % len(nodes)]
            container = orchestrator.launch(self._worker_spec, node=node)
            self._containers.append(container)
            self._worker_containers.append(container)
            self.workers.append((yield from self._build_worker(index, container)))

        self.ps_service.initialize(self.workers[0].weights())
        self.trainer = SyncTrainer(
            self.platform.network,
            self.ps_service,
            self.workers,
            retry=cfg.retry_policy,
            recovery=self if cfg.retry_policy is not None else None,
            codec=self.codec,
        )

    def train(self, batches: List, steps: Optional[int] = None) -> TrainingResult:
        if self.trainer is None:
            raise ConfigurationError("start() the job before training")
        return self.trainer.train(batches, steps=steps)

    # ------------------------------------------------------------------
    # Chaos attachment + recovery supervision (SyncTrainer's ``recovery``
    # protocol: tick / worker_ok / replace_worker / shard_ok /
    # recover_shard).
    # ------------------------------------------------------------------

    def attach_chaos(self, plan: FaultPlan) -> None:
        """Subject this job's traffic to ``plan`` (message faults now,
        container crashes at the round boundaries the plan schedules)."""
        self.chaos = plan
        self.platform.network.faults.append(plan.inject)

    def record_recovery(self, event: str) -> None:
        self.recovery_events.append(event)
        if self.chaos is not None:
            self.chaos.record(event)

    def tick(self, round_index: int) -> None:
        """Round boundary: fire the chaos plan's scheduled crashes."""
        if self.chaos is None:
            return
        for crash in self.chaos.due_crashes(round_index):
            self._apply_crash(crash.target)

    def _apply_crash(self, target: str) -> None:
        if target == "ps" or (
            target.startswith("ps-") and target[3:].isdigit()
        ):
            # "ps" aliases shard 0, so one chaos plan replays unchanged
            # at any shard count.
            shard = 0 if target == "ps" else int(target[3:])
            if shard >= len(self._shard_containers):
                raise ConfigurationError(f"no such PS shard {target!r}")
            container = self._shard_containers[shard]
            if container.running:
                self.platform.orchestrator.fail_container(container)
                self.ps_service.shard(shard).crash()
        elif target.startswith("worker-"):
            slot = int(target.rsplit("-", 1)[1])
            container = self._worker_containers[slot]
            if container.running:
                self.platform.orchestrator.fail_container(container)
        else:
            raise ConfigurationError(f"unknown crash target {target!r}")

    def worker_ok(self, worker: TrainingWorker) -> bool:
        slot = self._worker_slots.get(worker.name)
        if slot is None:
            return True
        return self._worker_containers[slot].running

    def replace_worker(self, worker: TrainingWorker) -> Activity:
        slot = self._worker_slots[worker.name]
        failed = self._worker_containers[slot]
        replacement = self.platform.orchestrator.restart(self._worker_spec, failed)
        if replacement is None:
            raise ClusterError(
                f"worker slot {slot} exhausted its restart budget"
            )
        self._containers.append(replacement)
        self._worker_containers[slot] = replacement
        new_worker = yield from self._build_worker(slot, replacement)
        self.workers[slot] = new_worker
        self.record_recovery(
            f"worker-restart slot={slot} container={replacement.name}"
        )
        return new_worker

    def shard_ok(self, shard: int) -> bool:
        return self._shard_containers[shard].running

    def recover_shard(self, shard: int) -> Activity:
        """Restart shard ``shard``'s container and resume it from its
        own checkpoint slot, fence-first (the shard's epoch is bumped
        before the replacement serves, so the zombie predecessor's saves
        and barrier commits are dead on arrival)."""
        if self.shard_ok(shard):
            return self.ps_service.shard(shard)
        replacement = self.platform.orchestrator.restart(
            self._shard_specs[shard],
            self._shard_containers[shard],
            reason=f"ps-shard-{shard}",
        )
        if replacement is None:
            return None
        lease = (
            self.platform.epochs.grant(f"ps-{shard}", holder=replacement.name)
            if self.platform.epochs is not None
            else None
        )
        self._shard_containers[shard] = replacement
        self._containers.append(replacement)
        ps = yield from self._build_shard_ps(shard, replacement)
        ps.lease = lease
        ps.shard_stats.restarts += 1
        self.record_recovery(
            f"ps-shard-restart shard={shard} container={replacement.name} "
            f"version={ps.version}"
        )
        return ps

    def weights(self) -> Dict:
        if self.ps_service is None:
            raise ConfigurationError("job not started")
        return self.ps_service.weights

    # ------------------------------------------------------------------
    # Secure checkpointing (stateful computing, challenge ❺): the PS's
    # weights persist to untrusted storage through the file-system
    # shield, keyed by the session key and freshness-audited by CAS, so
    # a restarted job resumes from genuine, current state.
    # ------------------------------------------------------------------

    def _checkpoint_shield(self):
        from repro.cas.audit import ScopedFreshnessTracker
        from repro.runtime.fs_shield import (
            FileSystemShield,
            PathRule,
            ShieldPolicy,
        )
        from repro.runtime.syscall import SyscallInterface

        if self.config.mode is SgxMode.NATIVE:
            raise ConfigurationError(
                "secure checkpoints need a CAS session; NATIVE mode has none"
            )
        if self.ps_service is None:
            raise ConfigurationError("job not started")
        node = self.ps_service.shard(0).node
        syscalls = SyscallInterface(
            node.vfs, self.platform.cost_model, node.clock, mode=SgxMode.NATIVE
        )
        return FileSystemShield(
            syscalls,
            self.platform.active_cas.owner_fs_key(self.config.session),
            [PathRule("/secure/checkpoints/", ShieldPolicy.ENCRYPT)],
            self.platform.cost_model,
            node.clock,
            freshness=ScopedFreshnessTracker(
                self.platform.active_cas.audit,
                f"{self.config.session}@{node.node_id}",
            ),
            replicas=self.config.checkpoint_replicas,
        )

    def checkpoint_path(self) -> str:
        return f"/secure/checkpoints/{self.config.session}.ckpt"

    def save_checkpoint(self) -> str:
        """Persist the PS weights, encrypted + freshness-audited."""
        from repro.tensor.arrays import encode_array_dict

        path = self.checkpoint_path()
        payload = encoding.encode(
            {
                "session": self.config.session,
                "version": max(s.version for s in self.ps_service.shards),
                "weights": encode_array_dict(self.weights()),
            }
        )
        self._checkpoint_shield().write_file(path, payload)
        return path

    def restore_checkpoint(self) -> int:
        """Load the latest audited checkpoint into the PS; returns its
        recorded PS version."""
        from repro.tensor.arrays import decode_array_dict

        payload = encoding.decode(
            self._checkpoint_shield().read_file(self.checkpoint_path())
        )
        if payload.get("session") != self.config.session:
            raise ConfigurationError(
                f"checkpoint belongs to session {payload.get('session')!r}"
            )
        self.ps_service.initialize(decode_array_dict(payload["weights"]))
        return int(payload["version"])

    def stop(self) -> None:
        if self.ps_service is not None:
            self.ps_service.stop()
        for container in self._containers:
            if container.running:
                container.stop()
