"""The secure classification service (paper §4.2, deployment §6.1).

Lifecycle, exactly as the paper deploys it:

1. The model owner registers a session with CAS and uploads the model
   (and any code) to the node **encrypted under the session's fs key** —
   the cloud never sees plaintext weights.
2. A container starts, attests to CAS, and receives the fs key + TLS
   identity.
3. The service reads the model through the file-system shield (integrity
   + decryption inside the enclave), builds the interpreter, and serves
   classification requests over network-shield TLS.

The service supports both engines: TensorFlow Lite (the intended
deployment) and full TensorFlow (the §5.3 #4 comparison), and all three
modes (NATIVE baseline, SIM, HW).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro._sim import probe
from repro._sim.scheduler import Activity
from repro.cas.audit import ScopedFreshnessTracker
from repro.cluster.container import Container
from repro.cluster.node import Node
from repro.cluster.rpc import SecureRpcServer
from repro.core.platform import SecureTFPlatform
from repro.crypto.ed25519 import Ed25519PublicKey
from repro.enclave.sgx import SgxMode
from repro.errors import ConfigurationError
from repro.runtime.fs_shield import FileSystemShield, PathRule, ShieldPolicy
from repro.runtime.scone import RuntimeConfig, SconeRuntime
from repro.runtime.syscall import SyscallInterface
from repro.tensor.arrays import decode_array
from repro.crypto import encoding
from repro.tensor.engine import (
    EngineProfile,
    ExecutionEngine,
    FULL_TF_PROFILE,
    LITE_PROFILE,
)
from repro.tensor.lite import Interpreter, LiteModel

MODEL_PATH_PREFIX = "/secure/models/"


def service_runtime_config(
    service_name: str,
    mode: SgxMode,
    engine: EngineProfile = LITE_PROFILE,
    fs_shield: bool = True,
) -> RuntimeConfig:
    """The runtime config (→ measurement) of an inference container."""
    return RuntimeConfig(
        name=service_name,
        mode=mode,
        binary_size=engine.binary_size,
        binary_identity=f"{service_name}:{engine.name}".encode(),
        heap_size=32 * 1024 * 1024,
        fs_shield_enabled=fs_shield and mode is not SgxMode.NATIVE,
        fs_rules=[PathRule(MODEL_PATH_PREFIX, ShieldPolicy.ENCRYPT)],
    )


def deploy_encrypted_model(
    platform: SecureTFPlatform,
    session: str,
    node: Node,
    model: LiteModel,
    path: Optional[str] = None,
) -> str:
    """Owner-side upload: encrypt the model under the session fs key.

    Runs outside any enclave (the owner's own machine): a plain syscall
    interface on the target node's storage, a shield armed with the key
    the owner fetched from CAS over its attested channel.
    """
    path = path or f"{MODEL_PATH_PREFIX}{model.name}.tflite"
    fs_key = platform.cas.owner_fs_key(session)
    owner_syscalls = SyscallInterface(
        node.vfs, platform.cost_model, node.clock, mode=SgxMode.NATIVE
    )
    owner_shield = FileSystemShield(
        owner_syscalls,
        fs_key,
        [PathRule(MODEL_PATH_PREFIX, ShieldPolicy.ENCRYPT)],
        platform.cost_model,
        node.clock,
        # Freshness scope is per (session, node): the same model path
        # exists on every node's own storage.
        freshness=ScopedFreshnessTracker(
            platform.cas.audit, f"{session}@{node.node_id}"
        ),
    )
    owner_shield.write_file(path, model.to_bytes(), declared_size=model.size_bytes)
    return path


@dataclass
class InferenceStats:
    requests: int = 0
    total_latency: float = 0.0
    startup_latency: float = 0.0

    @property
    def mean_latency(self) -> float:
        return self.total_latency / self.requests if self.requests else 0.0


class InferenceService:
    """One classification container (label_image-style service)."""

    def __init__(
        self,
        platform: SecureTFPlatform,
        session: str,
        node: Node,
        model_path: str,
        mode: SgxMode = SgxMode.HW,
        engine: EngineProfile = LITE_PROFILE,
        threads: int = 1,
        name: Optional[str] = None,
        fs_shield: bool = True,
    ) -> None:
        self.platform = platform
        self.session = session
        self.node = node
        self.model_path = model_path
        self.mode = mode
        self.engine_profile = engine
        self.threads = threads
        self.name = name or f"inference-{session}"
        self.fs_shield = fs_shield
        self.stats = InferenceStats()
        self.runtime: Optional[SconeRuntime] = None
        self.container: Optional[Container] = None
        self.interpreter: Optional[Interpreter] = None
        self._rpc: Optional[SecureRpcServer] = None
        self.identity = None

    # ------------------------------------------------------------------

    def start(self) -> None:
        """Container start → attest/provision → load model → ready; for
        synchronous code outside the simulation (:meth:`starting`, driven)."""
        self.platform.scheduler.drive(self.starting())

    def starting(self) -> Activity:
        """:meth:`start` as an activity."""
        with probe.span(
            self.node.clock,
            "inference.startup",
            category="inference",
            attrs={"service": self.name},
        ):
            yield from self._start_inner()

    def _start_inner(self) -> Activity:
        start_time = self.node.clock.now
        # The config here must match the one the policy was registered
        # with byte-for-byte: any difference changes the measurement and
        # CAS will refuse to provision.
        config = service_runtime_config(
            self.name, self.mode, self.engine_profile, fs_shield=self.fs_shield
        )
        self.container = Container(self.name, self.node, config)
        runtime = self.container.start()
        self.runtime = runtime

        if self.mode is not SgxMode.NATIVE:
            self.identity = yield from self.platform.provision(
                runtime, self.node, self.session
            )
            if self.fs_shield:
                runtime.install_fs_key(
                    self.identity.fs_key,
                    freshness=ScopedFreshnessTracker(
                        self.platform.cas.audit,
                        f"{self.session}@{self.node.node_id}",
                    ),
                )

        model_bytes = runtime.read_protected(self.model_path)
        model = LiteModel.from_bytes(model_bytes)
        if self.engine_profile is FULL_TF_PROFILE:
            # §5.3 #4: run the same frozen graph under the full-TF engine.
            self.interpreter = _FullTfRunner(model, runtime, self.threads)
        else:
            self.interpreter = Interpreter(
                model, runtime=runtime, threads=self.threads
            )
        self.interpreter.allocate_tensors()
        self.stats.startup_latency = self.node.clock.now - start_time

    def classify(self, image: np.ndarray) -> int:
        """Classify one image locally (the Fig. 5/6 measurement path)."""
        if self.interpreter is None:
            raise ConfigurationError(f"service {self.name!r} is not started")
        before = self.node.clock.now
        with probe.span(
            self.node.clock,
            "inference.request",
            category="inference",
            attrs={"service": self.name},
        ):
            label = self.interpreter.classify(
                image[None] if image.ndim == 3 else image
            )
        self.stats.requests += 1
        self.stats.total_latency += self.node.clock.now - before
        return label

    # ------------------------------------------------------------------

    def serve(self, address: Optional[str] = None) -> str:
        """Expose classification over network-shield TLS."""
        if self.runtime is None or self.identity is None:
            raise ConfigurationError("start() the service before serving")
        shield = self.runtime.make_net_shield(
            self.identity.tls_identity(),
            [Ed25519PublicKey(self.identity.trusted_root)],
        )
        address = address or self.name
        self._rpc = SecureRpcServer(
            self.platform.network, address, self.node, shield,
            require_client_cert=True,
        )

        def handle_classify(payload: bytes, peer) -> bytes:
            image = decode_array(encoding.decode(payload))
            label = self.classify(image)
            return encoding.encode({"label": label})

        self._rpc.register("classify", handle_classify)
        self._rpc.start()
        return address

    def stop(self) -> None:
        if self._rpc is not None:
            self._rpc.stop()
            self._rpc = None
        if self.container is not None and self.container.running:
            self.container.stop()


class _FullTfRunner:
    """Runs a Lite-format model under the full-TensorFlow engine profile.

    Used only by the §5.3 #4 comparison: same graph, same numerics, but
    the 87.4 MB binary and the heavyweight dispatch of full TensorFlow.
    """

    def __init__(self, model: LiteModel, runtime: SconeRuntime, threads: int) -> None:
        from repro.tensor.saver import import_graph
        from repro.tensor.session import Session

        self._model = model
        self._runtime = runtime
        self._threads = threads
        self._import_graph = import_graph
        self._session_cls = Session
        self._session = None
        self._imported = None

    def allocate_tensors(self) -> None:
        imported = self._import_graph(self._model.graph_blob)
        engine = ExecutionEngine(self._runtime, FULL_TF_PROFILE, threads=self._threads)
        self._imported = imported
        self._session = self._session_cls(
            graph=imported.graph, engine=engine, threads=self._threads
        )

    def classify(self, inputs: np.ndarray) -> int:
        output = self._session.run(
            self._imported.outputs[0], {self._imported.inputs[0]: inputs}
        )
        output = np.asarray(output)
        return int(np.argmax(output[0] if output.ndim > 1 else output))


def _boot_activity(
    platform: SecureTFPlatform, service: InferenceService, delay: float
) -> Activity:
    """One service's boot as a scheduler activity: ``delay`` on its own
    node's clock, then :meth:`InferenceService.starting`."""
    clock = service.node.clock
    yield platform.scheduler.timer(
        clock, clock.now + delay, label=f"boot:{service.name}"
    )
    yield from service.starting()
    return service


def launch_fleet(
    platform: SecureTFPlatform,
    services: List[InferenceService],
    stagger: float = 0.0,
) -> List[InferenceService]:
    """Boot many inference services as activities on the event heap.

    Elastic scale-out (paper challenge ❹) at fleet size: each service's
    start sequence — container start, attestation round-trip to CAS,
    key provisioning, model load through the fs shield — runs as a
    scheduler activity, so boots on *different* nodes interleave by
    simulated-time order on the global heap instead of executing in
    Python list order.  ``stagger`` spaces the boots ``i * stagger``
    simulated seconds apart (0 = thundering herd).

    Returns the services once every boot completed; a failed boot
    (attestation rejection, policy violation) re-raises here.
    """
    completions = [
        platform.scheduler.spawn(
            _boot_activity(platform, service, index * stagger),
            name=f"boot:{service.name}",
            clock=service.node.clock,
        )
        for index, service in enumerate(services)
    ]
    platform.scheduler.run()
    return [completion.result() for completion in completions]
