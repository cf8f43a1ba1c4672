"""The five workloads.  Each drives one flow of the simulated secureTF
deployment through its public entry points only, in HW mode, with every
input (platform, data, payloads, traffic, fault plan) derived from the
seed it is built with.

A workload is built once per set-up (``Workload(seed)`` is the set-up:
data and model build, platform boot, CAS attestation, deploy, start).
``lap(index, region)`` then runs one lap of operations inside
``region.measure(...)`` and returns what happened; the same ``index``
gives the same inputs.  ``verify()`` checks the outputs after the last
lap and returns one line per failure.

Lap sizes were chosen so one lap costs roughly half a host second on a
2-core box: the runner takes the median over laps, and many short laps
sit steadier than a few long ones.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.baselines import make_native_runner
from repro.cluster.faults import FaultPlan, FaultSpec, TransientPartition
from repro.cluster.retry import RetryPolicy
from repro.core.inference import (
    InferenceService,
    deploy_encrypted_model,
    service_runtime_config,
)
from repro.core.platform import PlatformConfig, SecureTFPlatform
from repro.core.training import TrainingJob, TrainingJobConfig
from repro.data import synthetic_cifar10, synthetic_mnist
from repro.enclave.sgx import SgxMode
from repro.errors import IntegrityError
from repro.models import pretrained_lite_model
from repro.runtime.fs_shield import PathRule, ShieldPolicy
from repro.runtime.scone import RuntimeConfig, SconeRuntime
from repro.serving.autoscaler import AutoscalerPolicy
from repro.serving.router import RouterPolicy
from repro.serving.service import ServingPlane
from repro.serving.traffic import DiurnalProfile

from layers import Region


SERVING_COUNTERS = (
    "serving.admitted", "serving.retries", "serving.hedges_fired",
    "serving.hedges_won", "serving.dedup_replays", "serving.cold_starts",
    "serving.overload", "serving.deadline", "serving.transport",
)


@dataclass
class Lap:
    """What one lap did.  Simulated latencies are either one value per
    successful operation or, where the program only publishes a
    histogram (serving), that lap's percentiles."""

    ok: int
    failed: int = 0
    latencies: Optional[List[float]] = None
    percentiles: Optional[Dict[int, float]] = None
    #: Host seconds of set-up this lap had to repeat (serving builds a
    #: fresh plane per lap).
    setup_host_s: Optional[float] = None
    #: Counters the platform snapshot does not carry: the serving
    #: plane's router, admission and client statistics.
    counters: Dict[str, float] = field(
        default_factory=lambda: dict.fromkeys(SERVING_COUNTERS, 0.0)
    )


class InferEpc:
    """One ``InferenceService`` over an encrypted ``inception_v4`` Lite
    model whose declared 163 MB exceed the ~94 MB EPC; single thread,
    closed loop, operation = one ``classify(image)``."""

    name = "infer_epc"
    TAIL_PERCENTILE = 90
    OPS_PER_LAP = 24
    IMAGES = 96

    def __init__(self, seed: int) -> None:
        _, test = synthetic_cifar10(n_train=5, n_test=self.IMAGES, seed=seed)
        self.images = test.images
        self.model = pretrained_lite_model("inception_v4", seed=seed)
        self.seed = seed
        self.platform = SecureTFPlatform(PlatformConfig(n_nodes=2, seed=seed))
        self.platform.register_session(
            "infer", [service_runtime_config("svc", SgxMode.HW)]
        )
        node = self.platform.node(1)
        path = deploy_encrypted_model(self.platform, "infer", node, self.model)
        self.service = InferenceService(
            self.platform, "infer", node, path, mode=SgxMode.HW, name="svc"
        )
        self.service.start()
        self.cold_start_s = self.service.stats.startup_latency
        self.labels: Dict[int, int] = {}

    def lap(self, index: int, region: Region) -> Lap:
        clock = self.service.node.clock
        sim_now = lambda: clock.now  # noqa: E731
        classify = region.call("core.classify", self.service.classify, sim_now)
        latencies = []
        with region.measure(self.platform, sim_now):
            for k in range(self.OPS_PER_LAP):
                image = (index * self.OPS_PER_LAP + k) % self.IMAGES
                before = clock.now
                self.labels[image] = classify(self.images[image])
                latencies.append(clock.now - before)
        return Lap(ok=len(latencies), latencies=latencies)

    def expected_label(self, runner, image: int) -> int:
        """The reference label (a method so the smoke test can falsify it)."""
        return runner.classify(self.images[image])

    def verify(self) -> List[str]:
        reference = SecureTFPlatform(PlatformConfig(n_nodes=2, seed=self.seed))
        runner = make_native_runner(reference.node(1), self.model)
        return [
            f"image {image}: enclave label {label} != native label {expected}"
            for image, label in sorted(self.labels.items())
            if label != (expected := self.expected_label(runner, image))
        ]

    def digest(self) -> str:
        return _sha256(repr(sorted(self.labels.items())).encode())


class TrainSharded:
    """``TrainingJob`` on ``mnist_cnn``: 2 workers, 2 parameter-server
    shards, 8-bit gradients, network shield on; operation = one
    synchronous round (2 batches of 50: pull, compute, quantize, push,
    apply)."""

    name = "train_sharded"
    TAIL_PERCENTILE = 75  # about 50 rounds fit in a ten-second run
    OPS_PER_LAP = 3
    WORKERS = 2
    BATCH = 50
    ROUNDS = 12  # distinct rounds of data; laps cycle through them

    def __init__(self, seed: int) -> None:
        train, _ = synthetic_mnist(
            n_train=self.ROUNDS * self.WORKERS * self.BATCH, n_test=10, seed=seed
        )
        self.batches = list(train.batches(self.BATCH))
        self.platform = SecureTFPlatform(PlatformConfig(n_nodes=3, seed=seed))
        self.job = TrainingJob(
            self.platform,
            TrainingJobConfig(
                session="train",
                n_workers=self.WORKERS,
                mode=SgxMode.HW,
                network_shield=True,
                learning_rate=0.05,
                seed=seed,
                ps_shards=2,
                gradient_quantization_bits=8,
                retry_policy=RetryPolicy(max_attempts=4, base_delay=0.02),
            ),
        )
        before = self.platform.time
        self.job.start()
        self.cold_start_s = self.platform.time - before
        self.lap_losses: List[float] = []

    def lap(self, index: int, region: Region) -> Lap:
        sim_now = lambda: self.platform.time  # noqa: E731
        train = region.call("core.train_round", self.job.train, sim_now)
        latencies, losses = [], []
        with region.measure(self.platform, sim_now):
            for k in range(self.OPS_PER_LAP):
                first = ((index * self.OPS_PER_LAP + k) % self.ROUNDS) * self.WORKERS
                result = train(self.batches[first:first + self.WORKERS])
                latencies.append(result.wall_clock)
                losses.append(result.final_loss)
        self.lap_losses.append(float(np.mean(losses)))
        return Lap(ok=len(latencies), latencies=latencies)

    def verify(self) -> List[str]:
        failures = []
        if not self.lap_losses[-1] < self.lap_losses[0]:
            failures.append(
                f"loss did not fall: first lap {self.lap_losses[0]:.4f}, "
                f"last lap {self.lap_losses[-1]:.4f}"
            )
        for name, value in self.job.weights().items():
            if not np.all(np.isfinite(value)):
                failures.append(f"weight {name!r} is not finite")
        return failures

    def digest(self) -> str:
        weights = self.job.weights()
        return _sha256(
            b"".join(np.ascontiguousarray(weights[k]).tobytes() for k in sorted(weights))
        )


class ServeChaos:
    """A fresh ``ServingPlane`` per lap (5 replicas on 4 nodes, SLO
    autoscaler up to 8) under a diurnal spike and a seeded chaos plan;
    closed loop, 16 clients that each wait for their reply; operation =
    one client request.

    The plane is provisioned so that the chaos is absorbed: message
    faults hit only router↔replica legs (which the router retries and
    hedges), one replica is partitioned for two simulated seconds, one
    is crashed mid-spike and restarted by the watchdog.  No request is
    expected to fail; one that does is counted as failed."""

    name = "serve_chaos"
    # p90 and p99 sit where the share of hedged and retried requests
    # crosses the percentile: lap to lap they spread 26 %, p95 6 %.
    TAIL_PERCENTILE = 95
    CLIENTS = 16
    DURATION = 40.0
    DEADLINE_BUDGET = 1.0
    REPLICAS = 5
    MAX_REPLICAS = 8

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.cold_starts: List[float] = []
        self.replay: Dict[int, bytes] = {}
        self.failures: List[str] = []
        self._traces = hashlib.sha256()

    @property
    def cold_start_s(self) -> float:
        return float(np.mean(self.cold_starts)) if self.cold_starts else 0.0

    def _plane(self, seed: int) -> ServingPlane:
        plane = ServingPlane(
            seed=seed,
            n_nodes=4,
            initial_replicas=self.REPLICAS,
            router_policy=RouterPolicy(max_attempts=5),
            autoscaler_policy=AutoscalerPolicy(
                slo_p99=0.2, min_replicas=self.REPLICAS,
                max_replicas=self.MAX_REPLICAS,
            ),
        )
        # Scoped to the replicas on purpose: a fault on a client↔router
        # leg is never retried (the client reports a transport error),
        # and unscoped loss can drop an un-retried CAS provision reply
        # inside an autoscaler tick and abort the run (README, "Known
        # program limitations").
        replicas = frozenset(f"replica-{i}" for i in range(4 * self.MAX_REPLICAS))
        plane.add_faults(FaultPlan(
            seed + 1,
            FaultSpec(loss=0.01, delay=0.02, delay_seconds=0.05,
                      duplication=0.01, targets=replicas),
            partitions=[TransientPartition("replica-1", 10.0, 12.0)],
        ))
        plane.platform.scheduler.schedule(
            20.0, lambda: plane.pool.crash("replica-0"), label="chaos:crash"
        )
        return plane

    def lap(self, index: int, region: Region) -> Lap:
        build_start = time.perf_counter()
        plane = self._plane(self.seed * 1000 + index)
        setup_host_s = time.perf_counter() - build_start
        sim_now = lambda: plane.time  # noqa: E731
        run_traffic = region.call("serving.run_traffic", plane.run_traffic, sim_now)
        router_before = _router_counts(plane)
        with region.measure(plane.platform, sim_now):
            stats = run_traffic(
                self.CLIENTS, self.DURATION, profile=DiurnalProfile(),
                deadline_budget=self.DEADLINE_BUDGET,
            )
        try:
            plane.check_invariants()
            stats.assert_accounted()
        except AssertionError as exc:
            self.failures.append(f"lap {index}: {exc}")
        trace = hashlib.sha256(plane.trace_bytes()).digest()
        # Telemetry rides the RPC envelopes, so only untraced laps of one
        # index must replay byte for byte.
        if not region.traced:
            if self.replay.setdefault(index, trace) != trace:
                self.failures.append(f"lap {index}: replay is not byte-identical")
            self._traces.update(trace)
        self.cold_starts.extend(plane.pool.cold_starts)
        counters = {
            key: value - router_before[key]
            for key, value in _router_counts(plane).items()
        }
        counters.update({
            "serving.overload": stats.overload,
            "serving.deadline": stats.deadline,
            "serving.transport": stats.transport,
        })
        return Lap(
            ok=stats.ok,
            failed=stats.sent - stats.ok,
            percentiles={
                q: stats.latency.percentile(q) for q in (50, self.TAIL_PERCENTILE, 99)
            },
            setup_host_s=setup_host_s,
            counters=counters,
        )

    def verify(self) -> List[str]:
        return self.failures

    def digest(self) -> str:
        return self._traces.hexdigest()


def _router_counts(plane: ServingPlane) -> Dict[str, float]:
    router, admission = plane.router.stats, plane.router.admission.stats
    return {
        "serving.admitted": admission.admitted,
        "serving.retries": router.retries,
        "serving.hedges_fired": router.hedges_fired,
        "serving.hedges_won": router.hedges_won,
        "serving.dedup_replays": router.dedup_replays,
        "serving.cold_starts": len(plane.pool.cold_starts),
    }


class _Shield:
    """A HW ``SconeRuntime`` with the journaled, 2-replica file-system
    shield (default cipher, 64 KiB chunks) and 8 seeded-random files of
    about 544 KiB; no network, tensor or heap work."""

    TAIL_PERCENTILE = 90
    FILES = 8
    FILE_BYTES = 544 * 1024  # 8.5 chunks: ± 8 KiB never changes the chunk count
    cold_start_s = 0.0

    def __init__(self, seed: int) -> None:
        rng = np.random.default_rng(seed)
        self.platform = SecureTFPlatform(PlatformConfig(n_nodes=1, seed=seed))
        self.node = self.platform.node(0)
        self.runtime = SconeRuntime(
            RuntimeConfig(
                name="shield",
                mode=SgxMode.HW,
                fs_journal=True,
                fs_replicas=2,
                fs_key=rng.bytes(32),
                fs_rules=[PathRule("/secure/", ShieldPolicy.ENCRYPT)],
            ),
            self.node.vfs,
            self.platform.cost_model,
            self.node.clock,
            cpu=self.node.cpu,
            rng=self.node.rng.child("shield"),
        )
        # Sizes differ by a percent or two so that simulated latency,
        # which depends on bytes and not on content, follows the seed.
        sizes = self.FILE_BYTES + rng.integers(-8 * 1024, 8 * 1024, self.FILES)
        self.files = [rng.bytes(int(size)) for size in sizes]
        self.sim_now = lambda: self.node.clock.now

    @staticmethod
    def path(i: int) -> str:
        return f"/secure/file-{i}"

    def digest(self) -> str:
        return _sha256(b"".join(
            self.node.vfs.read(path).content
            for path in self.node.vfs.listdir("/secure/")
        ))


class ShieldWrite(_Shield):
    """Operation = ``write_protected`` of one file; every lap after the
    first overwrites (new version, old generation collected)."""

    name = "shield_write"
    OPS_PER_LAP = _Shield.FILES

    def lap(self, index: int, region: Region) -> Lap:
        clock = self.node.clock
        write = region.call(
            "runtime.write_protected", self.runtime.write_protected, self.sim_now
        )
        latencies = []
        with region.measure(self.platform, self.sim_now):
            for i, data in enumerate(self.files):
                before = clock.now
                write(self.path(i), data)
                latencies.append(clock.now - before)
        return Lap(ok=len(latencies), latencies=latencies)

    def verify(self) -> List[str]:
        self.runtime.fs.drop_caches()
        return [
            f"{self.path(i)}: read back differs from what was written"
            for i, data in enumerate(self.files)
            if self.runtime.read_protected(self.path(i)) != data
        ]


class ShieldRead(_Shield):
    """Per lap ``drop_caches()``, then for each file one cold read and
    three warm reads (operation = one ``read_protected``; chunk-cache
    hit ratio exactly 0.75)."""

    name = "shield_read"
    READS_PER_FILE = 4
    OPS_PER_LAP = _Shield.FILES * READS_PER_FILE

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        for i, data in enumerate(self.files):
            self.runtime.write_protected(self.path(i), data)
        self.wrong_reads = 0

    def lap(self, index: int, region: Region) -> Lap:
        clock = self.node.clock
        read = region.call(
            "runtime.read_protected", self.runtime.read_protected, self.sim_now
        )
        latencies = []
        self.runtime.fs.drop_caches()
        with region.measure(self.platform, self.sim_now):
            for i, data in enumerate(self.files):
                for _ in range(self.READS_PER_FILE):
                    before = clock.now
                    content = read(self.path(i))
                    latencies.append(clock.now - before)
                    self.wrong_reads += content != data
        return Lap(ok=len(latencies), latencies=latencies)

    def verify(self) -> List[str]:
        failures = []
        if self.wrong_reads:
            failures.append(f"{self.wrong_reads} reads returned other bytes than written")
        # The OS flips one byte in every stored copy of file 0's first
        # chunk: the next cold read must fail closed.
        vfs = self.node.vfs
        for stored in vfs.listdir(self.path(0) + ".__chunk."):
            if stored.rsplit(".", 2)[1] == "0":
                content = bytearray(vfs.read(stored).content)
                content[len(content) // 2] ^= 0x01
                vfs.tamper(stored, bytes(content))
        self.runtime.fs.drop_caches()
        try:
            self.runtime.read_protected(self.path(0))
        except IntegrityError:
            pass
        else:
            failures.append("a tampered chunk was read without an IntegrityError")
        return failures


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


WORKLOADS = {
    cls.name: cls for cls in (InferEpc, TrainSharded, ServeChaos, ShieldWrite, ShieldRead)
}
