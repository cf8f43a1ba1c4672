"""Parameter servers + data-parallel training (Fig. 2, §5.4).

The distributed TensorFlow architecture the paper preserves: parameter
servers hold the model, workers pull weights, compute gradients on their
data shard, and push updates.  Both endpoints can run behind the network
shield (secure mode) or in cleartext (the "without network shield" and
native baselines of Fig. 8).

The model lives on a :class:`ShardedParameterService` of N ≥ 1
:class:`ParameterServer` shards — one PS is the N = 1 case, not a second
system.  :class:`SyncTrainer` runs synchronous rounds with per-node
clocks: each worker's pull→compute→push advances its own clock, every
shard's clock serializes its applies, and a barrier ends the round — so
adding workers shortens the round wall-clock exactly as real synchronous
data-parallelism does.

A pushed gradient is an SGD step.  A data owner's push (federated
learning, §6.2) is its example-weighted model, summed until the round
barrier, where the shards install the sum (FedAvg) — or, under
:class:`~repro.cluster.sharding.SecureAggregation`, combine the shares
every shard summed.  A shielded shard serves only peers of its own CAS
session (``AttestationError`` for any other certificate subject).

Fault tolerance (paper challenge ❹): a :class:`ParameterServer` built
with a checkpoint store snapshots weights *and* its RPC dedup window
after every committed update, so a replacement shard resumes at the
exact version the crashed one reached — a worker retrying a push against
the replacement hits the restored dedup window instead of
double-applying.  The trainer accepts a retry policy (wired into every
worker→shard session) and a recovery supervisor (duck-typed; see
``TrainingJob``) that replaces crashed containers mid-run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Union

import numpy as np

from repro._sim import probe
from repro._sim.scheduler import Activity
from repro.cluster.network import Network
from repro.cluster.node import Node
from repro.cluster.rpc import RpcClient, RpcServer, SecureRpcClient, SecureRpcServer
from repro.cluster.retry import RetryPolicy
from repro.cluster.sharding import (
    GradientQuantizer,
    SecureAggregation,
    ShardMap,
    ShardTrainingStats,
)
from repro.cluster.worker import TrainingWorker
from repro.crypto import encoding
from repro.crypto.certs import session_scope
from repro.errors import (
    AttestationError,
    CircuitOpenError,
    ClusterError,
    RpcTransportError,
    StaleConnectionError,
)
from repro.runtime import stats_registry
from repro.runtime.net_shield import NetworkShield
from repro.runtime.syscall import SyscallInterface
from repro.tensor.arrays import decode_array_dict, encode_array_dict


@dataclass
class PSCheckpoint:
    """A resumable parameter-server snapshot (weights + dedup window).

    The dedup entries travel with the weights because they are one
    atomic state: restoring weights at version ``v`` without the call
    IDs that produced ``v`` would let a retried push apply twice.
    """

    weights: Dict[str, np.ndarray]
    version: int
    updates_applied: int
    dedup: list
    round: Optional[int] = None
    pending: list = field(default_factory=list)  # the round's owner pushes


class InMemoryCheckpointStore:
    """Checkpoint store surviving container crashes (models durable disk).

    In the paper's deployment this is the file-system shield writing
    encrypted checkpoints to a persistent volume; here an in-process dict
    keyed by PS address stands in, since the simulated crash kills the
    *container*, not the host storage.
    """

    def __init__(self) -> None:
        self._snapshots: Dict[str, PSCheckpoint] = {}
        self.saves = 0
        #: :class:`~repro.cluster.epoch.EpochGuard` per store key.  The
        #: store is the durable volume *shared* between a crashed shard
        #: and its replacement — the one place a zombie partitioned away
        #: from its workers can still destroy acked work by overwriting
        #: the replacement's checkpoints.  Each shard role (``ps-0`` …
        #: ``ps-{N-1}``) fences its own snapshot slot: saves stamped with
        #: a stale epoch are rejected, and the other shards' epochs are
        #: unaffected.
        self.guards: Dict[str, object] = {}
        #: Cross-shard commit barrier: an append-only sequence of
        #: version vectors (store key -> checkpointed version).  A
        #: vector is appended only after *every* shard's snapshot for
        #: the round landed, so the latest vector always names a
        #: mutually-consistent resume point — a crash between per-shard
        #: saves leaves the previous vector intact (atomicity).
        self._vectors: List[Dict[str, int]] = []

    def save(
        self, address: str, snapshot: PSCheckpoint, epoch: Optional[int] = None
    ) -> None:
        guard = self.guards.get(address)
        if guard is not None:
            guard.check(epoch)
        self._snapshots[address] = snapshot
        self.saves += 1

    def load(self, address: str) -> Optional[PSCheckpoint]:
        return self._snapshots.get(address)

    def commit_vector(
        self,
        vector: Dict[str, int],
        epochs: Optional[Dict[str, Optional[int]]] = None,
    ) -> int:
        """Atomically commit a cross-shard version vector.

        Every shard's guard must admit its stamped epoch *before* the
        vector is appended — a barrier half-written by a zombie
        coordinator is rejected whole, never partially applied.
        Returns the barrier sequence number (1-based).
        """
        for key in sorted(vector):
            guard = self.guards.get(key)
            if guard is not None:
                guard.check(epochs.get(key) if epochs else None)
        self._vectors.append(dict(vector))
        return len(self._vectors)

    def latest_vector(self) -> Optional[Dict[str, int]]:
        """The most recent committed cross-shard version vector."""
        return dict(self._vectors[-1]) if self._vectors else None

    @property
    def barrier_commits(self) -> int:
        return len(self._vectors)


class ParameterServer:
    """Holds master weights; applies pushed gradients with SGD."""

    def __init__(
        self,
        node: Node,
        address: str,
        network: Network,
        learning_rate: float,
        shield: Optional[NetworkShield] = None,
        checkpoint_store: Optional[InMemoryCheckpointStore] = None,
        syscalls: Optional["SyscallInterface"] = None,
        store_key: Optional[str] = None,
        codec: Union[GradientQuantizer, SecureAggregation, None] = None,
    ) -> None:
        if learning_rate <= 0:
            raise ClusterError(f"learning rate must be positive: {learning_rate}")
        self.node = node
        self.address = address
        #: The push codec (``None``: float32); must match the workers'.
        self.codec = codec
        self.shield = shield  # also its identity when it calls its committee
        #: ``{session}/{role}-{n}`` as CAS certified it (None: no shield).
        self._subject = shield.identity.certificate.subject if shield else None
        #: The federated round being summed, and its owner pushes.
        self._round: Optional[int] = None
        self._pending: List[Dict[str, np.ndarray]] = []
        #: Per-shard training-plane counters, registered under this
        #: node's clock so ``collect_metrics`` finds them.
        self.shard_stats = ShardTrainingStats(
            shard=store_key if store_key is not None else address
        )
        stats_registry.register("training", self.shard_stats, node.clock)
        #: Logical service identity in the checkpoint store.  Defaults to
        #: the network address; a replacement PS launched at a *new* pod
        #: address passes the crashed one's key so it resumes the same
        #: lineage (and so a zombie predecessor contends for the same
        #: snapshot slot — which is what the store's fence arbitrates).
        self.store_key = store_key if store_key is not None else address
        self.learning_rate = learning_rate
        self._weights: Dict[str, np.ndarray] = {}
        self._version = 0
        #: The encoded pull reply of the current weights, built by the
        #: first pull after they changed: every worker pulling this
        #: version gets (and every dedup entry holds) this one object.
        self._pull_reply: Optional[bytes] = None
        self.updates_applied = 0
        #: Leadership lease over the ``ps`` role (set by the recovery
        #: supervisor when fencing is on).  Its cached epoch is presented
        #: to the checkpoint store's guard on every save: a zombie PS
        #: keeps stamping its dead epoch and the store says no — the
        #: rejection propagates through ``on_committed``, which also
        #: rolls the call out of the dedup window, so the push that
        #: could not checkpoint never reads as committed.
        self.lease = None

        if shield is not None:
            self._server: RpcServer = SecureRpcServer(
                network, address, node, shield, require_client_cert=True
            )
        else:
            self._server = RpcServer(network, address, node, syscalls=syscalls)
        #: Checkpoint persistence I/O is charged through the same
        #: syscall plane the endpoint's socket traffic uses.
        self._syscalls = syscalls if syscalls is not None else self._server._syscalls
        self._server.register("pull", self._handle_pull)
        self._server.register("push", self._handle_push)
        self._server.register("partial", self._handle_partial)
        self._server.start()

        self._store = checkpoint_store
        self._checkpointed_version = -1
        if self._store is not None:
            snapshot = self._store.load(self.store_key)
            if snapshot is not None:
                # A predecessor at this address checkpointed: resume at
                # its exact version, with its dedup window, so retried
                # pushes stay at-most-once across the restart.
                self._weights = {k: v.copy() for k, v in snapshot.weights.items()}
                self._version = snapshot.version
                self.updates_applied = snapshot.updates_applied
                self._round, self._pending = snapshot.round, list(snapshot.pending)
                self._server.dedup.restore(snapshot.dedup)
                self._checkpointed_version = snapshot.version
            self._server.on_committed = self._maybe_checkpoint

    # ------------------------------------------------------------------

    def initialize(self, weights: Dict[str, np.ndarray]) -> None:
        self._weights = {k: np.array(v, dtype=np.float32) for k, v in weights.items()}
        self._version = 1
        self._pull_reply = None
        self._maybe_checkpoint()

    @property
    def weights(self) -> Dict[str, np.ndarray]:
        return dict(self._weights)

    @property
    def version(self) -> int:
        return self._version

    def _check_peer(self, peer: Optional[str], committee: bool = False) -> None:
        """Refuse a peer outside this shard's session (committee: role)."""
        me = self._subject
        if me is not None:
            scope = me.rsplit("-", 1)[0] + "-" if committee else session_scope(me)
            if not (peer or "").startswith(scope):
                raise AttestationError(f"{peer!r} is outside {scope!r}")

    def _handle_pull(self, payload: bytes, peer: Optional[str]) -> bytes:
        self._check_peer(peer)
        if not self._weights:
            raise ClusterError("parameter server has no initialized weights")
        with probe.span(
            self.node.clock, "ps.pull", attrs={"shard": self.store_key}
        ):
            self.shard_stats.pulls += 1
            if self._pull_reply is None:
                self._pull_reply = encoding.encode(
                    {"version": self._version, "weights": encode_array_dict(self._weights)}
                )
            return self._pull_reply

    def _handle_push(self, payload: bytes, peer: Optional[str]) -> bytes:
        self._check_peer(peer)
        with probe.span(
            self.node.clock, "ps.push", attrs={"shard": self.store_key}
        ):
            return self._apply_push(payload)

    def _apply_push(self, payload: bytes) -> bytes:
        body = encoding.decode(payload)
        gradients = decode_array_dict(body["gradients"])
        wire_bytes = len(body["gradients"])
        self.shard_stats.pushes += 1
        self.shard_stats.gradient_bytes_in += wire_bytes
        self._pull_reply = None
        if "round" in body:
            return self._buffer(body["round"], gradients)
        if str(body.get("encoding", "")).startswith("q"):
            if not isinstance(self.codec, GradientQuantizer):
                raise ClusterError(
                    "received quantized gradients but no quantizer is configured"
                )
            with probe.span(
                self.node.clock, "ps.dequantize", attrs={"shard": self.store_key}
            ):
                gradients = self.codec.dequantize(
                    gradients, body.get("scales", {})
                )
            self.shard_stats.quantized_pushes += 1
            float_bytes = sum(4 * g.size for g in gradients.values())
            self.shard_stats.gradient_bytes_saved += max(0, float_bytes - wire_bytes)
        # Apply SGD on the PS node's clock (this is real PS work).  The
        # weights may change from here on, even if a later piece fails.
        flops = 0
        for name, grad in gradients.items():
            if name not in self._weights:
                raise ClusterError(f"gradient for unknown weight {name!r}")
            if grad.shape != self._weights[name].shape:
                raise ClusterError(
                    f"gradient shape {grad.shape} mismatches weight "
                    f"{self._weights[name].shape} for {name!r}"
                )
            self._weights[name] = (
                self._weights[name] - self.learning_rate * grad
            ).astype(np.float32)
            flops += 2 * grad.size
        declared_flops = body.get("declared_flops", flops)
        self.node.clock.advance(
            declared_flops / self.node.cost_model.flops_per_second_full_tf
        )
        self._version += 1
        self.updates_applied += 1
        return encoding.encode({"version": self._version})

    # -- FedAvg: owner pushes are summed per round, installed at its end --

    def _buffer(self, round_tag: int, values: Dict[str, np.ndarray]) -> bytes:
        if self._round is not None and round_tag < self._round:
            raise ClusterError(f"push for past round {round_tag} at {self.address!r}")
        if round_tag != self._round:  # a round that never closed is dropped
            self._round, self._pending = round_tag, []
        self._pending.append(values)
        self._version += 1  # checkpointed with the call ID that pushed it
        return encoding.encode({"version": self._version})

    def _round_sums(
        self, round_tag: int, expected: int, keys: List[str]
    ) -> Dict[str, np.ndarray]:
        """The round's pushes summed over ``keys``, if each owner pushed once."""
        held = len(self._pending) if self._round == round_tag else 0
        if held != expected:
            raise ClusterError(
                f"round {round_tag} at {self.address!r} has {held}/{expected} pushes"
            )
        return {key: sum(values[key] for values in self._pending) for key in keys}

    def _handle_partial(self, payload: bytes, peer: Optional[str]) -> bytes:
        self._check_peer(peer, committee=True)
        body = encoding.decode(payload)
        return encode_array_dict(
            self._round_sums(body["round"], body["expected"], body["keys"])
        )

    def finish_round(
        self, round_tag: int, expected: int, partials: List[bytes], examples: int
    ) -> None:
        """Install this shard's pieces of the round's model (its own sums,
        or the ``partials`` of every member combined over ``examples``)
        and open the next round: a late push of this one is refused."""
        merged = self._round_sums(round_tag, expected, sorted(self._weights))
        if partials:
            with probe.span(self.node.clock, "secure_agg.combine", "federated"):
                merged = self.codec.combine(
                    [merged] + [decode_array_dict(p) for p in partials], examples
                )
        flops = 3 * sum(v.size for v in merged.values()) * (expected + len(partials))
        self.node.clock.advance(flops / self.node.cost_model.flops_per_second_full_tf)
        self._weights, self._pull_reply = merged, None
        self._round, self._pending = round_tag + 1, []
        self._version += 1
        self.updates_applied += 1
        self._maybe_checkpoint()

    def _maybe_checkpoint(self) -> None:
        """Snapshot state after a committed call that changed the weights."""
        if self._store is None or self._version == self._checkpointed_version:
            return
        snapshot = PSCheckpoint(
            weights={k: v.copy() for k, v in self._weights.items()},
            version=self._version,
            updates_applied=self.updates_applied,
            dedup=self._server.dedup.snapshot(),
            round=self._round,
            pending=list(self._pending),
        )
        # Persisting the snapshot is real file I/O: charge it through
        # the shared syscall plane (write + continuations + fsync-like
        # rename ordering live there), not as ad-hoc clock time.
        payload_bytes = (
            sum(int(w.nbytes) for w in snapshot.weights.values())
            + sum(int(v.nbytes) for values in self._pending for v in values.values())
            + 64 * max(1, len(snapshot.dedup))
        )
        self._syscalls.write_file(
            f"/checkpoints/{self.address}.ckpt", b"", declared_size=payload_bytes
        )
        self._store.save(
            self.store_key,
            snapshot,
            epoch=self.lease.epoch if self.lease is not None else None,
        )
        self._checkpointed_version = self._version

    def stop(self) -> None:
        self._server.stop()

    def crash(self) -> None:
        """Simulated container crash: vanish mid-run, no clean teardown."""
        self._server.abort()


@dataclass
class TrainingResult:
    """Outcome of a synchronous training run."""

    steps: int
    final_loss: float
    wall_clock: float
    per_worker_time: Dict[str, float]
    #: Scheduler events executed during this run (deliveries, replies,
    #: backoff timers, probes) — the event core's work metric.
    simulated_events: int = 0


class ShardedParameterService:
    """Weights partitioned across several parameter servers (Fig. 2).

    Distributed TensorFlow shards variables across PS tasks so no single
    server's memory or network link bottlenecks the model.  The
    partition is a deterministic :class:`~repro.cluster.sharding.ShardMap`
    (byte-balanced, oversized tensors row-split), so every worker and
    every restarted shard derives the identical assignment.  The service
    also coordinates the **cross-shard checkpoint commit barrier**: after
    each round it appends a version vector to the shared store, and a
    shard restarted by the orchestrator is verified against the latest
    committed vector before it serves.
    """

    def __init__(
        self,
        shards: List[ParameterServer],
        shard_map: Optional[ShardMap] = None,
        barrier_store: Optional[InMemoryCheckpointStore] = None,
    ) -> None:
        if not shards:
            raise ClusterError("sharded service needs at least one PS")
        self._shards = list(shards)
        self.shard_map = shard_map
        self.barrier_store = barrier_store

    @property
    def shards(self) -> List[ParameterServer]:
        return list(self._shards)

    @property
    def n_shards(self) -> int:
        return len(self._shards)

    def shard(self, index: int) -> ParameterServer:
        return self._shards[index]

    def replace_shard(self, index: int, ps: ParameterServer) -> None:
        """Swap in a restarted shard (same store key, new container)."""
        self._shards[index] = ps

    @property
    def active_shards(self) -> List[int]:
        """Shard indices that own weights (tail shards idle when the
        model has fewer pieces than shards)."""
        if self.shard_map is None:
            return list(range(len(self._shards)))
        return self.shard_map.active_shards

    def initialize(self, weights: Dict[str, np.ndarray]) -> None:
        if self.shard_map is None:
            self.shard_map = ShardMap.build(weights, len(self._shards))
        for index, partition in enumerate(self.shard_map.partition(weights)):
            if partition:
                self._shards[index].initialize(partition)

    @property
    def weights(self) -> Dict[str, np.ndarray]:
        if self.shard_map is None:
            raise ClusterError("service is not initialized")
        parts: Dict[str, np.ndarray] = {}
        for index in self.active_shards:
            parts.update(self._shards[index].weights)
        return self.shard_map.merge(parts)

    def commit_barrier(self) -> Optional[int]:
        """Commit the round's cross-shard version vector (if a shared
        durable store is attached and every shard has checkpointed)."""
        store = self.barrier_store
        if store is None or self.shard_map is None:
            return None
        vector: Dict[str, int] = {}
        epochs: Dict[str, Optional[int]] = {}
        for index in self.active_shards:
            ps = self._shards[index]
            if ps._checkpointed_version < 0:
                return None  # this round has no durable snapshot yet
            vector[ps.store_key] = ps._checkpointed_version
            epochs[ps.store_key] = ps.lease.epoch if ps.lease is not None else None
        seq = store.commit_vector(vector, epochs)
        coordinator = self._shards[self.active_shards[0]]
        coordinator.shard_stats.barrier_commits += 1
        return seq

    def verify_resume(self, index: int) -> None:
        """Check a restarted shard against the latest barrier vector: a
        restored snapshot *behind* the committed vector means durable
        state was lost — refuse to serve an inconsistent lineage."""
        store = self.barrier_store
        if store is None:
            return
        vector = store.latest_vector()
        if vector is None:
            return
        ps = self._shards[index]
        committed = vector.get(ps.store_key)
        if committed is not None and ps._checkpointed_version < committed:
            raise ClusterError(
                f"shard {ps.store_key!r} resumed at version "
                f"{ps._checkpointed_version} behind committed barrier "
                f"{committed}"
            )

    def stop(self) -> None:
        for shard in self._shards:
            shard.stop()


class SyncTrainer:
    """Synchronous data-parallel rounds against N ≥ 1 weight shards.

    Each round is pull, compute, push, barrier, and every PS interaction
    **fans out per shard**: the send halves of a worker's shard calls
    are issued back-to-back on its clock via ``begin_call`` (overlapped
    transfers riding the async syscall ring), then settled as heap
    events in shard order.  Pushes stay serialized *across workers* —
    worker *i*'s fan-out settles before worker *i+1* issues — so each
    shard applies updates in worker order and the final weights are
    byte-identical run to run, chaos or not.  An optional
    :class:`GradientQuantizer` compresses push payloads (and their
    declared wire sizes, which is what the shield crypto and syscall
    ring charge for).

    With ``retry`` set, every worker→shard session retries transport
    faults with backoff (and reconnects dead secure sessions); with
    ``recovery`` set (a duck-typed supervisor exposing ``tick``,
    ``worker_ok``, ``replace_worker``, ``shard_ok``, ``recover_shard``),
    crashed containers are replaced mid-run and the round continues.
    """

    #: Shard recoveries per call (each after one exhausted retry budget).
    MAX_RECOVERIES_PER_CALL = 3

    def __init__(
        self,
        network: Network,
        service: ShardedParameterService,
        workers: List[TrainingWorker],
        retry: Optional[RetryPolicy] = None,
        recovery: Optional[object] = None,
        codec: Union[GradientQuantizer, SecureAggregation, None] = None,
    ) -> None:
        if not workers:
            raise ClusterError("training needs at least one worker")
        self._network = network
        self._service = service
        self._workers = workers
        self._retry = retry
        self._recovery = recovery
        self._codec = codec
        self._secure = isinstance(codec, SecureAggregation)
        #: Rounds started; tags federated pushes, so a failed round's are dropped.
        self._round = 0
        # One client per (caller, shard address): secure record layers
        # are per-session streams, so concurrent fan-out to distinct
        # shards never reorders a single session's records.  A caller
        # is a worker, or a shard pulling its committee's partial sums.
        self._clients: Dict[tuple, RpcClient] = {}

    # -- clients ---------------------------------------------------------

    def _client(self, worker: TrainingWorker, ps: ParameterServer):
        """The caller's client for ``ps`` (an activity: a new shielded
        one handshakes).  A shielded caller talks only to a shard of its
        own CAS session; a server certified for another one (its chain
        verifies) is refused before a byte of the round is sent."""
        key = (worker.address, ps.address)
        if key in self._clients:
            return self._clients[key]
        if worker.shield is not None:
            client = SecureRpcClient(
                self._network,
                worker.address,
                worker.node,
                worker.shield,
                retry=self._retry,
            )
            subject = yield from client.open(ps.address, expected_server=None)
            scope = session_scope(worker.shield.identity.certificate.subject)
            if not (subject or "").startswith(scope):
                raise AttestationError(
                    f"{ps.address!r} presented {subject!r}, outside {scope!r}"
                )
        else:
            client = RpcClient(
                self._network, worker.address, worker.node, retry=self._retry
            )
        self._clients[key] = client
        return client

    def _drop_clients(self, worker: Optional[TrainingWorker] = None,
                      address: Optional[str] = None) -> None:
        for key in list(self._clients):
            if worker is not None and key[0] != worker.address:
                continue
            if address is not None and key[1] != address:
                continue
            del self._clients[key]

    # -- recovery hooks --------------------------------------------------

    def _ensure_alive(self, slot: int) -> Activity:
        worker = self._workers[slot]
        if self._recovery is None or self._recovery.worker_ok(worker):
            return worker
        replacement = yield from self._recovery.replace_worker(worker)
        self._drop_clients(worker=worker)
        self._workers[slot] = replacement
        return replacement

    def _recover_shard(self, index: int) -> Activity:
        """Replace a dead shard via the supervisor (fence-first) and
        drop every session to its old address."""
        old = self._service.shard(index)
        if not self._recovery.shard_ok(index):
            replacement = yield from self._recovery.recover_shard(index)
            if replacement is None:
                raise ClusterError(f"shard {index} could not be recovered")
            self._service.replace_shard(index, replacement)
            self._service.verify_resume(index)
            for client in self._clients.values():
                client.reset_breaker(replacement.address)
        self._drop_clients(address=old.address)

    def _issue(self, worker: TrainingWorker, request: tuple) -> Activity:
        index, method, payload, declared_request, declared_response = request
        ps = self._service.shard(index)
        client = yield from self._client(worker, ps)
        return (yield from client.begin_call(
            ps.address,
            method,
            payload,
            declared_request=declared_request,
            declared_response=declared_response,
        ))

    def _fanout(self, worker: TrainingWorker, requests: List[tuple]) -> Activity:
        """Issue every shard call's send half now, settle in shard order;
        the replies by shard.

        ``requests`` holds ``(shard_index, method, payload,
        declared_request, declared_response)``.  All send halves run at
        the worker's current clock (overlapped transfers); settling
        waits for each reply.  A call that fails to settle has spent its
        whole retry budget against that shard, so the shard is recovered
        (replaced if its container died, sessions rebuilt) and the call
        issued afresh.
        """
        pending = []
        for request in requests:
            pending.append((request, (yield from self._issue(worker, request))))
        results: Dict[int, bytes] = {}
        for request, settle in pending:
            index = request[0]
            for recoveries_left in range(self.MAX_RECOVERIES_PER_CALL, -1, -1):
                try:
                    results[index] = yield from settle
                    break
                except (RpcTransportError, StaleConnectionError, CircuitOpenError):
                    if self._recovery is None or not recoveries_left:
                        raise
                    yield from self._recover_shard(index)
                    settle = yield from self._issue(worker, request)
        return results

    # -- training --------------------------------------------------------

    def _declared_sizes(self, worker: TrainingWorker) -> Dict[int, tuple]:
        """Per-shard (pull, push) declared wire sizes: the shard's byte
        share scaled to the declared model, pushes shrunk by the
        quantizer's lattice width."""
        scale = worker.declared_model_bytes / max(
            1, sum(self._service.shard_map.shard_nbytes())
        )
        declared: Dict[int, tuple] = {}
        for index in self._service.active_shards:
            nbytes = self._service.shard_map.shard_nbytes()[index]
            pull = max(1, int(nbytes * scale))
            if not isinstance(self._codec, GradientQuantizer):
                push = pull
            else:
                push = self._codec.declared_bytes(
                    pull, len(self._service.shard_map.keys_on(index))
                )
            declared[index] = (pull, push)
        return declared

    def _encode_push(
        self, gradients: Dict[str, np.ndarray], declared_flops: int, clock
    ) -> bytes:
        if self._codec is None:
            return encoding.encode(
                {
                    "gradients": encode_array_dict(gradients),
                    "declared_flops": declared_flops,
                }
            )
        with probe.span(clock, "train.quantize", category="training"):
            quantized, scales = self._codec.quantize(gradients)
        return encoding.encode(
            {
                "gradients": encode_array_dict(quantized),
                "scales": scales,
                "encoding": f"q{self._codec.bits}",
                "declared_flops": declared_flops,
            }
        )

    def _push_requests(
        self, worker: TrainingWorker, update: Dict[str, np.ndarray], declared, examples
    ) -> List[tuple]:
        """One push per shard: a gradient's pieces (float32 or quantized),
        or a data owner's model weighted by its share of ``examples`` —
        under secure aggregation, one ring share of each piece per shard."""
        parts = self._service.shard_map.partition(update)
        if worker.examples is None:
            return [
                (k, "push", self._encode_push(
                    parts[k], 2 * declared[k][0] // 4, worker.node.clock
                ), declared[k][1], None)
                for k in self._service.active_shards
                if parts[k]
            ]
        if self._secure:
            rng = worker.node.rng.child(f"secure-agg|{worker.name}|{self._round}")
            with probe.span(worker.node.clock, "secure_agg.mask", category="federated"):
                parts = self._codec.split(parts, worker.examples, rng)
        else:
            weight = worker.examples / examples
            parts = [{key: v * weight for key, v in part.items()} for part in parts]
        # One uint64 ring share of every piece: twice the float32 model.
        shares = 2 * sum(pull for pull, _ in declared.values())
        return [
            (k, "push", encoding.encode(
                {"gradients": encode_array_dict(part), "round": self._round}
            ), shares if self._secure else declared[k][1], None)
            for k, part in enumerate(parts)
            if part
        ]

    def _end_round(self, clocks: List, owners: int, examples: int, declared) -> Activity:
        """Close a federated round (``owners`` pushed models of ``examples``;
        under secure aggregation each owning shard first pulls, as itself,
        the other members' sums of its pieces), then the two barriers."""
        service, partials = self._service, {}
        for k in service.active_shards if owners else ():
            request = encoding.encode(
                {"round": self._round, "expected": owners,
                 "keys": service.shard_map.keys_on(k)}
            )
            peers = [j for j in range(service.n_shards) if self._secure and j != k]
            sums = 2 * declared[k][0]  # uint64 sums of this owner's pieces
            partials[k] = yield from self._fanout(
                service.shard(k), [(j, "partial", request, None, sums) for j in peers]
            )
        for k, replies in partials.items():
            service.shard(k).finish_round(
                self._round, owners, list(replies.values()), examples
            )
        service.commit_barrier()
        self._network.barrier(clocks)

    def train(self, batches: List, steps: Optional[int] = None) -> TrainingResult:
        """Run rounds until batches (or ``steps``) run out.

        Batches are dealt round-robin to workers; each round processes
        ``len(workers)`` batches in parallel.  Synchronous: the rounds
        are one activity, driven from outside the simulation.
        """
        return self._network.scheduler.drive(self._rounds(batches, steps))

    def _rounds(self, batches: List, steps: Optional[int]) -> Activity:
        if self._service.shard_map is None:
            raise ClusterError("service must be initialized before training")
        total_steps = min(steps, len(batches)) if steps is not None else len(batches)
        shard_clocks = [s.node.clock for s in self._service.shards]
        clocks = [w.node.clock for w in self._workers] + shard_clocks
        start = max(clock.now for clock in clocks)
        events_before = self._network.scheduler.events_processed
        losses: List[float] = []

        declared = self._declared_sizes(self._workers[0])
        active = self._service.active_shards

        index = 0
        round_index = 0
        while index < total_steps:
            if self._recovery is not None:
                self._recovery.tick(round_index)
            round_workers = []
            for slot in range(len(self._workers)):
                if index >= total_steps:
                    break
                round_workers.append(((yield from self._ensure_alive(slot)), batches[index]))
                index += 1
            round_index += 1
            self._round += 1
            owners = [w for w, _ in round_workers if w.examples is not None]
            examples = sum(w.examples for w in owners)

            # Phase 1: each worker pulls every shard's slice — the send
            # halves are issued back-to-back (overlapped transfers), the
            # replies settle as heap events, and the slices merge into
            # the full model.
            for worker, _ in round_workers:
                with probe.span(
                    worker.node.clock,
                    "train.pull",
                    category="training",
                    attrs={"worker": worker.name, "round": round_index},
                ):
                    pulls = yield from self._fanout(
                        worker,
                        [
                            (k, "pull", b"", None, declared[k][0])
                            for k in active
                        ],
                    )
                    parts: Dict[str, np.ndarray] = {}
                    for k in active:
                        pulled = encoding.decode(pulls[k])
                        parts.update(decode_array_dict(pulled["weights"]))
                    worker.load_weights(self._service.shard_map.merge(parts))

            # Phase 2: each worker's step on its own clock (a gradient,
            # or a data owner's local training).
            round_updates = []
            for worker, batch in round_workers:
                with probe.span(
                    worker.node.clock,
                    "train.compute",
                    category="training",
                    attrs={"worker": worker.name, "round": round_index},
                ):
                    update, loss = worker.compute_update(batch)
                losses.append(loss)
                round_updates.append((worker, update))

            # Phase 3: pushes fan out per shard but stay serialized
            # across workers — each shard applies updates in worker
            # order, keeping float accumulation (and the final weights)
            # identical run to run regardless of fault timing.
            for worker, update in round_updates:
                requests = self._push_requests(worker, update, declared, examples)
                with probe.span(
                    worker.node.clock,
                    "train.push",
                    category="training",
                    attrs={"worker": worker.name, "round": round_index},
                ):
                    yield from self._fanout(worker, requests)

            shard_clocks = [s.node.clock for s in self._service.shards]
            clocks = [w.node.clock for w in self._workers] + shard_clocks
            yield from self._end_round(clocks, len(owners), examples, declared)

        wall = max(clock.now for clock in clocks) - start
        return TrainingResult(
            steps=total_steps,
            final_loss=float(np.mean(losses[-len(self._workers):]))
            if losses
            else float("nan"),
            wall_clock=wall,
            per_worker_time={w.name: w.node.clock.now for w in self._workers},
            simulated_events=self._network.scheduler.events_processed - events_before,
        )
