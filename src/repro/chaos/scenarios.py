"""Leader-handoff scenario families, replayed under fault schedules.

Each family drives one of the platform's leader-shaped protocols over
the real event-heap network with a schedule's faults injected, records
a :class:`~repro.chaos.history.History` of what clients observed and
what acceptors did, and checks the family's invariant set:

``cas-failover``
    A replicated CAS pair sharing one monotonic-counter service.  The
    schedule loses the primary *between sealing and acknowledging* a
    snapshot — the in-flight seal race.  Without fencing, the zombie's
    late counter bump either double-issues a counter value or orphans
    the new primary's acknowledged snapshots (rollback-detection
    ambiguity); with fencing, the shared counter's guard and the
    standby's replication guard reject the stale epoch.

``ps-restart`` and ``sharded-ps``
    One parameter-server rig with one shard or two, each checkpointing
    to a durable store shared with its replacement (same store key, new
    pod address).  A zombie shard-0 pod that a straggler worker still
    reaches overwrites the replacement's checkpoints, destroying
    acknowledged pushes — unless the store's epoch guard refuses the
    stale save.  Two shards add the cross-shard commit barrier, run by
    :class:`~repro.cluster.parameter_server.ShardedParameterService`;
    the superseded coordinator's service retries it after the heal.

``router-handoff``
    A serving front end dispatching stamped requests to replicas.  The
    superseded router retries an in-flight request after the handoff;
    without fencing the retry executes a second time on a replica the
    first execution never reached, breaking at-most-once.

Scenarios are **deterministic**: all randomness flows from the
schedule's identity-derived seed, so a schedule replays byte-identically
(the campaign asserts this for every schedule).
"""

from __future__ import annotations

from contextlib import suppress
from dataclasses import dataclass, field
from types import SimpleNamespace
from typing import Callable, Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro._sim.clock import SimClock
from repro._sim.rng import DeterministicRng
from repro._sim.scheduler import Scheduler
from repro.cas.failover import CAS_PRIMARY_ROLE, ReplicatedCasPair
from repro.cas.secrets_db import HardwareCounter
from repro.cas.service import CasService
from repro.chaos.history import History
from repro.chaos.invariants import check
from repro.chaos.schedule import STEPS_PER_FAMILY, FaultSchedule
from repro.cluster.epoch import EpochService
from repro.cluster.faults import FaultPlan, FaultSpec, TransientPartition
from repro.cluster.network import Network
from repro.cluster.node import Node, make_cluster
from repro.cluster.parameter_server import (
    InMemoryCheckpointStore,
    ParameterServer,
    ShardedParameterService,
)
from repro.cluster.retry import RetryPolicy
from repro.cluster.rpc import RpcClient, RpcServer
from repro.crypto import encoding
from repro.enclave.attestation import ProvisioningAuthority
from repro.enclave.cost_model import DEFAULT_COST_MODEL
from repro.errors import FencedError, FreshnessError, RpcError
from repro.tensor.arrays import encode_array_dict

PS_ROLE = "ps"
ROUTER_ROLE = "router"
#: Sharded-PS family: one leadership role per weight shard, plus a
#: coordinator role for the cross-shard commit barrier.
SHARD_ROLES = ("ps-shard-0", "ps-shard-1")
BARRIER_ROLE = "ps-barrier"

#: Simulated seconds a transient partition stays up.
PARTITION_WINDOW = 2.0

#: Delivery-duplication probability during a duplicate storm.
STORM_DUPLICATION = 0.35

#: Every client makes single attempts: a failed call is a recorded
#: give-up, never reissued, but the executor path stamps each call with
#: a dedup ID — without one, a storm-duplicated delivery would execute
#: twice and the at-most-once check would blame the network instead of
#: the zombie.
_ONCE = RetryPolicy(max_attempts=1, deadline=None)


@dataclass
class ScenarioRun:
    """One schedule executed once under one fencing setting."""

    schedule: FaultSchedule
    fencing: bool
    history: History
    violations: Tuple[str, ...]
    trace: bytes
    #: History length when the fault struck (ops before it precede it).
    injected_at: int
    #: Simulated time the fault struck (the latest leader clock then).
    struck_at: float


_PS_INVARIANTS = (
    "no-acked-write-loss",
    "at-most-once",
    "single-writer-per-epoch",
    "admitted-equals-terminal",
)

#: Invariants each family's history is checked against.
FAMILY_INVARIANTS: Dict[str, Tuple[str, ...]] = {
    "cas-failover": (
        "no-acked-write-loss",
        "at-most-once",
        "single-writer-per-epoch",
        "unique-counter-issue",
        "admitted-equals-terminal",
    ),
    "ps-restart": _PS_INVARIANTS,
    "router-handoff": (
        "at-most-once",
        "single-writer-per-epoch",
        "admitted-equals-terminal",
    ),
    "sharded-ps": _PS_INVARIANTS,
}


def _epoch(lease) -> Optional[int]:
    return lease.epoch if lease is not None else None


@dataclass
class _World:
    """What every family runs on: one event heap, nodes and network, the
    schedule's fault plan, the epoch authority (fencing on) and the
    history the run records."""

    schedule: FaultSchedule
    provisioning: ProvisioningAuthority
    nodes: List[Node]
    network: Network
    plan: FaultPlan
    epochs: Optional[EpochService]
    history: History = field(default_factory=History)
    #: When the fault struck: the latest leader clock, the history length.
    t0: float = 0.0
    injected_at: int = 0

    @classmethod
    def build(
        cls, schedule: FaultSchedule, fencing: bool, label: str,
        n_nodes: int, storm_targets: Tuple[str, ...],
    ) -> "_World":
        scheduler = Scheduler()
        provisioning = ProvisioningAuthority(
            DeterministicRng(schedule.seed, label=label).child("intel")
        )
        nodes = make_cluster(
            n_nodes, DEFAULT_COST_MODEL, provisioning, seed=schedule.seed,
            scheduler=scheduler,
        )
        network = Network(DEFAULT_COST_MODEL, scheduler=scheduler)
        spec = FaultSpec()
        if schedule.duplicate_storm:
            spec = FaultSpec(
                duplication=STORM_DUPLICATION, targets=frozenset(storm_targets)
            )
        plan = FaultPlan(schedule.seed, spec=spec)
        network.faults.append(plan.inject)
        epochs = EpochService() if fencing else None
        return cls(schedule, provisioning, nodes, network, plan, epochs)

    def inject(
        self, crash: Callable[[], None], *addresses: str,
        leaders: Optional[List[Node]] = None,
    ) -> None:
        """Lose the leader: ``crash()`` it, or partition ``addresses``
        for :data:`PARTITION_WINDOW` from the latest clock among
        ``leaders`` (default: every node)."""
        leaders = self.nodes if leaders is None else leaders
        self.t0 = max(node.clock.now for node in leaders)
        self.injected_at = len(self.history)
        if self.schedule.is_crash:
            crash()
            return
        for address in addresses:
            self.plan.partitions.append(
                TransientPartition(
                    address, self.t0, self.t0 + PARTITION_WINDOW,
                    direction=self.schedule.partition_direction,
                )
            )

    def heal(self, leaders: Optional[Iterable[Node]] = None) -> None:
        """Move past the partition window: the zombie is reachable again."""
        for node in self.nodes if leaders is None else leaders:
            node.clock.advance_to(self.t0 + PARTITION_WINDOW + 0.5)

    def settle(
        self, actor: str, key: str, clock: SimClock, ok: bool,
        fenced_by: str = "",
    ) -> None:
        """Record how a client op ended: ack + terminal, fenced (by the
        acceptor ``fenced_by``) + terminal, or a terminal give-up."""
        record, now = self.history.record, clock.now
        if fenced_by:
            record("fenced", fenced_by, key, time=now)
        elif ok:
            record("ack", actor, key, time=now)
        value = "" if ok else "fenced" if fenced_by else "gave-up"
        record("terminal", actor, key, value=value, time=now)

    def client_op(
        self, actor: str, key: str, clock: SimClock,
        call: Callable[[], object], acceptor: str = "",
    ) -> None:
        """Admit one client op, run ``call`` and settle it: a call that
        returns ``False`` or fails in transport gave up, a fenced one
        was fenced by ``acceptor``."""
        self.history.record("admit", actor, key, time=clock.now)
        fenced_by = ""
        try:
            ok = call() is not False
        except FencedError:
            ok, fenced_by = False, acceptor
        except RpcError:
            ok = False
        self.settle(actor, key, clock, ok, fenced_by)

    def finish(self) -> ScenarioRun:
        """Check the family's invariants and assemble the canonical trace."""
        history, epochs = self.history, self.epochs
        violations = tuple(
            check(history, FAMILY_INVARIANTS[self.schedule.family])
        )
        sections = [history.trace_bytes(), b"[faults]", self.plan.trace_bytes()]
        if epochs is not None:
            sections.extend([b"[epochs]", epochs.trace_bytes()])
        return ScenarioRun(
            schedule=self.schedule,
            fencing=epochs is not None,
            history=history,
            violations=violations,
            trace=b"\n".join(sections),
            injected_at=self.injected_at,
            struck_at=self.t0,
        )


# ----------------------------------------------------------------------
# CAS failover racing an in-flight seal
# ----------------------------------------------------------------------

def _run_cas_failover(schedule: FaultSchedule, fencing: bool) -> ScenarioRun:
    w = _World.build(schedule, fencing, "chaos-cas", 2, ("cas-backup",))
    history, nodes = w.history, w.nodes
    # The pair shares one monotonic-counter *service* (rollback
    # protection across failover requires both instances to bind
    # snapshots to the same counter) — which is exactly the shared
    # acceptor the in-flight seal race contends on.
    shared_counter = HardwareCounter()
    primary, backup = (
        CasService(node, w.provisioning.public_key(), counter=shared_counter)
        for node in nodes
    )
    pair = ReplicatedCasPair(w.network, primary, backup, epochs=w.epochs)
    pair.attach_probe(nodes[1])

    # Record standby-side applications (after the RPC dedup window, so
    # storm-duplicated deliveries that replay a cached ack don't count).
    repl_audit = pair._handle_repl_audit

    def recorded_repl_audit(payload: bytes, peer) -> bytes:
        out = repl_audit(payload, peer)
        path = encoding.decode(payload)["path"]
        history.record("execute", "cas-backup", f"repl/{path}",
                       time=nodes[1].clock.now)
        return out

    pair._backup_server.register("repl_audit", recorded_repl_audit)

    history.record("promote", "cas", CAS_PRIMARY_ROLE, time=nodes[0].clock.now)

    def actor(cas: CasService) -> str:
        return pair.address if cas is primary else pair.backup_address

    def commit(cas: CasService, key: str, claimed: Optional[int] = None) -> None:
        """``cas`` commits ``key`` as the primary; a seal also issues the
        counter value it ``claimed``."""
        now = cas.node.clock.now
        history.record("commit", actor(cas), key, time=now,
                       epoch=_epoch(cas.lease), role=CAS_PRIMARY_ROLE)
        if claimed is not None:
            history.record("issue", actor(cas), str(claimed), time=now,
                           role=CAS_PRIMARY_ROLE)

    def write(cas: CasService, key: str, race: Optional[Callable] = None) -> None:
        """One acked client write, sealed on the shared counter (the
        commit point): replicated on the audit channel by the primary, a
        local put on the promoted standby.  ``race`` runs between the
        seal's snapshot and its acknowledgement."""
        def apply() -> None:
            if cas is primary:
                cas.audit.commit("owner", key, 1, key.encode())
                commit(cas, f"repl/{key}")
            else:
                cas.db.put(key, key.encode())
            claimed = shared_counter.value + 1
            cas.db.snapshot()
            if race is not None:
                race()
            commit(cas, f"seal/{cas.db.acknowledge_persisted()}", claimed)

        w.client_op(actor(cas), key, cas.node.clock, apply)

    step = schedule.crash_step
    for i in range(step):
        write(primary, f"op{i}")

    # The in-flight write: the primary seals (claiming the next counter
    # value) and is lost before it can acknowledge — the seal race.
    inflight_key = f"op{step}"
    zombie_claimed = shared_counter.value + 1
    primary.db.put(inflight_key, inflight_key.encode())
    primary.db.snapshot()
    history.record("admit", "cas", inflight_key, time=nodes[0].clock.now)
    # A partition cuts both legs of the primary's node: its public
    # address and its replication client's.
    w.inject(pair.fail_primary, "cas", pair._repl_client.address)
    if not schedule.is_crash:
        # The zombie still tries to replicate the in-flight write.
        with suppress(RpcError):
            primary.audit.commit("owner", inflight_key, 1, inflight_key.encode())
    w.settle("cas", inflight_key, nodes[0].clock, False)

    # Control plane: the watchdog's RPC probe fails, promotion follows
    # (fence-first when an epoch authority is attached).
    if not pair.probe():
        pair.promote()
    history.record("promote", "cas-backup", CAS_PRIMARY_ROLE,
                   time=nodes[1].clock.now)

    def zombie_acknowledge() -> None:
        """The zombie completes its in-flight seal's counter bump."""
        try:
            version = shared_counter.increment(_epoch(primary.lease))
        except FencedError:
            history.record("fenced", "cas", f"seal/{zombie_claimed}",
                           time=nodes[0].clock.now)
            return
        commit(primary, f"seal/{version}", zombie_claimed)

    zombie_alive = not schedule.is_crash
    # Odd steps interleave the zombie's acknowledgement *between* the new
    # primary's first export and its acknowledgement — the tightest
    # double-issue race; even steps run it after the new primary's
    # writes — the lineage-orphaning race.
    interleave = zombie_alive and step % 2 == 1

    # The client reissues the in-flight op on the new primary.
    write(backup, inflight_key, race=zombie_acknowledge if interleave else None)
    for j in range(step + 1, STEPS_PER_FAMILY):
        write(backup, f"op{j}")
    # Keep the new primary's final acknowledged snapshot for recovery.
    last_blob = backup.db.snapshot()
    backup.db.acknowledge_persisted()

    if zombie_alive:
        if not interleave:
            zombie_acknowledge()
        # Heal the partition and let the zombie retry its replication.
        w.heal()
        try:
            primary.audit.commit("owner", "zombie-op", 1, b"zombie-op")
            commit(primary, "repl/zombie-op")
        except FencedError:
            history.record("fenced", "cas", "repl/zombie-op",
                           time=nodes[0].clock.now)
        except RpcError:
            pass

    # Final durability readout.  The replicated audit chain survives the
    # failover; the new primary's database must reload from its last
    # acknowledged snapshot — a zombie counter bump makes that snapshot
    # read as a rollback.
    now = max(node.clock.now for node in nodes)
    for record in backup.audit.log:
        history.record("durable", "readout", record.path, time=now)
    try:
        backup.db.load(last_blob)
        for key in backup.db.keys():
            history.record("durable", "readout", key, time=now)
    except FreshnessError:
        history.record("rollback-detected", "readout", "db", time=now)

    return w.finish()


# ----------------------------------------------------------------------
# Parameter-server restart, with one shard or two behind a barrier
# ----------------------------------------------------------------------

#: The two PS families, one rig: the RNG label; per shard its store key
#: (the lineage shared across pods), leadership role and weight; then
#: the pods — shard 0's original and its replacement, then one per
#: other shard.
_PS_RIGS = {
    "ps-restart": ("chaos-ps", (("ps", PS_ROLE, "w"),), ("ps-0", "ps-1")),
    "sharded-ps": (
        "chaos-sharded-ps",
        (("sps0", SHARD_ROLES[0], "w0"), ("sps1", SHARD_ROLES[1], "w1")),
        ("sps0-a", "sps0-b", "sps1"),
    ),
}


def _run_ps(schedule: FaultSchedule, fencing: bool) -> ScenarioRun:
    """Pushes go round-robin over the shards (digit ``i`` to shard
    ``i % n``).  With two shards, the coordinator riding shard 0's pod
    commits the barrier through its service after every pair.  The
    fault takes out shard 0's pod; the replacement shares its store key
    and resumes its checkpoint lineage."""
    label, shards, pods = _PS_RIGS[schedule.family]
    n = len(shards)
    w = _World.build(schedule, fencing, label, 2, pods)
    history, nodes, epochs = w.history, w.nodes, w.epochs

    store = InMemoryCheckpointStore()
    if epochs is not None:
        # Per-shard-key guards: each snapshot slot fences on its own
        # role's epoch, and the barrier checks every key's guard before
        # appending a vector (all-or-nothing).
        for key, role, _ in shards:
            store.guards[key] = epochs.make_guard(
                role, name=f"{key}-checkpoint-store"
            )

    def install(node: Node, address: str, shard: int) -> ParameterServer:
        key, role, _ = shards[shard]
        pushed: List[str] = []

        def save(store_key: str, snapshot, epoch=None) -> None:
            # The shared store's guard arbitrates; the view attributes
            # each save to its pod.  ``execute`` is recorded here, at the
            # commit point, not in the handler: a fenced save vetoes the
            # whole call — including its dedup entry — so a vetoed push
            # must not count as an execution either.
            pushes = list(pushed)
            pushed.clear()
            store.save(store_key, snapshot, epoch=epoch)
            history.record(
                "commit", address, f"ckpt/{store_key}/{snapshot.version}",
                time=node.clock.now, epoch=epoch, role=role,
            )
            for push_id in pushes:
                history.record("execute", address, f"push/{push_id}",
                               time=node.clock.now)

        ps = ParameterServer(
            node, address, w.network, learning_rate=1.0, store_key=key,
            checkpoint_store=SimpleNamespace(save=save, load=store.load),
        )
        handle_push = ps._handle_push

        def push(payload: bytes, peer) -> bytes:
            out = handle_push(payload, peer)
            pushed.append(str(encoding.decode(payload)["push_id"]))
            return out

        ps._server.register("push", push)
        return ps

    first = [install(nodes[0], pods[0], 0)]
    first += [install(nodes[1], pod, k) for k, pod in enumerate(pods[2:], 1)]
    if epochs is not None:
        for ps, (_, role, _) in zip(first, shards):
            ps.lease = epochs.grant(role, holder=ps.address)
    for ps, (_, role, _) in zip(first, shards):
        history.record("promote", ps.address, role, time=ps.node.clock.now)
    if n > 1:  # the barrier coordinator rides shard 0's pod
        history.record("promote", pods[0], BARRIER_ROLE, time=nodes[0].clock.now)
    # The coordinator's service; after the handoff it is the zombie's.
    zombie = ShardedParameterService(first, barrier_store=store)
    # One weight per shard: the service's map places w0 and w1 on
    # shards 0 and 1.
    zombie.initialize(
        {weight: np.zeros(1, dtype=np.float32) for _, _, weight in shards}
    )

    worker, straggler, control = (
        RpcClient(w.network, f"{name}@node-1", nodes[1], retry=_ONCE)
        for name in ("worker-0", "worker-1", "control")
    )

    def push(client: RpcClient, dst: str, push_id: str, digit: int,
             shard: int) -> None:
        """Each push's gradient encodes its identity in a distinct base-3
        digit (lr = 1.0), so the final durable weight decomposes exactly
        into the set of pushes its lineage applied — double-applies and
        lost acks are both visible in the digits."""
        grad = {shards[shard][2]: np.array([-(3.0 ** digit)], dtype=np.float32)}
        payload = encoding.encode(
            {"gradients": encode_array_dict(grad), "push_id": push_id}
        )
        w.client_op(
            "client", f"push/{push_id}", nodes[1].clock,
            lambda: client.call(dst, "push", payload), acceptor=dst,
        )

    def barrier(service: ShardedParameterService) -> None:
        """The coordinator's atomic cross-shard vector commit."""
        coordinator = service.shard(0)
        clock = coordinator.node.clock
        try:
            seq = service.commit_barrier()
        except FencedError:
            history.record("fenced", coordinator.address, "barrier",
                           time=clock.now)
            return
        history.record(
            "commit", coordinator.address, f"barrier/{seq}", time=clock.now,
            epoch=_epoch(coordinator.lease), role=BARRIER_ROLE,
        )

    def push_round(service: ShardedParameterService, i: int) -> None:
        push(worker, service.shard(i % n).address, str(i), i, i % n)
        if n > 1 and i % n == n - 1:
            barrier(service)

    step = schedule.crash_step
    for i in range(step):
        push_round(zombie, i)
    w.inject(first[0]._server.abort, pods[0])
    # The push in flight when the fault hits: lost (or executed with the
    # reply lost — either way unacked, and never reissued).
    push(worker, zombie.shard(step % n).address, str(step), step, step % n)

    # Control plane: the probe of shard 0 fails (the fault always takes
    # it down), so fence, then replace it at a NEW pod address sharing
    # the lost one's checkpoint lineage.
    with suppress(RpcError):
        control.call(pods[0], "pull", b"")
    role = shards[0][1]
    replacement = install(nodes[1], pods[1], 0)
    if epochs is not None:
        replacement.lease = epochs.grant(role, holder=pods[1])
    history.record("promote", pods[1], role, time=nodes[1].clock.now)
    if n > 1:
        history.record("promote", pods[1], BARRIER_ROLE, time=nodes[1].clock.now)
    live = ShardedParameterService(
        [replacement] + first[1:], zombie.shard_map, barrier_store=store
    )

    for j in range(step + 1, STEPS_PER_FAMILY):
        push_round(live, j)

    if not schedule.is_crash:
        # Heal; a straggler worker that never heard of the handoff still
        # pushes to the zombie pod, and the superseded coordinator
        # retries its barrier with the zombie's stale epoch.  Fenced: the
        # shared store's guards veto both (the checkpoint's rejection
        # rides on_committed and rolls the call out of the dedup
        # window).  Unfenced: the zombie overwrites the replacement's
        # lineage and appends a stale vector.
        w.heal()
        push(straggler, pods[0], "straggler", STEPS_PER_FAMILY, 0)
        if n > 1:
            barrier(zombie)

    # Final durability readout: recover each shard's lineage from the
    # shared store and decompose its weight into the digit set (shard k
    # owns digits congruent to k; the straggler digit rides shard 0).
    now = max(node.clock.now for node in nodes)
    for shard, (key, _, weight) in enumerate(shards):
        final = store.load(key)
        if final is None:
            continue
        total = int(round(float(final.weights[weight][0])))
        digits = [d for d in range(STEPS_PER_FAMILY) if d % n == shard]
        if shard == 0:
            digits.append(STEPS_PER_FAMILY)
        for digit in digits:
            push_id = "straggler" if digit == STEPS_PER_FAMILY else str(digit)
            if (total // 3 ** digit) % 3 == 1:
                history.record("durable", "readout", f"push/{push_id}",
                               time=now)

    return w.finish()


# ----------------------------------------------------------------------
# Serving-router handoff
# ----------------------------------------------------------------------

def _run_router_handoff(schedule: FaultSchedule, fencing: bool) -> ScenarioRun:
    replicas = ("replica-0", "replica-1")
    # One node per replica, then one per router.
    w = _World.build(schedule, fencing, "chaos-router", 4, replicas)
    history, nodes, epochs = w.history, w.nodes, w.epochs

    for address, node in zip(replicas, nodes):
        server = RpcServer(w.network, address, node)

        def infer(payload: bytes, peer, _addr=address, _clock=node.clock) -> bytes:
            # After the server's window and guard: a replayed duplicate
            # or a fenced dispatch never gets here.
            history.record("execute", _addr, payload.decode(), time=_clock.now)
            return payload

        server.register("infer", infer)
        if epochs is not None:
            server.add_guard(epochs.make_guard(ROUTER_ROLE, name=address))
        server.start()

    leaders = nodes[2:]
    router_a, router_b = (
        RpcClient(w.network, name, node, retry=_ONCE)
        for name, node in zip(("router-a", "router-b"), leaders)
    )
    clock_a, clock_b = (node.clock for node in leaders)
    if epochs is not None:
        router_a.fence = epochs.grant(ROUTER_ROLE, holder="router-a")
    history.record("promote", "router-a", ROUTER_ROLE, time=clock_a.now)

    def dispatch(router: RpcClient, clock: SimClock, replica: str,
                 request_id: str) -> bool:
        """One stamped router → replica call; True on a settled ok."""
        try:
            router.call(replica, "infer", request_id.encode())
        except FencedError:
            history.record("fenced", replica, request_id, time=clock.now)
            return False
        except RpcError:
            return False  # transport loss
        history.record(
            "commit", router.address, f"settle/{request_id}", time=clock.now,
            epoch=_epoch(router.fence), role=ROUTER_ROLE,
        )
        return True

    def request(router: RpcClient, clock: SimClock, i: int) -> None:
        rid = f"r{i}"
        w.client_op("client", rid, clock,
                    lambda: dispatch(router, clock, replicas[i % 2], rid))

    step = schedule.crash_step
    for i in range(step):
        request(router_a, clock_a, i)

    # The request in flight when the fault hits.  A crashed router dies
    # before dispatching it.  A partition's inbound leg lets the
    # dispatch reach the replica and loses the reply; both/outbound
    # drop the dispatch itself.  Either way the router sees a transport
    # failure and holds an unresolved claim on the request — the
    # zombie's retry below.
    rid = f"r{step}"
    target = replicas[step % 2]
    history.record("admit", "client", rid, time=clock_a.now)
    w.inject(lambda: None, "router-a", leaders=leaders)
    settled_by_a = not schedule.is_crash and dispatch(router_a, clock_a, target, rid)

    # Control plane: bump-before-promote, then the replacement router.
    if epochs is not None:
        router_b.fence = epochs.grant(ROUTER_ROLE, holder="router-b")
    history.record("promote", "router-b", ROUTER_ROLE, time=clock_b.now)

    # Unless the reply was lost (inbound), the client saw a typed
    # transport failure and reissues through the replacement (a fresh
    # attempt on the *other* replica).
    inbound = schedule.kind == "partition-inbound"
    reissued = not inbound and not settled_by_a and dispatch(
        router_b, clock_b, replicas[(step + 1) % 2], rid
    )
    w.settle("client", rid, clock_b, reissued)

    for j in range(step + 1, STEPS_PER_FAMILY):
        request(router_b, clock_b, j)

    if not schedule.is_crash:
        # Heal; the superseded router retries its unresolved in-flight
        # request — stamped with its stale epoch.  inbound retries the
        # *other* replica (it believes the first one failed); both and
        # outbound retry the original target (the dispatch never left).
        w.heal(leaders)
        retry_target = replicas[(step + 1) % 2] if inbound else target
        dispatch(router_a, clock_a, retry_target, rid)

    return w.finish()


# ----------------------------------------------------------------------

_FAMILY_RUNNERS: Dict[str, Callable[[FaultSchedule, bool], ScenarioRun]] = {
    "cas-failover": _run_cas_failover,
    "ps-restart": _run_ps,
    "router-handoff": _run_router_handoff,
    "sharded-ps": _run_ps,
}


def run_schedule(schedule: FaultSchedule, fencing: bool = True) -> ScenarioRun:
    """Execute one schedule under one fencing setting, deterministically."""
    return _FAMILY_RUNNERS[schedule.family](schedule, fencing)


__all__ = [
    "BARRIER_ROLE",
    "FAMILY_INVARIANTS",
    "PARTITION_WINDOW",
    "PS_ROLE",
    "ROUTER_ROLE",
    "SHARD_ROLES",
    "ScenarioRun",
    "run_schedule",
]
