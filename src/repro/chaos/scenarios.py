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

``ps-restart``
    A parameter server checkpointing to a durable store shared with
    its replacement (same ``store_key``, new pod address).  A zombie PS
    that a straggler worker still reaches overwrites the replacement's
    checkpoints, destroying acknowledged pushes — unless the store's
    epoch guard refuses the stale save.

``router-handoff``
    A serving front end dispatching stamped requests to replicas.  The
    superseded router retries an in-flight request after the handoff;
    without fencing the retry executes a second time on a replica the
    first execution never reached, breaking at-most-once.

``sharded-ps``
    Two weight shards sharing one durable checkpoint store, plus the
    cross-shard commit barrier (an atomic version vector spanning both
    shards' snapshot slots).  Shard 0 is lost mid-round; a straggler
    worker still pushes to the zombie shard *and* the superseded
    barrier coordinator retries its in-flight ``commit_vector`` after
    the heal.  Without fencing the zombie clobbers its replacement's
    checkpoint lineage and appends a stale barrier vector; with
    fencing the store's per-shard-key guards veto both.

Scenarios are **deterministic**: all randomness flows from the
schedule's identity-derived seed, so a schedule replays byte-identically
(the campaign asserts this for every schedule).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro._sim.clock import SimClock
from repro._sim.rng import DeterministicRng
from repro._sim.scheduler import Scheduler
from repro.cas.failover import CAS_PRIMARY_ROLE, ReplicatedCasPair
from repro.cas.secrets_db import HardwareCounter
from repro.cas.service import CasService
from repro.chaos.history import History
from repro.chaos.invariants import check
from repro.chaos.schedule import FaultSchedule
from repro.cluster.epoch import EpochService
from repro.cluster.faults import FaultPlan, FaultSpec, TransientPartition
from repro.cluster.network import Network
from repro.cluster.node import make_cluster
from repro.cluster.parameter_server import InMemoryCheckpointStore, ParameterServer
from repro.cluster.retry import RetryPolicy
from repro.cluster.rpc import RpcClient
from repro.crypto import encoding
from repro.enclave.attestation import ProvisioningAuthority
from repro.enclave.cost_model import DEFAULT_COST_MODEL
from repro.errors import (
    FencedError,
    FencingError,
    FreshnessError,
    RpcError,
)
from repro.serving import messages
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


@dataclass
class ScenarioRun:
    """One schedule executed once under one fencing setting."""

    schedule: FaultSchedule
    fencing: bool
    history: History
    violations: Tuple[str, ...]
    trace: bytes


#: Invariants each family's history is checked against.
FAMILY_INVARIANTS: Dict[str, Tuple[str, ...]] = {
    "cas-failover": (
        "no-acked-write-loss",
        "at-most-once",
        "single-writer-per-epoch",
        "unique-counter-issue",
        "admitted-equals-terminal",
    ),
    "ps-restart": (
        "no-acked-write-loss",
        "at-most-once",
        "single-writer-per-epoch",
        "admitted-equals-terminal",
    ),
    "router-handoff": (
        "at-most-once",
        "single-writer-per-epoch",
        "admitted-equals-terminal",
    ),
    "sharded-ps": (
        "no-acked-write-loss",
        "at-most-once",
        "single-writer-per-epoch",
        "admitted-equals-terminal",
    ),
}


def _storm_spec(schedule: FaultSchedule, targets: Tuple[str, ...]) -> FaultSpec:
    if not schedule.duplicate_storm:
        return FaultSpec()
    return FaultSpec(duplication=STORM_DUPLICATION, targets=frozenset(targets))


def _finish(
    schedule: FaultSchedule,
    fencing: bool,
    history: History,
    plan: FaultPlan,
    epochs: Optional[EpochService],
) -> ScenarioRun:
    """Check the family's invariants and assemble the canonical trace."""
    violations = tuple(check(history, FAMILY_INVARIANTS[schedule.family]))
    sections = [history.trace_bytes(), b"[faults]", plan.trace_bytes()]
    if epochs is not None:
        sections.extend([b"[epochs]", epochs.trace_bytes()])
    return ScenarioRun(
        schedule=schedule,
        fencing=fencing,
        history=history,
        violations=violations,
        trace=b"\n".join(sections),
    )


# ----------------------------------------------------------------------
# Family 1: CAS failover racing an in-flight seal
# ----------------------------------------------------------------------

def _run_cas_failover(schedule: FaultSchedule, fencing: bool) -> ScenarioRun:
    history = History()
    scheduler = Scheduler()
    rng = DeterministicRng(schedule.seed, label="chaos-cas")
    provisioning = ProvisioningAuthority(rng.child("intel"))
    nodes = make_cluster(
        2, DEFAULT_COST_MODEL, provisioning, seed=schedule.seed, scheduler=scheduler
    )
    network = Network(DEFAULT_COST_MODEL, scheduler=scheduler)
    # The pair shares one monotonic-counter *service* (rollback
    # protection across failover requires both instances to bind
    # snapshots to the same counter) — which is exactly the shared
    # acceptor the in-flight seal race contends on.
    shared_counter = HardwareCounter()
    primary = CasService(
        nodes[0], provisioning.public_key(), counter=shared_counter
    )
    backup = CasService(
        nodes[1], provisioning.public_key(), counter=shared_counter
    )
    epochs = EpochService() if fencing else None
    pair = ReplicatedCasPair(network, primary, backup, epochs=epochs)
    pair.attach_probe(nodes[1])
    repl_client_address = pair._repl_client.address

    plan = FaultPlan(
        schedule.seed, spec=_storm_spec(schedule, (pair.backup_address,))
    )
    network.faults.append(plan.inject)

    # Record standby-side applications (after the RPC dedup window, so
    # storm-duplicated deliveries that replay a cached ack don't count).
    orig_repl_audit = pair._handle_repl_audit

    def wrapped_repl_audit(payload: bytes, peer) -> bytes:
        out = orig_repl_audit(payload, peer)
        body = encoding.decode(payload)
        history.record(
            "execute",
            "cas-backup",
            f"repl/{body['path']}",
            time=nodes[1].clock.now,
        )
        return out

    pair._backup_server.register("repl_audit", wrapped_repl_audit)

    history.record("promote", "cas", CAS_PRIMARY_ROLE)

    def seal_commit(cas: CasService, actor: str) -> None:
        """Seal + acknowledge on the shared counter (the commit point)."""
        claimed = cas.counter.value + 1
        cas.db.export_sealed()
        version = cas.db.acknowledge_persisted()
        epoch = cas.lease.epoch if cas.lease is not None else None
        history.record(
            "commit",
            actor,
            f"seal/{version}",
            time=cas.node.clock.now,
            epoch=epoch,
            role=CAS_PRIMARY_ROLE,
        )
        history.record(
            "issue", actor, str(claimed), time=cas.node.clock.now,
            role=CAS_PRIMARY_ROLE,
        )

    def replicated_write(cas: CasService, actor: str, key: str) -> None:
        """One acked write on the replicated audit channel + a seal."""
        history.record("admit", actor, key, time=cas.node.clock.now)
        cas.audit.commit("owner", key, 1, key.encode())
        epoch = cas.lease.epoch if cas.lease is not None else None
        history.record(
            "commit", actor, f"repl/{key}", time=cas.node.clock.now,
            epoch=epoch, role=CAS_PRIMARY_ROLE,
        )
        seal_commit(cas, actor)
        history.record("ack", actor, key, time=cas.node.clock.now)
        history.record("terminal", actor, key, time=cas.node.clock.now)

    def local_write(cas: CasService, actor: str, key: str) -> None:
        """A single-instance write (post-failover: no standby left)."""
        history.record("admit", actor, key, time=cas.node.clock.now)
        cas.db.put(key, key.encode())
        seal_commit(cas, actor)
        history.record("ack", actor, key, time=cas.node.clock.now)
        history.record("terminal", actor, key, time=cas.node.clock.now)

    step = schedule.crash_step
    for i in range(step):
        replicated_write(primary, "cas", f"op{i}")

    # The in-flight write: the primary seals (claiming the next counter
    # value) and is lost before it can acknowledge — the seal race.
    inflight_key = f"op{step}"
    zombie_claimed = shared_counter.value + 1
    primary.db.put(inflight_key, inflight_key.encode())
    primary.db.export_sealed()
    history.record("admit", "cas", inflight_key, time=nodes[0].clock.now)

    t0 = max(nodes[0].clock.now, nodes[1].clock.now)
    if schedule.is_crash:
        pair.fail_primary()
    else:
        direction = schedule.partition_direction
        # Partition the primary: its public address and its replication
        # client's address are both legs of the same node.
        for address in ("cas", repl_client_address):
            plan.partitions.append(
                TransientPartition(
                    address, t0, t0 + PARTITION_WINDOW, direction=direction
                )
            )
        try:
            # The zombie still tries to replicate the in-flight write.
            primary.audit.commit(
                "owner", inflight_key, 1, inflight_key.encode()
            )
        except RpcError:
            pass
    history.record("terminal", "cas", inflight_key, value="gave-up")

    # Control plane: the watchdog's RPC probe fails, promotion follows
    # (fence-first when an epoch authority is attached).
    if not pair.probe():
        pair.promote()
    history.record("promote", "cas-backup", CAS_PRIMARY_ROLE)

    def zombie_acknowledge() -> None:
        """The zombie completes its in-flight seal's counter bump."""
        try:
            version = shared_counter.increment(
                primary.lease.epoch if primary.lease is not None else None
            )
        except FencedError:
            history.record(
                "fenced", "cas", f"seal/{zombie_claimed}",
                time=nodes[0].clock.now,
            )
            return
        history.record(
            "commit", "cas", f"seal/{version}", time=nodes[0].clock.now,
            epoch=primary.lease.epoch if primary.lease is not None else None,
            role=CAS_PRIMARY_ROLE,
        )
        history.record(
            "issue", "cas", str(zombie_claimed), time=nodes[0].clock.now,
            role=CAS_PRIMARY_ROLE,
        )

    zombie_alive = not schedule.is_crash
    # Odd steps interleave the zombie's acknowledgement *between* the new
    # primary's first export and its acknowledgement — the tightest
    # double-issue race; even steps run it after the new primary's
    # writes — the lineage-orphaning race.
    interleave = zombie_alive and step % 2 == 1

    first_post_key = f"op{step}"  # the client reissues the in-flight op
    history.record("admit", "cas-backup", first_post_key,
                   time=nodes[1].clock.now)
    backup.db.put(first_post_key, first_post_key.encode())
    backup_claimed = shared_counter.value + 1
    backup.db.export_sealed()
    if interleave:
        zombie_acknowledge()
    version = backup.db.acknowledge_persisted()
    history.record(
        "commit", "cas-backup", f"seal/{version}", time=nodes[1].clock.now,
        epoch=backup.lease.epoch if backup.lease is not None else None,
        role=CAS_PRIMARY_ROLE,
    )
    history.record("issue", "cas-backup", str(backup_claimed),
                   time=nodes[1].clock.now, role=CAS_PRIMARY_ROLE)
    history.record("ack", "cas-backup", first_post_key,
                   time=nodes[1].clock.now)
    history.record("terminal", "cas-backup", first_post_key,
                   time=nodes[1].clock.now)

    from repro.chaos.schedule import STEPS_PER_FAMILY

    last_blob = None
    for j in range(step + 1, STEPS_PER_FAMILY):
        local_write(backup, "cas-backup", f"op{j}")
    # Keep the new primary's final acknowledged snapshot for recovery.
    last_blob = backup.db.export_sealed()
    backup.db.acknowledge_persisted()

    if zombie_alive:
        if not interleave:
            zombie_acknowledge()
        # Heal the partition and let the zombie retry its replication.
        t_heal = t0 + PARTITION_WINDOW + 0.5
        for node in nodes:
            node.clock.advance_to(t_heal)
        try:
            primary.audit.commit(
                "owner", "zombie-op", 1, b"zombie-op"
            )
            history.record(
                "commit", "cas", "repl/zombie-op", time=nodes[0].clock.now,
                epoch=primary.lease.epoch if primary.lease is not None else None,
                role=CAS_PRIMARY_ROLE,
            )
        except FencedError:
            history.record("fenced", "cas", "repl/zombie-op",
                           time=nodes[0].clock.now)
        except RpcError:
            pass

    # Final durability readout.  The replicated audit chain survives the
    # failover; the new primary's database must reload from its last
    # acknowledged snapshot — a zombie counter bump makes that snapshot
    # read as a rollback.
    for record in backup.audit.log:
        history.record("durable", "readout", record.path)
    try:
        backup.db.load_sealed(last_blob)
        for key in backup.db.keys():
            history.record("durable", "readout", key)
    except FreshnessError:
        history.record("rollback-detected", "readout", "db")

    return _finish(schedule, fencing, history, plan, epochs)


# ----------------------------------------------------------------------
# Family 2: parameter-server restart with a shared checkpoint store
# ----------------------------------------------------------------------

class _RecordingStore:
    """Per-instance facade over the shared checkpoint store: attributes
    every durable save to the PS that made it (the shared store's guard
    still arbitrates — this wrapper only observes)."""

    def __init__(
        self, inner: InMemoryCheckpointStore, actor: str, history: History,
        clock: SimClock, role: str = PS_ROLE,
    ) -> None:
        self._inner = inner
        self._actor = actor
        self._history = history
        self._clock = clock
        self._role = role

    def save(self, address: str, snapshot, epoch=None) -> None:
        self._inner.save(address, snapshot, epoch=epoch)
        self._history.record(
            "commit", self._actor, f"ckpt/{address}/{snapshot.version}",
            time=self._clock.now, epoch=epoch, role=self._role,
        )

    def load(self, address: str):
        return self._inner.load(address)


def _push_payload(push_id: str, digit: int) -> bytes:
    """Each push's gradient encodes its identity in a distinct base-3
    digit (lr = 1.0), so the final durable weight decomposes exactly
    into the set of pushes its lineage applied — double-applies and
    lost acks are both visible in the digits."""
    grad = np.array([-(3.0 ** digit)], dtype=np.float32)
    return encoding.encode(
        {"gradients": encode_array_dict({"w": grad}), "push_id": push_id}
    )


def _run_ps_restart(schedule: FaultSchedule, fencing: bool) -> ScenarioRun:
    from repro.chaos.schedule import STEPS_PER_FAMILY

    history = History()
    scheduler = Scheduler()
    rng = DeterministicRng(schedule.seed, label="chaos-ps")
    provisioning = ProvisioningAuthority(rng.child("intel"))
    nodes = make_cluster(
        2, DEFAULT_COST_MODEL, provisioning, seed=schedule.seed, scheduler=scheduler
    )
    network = Network(DEFAULT_COST_MODEL, scheduler=scheduler)
    plan = FaultPlan(
        schedule.seed, spec=_storm_spec(schedule, ("ps-0", "ps-1"))
    )
    network.faults.append(plan.inject)

    store = InMemoryCheckpointStore()
    epochs = EpochService() if fencing else None
    if epochs is not None:
        store.guards["ps"] = epochs.make_guard(
            PS_ROLE, name="ps-checkpoint-store"
        )

    def install_ps(node, address: str) -> ParameterServer:
        ps = ParameterServer(
            node,
            address,
            network,
            learning_rate=1.0,
            checkpoint_store=_RecordingStore(store, address, history, node.clock),
            store_key="ps",  # logical service identity, shared across pods
        )
        orig_push = ps._handle_push
        orig_commit = ps._server.on_committed
        pending: List[str] = []

        def wrapped_push(payload: bytes, peer) -> bytes:
            body = encoding.decode(payload)
            out = orig_push(payload, peer)
            pending.append(str(body.get("push_id")))
            return out

        def committed() -> None:
            # ``execute`` is recorded at the *commit point* (after the
            # checkpoint guard), not in the handler: a fenced save vetoes
            # the whole call — including its dedup entry — so a vetoed
            # dispatch must not count as an execution either.
            try:
                orig_commit()
            except Exception:
                pending.clear()
                raise
            while pending:
                history.record(
                    "execute", address, f"push/{pending.pop(0)}",
                    time=node.clock.now,
                )

        ps._server.register("push", wrapped_push)
        ps._server.on_committed = committed
        return ps

    ps_a = install_ps(nodes[0], "ps-0")
    if epochs is not None:
        ps_a.lease = epochs.grant(PS_ROLE, holder="ps-0")
    history.record("promote", "ps-0", PS_ROLE)
    ps_a.initialize({"w": np.zeros(1, dtype=np.float32)})

    # Single-attempt policies: no retries (a failed push is a recorded
    # give-up, never reissued), but the executor path stamps every call
    # with a dedup ID — without one, a storm-duplicated delivery would
    # re-execute the push and the at-most-once check would blame the
    # network instead of the zombie.
    once = RetryPolicy(max_attempts=1, deadline=None)
    worker = RpcClient(network, "worker-0@node-1", nodes[1], retry=once)
    straggler = RpcClient(network, "worker-1@node-1", nodes[1], retry=once)
    control = RpcClient(network, "control@node-1", nodes[1], retry=once)

    def push(client: RpcClient, dst: str, push_id: str, digit: int) -> bool:
        history.record("admit", "client", f"push/{push_id}",
                       time=nodes[1].clock.now)
        try:
            client.call(dst, "push", _push_payload(push_id, digit))
        except FencedError:
            history.record("fenced", dst, f"push/{push_id}",
                           time=nodes[1].clock.now)
            history.record("terminal", "client", f"push/{push_id}",
                           value="fenced", time=nodes[1].clock.now)
            return False
        except RpcError:
            history.record("terminal", "client", f"push/{push_id}",
                           value="gave-up", time=nodes[1].clock.now)
            return False
        history.record("ack", "client", f"push/{push_id}",
                       time=nodes[1].clock.now)
        history.record("terminal", "client", f"push/{push_id}",
                       time=nodes[1].clock.now)
        return True

    step = schedule.crash_step
    for i in range(step):
        push(worker, "ps-0", str(i), i)

    t0 = max(nodes[0].clock.now, nodes[1].clock.now)
    if schedule.is_crash:
        ps_a._server.abort()
    else:
        plan.partitions.append(
            TransientPartition(
                "ps-0", t0, t0 + PARTITION_WINDOW,
                direction=schedule.partition_direction,
            )
        )
    # The push in flight when the fault hits: lost (or executed with the
    # reply lost — either way unacked, and never reissued).
    push(worker, "ps-0", str(step), step)

    # Control plane: probe the PS; on failure, fence then replace at a
    # NEW pod address sharing the crashed one's checkpoint lineage.
    try:
        control.call("ps-0", "pull", b"")
        probe_ok = True
    except RpcError:
        probe_ok = False
    if not probe_ok:
        lease_b = (
            epochs.grant(PS_ROLE, holder="ps-1") if epochs is not None else None
        )
        ps_b = install_ps(nodes[1], "ps-1")
        ps_b.lease = lease_b
        history.record("promote", "ps-1", PS_ROLE)

    for j in range(step + 1, STEPS_PER_FAMILY):
        push(worker, "ps-1", str(j), j)

    if not schedule.is_crash:
        # Heal; a straggler worker that never heard of the handoff still
        # pushes to the zombie.  Fenced: the shared store's guard vetoes
        # the zombie's checkpoint (the rejection rides on_committed and
        # rolls the call out of the dedup window).  Unfenced: the zombie
        # overwrites the replacement's lineage.
        t_heal = t0 + PARTITION_WINDOW + 0.5
        for node in nodes:
            node.clock.advance_to(t_heal)
        push(straggler, "ps-0", "straggler", STEPS_PER_FAMILY)

    # Final durability readout: recover from the shared store and
    # decompose the weight into the set of pushes the winning lineage
    # actually contains.
    final = store.load("ps")
    if final is not None:
        total = int(round(float(final.weights["w"][0])))
        for digit in range(STEPS_PER_FAMILY + 1):
            push_id = "straggler" if digit == STEPS_PER_FAMILY else str(digit)
            if (total // 3 ** digit) % 3 == 1:
                history.record("durable", "readout", f"push/{push_id}")

    return _finish(schedule, fencing, history, plan, epochs)


# ----------------------------------------------------------------------
# Family 3: serving-router handoff
# ----------------------------------------------------------------------

def _run_router_handoff(schedule: FaultSchedule, fencing: bool) -> ScenarioRun:
    from repro.chaos.schedule import STEPS_PER_FAMILY

    history = History()
    scheduler = Scheduler()
    network = Network(DEFAULT_COST_MODEL, scheduler=scheduler)
    epochs = EpochService() if fencing else None
    plan = FaultPlan(
        schedule.seed,
        spec=_storm_spec(schedule, ("replica-0", "replica-1")),
    )
    network.faults.append(plan.inject)

    replicas = ("replica-0", "replica-1")
    for address in replicas:
        clock = SimClock()
        scheduler.register_clock(clock)
        guard = (
            epochs.make_guard(ROUTER_ROLE, name=address)
            if epochs is not None
            else None
        )
        dedup: Dict[str, bytes] = {}

        def handler(raw: bytes, *, _addr=address, _clock=clock, _guard=guard,
                    _dedup=dedup) -> bytes:
            msg = messages.decode_request(raw)
            request_id = msg["id"]
            hit = _dedup.get(request_id)
            if hit is not None:
                return hit  # duplicate delivery: replay, don't re-run
            fence = msg.get("fence")
            epoch = fence.get("epoch") if isinstance(fence, dict) else None
            if _guard is not None:
                try:
                    _guard.check(epoch if isinstance(epoch, int) else None)
                except FencedError:
                    history.record("fenced", _addr, request_id,
                                   time=_clock.now)
                    raise
            history.record("execute", _addr, request_id, time=_clock.now,
                           epoch=epoch if isinstance(epoch, int) else None)
            reply = messages.encode_ok(request_id, msg["payload"], _addr)
            _dedup[request_id] = reply
            return reply

        network.register(address, clock, handler)

    clock_a = SimClock()
    clock_b = SimClock()
    scheduler.register_clock(clock_a)
    scheduler.register_clock(clock_b)
    lease_a = (
        epochs.grant(ROUTER_ROLE, holder="router-a")
        if epochs is not None
        else None
    )
    history.record("promote", "router-a", ROUTER_ROLE)

    def dispatch(router: str, clock: SimClock, lease, replica: str,
                 request_id: str) -> bool:
        """One stamped router → replica attempt; True on a settled ok."""
        request = messages.encode_request(
            request_id, b"payload",
            fence=lease.stamp() if lease is not None else None,
        )
        try:
            raw = network.call(router, clock, replica, request)
        except (RpcError, FencingError):
            return False  # transport loss or a fenced rejection
        messages.decode_reply(raw)
        history.record(
            "commit", router, f"settle/{request_id}", time=clock.now,
            epoch=lease.epoch if lease is not None else None,
            role=ROUTER_ROLE,
        )
        return True

    step = schedule.crash_step
    for i in range(step):
        rid = f"r{i}"
        history.record("admit", "client", rid, time=clock_a.now)
        ok = dispatch("router-a", clock_a, lease_a, replicas[i % 2], rid)
        history.record("ack" if ok else "terminal", "client", rid,
                       value="" if ok else "gave-up", time=clock_a.now)
        if ok:
            history.record("terminal", "client", rid, time=clock_a.now)

    # The request in flight when the fault hits.
    rid = f"r{step}"
    target = replicas[step % 2]
    history.record("admit", "client", rid, time=clock_a.now)
    t0 = max(clock_a.now, clock_b.now)
    settled_by_a = False
    if schedule.is_crash:
        pass  # the router dies before dispatching the request
    else:
        plan.partitions.append(
            TransientPartition(
                "router-a", t0, t0 + PARTITION_WINDOW,
                direction=schedule.partition_direction,
            )
        )
        # inbound: the dispatch reaches the replica, the reply vanishes;
        # both/outbound: the dispatch itself is dropped.  Either way the
        # router sees a transport failure and holds an unresolved claim
        # on the request — the zombie's retry below.
        settled_by_a = dispatch("router-a", clock_a, lease_a, target, rid)

    # Control plane: bump-before-promote, then the replacement router.
    lease_b = (
        epochs.grant(ROUTER_ROLE, holder="router-b")
        if epochs is not None
        else None
    )
    history.record("promote", "router-b", ROUTER_ROLE)

    inbound = schedule.kind == "partition-inbound"
    reissued = False
    if not inbound and not settled_by_a:
        # The client saw a typed transport failure and reissues through
        # the replacement (a fresh attempt on the *other* replica).
        reissued = dispatch(
            "router-b", clock_b, lease_b, replicas[(step + 1) % 2], rid
        )
    if reissued:
        history.record("ack", "client", rid, time=clock_b.now)
        history.record("terminal", "client", rid, time=clock_b.now)
    else:
        history.record("terminal", "client", rid, value="gave-up",
                       time=clock_b.now)

    for j in range(step + 1, STEPS_PER_FAMILY):
        rid_j = f"r{j}"
        history.record("admit", "client", rid_j, time=clock_b.now)
        ok = dispatch("router-b", clock_b, lease_b, replicas[j % 2], rid_j)
        history.record("ack" if ok else "terminal", "client", rid_j,
                       value="" if ok else "gave-up", time=clock_b.now)
        if ok:
            history.record("terminal", "client", rid_j, time=clock_b.now)

    if not schedule.is_crash:
        # Heal; the superseded router retries its unresolved in-flight
        # request — stamped with its stale epoch.  inbound retries the
        # *other* replica (it believes the first one failed); both and
        # outbound retry the original target (the dispatch never left).
        t_heal = t0 + PARTITION_WINDOW + 0.5
        for clock in (clock_a, clock_b):
            clock.advance_to(t_heal)
        retry_target = replicas[(step + 1) % 2] if inbound else target
        dispatch("router-a", clock_a, lease_a, retry_target, rid)

    return _finish(schedule, fencing, history, plan, epochs)


# ----------------------------------------------------------------------
# Family 4: sharded PS — shard restart racing the cross-shard barrier
# ----------------------------------------------------------------------

def _run_sharded_ps(schedule: FaultSchedule, fencing: bool) -> ScenarioRun:
    """Two weight shards, one checkpoint store, one commit barrier.

    Pushes alternate shards (digit ``i`` lands on shard ``i % 2``); the
    barrier coordinator (riding shard 0's container) commits a version
    vector after every completed pair.  The schedule's fault takes out
    shard 0 mid-sequence; the replacement pod shares the crashed one's
    store key and resumes its checkpoint lineage.  After the heal, two
    zombies act: a straggler worker pushes to the old shard-0 pod, and
    the superseded coordinator retries its in-flight barrier commit.
    """
    from repro.chaos.schedule import STEPS_PER_FAMILY

    history = History()
    scheduler = Scheduler()
    rng = DeterministicRng(schedule.seed, label="chaos-sharded-ps")
    provisioning = ProvisioningAuthority(rng.child("intel"))
    nodes = make_cluster(
        2, DEFAULT_COST_MODEL, provisioning, seed=schedule.seed, scheduler=scheduler
    )
    network = Network(DEFAULT_COST_MODEL, scheduler=scheduler)
    plan = FaultPlan(
        schedule.seed, spec=_storm_spec(schedule, ("sps0-a", "sps0-b", "sps1"))
    )
    network.faults.append(plan.inject)

    store = InMemoryCheckpointStore()
    epochs = EpochService() if fencing else None
    if epochs is not None:
        # Per-shard-key guards: each shard's snapshot slot fences on its
        # own role's epoch, and the barrier checks every key's guard
        # before appending a vector (all-or-nothing).
        for k in (0, 1):
            store.guards[f"sps{k}"] = epochs.make_guard(
                SHARD_ROLES[k], name=f"sps{k}-checkpoint-store"
            )

    def install_shard(node, address: str, shard: int) -> ParameterServer:
        ps = ParameterServer(
            node,
            address,
            network,
            learning_rate=1.0,
            checkpoint_store=_RecordingStore(
                store, address, history, node.clock, role=SHARD_ROLES[shard]
            ),
            store_key=f"sps{shard}",  # lineage shared across pods
        )
        orig_push = ps._handle_push
        orig_commit = ps._server.on_committed
        pending: List[str] = []

        def wrapped_push(payload: bytes, peer) -> bytes:
            body = encoding.decode(payload)
            out = orig_push(payload, peer)
            pending.append(str(body.get("push_id")))
            return out

        def committed() -> None:
            # As in ps-restart: ``execute`` is recorded at the commit
            # point, so a fenced checkpoint vetoes the dispatch's
            # execution record along with its dedup entry.
            try:
                orig_commit()
            except Exception:
                pending.clear()
                raise
            while pending:
                history.record(
                    "execute", address, f"push/{pending.pop(0)}",
                    time=node.clock.now,
                )

        ps._server.register("push", wrapped_push)
        ps._server.on_committed = committed
        return ps

    ps0 = install_shard(nodes[0], "sps0-a", 0)
    ps1 = install_shard(nodes[1], "sps1", 1)
    if epochs is not None:
        ps0.lease = epochs.grant(SHARD_ROLES[0], holder="sps0-a")
        ps1.lease = epochs.grant(SHARD_ROLES[1], holder="sps1")
    history.record("promote", "sps0-a", SHARD_ROLES[0])
    history.record("promote", "sps1", SHARD_ROLES[1])
    history.record("promote", "sps0-a", BARRIER_ROLE)
    ps0.initialize({"w": np.zeros(1, dtype=np.float32)})
    ps1.initialize({"w": np.zeros(1, dtype=np.float32)})

    def commit_barrier(actor: str, shard0: ParameterServer, clock: SimClock) -> None:
        """The coordinator's atomic cross-shard vector commit."""
        vector = {"sps0": shard0.version, "sps1": ps1.version}
        stamps = {
            "sps0": shard0.lease.epoch if shard0.lease is not None else None,
            "sps1": ps1.lease.epoch if ps1.lease is not None else None,
        }
        try:
            seq = store.commit_vector(vector, epochs=stamps)
        except FencedError:
            history.record("fenced", actor, "barrier", time=clock.now)
            return
        history.record(
            "commit", actor, f"barrier/{seq}", time=clock.now,
            epoch=stamps["sps0"], role=BARRIER_ROLE,
        )

    once = RetryPolicy(max_attempts=1, deadline=None)
    worker = RpcClient(network, "worker-0@node-1", nodes[1], retry=once)
    straggler = RpcClient(network, "worker-1@node-1", nodes[1], retry=once)
    control = RpcClient(network, "control@node-1", nodes[1], retry=once)

    shard_addr = ["sps0-a", "sps1"]

    def push(client: RpcClient, dst: str, push_id: str, digit: int) -> bool:
        history.record("admit", "client", f"push/{push_id}",
                       time=nodes[1].clock.now)
        try:
            client.call(dst, "push", _push_payload(push_id, digit))
        except FencedError:
            history.record("fenced", dst, f"push/{push_id}",
                           time=nodes[1].clock.now)
            history.record("terminal", "client", f"push/{push_id}",
                           value="fenced", time=nodes[1].clock.now)
            return False
        except RpcError:
            history.record("terminal", "client", f"push/{push_id}",
                           value="gave-up", time=nodes[1].clock.now)
            return False
        history.record("ack", "client", f"push/{push_id}",
                       time=nodes[1].clock.now)
        history.record("terminal", "client", f"push/{push_id}",
                       time=nodes[1].clock.now)
        return True

    step = schedule.crash_step
    for i in range(step):
        push(worker, shard_addr[i % 2], str(i), i)
        if i % 2 == 1:
            commit_barrier("sps0-a", ps0, nodes[0].clock)

    t0 = max(nodes[0].clock.now, nodes[1].clock.now)
    if schedule.is_crash:
        ps0._server.abort()
    else:
        plan.partitions.append(
            TransientPartition(
                "sps0-a", t0, t0 + PARTITION_WINDOW,
                direction=schedule.partition_direction,
            )
        )
    # The push in flight when the fault hits (it targets whichever shard
    # the alternation says — shard 1 stays healthy throughout).
    push(worker, shard_addr[step % 2], str(step), step)

    # Control plane: probe shard 0; on failure, fence-first replacement
    # at a new pod address sharing the store key.
    try:
        control.call("sps0-a", "pull", b"")
        probe_ok = True
    except RpcError:
        probe_ok = False
    if not probe_ok:
        lease_b = (
            epochs.grant(SHARD_ROLES[0], holder="sps0-b")
            if epochs is not None
            else None
        )
        ps0_b = install_shard(nodes[1], "sps0-b", 0)
        ps0_b.lease = lease_b
        history.record("promote", "sps0-b", SHARD_ROLES[0])
        history.record("promote", "sps0-b", BARRIER_ROLE)
        shard_addr[0] = "sps0-b"
        live_shard0 = ps0_b
        coordinator = ("sps0-b", ps0_b, nodes[1].clock)
    else:  # pragma: no cover - the fault always takes the probe down
        live_shard0 = ps0
        coordinator = ("sps0-a", ps0, nodes[0].clock)

    for j in range(step + 1, STEPS_PER_FAMILY):
        push(worker, shard_addr[j % 2], str(j), j)
        if j % 2 == 1:
            commit_barrier(*coordinator)

    if not schedule.is_crash:
        # Heal, then both zombies fire: the straggler worker pushes to
        # the superseded shard-0 pod (its checkpoint save contends on
        # the shared store key), and the superseded coordinator retries
        # its in-flight barrier vector with its stale epoch stamps.
        t_heal = t0 + PARTITION_WINDOW + 0.5
        for node in nodes:
            node.clock.advance_to(t_heal)
        push(straggler, "sps0-a", "straggler", STEPS_PER_FAMILY)
        commit_barrier("sps0-a", ps0, nodes[0].clock)

    # Final durability readout: recover each shard's lineage from the
    # shared store and decompose its weight into the digit set (shard k
    # owns digits congruent to k; the straggler digit rides shard 0).
    for shard, key in enumerate(("sps0", "sps1")):
        final = store.load(key)
        if final is None:
            continue
        total = int(round(float(final.weights["w"][0])))
        digits = [d for d in range(STEPS_PER_FAMILY) if d % 2 == shard]
        if shard == 0:
            digits.append(STEPS_PER_FAMILY)
        for digit in digits:
            push_id = (
                "straggler" if digit == STEPS_PER_FAMILY else str(digit)
            )
            if (total // 3 ** digit) % 3 == 1:
                history.record("durable", "readout", f"push/{push_id}")

    return _finish(schedule, fencing, history, plan, epochs)


# ----------------------------------------------------------------------

_FAMILY_RUNNERS: Dict[str, Callable[[FaultSchedule, bool], ScenarioRun]] = {
    "cas-failover": _run_cas_failover,
    "ps-restart": _run_ps_restart,
    "router-handoff": _run_router_handoff,
    "sharded-ps": _run_sharded_ps,
}


def run_schedule(schedule: FaultSchedule, fencing: bool = True) -> ScenarioRun:
    """Execute one schedule under one fencing setting, deterministically."""
    try:
        runner = _FAMILY_RUNNERS[schedule.family]
    except KeyError:
        raise ValueError(f"unknown scenario family {schedule.family!r}")
    return runner(schedule, fencing)


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
