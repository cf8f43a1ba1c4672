"""Platform monitoring: a TEEMon-style metrics snapshot.

The paper's group ships a continuous TEE performance monitor (TEEMon,
Middleware'20, cited as [51]); production secureTF deployments run it
alongside.  This module provides the equivalent introspection surface
for the simulated platform: one call collects the security- and
performance-relevant counters from every layer into a flat, printable
report — EPC pressure per node, shield traffic, attestation volume,
network totals, audit-log health.

A counter is declared once, on the ``*Stats`` dataclass its layer
increments (:mod:`repro.runtime.stats_registry`); the snapshot groups,
their published names, the fold across sources and ``diff`` are derived
from those fields, and a group published whole from one class *is* that
class (``syscalls``, ``monitoring``).  Only ``format()`` is hand-written.
"""

from __future__ import annotations

import dataclasses
import typing
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.cas.failover import CasPairStats
from repro.cluster.epoch import FencingStats
from repro.cluster.retry import RecoveryStats
from repro.cluster.sharding import ShardTrainingStats
from repro.core.platform import SecureTFPlatform
from repro.crypto.aead import aead_cache_stats
from repro.runtime import stats_registry
from repro.runtime.fs_shield import FsShieldStats
from repro.runtime.net_shield import NetShieldStats
from repro.runtime.stats_registry import MonitoringStats, gauge, kind_of, peak
from repro.runtime.syscall import SyscallStats

#: Published names that are not ``prefix + field``: the cipher split is
#: one dict shared by both shields, and the epoch service's two tallies
#: say whose grants and bumps they are.
_IRREGULAR = {
    (FsShieldStats, "bytes_by_cipher"): "bytes_by_cipher",
    (NetShieldStats, "bytes_by_cipher"): "bytes_by_cipher",
    (FencingStats, "grants"): "epoch_grants",
    (FencingStats, "bumps"): "epoch_bumps",
}

#: (field on the source class, published name, the source's field).
Names = List[Tuple[str, str, dataclasses.Field]]


def published(source: type, prefix: str = "") -> Names:
    """What a ``*Stats`` class publishes: its ``int`` / ``float`` /
    ``Dict[str, int]`` fields, as ``prefix + field`` unless irregular."""
    hints = typing.get_type_hints(source)
    return [
        (f.name, _IRREGULAR.get((source, f.name), prefix + f.name), f)
        for f in dataclasses.fields(source)
        if hints[f.name] in (int, float, Dict[str, int])
    ]


def derive_group(name: str, doc: str, names: Names, extras: Dict[str, type]) -> type:
    """The snapshot dataclass holding ``names`` (one two sources share
    appears once) plus ``extras``, which no stats object carries."""
    fields = {
        target: (
            target,
            f.type,
            field(default=f.default, default_factory=f.default_factory, metadata=f.metadata),
        )
        for _, target, f in names
    }
    for extra, zero in extras.items():  # int → 0, dict → {}
        fields[extra] = (extra, zero, field(default_factory=zero))
    return dataclasses.make_dataclass(
        name, fields.values(), namespace={"__doc__": doc, "__module__": __name__}
    )


def fold(group, stats, names: Names) -> None:
    """Combine one source's values into ``group``: counters and gauges
    sum, peaks take the max, dicts merge additively per key."""
    for source, target, f in names:
        value, current = getattr(stats, source), getattr(group, target)
        if isinstance(value, dict):
            for key, n in value.items():
                current[key] = current.get(key, 0) + n
        elif kind_of(f) == stats_registry.PEAK:
            setattr(group, target, max(current, value))
        else:
            setattr(group, target, current + value)


def _diff_dataclass(later, earlier):
    """Field-wise interval delta between two metrics dataclasses.

    Cumulative counters subtract; gauges, high-water marks, booleans,
    and strings keep the later snapshot's value; dicts subtract per key
    (the later snapshot's keys in its order, then the keys only the
    earlier one has); nested dataclasses recurse.
    """
    if type(later) is not type(earlier):
        raise TypeError(
            f"cannot diff {type(later).__name__} against {type(earlier).__name__}"
        )
    changes = {}
    for f in dataclasses.fields(later):
        a = getattr(later, f.name)
        b = getattr(earlier, f.name)
        if dataclasses.is_dataclass(a):
            changes[f.name] = _diff_dataclass(a, b)
        elif isinstance(a, dict):
            changes[f.name] = {
                key: a.get(key, 0) - b.get(key, 0)
                for key in (*a, *(key for key in b if key not in a))
            }
        elif isinstance(a, (int, float)) and not isinstance(a, bool):
            changes[f.name] = a - b if kind_of(f) == stats_registry.COUNTER else a
        else:
            changes[f.name] = a
    return dataclasses.replace(later, **changes)


_FS = published(FsShieldStats, "fs_")
_NET = published(NetShieldStats, "net_")
_RECOVERY = published(RecoveryStats)
_FENCING = published(FencingStats)
_CAS_PAIR = published(CasPairStats, "cas_")
_TRAINING = published(ShardTrainingStats)

ShieldMetrics = derive_group(
    "ShieldMetrics",
    "Data-plane counters aggregated over every shield on the platform, "
    "and the process-wide AEAD object cache.",
    _FS + _NET,
    {"aead_cache_hits": int, "aead_cache_misses": int},
)
RecoveryMetrics = derive_group(
    "RecoveryMetrics",
    "Resilience counters aggregated across every RPC endpoint "
    "(``fenced_calls``: authoritative rejections seen by callers), the "
    "epoch service, the CAS pair and the orchestrator's supervision.",
    _RECOVERY + _FENCING + _CAS_PAIR,
    {"restarts": int, "quarantined": int},
)
#: Also broken down by the shard's checkpoint-store key, which survives
#: restarts: a replacement shard folds into the same lineage entry.
_BY_SHARD = ("pulls", "pushes", "restarts")
TrainingMetrics = derive_group(
    "TrainingMetrics",
    "Sharded-training-plane counters, aggregated over every PS shard "
    "(a single-PS job reports here too — it is the 1-shard case).",
    _TRAINING,
    {f"{counter}_by_shard": dict for counter in _BY_SHARD},
)

#: Registry layer → (snapshot group it folds into, its published names).
_LAYERS = {
    "fs": ("shields", _FS),
    "net": ("shields", _NET),
    "syscall": ("syscalls", published(SyscallStats)),
    "recovery": ("recovery", _RECOVERY),
    "training": ("training", _TRAINING),
    "monitoring": ("monitoring", published(MonitoringStats)),
}


@dataclass
class NodeMetrics:
    """Per-node counters (hand-declared: the EPC's and the CPU's hot
    counters are plain attributes, not a stats object)."""

    node_id: str
    simulated_time: float
    epc_capacity_granules: int = gauge()
    epc_resident_granules: int = gauge()
    epc_faults: int
    epc_fault_time: float
    epc_fault_rate: float = gauge()
    enclave_transitions: int

    @property
    def epc_utilization(self) -> float:
        if self.epc_capacity_granules == 0:
            return 0.0
        return self.epc_resident_granules / self.epc_capacity_granules


@dataclass
class SimCoreMetrics:
    """Event-heap scheduler gauges: the pulse of the simulation core
    (hand-declared for the same reason as :class:`NodeMetrics`)."""

    heap_size: int = gauge(0)  # pending events right now
    heap_peak: int = peak(0)
    events_scheduled: int = 0
    events_fired: int = 0
    events_cancelled: int = 0
    activities_running: int = gauge(0)
    activities_parked: int = gauge(0)  # blocked on a Completion


@dataclass
class PlatformMetrics:
    """One snapshot of the whole deployment."""

    nodes: List[NodeMetrics]
    network_messages: int
    network_bytes: int
    network_dropped: int
    cas_sessions: int = gauge()
    cas_secrets: int = gauge()
    audit_records: int
    audit_chain_ok: bool = gauge()
    shields: ShieldMetrics = field(default_factory=ShieldMetrics)
    network_duplicated: int = 0
    network_delayed: int = 0
    recovery: RecoveryMetrics = field(default_factory=RecoveryMetrics)
    syscalls: SyscallStats = field(default_factory=SyscallStats)
    training: TrainingMetrics = field(default_factory=TrainingMetrics)
    sim_core: SimCoreMetrics = field(default_factory=SimCoreMetrics)
    monitoring: MonitoringStats = field(default_factory=MonitoringStats)

    def to_rows(self) -> List[List[str]]:
        rows = []
        for node in self.nodes:
            rows.append(
                [
                    node.node_id,
                    f"{node.simulated_time:.2f}s",
                    f"{node.epc_utilization * 100:.0f}%",
                    f"{node.epc_faults}",
                    f"{node.epc_fault_time:.3f}s",
                    f"{node.epc_fault_rate * 100:.1f}%",
                    f"{node.enclave_transitions}",
                ]
            )
        return rows

    def format(self) -> str:
        lines = ["platform metrics snapshot", "-" * 68]
        lines.append(
            f"{'node':<8}{'time':>10}{'EPC util':>10}{'faults':>10}"
            f"{'fault time':>12}{'fault rate':>12}{'transitions':>13}"
        )
        for row in self.to_rows():
            lines.append(
                f"{row[0]:<8}{row[1]:>10}{row[2]:>10}{row[3]:>10}"
                f"{row[4]:>12}{row[5]:>12}{row[6]:>13}"
            )
        lines.append(
            f"network: {self.network_messages} messages, "
            f"{self.network_bytes / 1e6:.1f} MB, {self.network_dropped} dropped, "
            f"{self.network_duplicated} duplicated, {self.network_delayed} delayed"
        )
        lines.append(
            f"CAS: {self.cas_sessions} sessions, {self.cas_secrets} stored "
            f"records, audit log {self.audit_records} entries "
            f"({'chain OK' if self.audit_chain_ok else 'CHAIN BROKEN'})"
        )
        s = self.shields
        lines.append(
            f"fs shield: {s.fs_files_written} written / {s.fs_files_read} read, "
            f"{s.fs_crypto_bytes / 1e6:.1f} MB, sim {s.fs_crypto_time:.3f}s / "
            f"real {s.fs_real_crypto_time:.3f}s, "
            f"key cache {s.fs_key_cache_hits}/{s.fs_key_cache_hits + s.fs_key_cache_misses}, "
            f"chunk cache {s.fs_chunk_cache_hits}/"
            f"{s.fs_chunk_cache_hits + s.fs_chunk_cache_misses}"
        )
        lines.append(
            f"net shield: {s.net_records_protected} protected / "
            f"{s.net_records_opened} opened, {s.net_crypto_bytes / 1e6:.1f} MB, "
            f"sim {s.net_crypto_time:.3f}s / real {s.net_real_crypto_time:.3f}s"
        )
        cipher_bytes = ", ".join(
            f"{name}={n / 1e6:.1f}MB" for name, n in sorted(s.bytes_by_cipher.items())
        )
        lines.append(
            f"aead cache: {s.aead_cache_hits} hits / {s.aead_cache_misses} misses"
            + (f"; bytes by cipher: {cipher_bytes}" if cipher_bytes else "")
        )
        lines.append(
            f"storage: {s.fs_torn_writes_detected} torn/rotted artifacts "
            f"detected, {s.fs_chunks_repaired} chunks repaired, "
            f"{s.fs_recovery_scans} recovery scans "
            f"({s.fs_recoveries_rolled_back} rolled back / "
            f"{s.fs_recoveries_rolled_forward} rolled forward)"
        )
        sc = self.syscalls
        lines.append(
            f"syscall plane: {sc.calls} calls "
            f"({sc.userspace_handled} userspace, {sc.sync_fallbacks} sync "
            f"fallbacks), ring {sc.ring_submissions} submitted / "
            f"{sc.ring_completions} completed (peak occupancy "
            f"{sc.ring_occupancy_peak}), {sc.batches} batches (max "
            f"{sc.max_batch}), {sc.backpressure_stalls} stalls "
            f"({sc.backpressure_time:.3f}s), {sc.handler_wakeups} wakeups, "
            f"overlap {sc.kernel_overlap * 100:.0f}%"
        )
        r = self.recovery
        lines.append(
            f"recovery: {r.retries} retries ({r.backoff_time:.3f}s backoff), "
            f"{r.giveups} giveups, {r.reconnects} reconnects, "
            f"{r.dedup_hits} dedup hits, {r.handshakes_expired} handshakes "
            f"expired, breakers {r.breaker_trips} trips/"
            f"{r.breaker_rejections} rejections "
            f"({r.breakers_closed} closed/{r.breakers_open} open/"
            f"{r.breakers_half_open} half-open), "
            f"{r.restarts} restarts, {r.quarantined} quarantined"
        )
        lines.append(
            f"cas ha: {r.cas_failovers} failovers, "
            f"{r.cas_ops_replicated} ops / {r.cas_records_replicated} audit "
            f"records replicated"
        )
        lines.append(
            f"fencing: {r.epoch_grants} grants, {r.epoch_bumps} bumps, "
            f"{r.fenced_rejections} stale epochs rejected, "
            f"{r.lease_expiries} lease expiries, "
            f"{r.fenced_calls} fenced calls"
        )
        t = self.training
        shards = ", ".join(
            f"{shard}={t.pushes_by_shard[shard]}"
            for shard in sorted(t.pushes_by_shard)
        )
        lines.append(
            f"training: {t.pulls} pulls, {t.pushes} pushes "
            f"({t.quantized_pushes} quantized), "
            f"{t.gradient_bytes_in / 1e6:.2f} MB gradients on the wire "
            f"({t.gradient_bytes_saved / 1e6:.2f} MB saved by quantization), "
            f"{t.restarts} shard restarts, {t.barrier_commits} barrier commits"
            + (f"; pushes by shard: {shards}" if shards else "")
        )
        c = self.sim_core
        lines.append(
            f"sim core: heap {c.heap_size} pending (peak {c.heap_peak}), "
            f"{c.events_scheduled} scheduled / {c.events_fired} fired / "
            f"{c.events_cancelled} cancelled, activities "
            f"{c.activities_running} running ({c.activities_parked} parked)"
        )
        m = self.monitoring
        lines.append(
            f"monitoring: {m.slo_evaluations} SLO evaluations, alerts "
            f"{m.alerts_pending} pending/{m.alerts_fired} fired/"
            f"{m.alerts_resolved} resolved, {m.flight_events} flight events, "
            f"incidents {m.incidents_triggered} triggered "
            f"({m.incidents_suppressed} suppressed), "
            f"{m.bundles_emitted} bundles emitted"
        )
        return "\n".join(lines)

    # -- serialization + interval deltas --------------------------------

    def to_json(self) -> Dict[str, object]:
        """The snapshot as a JSON-safe nested dict (round-trips through
        :meth:`from_json`)."""
        return dataclasses.asdict(self)

    @classmethod
    def from_json(cls, data: Dict[str, object]) -> "PlatformMetrics":
        payload = dict(data)
        payload["nodes"] = [NodeMetrics(**node) for node in payload["nodes"]]
        for f in dataclasses.fields(cls):
            if dataclasses.is_dataclass(f.default_factory):  # a group
                payload[f.name] = f.default_factory(**payload[f.name])
        return cls(**payload)

    def diff(self, earlier: "PlatformMetrics") -> "PlatformMetrics":
        """The interval delta since ``earlier`` (what the telemetry
        sampler records): cumulative counters subtract, gauges and
        high-water marks keep this snapshot's value.  Nodes are matched
        by node ID; a node absent from ``earlier`` (scale-out) reports
        its full counters."""
        earlier_nodes = {node.node_id: node for node in earlier.nodes}
        nodes = [
            _diff_dataclass(node, earlier_nodes[node.node_id])
            if node.node_id in earlier_nodes
            else node
            for node in self.nodes
        ]
        delta = _diff_dataclass(self, earlier)
        return dataclasses.replace(delta, nodes=nodes)


def collect_metrics(platform: SecureTFPlatform) -> PlatformMetrics:
    """Snapshot every layer's counters (read-only; no clock advance)."""
    nodes = []
    for node in platform.nodes:
        epc = node.cpu.epc
        nodes.append(
            NodeMetrics(
                node_id=node.node_id,
                simulated_time=node.time,
                epc_capacity_granules=epc.capacity_granules,
                epc_resident_granules=epc.resident_granules,
                epc_faults=epc.stats.faults,
                epc_fault_time=epc.stats.fault_time,
                epc_fault_rate=epc.stats.fault_rate,
                enclave_transitions=node.cpu.transitions,
            )
        )
    audit = platform.active_cas.audit
    chain_ok = True
    try:
        audit.verify_chain()
    except Exception:
        chain_ok = False
    sched = platform.scheduler
    metrics = PlatformMetrics(
        nodes=nodes,
        network_messages=platform.network.stats.messages,
        network_bytes=platform.network.stats.bytes_transferred,
        network_dropped=platform.network.stats.dropped,
        cas_sessions=len(platform.active_cas.policies.sessions()),
        cas_secrets=len(platform.active_cas.db),
        audit_records=len(audit.log),
        audit_chain_ok=chain_ok,
        network_duplicated=platform.network.stats.duplicated,
        network_delayed=platform.network.stats.delayed,
        sim_core=SimCoreMetrics(
            heap_size=sched.heap_size,
            heap_peak=sched.heap_peak,
            events_scheduled=sched.events_scheduled,
            events_fired=sched.events_processed,
            events_cancelled=sched.events_cancelled,
            activities_running=sched.activities_running,
            activities_parked=sched.activities_parked,
        ),
    )
    clocks = [node.clock for node in platform.nodes]
    for layer, (group, names) in _LAYERS.items():
        for stats in stats_registry.stats_for(layer, clocks):
            fold(getattr(metrics, group), stats, names)
    # What no registered stats object carries.
    aead_counters = aead_cache_stats()
    metrics.shields.aead_cache_hits = aead_counters["hits"]
    metrics.shields.aead_cache_misses = aead_counters["misses"]
    for stats in stats_registry.stats_for("training", clocks):
        for counter in _BY_SHARD:
            by_shard = getattr(metrics.training, f"{counter}_by_shard")
            by_shard[stats.shard] = by_shard.get(stats.shard, 0) + getattr(stats, counter)
    metrics.recovery.restarts = platform.orchestrator.restarts_total
    metrics.recovery.quarantined = platform.orchestrator.quarantined_total
    if platform.epochs is not None:
        fold(metrics.recovery, platform.epochs.stats, _FENCING)
    if platform.cas_pair is not None:
        fold(metrics.recovery, platform.cas_pair.stats, _CAS_PAIR)
    return metrics
