"""What a change to the metrics spine must not move: the snapshot's
published keys, the ``format()`` report, and what ``import repro.core``
loads.

Both literals were captured at the last commit that declared the
snapshot groups by hand (before PR 20 derived them from the layers'
``*Stats`` classes).
"""

from __future__ import annotations

import dataclasses
import os
import subprocess
import sys
from pathlib import Path

from repro.core.monitoring import (
    NodeMetrics,
    PlatformMetrics,
    RecoveryMetrics,
    ShieldMetrics,
    SimCoreMetrics,
    TrainingMetrics,
)
from repro.runtime.stats_registry import MonitoringStats
from repro.runtime.syscall import SyscallStats

#: Every ``group.field`` the snapshot published before PR 20 (per-node
#: fields as ``nodes.<field>``).  Each must still be published: a rename
#: or a dropped key is a one-line diff here.
PUBLISHED_BEFORE = [
    "nodes.node_id",
    "nodes.simulated_time",
    "nodes.epc_capacity_granules",
    "nodes.epc_resident_granules",
    "nodes.epc_faults",
    "nodes.epc_fault_time",
    "nodes.epc_fault_rate",
    "nodes.enclave_transitions",
    "network_messages",
    "network_bytes",
    "network_dropped",
    "cas_sessions",
    "cas_secrets",
    "audit_records",
    "audit_chain_ok",
    "shields.fs_files_written",
    "shields.fs_files_read",
    "shields.fs_crypto_bytes",
    "shields.fs_crypto_time",
    "shields.fs_real_crypto_time",
    "shields.fs_key_cache_hits",
    "shields.fs_key_cache_misses",
    "shields.fs_chunk_cache_hits",
    "shields.fs_chunk_cache_misses",
    "shields.fs_torn_writes_detected",
    "shields.fs_chunks_repaired",
    "shields.fs_recovery_scans",
    "shields.fs_recoveries_rolled_back",
    "shields.fs_recoveries_rolled_forward",
    "shields.net_records_protected",
    "shields.net_records_opened",
    "shields.net_crypto_bytes",
    "shields.net_crypto_time",
    "shields.net_real_crypto_time",
    "shields.aead_cache_hits",
    "shields.aead_cache_misses",
    "shields.bytes_by_cipher",
    "network_duplicated",
    "network_delayed",
    "recovery.calls",
    "recovery.attempts",
    "recovery.retries",
    "recovery.giveups",
    "recovery.backoff_time",
    "recovery.reconnects",
    "recovery.breaker_trips",
    "recovery.breaker_rejections",
    "recovery.breakers_closed",
    "recovery.breakers_open",
    "recovery.breakers_half_open",
    "recovery.dedup_hits",
    "recovery.handshakes_expired",
    "recovery.restarts",
    "recovery.quarantined",
    "recovery.cas_failovers",
    "recovery.cas_ops_replicated",
    "recovery.cas_records_replicated",
    "recovery.fenced_calls",
    "recovery.epoch_grants",
    "recovery.epoch_bumps",
    "recovery.fenced_rejections",
    "recovery.lease_expiries",
    "syscalls.calls",
    "syscalls.userspace_handled",
    "syscalls.transitions",
    "syscalls.ring_submissions",
    "syscalls.ring_completions",
    "syscalls.ring_occupancy_peak",
    "syscalls.batches",
    "syscalls.max_batch",
    "syscalls.flushes_on_block",
    "syscalls.backpressure_stalls",
    "syscalls.backpressure_time",
    "syscalls.handler_wakeups",
    "syscalls.sync_fallbacks",
    "syscalls.overlap_hidden_time",
    "syscalls.overlap_exposed_time",
    "syscalls.bytes_read",
    "syscalls.bytes_written",
    "syscalls.bytes_sent",
    "syscalls.bytes_received",
    "syscalls.time",
    "training.pulls",
    "training.pushes",
    "training.quantized_pushes",
    "training.gradient_bytes_in",
    "training.gradient_bytes_saved",
    "training.restarts",
    "training.barrier_commits",
    "training.pulls_by_shard",
    "training.pushes_by_shard",
    "training.restarts_by_shard",
    "sim_core.heap_size",
    "sim_core.heap_peak",
    "sim_core.events_scheduled",
    "sim_core.events_fired",
    "sim_core.events_cancelled",
    "sim_core.activities_running",
    "sim_core.activities_parked",
    "monitoring.slo_evaluations",
    "monitoring.alerts_pending",
    "monitoring.alerts_fired",
    "monitoring.alerts_resolved",
    "monitoring.flight_events",
    "monitoring.incidents_triggered",
    "monitoring.incidents_suppressed",
    "monitoring.bundles_emitted",
]

#: Published since, each a counter its layer already kept.
PUBLISHED_SINCE = [
    "shields.fs_chunks_sealed",
    "shields.fs_chunks_opened",
    "shields.fs_replicas_written",
    "shields.fs_digest_bytes",
    "shields.net_handshakes",
    "syscalls.by_name",
    "recovery.cas_quorum_acks",
    "recovery.cas_epochs_replicated",
    "recovery.dedup_window_entries",
    "recovery.dedup_window_bytes",
    "nodes.epc_hidden_fault_time",
]


def _published_now():
    names = []
    for f in dataclasses.fields(PlatformMetrics):
        if f.name == "nodes":
            names += [f"nodes.{g.name}" for g in dataclasses.fields(NodeMetrics)]
        elif dataclasses.is_dataclass(f.default_factory):
            names += [f"{f.name}.{g.name}" for g in dataclasses.fields(f.default_factory)]
        else:
            names.append(f.name)
    return names


def test_every_published_key_is_still_published_and_new_ones_are_listed():
    now = _published_now()
    assert len(now) == len(set(now))
    assert sorted(now) == sorted(PUBLISHED_BEFORE + PUBLISHED_SINCE)


#: A distinct non-zero value in every field the report prints.
SNAPSHOT = PlatformMetrics(
    nodes=[
        NodeMetrics(
            node_id='node-0',
            simulated_time=1.125,
            epc_capacity_granules=2,
            epc_resident_granules=3,
            epc_faults=4,
            epc_fault_time=5.125,
            epc_fault_rate=6.125,
            enclave_transitions=7,
        ),
        NodeMetrics(
            node_id='node-1',
            simulated_time=8.125,
            epc_capacity_granules=9,
            epc_resident_granules=10,
            epc_faults=11,
            epc_fault_time=12.125,
            epc_fault_rate=13.125,
            enclave_transitions=14,
        ),
    ],
    network_messages=105,
    network_bytes=116600000,
    network_dropped=107,
    cas_sessions=108,
    cas_secrets=109,
    audit_records=110,
    audit_chain_ok=True,
    shields=ShieldMetrics(
        fs_files_written=15,
        fs_files_read=16,
        fs_crypto_bytes=18700000,
        fs_crypto_time=18.125,
        fs_real_crypto_time=19.125,
        fs_key_cache_hits=20,
        fs_key_cache_misses=21,
        fs_chunk_cache_hits=22,
        fs_chunk_cache_misses=23,
        fs_torn_writes_detected=24,
        fs_chunks_repaired=25,
        fs_recovery_scans=26,
        fs_recoveries_rolled_back=27,
        fs_recoveries_rolled_forward=28,
        net_records_protected=29,
        net_records_opened=30,
        net_crypto_bytes=34100000,
        net_crypto_time=32.125,
        net_real_crypto_time=33.125,
        aead_cache_hits=34,
        aead_cache_misses=35,
        bytes_by_cipher={'k36': 39600000, 'a36': 1139600000},
    ),
    network_duplicated=112,
    network_delayed=113,
    recovery=RecoveryMetrics(
        calls=37,
        attempts=38,
        retries=39,
        giveups=40,
        backoff_time=41.125,
        reconnects=42,
        breaker_trips=43,
        breaker_rejections=44,
        breakers_closed=45,
        breakers_open=46,
        breakers_half_open=47,
        dedup_hits=48,
        handshakes_expired=49,
        restarts=50,
        quarantined=51,
        cas_failovers=52,
        cas_ops_replicated=53,
        cas_records_replicated=54,
        fenced_calls=55,
        epoch_grants=56,
        epoch_bumps=57,
        fenced_rejections=58,
        lease_expiries=59,
        dedup_window_entries=114,
        dedup_window_bytes=11500000,
    ),
    syscalls=SyscallStats(
        calls=60,
        userspace_handled=61,
        transitions=62,
        ring_submissions=63,
        ring_completions=64,
        ring_occupancy_peak=65,
        batches=66,
        max_batch=67,
        flushes_on_block=68,
        backpressure_stalls=69,
        backpressure_time=70.125,
        handler_wakeups=71,
        sync_fallbacks=72,
        overlap_hidden_time=73.125,
        overlap_exposed_time=74.125,
        bytes_read=82500000,
        bytes_written=83600000,
        bytes_sent=84700000,
        bytes_received=85800000,
        time=79.125,
    ),
    training=TrainingMetrics(
        pulls=80,
        pushes=81,
        quantized_pushes=82,
        gradient_bytes_in=91300000,
        gradient_bytes_saved=92400000,
        restarts=85,
        barrier_commits=86,
        pulls_by_shard={'k87': 87, 'a87': 1087},
        pushes_by_shard={'k88': 88, 'a88': 1088},
        restarts_by_shard={'k89': 89, 'a89': 1089},
    ),
    sim_core=SimCoreMetrics(
        heap_size=90,
        heap_peak=91,
        events_scheduled=92,
        events_fired=93,
        events_cancelled=94,
        activities_running=95,
        activities_parked=96,
    ),
    monitoring=MonitoringStats(
        slo_evaluations=97,
        alerts_pending=98,
        alerts_fired=99,
        alerts_resolved=100,
        flight_events=101,
        incidents_triggered=102,
        incidents_suppressed=103,
        bundles_emitted=104,
    ),
)

REPORT = [
    'platform metrics snapshot',
    '--------------------------------------------------------------------',
    'node          time  EPC util    faults  fault time  fault rate  transitions',
    'node-0       1.12s      150%         4      5.125s      612.5%            7',
    'node-1       8.12s      111%        11     12.125s     1312.5%           14',
    'network: 105 messages, 116.6 MB, 107 dropped, 112 duplicated, 113 delayed',
    'CAS: 108 sessions, 109 stored records, audit log 110 entries (chain OK)',
    'fs shield: 15 written / 16 read, 18.7 MB, sim 18.125s / real 19.125s, key cache 20/41, chunk cache 22/45',
    'net shield: 29 protected / 30 opened, 34.1 MB, sim 32.125s / real 33.125s',
    'aead cache: 34 hits / 35 misses; bytes by cipher: a36=1139.6MB, k36=39.6MB',
    'storage: 24 torn/rotted artifacts detected, 25 chunks repaired, 26 recovery scans (27 rolled back / 28 rolled forward)',
    'syscall plane: 60 calls (61 userspace, 72 sync fallbacks), ring 63 submitted / 64 completed (peak occupancy 65), 66 batches (max 67), 69 stalls (70.125s), 71 wakeups, overlap 50%',
    'recovery: 39 retries (41.125s backoff), 40 giveups, 42 reconnects, 48 dedup hits (window 114 entries, 11.5 MB), 49 handshakes expired, breakers 43 trips/44 rejections (45 closed/46 open/47 half-open), 50 restarts, 51 quarantined',
    'cas ha: 52 failovers, 53 ops / 54 audit records replicated',
    'fencing: 56 grants, 57 bumps, 58 stale epochs rejected, 59 lease expiries, 55 fenced calls',
    'training: 80 pulls, 81 pushes (82 quantized), 91.30 MB gradients on the wire (92.40 MB saved by quantization), 85 shard restarts, 86 barrier commits; pushes by shard: a88=1088, k88=88',
    'sim core: heap 90 pending (peak 91), 92 scheduled / 93 fired / 94 cancelled, activities 95 running (96 parked)',
    'monitoring: 97 SLO evaluations, alerts 98 pending/99 fired/100 resolved, 101 flight events, incidents 102 triggered (103 suppressed), 104 bundles emitted',
]


def test_format_is_byte_identical():
    assert SNAPSHOT.format().split("\n") == REPORT


def test_golden_snapshot_round_trips_through_json():
    assert PlatformMetrics.from_json(SNAPSHOT.to_json()) == SNAPSHOT


def test_import_repro_core_does_not_load_observability():
    # Off means off: a platform that never turns telemetry on must be
    # the same interpreter as one built without the package.
    src = Path(__file__).resolve().parents[2] / "src"
    loaded = subprocess.run(
        [
            sys.executable,
            "-c",
            "import sys, repro.core; "
            "print([m for m in sys.modules if m.startswith('repro.observability')])",
        ],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        check=True,
    ).stdout
    assert loaded.strip() == "[]"
