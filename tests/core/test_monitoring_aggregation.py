"""Monitoring aggregation, serialization, and report-format tests."""

from __future__ import annotations

import dataclasses
import json
import os
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict

import pytest

from repro.cas.failover import CasPairStats
from repro.cluster.epoch import FencingStats
from repro.cluster.retry import RecoveryStats
from repro.cluster.sharding import ShardTrainingStats
from repro.core import SecureTFPlatform
from repro.core.monitoring import (
    NodeMetrics,
    PlatformMetrics,
    RecoveryMetrics,
    ShieldMetrics,
    TrainingMetrics,
    _diff_dataclass,
    collect_metrics,
    derive_group,
    fold,
    published,
)
from repro.core.platform import PlatformConfig
from repro.observability import flatten_metrics, to_prometheus
from repro.runtime.fs_shield import FsShieldStats
from repro.runtime.net_shield import NetShieldStats
from repro.runtime.stats_registry import (
    PEAK,
    MonitoringStats,
    gauge,
    kind_of,
    peak,
    register,
    stats_for,
)
from repro.runtime.syscall import SyscallStats
from tests.core._metrics_json import from_json


def _node(node_id: str, **overrides) -> NodeMetrics:
    base = dict(
        node_id=node_id,
        simulated_time=10.0,
        epc_capacity_granules=100,
        epc_resident_granules=40,
        epc_faults=20,
        epc_fault_time=0.5,
        epc_fault_rate=0.125,
        enclave_transitions=30,
    )
    base.update(overrides)
    return NodeMetrics(**base)


def _snapshot(cls=PlatformMetrics, **overrides) -> PlatformMetrics:
    base = dict(
        nodes=[_node("node-0"), _node("node-1", epc_faults=5)],
        network_messages=100,
        network_bytes=2_000_000,
        network_dropped=1,
        cas_sessions=2,
        cas_secrets=3,
        audit_records=8,
        audit_chain_ok=True,
    )
    base.update(overrides)
    return cls(**base)


# --- published / fold ------------------------------------------------------


def test_aggregate_sums_across_sources_with_prefix_stripping():
    shields = ShieldMetrics()
    fs_a = FsShieldStats(files_written=2, crypto_bytes=100, crypto_time=0.1)
    fs_b = FsShieldStats(files_written=3, crypto_bytes=50, crypto_time=0.2)
    for stats in (fs_a, fs_b):
        fold(shields, stats, published(FsShieldStats, "fs_"))
    assert shields.fs_files_written == 5
    assert shields.fs_crypto_bytes == 150
    assert shields.fs_crypto_time == pytest.approx(0.3)
    assert shields.net_records_protected == 0  # untouched namespace
    assert shields.net_crypto_bytes == 0  # same source name, other prefix


#: Every other stats class a snapshot group is derived from, with its
#: prefix.
_SOURCES = [
    (FsShieldStats, "fs_", ShieldMetrics),
    (NetShieldStats, "net_", ShieldMetrics),
    (RecoveryStats, "", RecoveryMetrics),
    (FencingStats, "", RecoveryMetrics),
    (CasPairStats, "cas_", RecoveryMetrics),
    (ShardTrainingStats, "", TrainingMetrics),
    (MonitoringStats, "", MonitoringStats),
]


def test_aggregate_every_syscall_counter_is_covered():
    _every_numeric_field_is_folded(SyscallStats, "", SyscallStats)


@pytest.mark.parametrize("source, prefix, group", _SOURCES)
def test_aggregate_every_counter_of_every_source_is_covered(source, prefix, group):
    _every_numeric_field_is_folded(source, prefix, group)


def _every_numeric_field_is_folded(source, prefix, group):
    # The fold is driven by the source's own fields: every int / float /
    # dict a layer declares is published and folded, so a newly added
    # counter cannot be silently dropped.  Peaks are found by metadata.
    names = published(source, prefix)
    kinds = {f.name: kind_of(f) for f in dataclasses.fields(source)}
    numeric = [
        f.name
        for f in dataclasses.fields(source)
        if isinstance(getattr(source(), f.name), (int, float, dict))
    ]
    assert [name for name, _, _ in names] == numeric
    stats = source(
        **{
            name: {"k": 2} if isinstance(getattr(source(), name), dict) else 2
            for name in numeric
        }
    )
    target = group()
    fold(target, stats, names)
    fold(target, stats, names)
    for name, public, _ in names:
        value = getattr(target, public)
        if isinstance(value, dict):
            assert value == {"k": 4}, public  # merged per key
        elif kinds[name] == PEAK:
            assert value == 2, public  # high-water marks combine by max
        else:
            assert value == 4, public  # counters and gauges sum


def test_syscall_peaks_are_declared_on_the_field():
    peaks = {f.name for f in dataclasses.fields(SyscallStats) if kind_of(f) == PEAK}
    assert peaks == {"ring_occupancy_peak", "max_batch"}


def test_aggregate_merges_dict_fields_per_key():
    shields = ShieldMetrics()
    fold(
        shields,
        FsShieldStats(bytes_by_cipher={"aes-gcm": 10, "chacha": 5}),
        published(FsShieldStats, "fs_"),
    )
    # One dict shared, unprefixed, by both shields.
    fold(
        shields,
        NetShieldStats(bytes_by_cipher={"aes-gcm": 7}),
        published(NetShieldStats, "net_"),
    )
    assert shields.bytes_by_cipher == {"aes-gcm": 17, "chacha": 5}


def test_aggregate_ignores_booleans_and_missing_attrs():
    @dataclass
    class Stats:
        retries: int = 0
        healthy: bool = True
        label: str = "x"

    assert [public for _, public, _ in published(Stats)] == ["retries"]
    # Group fields this source has no attribute for stay untouched.
    recovery = RecoveryMetrics()
    fold(recovery, RecoveryStats(retries=1), published(RecoveryStats))
    assert recovery.retries == 1
    assert (recovery.restarts, recovery.epoch_grants) == (0, 0)
    assert not hasattr(recovery, "healthy")
    # The real case: a shard's store key rides its stats object.
    assert "shard" not in {f.name for f in dataclasses.fields(TrainingMetrics)}


def test_irregular_published_names():
    recovery = RecoveryMetrics()
    fold(recovery, FencingStats(grants=3, bumps=2, lease_expiries=1), published(FencingStats))
    fold(
        recovery,
        CasPairStats(failovers=1, quorum_acks=4),
        published(CasPairStats, "cas_"),
    )
    assert (recovery.epoch_grants, recovery.epoch_bumps, recovery.lease_expiries) == (3, 2, 1)
    assert (recovery.cas_failovers, recovery.cas_quorum_acks) == (1, 4)


# --- one declaration, end to end ------------------------------------------


@dataclass
class _GadgetStats:
    """A layer's counters as a new layer would declare them."""

    made: int = 0
    in_flight: int = gauge(0)
    deepest_queue: int = peak(0)
    by_colour: Dict[str, int] = field(default_factory=dict)


def test_a_counter_is_one_line():
    """Everything downstream of the four lines above — published name,
    fold, diff, JSON, flattened key, Prometheus type — follows from the
    declaration, through the functions ``core/monitoring.py`` itself
    builds its groups with."""
    platform = SecureTFPlatform(PlatformConfig(n_nodes=2, seed=5))
    clock = platform.nodes[1].clock
    a = _GadgetStats(made=2, in_flight=1, deepest_queue=5, by_colour={"red": 1})
    b = _GadgetStats(made=3, in_flight=4, deepest_queue=3, by_colour={"red": 2, "blue": 7})
    for stats in (a, b):
        register("gadget", stats, clock)
    assert stats_for("gadget", [platform.nodes[0].clock]) == []
    other = SecureTFPlatform(PlatformConfig(n_nodes=2, seed=5))
    assert stats_for("gadget", [node.clock for node in other.nodes]) == []

    names = published(_GadgetStats, "g_")
    GadgetMetrics = derive_group("GadgetMetrics", "Gadgets.", names, {"recalled": int})

    @dataclass
    class Snapshot(PlatformMetrics):
        gadgets: GadgetMetrics = field(default_factory=GadgetMetrics)

    def snapshot() -> Snapshot:
        gadgets = GadgetMetrics()
        for stats in stats_for("gadget", [node.clock for node in platform.nodes]):
            fold(gadgets, stats, names)
        return _snapshot(Snapshot, gadgets=gadgets)

    # Fold: counters and gauges sum, the peak takes the max, dicts merge.
    earlier = snapshot()
    assert earlier.gadgets == GadgetMetrics(
        g_made=5, g_in_flight=5, g_deepest_queue=5, g_by_colour={"red": 3, "blue": 7}
    )
    a.made += 4
    a.in_flight = 0
    b.deepest_queue = 9
    a.by_colour["green"] = 1
    later = snapshot()

    # Diff: the counter subtracts, gauge and peak keep the later value.
    delta = later.diff(earlier).gadgets
    assert (delta.g_made, delta.g_in_flight, delta.g_deepest_queue) == (4, 4, 9)
    assert delta.g_by_colour == {"red": 0, "green": 1, "blue": 0}

    # JSON round trip rebuilds the group from the dataclass's fields.
    tree = json.loads(json.dumps(later.to_json()))
    assert tree["gadgets"]["g_made"] == 9 and tree["gadgets"]["recalled"] == 0
    assert from_json(Snapshot, tree) == later

    # Flattened keys and Prometheus types.
    flat = flatten_metrics(tree)
    assert flat["gadgets.g_made"] == 9.0
    assert flat["gadgets.g_by_colour.blue"] == 7.0
    exposition = to_prometheus(later).splitlines()
    for name, prom_type, value in (
        ("g_made", "counter", 9),
        ("g_in_flight", "gauge", 4),
        ("g_deepest_queue", "gauge", 9),
        ("g_by_colour_red", "counter", 3),
        ("recalled", "counter", 0),
    ):
        at = exposition.index(f"# TYPE securetf_gadgets_{name} {prom_type}")
        assert exposition[at + 1] == f"securetf_gadgets_{name} {value}"

    # The throwaway layer is invisible to the platform's own snapshot.
    assert "gadgets" not in collect_metrics(platform).to_json()


# --- format ---------------------------------------------------------------


def test_format_shows_fault_rate_column():
    report = _snapshot().format()
    header = next(line for line in report.splitlines() if "fault rate" in line)
    assert "fault time" in header
    node0 = next(line for line in report.splitlines() if line.startswith("node-0"))
    assert "12.5%" in node0  # epc_fault_rate=0.125 rendered per node


def test_format_shows_handshakes_expired():
    snapshot = _snapshot(recovery=RecoveryMetrics(handshakes_expired=7))
    report = snapshot.format()
    assert "7 handshakes expired" in report


def test_format_flags_broken_audit_chain():
    assert "CHAIN BROKEN" in _snapshot(audit_chain_ok=False).format()
    assert "chain OK" in _snapshot().format()


# --- to_json / from_json / diff -------------------------------------------


def test_json_round_trip():
    snapshot = _snapshot(
        shields=ShieldMetrics(fs_files_written=4, bytes_by_cipher={"aes": 9}),
        recovery=RecoveryMetrics(retries=2, handshakes_expired=1),
        syscalls=SyscallStats(calls=11, max_batch=3),
    )
    tree = snapshot.to_json()
    assert tree["nodes"][0]["node_id"] == "node-0"
    assert from_json(PlatformMetrics, tree) == snapshot


def test_diff_subtracts_counters_and_keeps_gauges():
    earlier = _snapshot()
    later = _snapshot(
        nodes=[
            _node("node-0", epc_faults=35, epc_resident_granules=60,
                  epc_fault_rate=0.25, simulated_time=14.0),
            _node("node-1", epc_faults=5),
        ],
        network_messages=130,
        cas_sessions=4,
    )
    delta = later.diff(earlier)
    assert delta.network_messages == 30       # cumulative counter
    assert delta.cas_sessions == 4            # gauge: keep later value
    node0 = next(n for n in delta.nodes if n.node_id == "node-0")
    assert node0.epc_faults == 15             # matched by node_id
    assert node0.simulated_time == pytest.approx(4.0)
    assert node0.epc_resident_granules == 60  # gauge
    assert node0.epc_fault_rate == 0.25       # gauge
    node1 = next(n for n in delta.nodes if n.node_id == "node-1")
    assert node1.epc_faults == 0


def test_diff_nested_dataclasses_and_dicts():
    earlier = _snapshot(
        shields=ShieldMetrics(fs_crypto_bytes=100, bytes_by_cipher={"aes": 10}),
        syscalls=SyscallStats(calls=5, ring_occupancy_peak=8),
    )
    later = _snapshot(
        shields=ShieldMetrics(fs_crypto_bytes=180, bytes_by_cipher={"aes": 25, "chacha": 4}),
        syscalls=SyscallStats(calls=9, ring_occupancy_peak=8),
    )
    delta = later.diff(earlier)
    assert delta.shields.fs_crypto_bytes == 80
    assert delta.shields.bytes_by_cipher == {"aes": 15, "chacha": 4}
    assert delta.syscalls.calls == 4
    assert delta.syscalls.ring_occupancy_peak == 8  # high-water mark


def test_diff_scale_out_node_reports_full_counters():
    earlier = _snapshot(nodes=[_node("node-0")])
    later = _snapshot(nodes=[_node("node-0"), _node("node-2", epc_faults=9)])
    delta = later.diff(earlier)
    node2 = next(n for n in delta.nodes if n.node_id == "node-2")
    assert node2.epc_faults == 9


def test_diff_type_mismatch_raises():
    with pytest.raises(TypeError):
        _diff_dataclass(ShieldMetrics(), RecoveryMetrics())


def test_diff_dict_keys_follow_the_later_snapshot_then_the_earlier_only():
    earlier = _snapshot(shields=ShieldMetrics(bytes_by_cipher={"x": 1, "aes-gcm": 2}))
    later = _snapshot(
        shields=ShieldMetrics(bytes_by_cipher={"chacha20-poly1305": 5, "aes-gcm": 3})
    )
    delta = later.diff(earlier).shields.bytes_by_cipher
    assert list(delta.items()) == [("chacha20-poly1305", 5), ("aes-gcm", 1), ("x", -1)]


_DIFF_ORDER_SCRIPT = """
import json
from repro.core.monitoring import PlatformMetrics, ShieldMetrics
base = dict(nodes=[], network_messages=0, network_bytes=0, network_dropped=0,
            cas_sessions=0, cas_secrets=0, audit_records=0, audit_chain_ok=True)
earlier = PlatformMetrics(shields=ShieldMetrics(bytes_by_cipher={"x": 1, "aes-gcm": 2}), **base)
later = PlatformMetrics(shields=ShieldMetrics(
    bytes_by_cipher={"chacha20-poly1305": 5, "aes-gcm": 3}), **base)
print(json.dumps(later.diff(earlier).to_json()))
"""


def test_diff_json_does_not_depend_on_the_hash_seed():
    # Set union order over str keys moves with PYTHONHASHSEED; the
    # sampler's series order and diff().to_json() followed it.
    src = Path(__file__).resolve().parents[2] / "src"
    outputs = [
        subprocess.run(
            [sys.executable, "-c", _DIFF_ORDER_SCRIPT],
            env={**os.environ, "PYTHONPATH": str(src), "PYTHONHASHSEED": seed},
            capture_output=True,
            text=True,
            check=True,
        ).stdout
        for seed in ("1", "2")
    ]
    assert outputs[0] == outputs[1]
    assert list(json.loads(outputs[0])["shields"]["bytes_by_cipher"]) == [
        "chacha20-poly1305",
        "aes-gcm",
        "x",
    ]
