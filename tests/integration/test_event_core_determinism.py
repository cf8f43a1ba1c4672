"""Event-core determinism acceptance (PR 6 satellite).

The tentpole replaced the per-node synchronous clock walk with a global
event-heap scheduler; the hard constraint is that seeded runs stay
*byte-identical*.  This suite drives two identically-seeded chaos runs
— message loss, latency spikes, duplicate delivery, a transient
partition, container crashes, and the retry/backoff machinery riding
heap timers — through the new core and asserts everything observable
matches: fault traces byte for byte, NetworkStats and per-node
SyscallStats as equal dataclasses, scheduler event counts, and the
final model weights down to their raw bytes.
"""

import numpy as np
import pytest

from repro.cluster.faults import CrashFault, FaultPlan, FaultSpec, TransientPartition
from repro.cluster.retry import RetryPolicy
from repro.core import SecureTFPlatform, TrainingJob
from repro.core.platform import PlatformConfig
from repro.core.training import TrainingJobConfig
from repro.data import synthetic_mnist
from repro.enclave.sgx import SgxMode

STEPS = 8


@pytest.fixture(scope="module")
def batches():
    train, _ = synthetic_mnist(n_train=400, n_test=10, seed=70)
    return list(train.batches(50))


def run_chaos_job(batches):
    """One fully-loaded chaos run; returns everything comparable."""
    session = "event-core"
    platform = SecureTFPlatform(PlatformConfig(n_nodes=3, seed=71))
    job = TrainingJob(
        platform,
        TrainingJobConfig(
            session=session,
            n_workers=2,
            mode=SgxMode.SIM,
            network_shield=True,
            learning_rate=0.05,
            retry_policy=RetryPolicy(max_attempts=8, base_delay=0.1),
        ),
    )
    job.start()
    # The partition window is anchored to post-startup simulated time so
    # it lands inside training; startup is seeded, so both runs compute
    # the identical window.
    ps_address = job.ps_service.shard(0).address
    t0 = max(node.clock.now for node in platform.nodes)
    plan = FaultPlan(
        72,
        FaultSpec(
            loss=0.05,
            delay=0.1,
            delay_seconds=0.02,
            duplication=0.05,
            targets=frozenset({ps_address}),
        ),
        partitions=[TransientPartition(ps_address, t0 + 0.01, t0 + 0.5)],
        crashes=[
            CrashFault("worker-1", at_round=1),
            CrashFault("ps", at_round=2),
        ],
    )
    job.attach_chaos(plan)
    result = job.train(batches, steps=STEPS)
    return {
        "plan": plan,
        "trace": plan.trace_bytes(),
        "counters": plan.counters,
        "recovery_events": list(job.recovery_events),
        "network_stats": platform.network.stats,
        "syscall_stats": [
            node.syscall_interface().stats for node in platform.nodes
        ],
        "weights": job.weights(),
        "result": result,
        "events_processed": platform.scheduler.events_processed,
        "fleet_time": platform.scheduler.fleet_time(),
    }


@pytest.fixture(scope="module")
def two_runs(batches):
    return run_chaos_job(batches), run_chaos_job(batches)


def test_chaos_actually_happened(two_runs):
    """The run must exercise every fault class or the comparison is vacuous."""
    first, _ = two_runs
    counters = first["counters"]
    assert counters.crashes == 2
    assert counters.partition_drops > 0
    assert counters.losses + counters.delays + counters.duplicates > 0
    assert first["recovery_events"]
    assert first["result"].steps == STEPS


def test_traces_are_byte_identical(two_runs):
    first, second = two_runs
    assert first["trace"] == second["trace"]
    assert first["counters"] == second["counters"]
    assert first["recovery_events"] == second["recovery_events"]


def test_network_and_syscall_stats_are_equal(two_runs):
    first, second = two_runs
    assert first["network_stats"] == second["network_stats"]
    assert first["syscall_stats"] == second["syscall_stats"]


def test_scheduler_event_counts_and_clocks_match(two_runs):
    first, second = two_runs
    assert first["events_processed"] == second["events_processed"]
    assert first["events_processed"] > 0
    assert first["fleet_time"] == second["fleet_time"]
    assert first["result"].simulated_events == second["result"].simulated_events
    assert first["result"].simulated_events > 0
    assert first["result"].wall_clock == second["result"].wall_clock


def test_final_weights_are_byte_identical(two_runs):
    first, second = two_runs
    assert set(first["weights"]) == set(second["weights"])
    for name in first["weights"]:
        a, b = first["weights"][name], second["weights"][name]
        np.testing.assert_array_equal(a, b)
        assert np.asarray(a).tobytes() == np.asarray(b).tobytes()
