"""Fencing rejections are authoritative: the retry layer never retries
them — a fenced zombie hammering the fleet with its dead epoch would
otherwise burn its whole backoff budget learning the same 'no'."""

import pytest

from repro._sim import DeterministicRng, Scheduler, SimClock
from repro.cluster import Network, make_cluster
from repro.cluster.epoch import EpochService
from repro.cluster.retry import (
    AUTHORITATIVE_ERRORS,
    RetryPolicy,
    RetryingExecutor,
    is_retryable,
)
from repro.cluster.rpc import RpcClient, RpcServer
from repro.enclave.cost_model import DEFAULT_COST_MODEL as CM
from repro.errors import (
    FencedError,
    FencingError,
    LeaseExpiredError,
    RpcTransportError,
)
from tests.cluster._attempts import run_attempts


def test_fencing_errors_are_not_retryable():
    assert not is_retryable(FencedError("fenced"))
    assert not is_retryable(LeaseExpiredError("expired"))
    assert is_retryable(RpcTransportError("lost"))
    assert any(issubclass(FencingError, t) for t in AUTHORITATIVE_ERRORS)


def test_executor_gives_up_immediately_on_fenced_error():
    clock = SimClock()
    policy = RetryPolicy(max_attempts=5, base_delay=0.01, jitter=0.0)
    scheduler = Scheduler()
    executor = RetryingExecutor(policy, clock, DeterministicRng(3, label="t"), scheduler)
    attempts = []

    def fenced_operation():
        attempts.append(clock.now)
        raise FencedError("stale epoch 1")

    with pytest.raises(FencedError):
        run_attempts(executor, scheduler, "acceptor", fenced_operation)
    # One attempt, zero backoff sleeps: authoritative means *believed*.
    assert len(attempts) == 1
    assert clock.now == 0.0
    assert executor.stats.fenced_calls == 1
    assert executor.stats.retries == 0


def test_fenced_rpc_not_retried_end_to_end(provisioning):
    nodes = make_cluster(2, CM, provisioning, seed=5)
    network = Network(CM)
    epochs = EpochService()
    server = RpcServer(network, "acceptor", nodes[0])
    calls = []

    def handler(payload, peer):
        calls.append(payload)
        return payload

    server.register("write", handler)
    server.add_guard(epochs.make_guard("leader", name="acceptor"))
    server.start()

    lease = epochs.grant("leader", holder="old")
    client = RpcClient(
        network, "old-leader", nodes[1],
        retry=RetryPolicy(max_attempts=4, base_delay=0.01, jitter=0.0),
    )
    client.fence = lease
    assert client.call("acceptor", "write", b"w1") == b"w1"

    epochs.bump("leader")  # control plane fences the role
    with pytest.raises(FencedError):
        client.call("acceptor", "write", b"w2")
    # The stale write was attempted once and never executed or retried.
    assert calls == [b"w1"]
    assert client.stats.fenced_calls == 1
    assert client.stats.retries == 0
    assert epochs.stats.fenced_rejections == 1
