"""Retry policy, circuit breaker, and at-most-once RPC semantics."""

import pytest

from repro._sim import DeterministicRng, SimClock
from repro.cluster import Network, make_cluster
from repro.cluster.faults import FaultPlan, FaultSpec
from repro.cluster.retry import (
    BreakerRegistry,
    CircuitBreaker,
    RetryPolicy,
    RetryingExecutor,
    is_retryable,
)
from repro.cluster.rpc import RpcClient, RpcServer
from repro.enclave.cost_model import DEFAULT_COST_MODEL as CM
from repro.errors import (
    CircuitOpenError,
    PolicyError,
    RpcTransportError,
)


@pytest.fixture
def cluster(provisioning):
    return make_cluster(2, CM, provisioning, seed=11)


@pytest.fixture
def network():
    return Network(CM)


# -- policy ---------------------------------------------------------------


def test_backoff_grows_exponentially_and_caps():
    policy = RetryPolicy(base_delay=0.01, multiplier=2.0, max_delay=0.05, jitter=0.0)
    delays = [policy.backoff(i) for i in range(6)]
    assert delays[:3] == [0.01, 0.02, 0.04]
    assert all(d == 0.05 for d in delays[3:])


def test_backoff_jitter_is_deterministic():
    policy = RetryPolicy(base_delay=0.01, jitter=0.5)
    a = [policy.backoff(i, DeterministicRng(3, label="r")) for i in range(8)]
    b = [policy.backoff(i, DeterministicRng(3, label="r")) for i in range(8)]
    assert a == b
    assert a != [policy.backoff(i) for i in range(8)]  # jitter does act


def test_retryable_classification():
    assert is_retryable(RpcTransportError("lost"))
    assert is_retryable(CircuitOpenError("open"))
    assert not is_retryable(PolicyError("denied"))
    assert not is_retryable(ValueError("bug"))


# -- executor -------------------------------------------------------------


def make_executor(clock, **policy_kw):
    policy = RetryPolicy(**policy_kw)
    return RetryingExecutor(policy, clock, DeterministicRng(7, label="x"))


def test_executor_retries_transient_failures(clock):
    executor = make_executor(clock, max_attempts=5, jitter=0.0)
    attempts = []

    def flaky():
        attempts.append(clock.now)
        if len(attempts) < 3:
            raise RpcTransportError("lost")
        return "ok"

    assert executor.run("svc", flaky) == "ok"
    assert len(attempts) == 3
    assert executor.stats.retries == 2
    # Backoff advanced the simulated clock between attempts.
    assert attempts[1] - attempts[0] == pytest.approx(0.02)
    assert attempts[2] - attempts[1] == pytest.approx(0.04)


def test_executor_gives_up_after_max_attempts(clock):
    executor = make_executor(clock, max_attempts=3)

    def dead():
        raise RpcTransportError("lost")

    with pytest.raises(RpcTransportError):
        executor.run("svc", dead)
    assert executor.stats.attempts == 3
    assert executor.stats.giveups == 1


def test_executor_respects_deadline(clock):
    executor = make_executor(
        clock, max_attempts=100, base_delay=1.0, multiplier=1.0,
        jitter=0.0, deadline=3.5,
    )
    calls = []

    def dead():
        calls.append(1)
        raise RpcTransportError("lost")

    with pytest.raises(RpcTransportError):
        executor.run("svc", dead)
    # Attempts at t=0,1,2,3; the next backoff would pass the deadline.
    assert len(calls) == 4
    assert clock.now <= 3.5


def test_non_retryable_error_attempted_once(clock):
    executor = make_executor(clock, max_attempts=5)
    calls = []

    def denied():
        calls.append(1)
        raise PolicyError("no")

    with pytest.raises(PolicyError):
        executor.run("svc", denied)
    assert len(calls) == 1
    assert executor.stats.retries == 0


# -- circuit breaker ------------------------------------------------------


def test_breaker_trips_after_threshold_and_half_opens():
    breaker = CircuitBreaker(failure_threshold=3, reset_timeout=5.0)
    assert breaker.state == "closed"
    for t in range(3):
        assert breaker.allow(float(t))
        breaker.on_failure(float(t))
    assert breaker.state == "open"
    assert not breaker.allow(3.0)
    # Cooldown elapses: one probe allowed (half-open).
    assert breaker.allow(2.0 + 5.0)
    assert breaker.state == "half-open"
    # Probe fails -> snaps open again immediately.
    breaker.on_failure(7.0)
    assert breaker.state == "open"
    # Probe succeeds next time -> fully closed.
    assert breaker.allow(12.1)
    breaker.on_success()
    assert breaker.state == "closed"


def test_executor_sheds_calls_while_open_then_recovers(clock):
    policy = RetryPolicy(
        max_attempts=2, base_delay=0.01, jitter=0.0, deadline=None
    )
    breakers = BreakerRegistry(failure_threshold=2, reset_timeout=10.0)
    executor = RetryingExecutor(
        policy, clock, DeterministicRng(1, label="x"), breakers=breakers
    )
    calls = []

    def dead():
        calls.append(1)
        raise RpcTransportError("lost")

    with pytest.raises(RpcTransportError):
        executor.run("svc", dead)  # both attempts fail -> breaker trips
    assert breakers.get("svc").state == "open"
    before = len(calls)
    # While open, the attempt function is never invoked: calls are shed.
    with pytest.raises(CircuitOpenError):
        executor.run("svc", dead)
    assert len(calls) == before
    assert executor.stats.breaker_rejections > 0
    # After the cooldown the endpoint recovered: probe succeeds.
    clock.advance(10.0)
    assert executor.run("svc", lambda: "ok") == "ok"
    assert breakers.get("svc").state == "closed"


# -- end-to-end over the simulated network --------------------------------


def test_client_retries_through_lossy_network(cluster, network):
    echo = RpcServer(network, "echo", cluster[0])
    echo.register("echo", lambda payload, peer: payload)
    echo.start()
    # ~20% loss per leg; retries must still get every call through.
    plan = FaultPlan(3, FaultSpec(loss=0.2))
    network.faults.append(plan.inject)
    client = RpcClient(
        network, "client", cluster[1],
        retry=RetryPolicy(max_attempts=25, jitter=0.0),
    )
    for i in range(30):
        assert client.call("echo", "echo", b"m%d" % i) == b"m%d" % i
    assert plan.counters.losses > 0
    # Every loss was absorbed by exactly one retry (no giveups).
    assert client.stats.retries == plan.counters.losses
    assert client.stats.giveups == 0


def test_dedup_makes_retried_mutations_at_most_once(cluster, network):
    applied = []
    server = RpcServer(network, "svc", cluster[0])
    server.register("apply", lambda payload, peer: bytes(applied.append(payload) or b"done"))
    server.start()

    # Drop only responses: the server executes, the client never hears.
    class ResponseDropper:
        def __init__(self, n):
            self.remaining = n

        def __call__(self, src, dst, n_bytes, now):
            from repro.cluster.network import FaultAction

            if src == "svc" and self.remaining > 0:
                self.remaining -= 1
                return FaultAction(drop=True, reason="response lost")
            return None

    network.faults.append(ResponseDropper(2))
    client = RpcClient(
        network, "client", cluster[1],
        retry=RetryPolicy(max_attempts=5, jitter=0.0),
    )
    assert client.call("svc", "apply", b"g1") == b"done"
    # Three attempts reached the server, but the mutation applied once.
    assert applied == [b"g1"]
    assert server.stats.dedup_hits == 2


def test_duplicate_delivery_deduped(cluster, network):
    applied = []
    server = RpcServer(network, "svc", cluster[0])
    server.register("apply", lambda payload, peer: bytes(applied.append(payload) or b"done"))
    server.start()
    plan = FaultPlan(0, FaultSpec(duplication=1.0))
    network.faults.append(plan.inject)
    client = RpcClient(
        network, "client", cluster[1], retry=RetryPolicy(jitter=0.0)
    )
    assert client.call("svc", "apply", b"g") == b"done"
    # The duplicated request hit the dedup window, not the handler.
    assert applied == [b"g"]
    assert server.stats.dedup_hits == 1


def test_call_ids_unique_across_client_instances(cluster, network):
    a = RpcClient(network, "same-addr", cluster[0], retry=RetryPolicy())
    b = RpcClient(network, "same-addr", cluster[1], retry=RetryPolicy())
    ids = {a.next_call_id(), a.next_call_id(), b.next_call_id(), b.next_call_id()}
    assert len(ids) == 4  # replacement containers never collide


def test_dedup_window_bounded(cluster, network):
    server = RpcServer(network, "svc", cluster[0])
    server.register("noop", lambda payload, peer: b"")
    server.start()
    server.dedup.capacity = 8
    client = RpcClient(network, "client", cluster[1], retry=RetryPolicy())
    for i in range(40):
        client.call("svc", "noop", b"%d" % i)
    assert len(server.dedup) == 8
