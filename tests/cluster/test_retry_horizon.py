"""The retry horizon at its edges: the one number that bounds how long a
client resends a call ID, and from which a server's at-most-once window
is derived."""

import numpy as np
import pytest

from repro._sim import DeterministicRng, Scheduler
from repro.cluster import InMemoryCheckpointStore, Network, ParameterServer, make_cluster
from repro.cluster.retry import (
    RETRY_HORIZON,
    BreakerRegistry,
    RetryPolicy,
    RetryingExecutor,
)
from repro.cluster.rpc import RpcServer, _envelope
from repro.crypto import encoding
from repro.enclave.cost_model import DEFAULT_COST_MODEL as CM
from repro.errors import ConfigurationError, RpcTransportError
from repro.tensor.arrays import encode_array_dict
from tests.cluster._attempts import run_attempts


def test_the_window_is_two_horizons_and_the_default_deadline_one():
    assert RpcServer.DEDUP_TTL == 2 * RETRY_HORIZON
    assert RetryPolicy().deadline == RETRY_HORIZON


def test_a_duplicate_just_inside_the_window_replays_and_executes_nothing(provisioning):
    node = make_cluster(1, CM, provisioning, seed=5)[0]
    server = RpcServer(Network(CM), "svc", node)
    executed = []
    server.register(
        "apply", lambda payload, peer: bytes(executed.append(payload) or b"done")
    )
    request = _envelope("call", method="apply", payload=b"g", call_id="client#1/1")
    first = server._handle(request)
    node.clock.advance(RpcServer.DEDUP_TTL - 1e-6)
    assert server._handle(request) == first
    assert executed == [b"g"]
    assert server.stats.dedup_hits == 1
    # Past the window the ID is forgotten: no client can still send it.
    node.clock.advance(2e-6)
    server._handle(request)
    assert executed == [b"g", b"g"]


@pytest.mark.parametrize(
    "kwargs",
    [{"deadline": RETRY_HORIZON + 1}, {"max_attempts": 2, "deadline": None}],
    ids=["deadline-past-horizon", "resending-without-deadline"],
)
def test_a_policy_that_could_resend_past_the_horizon_is_refused(kwargs):
    with pytest.raises(ConfigurationError, match="horizon"):
        RetryPolicy(**kwargs)


def test_policies_within_the_horizon_are_accepted():
    assert RetryPolicy(deadline=RETRY_HORIZON).deadline == RETRY_HORIZON
    assert RetryPolicy(max_attempts=1, deadline=None).deadline is None


def test_a_caller_deadline_past_the_horizon_gives_up_at_the_horizon(clock):
    policy = RetryPolicy(
        max_attempts=1000, base_delay=1.0, max_delay=1.0, jitter=0.0
    )
    scheduler = Scheduler()
    executor = RetryingExecutor(
        policy,
        clock,
        DeterministicRng(7, label="x"),
        scheduler,
        breakers=BreakerRegistry(failure_threshold=10_000),  # never opens
    )
    start, sent = clock.now, []

    def dead():
        sent.append(clock.now)
        raise RpcTransportError("lost")

    with pytest.raises(RpcTransportError):
        run_attempts(
            executor, scheduler, "svc", dead, deadline=start + 10 * RETRY_HORIZON
        )
    # One attempt a second from t=0; the one after t=30 would be late.
    assert len(sent) == int(RETRY_HORIZON) + 1
    assert max(sent) - start <= RETRY_HORIZON
    assert executor.stats.giveups == 1


def test_a_push_retried_within_the_horizon_hits_the_restarted_shards_window(
    provisioning,
):
    node = make_cluster(1, CM, provisioning, seed=6)[0]
    network, store = Network(CM), InMemoryCheckpointStore()
    ps = ParameterServer(
        node, "ps-0", network, learning_rate=0.5, checkpoint_store=store
    )
    ps.initialize({"w": np.ones(4, dtype=np.float32)})
    gradients = encode_array_dict({"w": np.ones(4, dtype=np.float32)})
    push = _envelope(
        "call",
        method="push",
        payload=encoding.encode({"gradients": gradients, "declared_flops": 8}),
        call_id="worker-0#1/7",
    )
    reply = ps._server._handle(push)
    assert ps.version == 2
    # The shard dies after checkpointing; its client resends at the
    # very end of its horizon, to the replacement.
    ps.crash()
    node.clock.advance(RETRY_HORIZON - 1e-6)
    replacement = ParameterServer(
        node, "ps-0", network, learning_rate=0.5, checkpoint_store=store
    )
    assert replacement._server._handle(push) == reply
    assert (replacement.version, replacement.updates_applied) == (2, 1)
    np.testing.assert_array_equal(
        replacement.weights["w"], np.full(4, 0.5, dtype=np.float32)
    )
    assert replacement._server.stats.dedup_hits == 1
