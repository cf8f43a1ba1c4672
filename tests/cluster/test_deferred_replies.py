"""A deferred reply keeps the server's at-most-once promise.

A handler that returns a Completion answers later, from the heap.  Two
rules hold for it as for a synchronous reply: a duplicate of a call
still pending waits on that same reply instead of running the handler
again, and a call that settles with a typed error records the error,
so a resend replays it instead of re-executing.
"""

import pytest

from repro.cluster import Network, make_cluster
from repro.cluster.network import FaultAction
from repro.cluster.retry import RetryPolicy
from repro.cluster.rpc import RpcClient, RpcServer, SecureRpcClient, SecureRpcServer
from repro.crypto.certs import CertificateAuthority
from repro.crypto.ed25519 import Ed25519PrivateKey
from repro.enclave.cost_model import DEFAULT_COST_MODEL as CM
from repro.errors import PolicyError
from tests.cluster.test_network_rpc import make_shield

ONCE = RetryPolicy(max_attempts=1, deadline=None)


@pytest.fixture
def cluster(provisioning):
    return make_cluster(2, CM, provisioning, seed=4)


@pytest.fixture
def network():
    return Network(CM)


def deferred_server(network, node, error=None, server=None):
    """A ``work`` method that answers half a second later — with its
    payload, or by raising ``error``; returns the server (a plain one at
    ``srv`` unless given) and its runs."""
    runs = []

    def later(payload):
        yield network.scheduler.timer(node.clock, node.clock.now + 0.5)
        if error is not None:
            raise error
        return payload

    def work(payload, peer):
        runs.append(payload)
        return network.scheduler.start(later(payload))

    if server is None:
        server = RpcServer(network, "srv", node)
    server.register("work", work)
    server.start()
    return server, runs


def first_message(network, dst, action):
    """Apply ``action`` to the first message addressed to ``dst``."""
    hit = []

    def fault(src, to, n_bytes, now):
        if to == dst and not hit:
            hit.append(now)
            return action
        return None

    network.faults.append(fault)


def test_a_duplicate_of_a_pending_call_waits_on_its_reply(cluster, network):
    server, runs = deferred_server(network, cluster[0])
    first_message(network, "srv", FaultAction(duplicate=True))
    client = RpcClient(network, "client", cluster[1], retry=ONCE)
    assert client.call("srv", "work", b"x") == b"x"
    network.scheduler.run()
    assert network.stats.duplicated == 1
    assert runs == [b"x"]
    assert server.stats.dedup_hits == 1


def test_a_resend_replays_the_typed_error_a_deferred_call_settled_with(
    cluster, network
):
    server, runs = deferred_server(network, cluster[0], error=PolicyError("denied"))
    first_message(network, "client", FaultAction(drop=True, reason="test drop"))
    client = RpcClient(network, "client", cluster[1], retry=RetryPolicy(max_attempts=2))
    with pytest.raises(PolicyError, match="denied"):
        client.call("srv", "work", b"x")
    assert client.stats.retries == 1
    assert runs == [b"x"]
    assert server.stats.dedup_hits == 1


def test_synchronous_errors_are_still_not_recorded(cluster, network):
    """Only a deferred call's error is an outcome to replay: a handler
    that raises at once leaves nothing in the window."""
    runs = []

    def deny(payload, peer):
        runs.append(payload)
        raise PolicyError("denied")

    server = RpcServer(network, "srv", cluster[0])
    server.register("deny", deny)
    server.start()
    first_message(network, "client", FaultAction(drop=True, reason="test drop"))
    client = RpcClient(network, "client", cluster[1], retry=RetryPolicy(max_attempts=2))
    with pytest.raises(PolicyError):
        client.call("srv", "deny", b"x")
    assert runs == [b"x", b"x"]
    assert server.stats.dedup_hits == 0


# --- behind the network shield ------------------------------------------------


def secure_pair(cluster, network, rng, error=None):
    """A deferred ``work`` server at ``srv`` behind the network shield,
    and a once-retrying client with a session to it."""
    ca = CertificateAuthority("root", Ed25519PrivateKey(rng.random_bytes(32)))
    server, runs = deferred_server(
        network, cluster[0], error,
        SecureRpcServer(network, "srv", cluster[0], make_shield(ca, rng, cluster[0], "srv")),
    )
    client = SecureRpcClient(
        network, "client", cluster[1], make_shield(ca, rng, cluster[1], "client"),
        retry=RetryPolicy(max_attempts=2),
    )
    network.scheduler.drive(client.open("srv"))
    return server, runs, client


def test_a_secure_deferred_reply_is_sealed_when_it_settles(cluster, network, rng):
    _, runs, client = secure_pair(cluster, network, rng)
    # The client opened the reply under its session's keys.
    assert client.call("srv", "work", b"x") == b"x"
    assert runs == [b"x"]


def test_a_secure_deferred_typed_error_reaches_the_caller(cluster, network, rng):
    _, runs, client = secure_pair(
        cluster, network, rng, error=PolicyError("denied")
    )
    with pytest.raises(PolicyError, match="denied"):
        client.call("srv", "work", b"x")
    assert runs == [b"x"]
    assert client.stats.retries == 0


def test_a_secure_resend_after_a_lost_deferred_reply_replays_it(cluster, network, rng):
    server, runs, client = secure_pair(cluster, network, rng)
    first_message(network, "client", FaultAction(drop=True, reason="test drop"))
    assert client.call("srv", "work", b"x") == b"x"
    # A fresh session, the same call ID: the window answers the resend.
    assert client.stats.reconnects == 1
    assert runs == [b"x"]
    assert server.stats.dedup_hits == 1
