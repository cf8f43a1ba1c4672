"""Simulated network and RPC: timing, adversary, secure sessions."""

import pytest

from repro._sim import DeterministicRng, probe
from repro.cluster import Network, make_cluster
from repro.cluster.rpc import RpcClient, RpcServer, SecureRpcClient, SecureRpcServer
from repro.crypto.certs import CertificateAuthority
from repro.crypto.ed25519 import Ed25519PrivateKey
from repro.crypto.tls import TlsIdentity
from repro.enclave.attestation import ProvisioningAuthority
from repro.enclave.cost_model import DEFAULT_COST_MODEL as CM
from repro.errors import HandshakeError, IntegrityError, RpcError, SecurityError
from repro.runtime.net_shield import NetworkShield


@pytest.fixture
def cluster(provisioning):
    return make_cluster(3, CM, provisioning, seed=4)


@pytest.fixture
def network():
    return Network(CM)


def connect(client, dst, **kwargs):
    """The blocking handshake of a test: ``open`` driven to its end (the
    peer's certificate subject)."""
    return client._network.scheduler.drive(client.open(dst, **kwargs))


def peer_subject(client, dst):
    """The subject of the peer ``client``'s session to ``dst`` reaches now."""
    return client._sessions[dst].peer_subject


def break_session(client, dst):
    """Point ``client``'s session to ``dst`` at a connection the server
    never established."""
    client._sessions[dst] = client._sessions[dst]._replace(conn=9999)


def echo_server(network, node, address="echo"):
    server = RpcServer(network, address, node)
    server.register("echo", lambda payload, peer: payload)
    server.start()
    return server


def test_plain_call_roundtrip(cluster, network):
    echo_server(network, cluster[0])
    client = RpcClient(network, "client", cluster[1])
    assert client.call("echo", "echo", b"hello") == b"hello"


def test_call_charges_rtt_and_bandwidth(cluster, network):
    echo_server(network, cluster[0])
    client = RpcClient(network, "client", cluster[1])
    before = cluster[1].clock.now
    client.call("echo", "echo", b"x", declared_request=10_000_000)
    elapsed = cluster[1].clock.now - before
    assert elapsed >= CM.lan_rtt + 10_000_000 / CM.lan_bandwidth


def test_callee_clock_advances_to_arrival(cluster, network):
    echo_server(network, cluster[0])
    cluster[1].clock.advance(5.0)
    RpcClient(network, "client", cluster[1]).call("echo", "echo", b"x")
    assert cluster[0].clock.now >= 5.0


def test_busy_callee_delays_caller(cluster, network):
    server = RpcServer(network, "slow", cluster[0])

    def slow_handler(payload, peer):
        cluster[0].clock.advance(2.0)
        return b"done"

    server.register("work", slow_handler)
    server.start()
    client = RpcClient(network, "client", cluster[1])
    before = cluster[1].clock.now
    client.call("slow", "work", b"")
    assert cluster[1].clock.now - before >= 2.0


def test_unknown_method_and_endpoint(cluster, network):
    echo_server(network, cluster[0])
    client = RpcClient(network, "client", cluster[1])
    with pytest.raises(RpcError):
        client.call("echo", "missing_method", b"")
    with pytest.raises(RpcError):
        client.call("nowhere", "echo", b"")


def test_partition_and_heal(cluster, network):
    echo_server(network, cluster[0])
    client = RpcClient(network, "client", cluster[1])
    network.partition("echo")
    with pytest.raises(RpcError):
        client.call("echo", "echo", b"")
    network.heal("echo")
    assert client.call("echo", "echo", b"ok") == b"ok"


def test_adversary_can_drop(cluster, network):
    echo_server(network, cluster[0])
    network.adversary = lambda src, dst, data: None
    client = RpcClient(network, "client", cluster[1])
    with pytest.raises(RpcError):
        client.call("echo", "echo", b"")
    assert network.stats.dropped == 1


def test_duplicate_address_rejected(cluster, network):
    echo_server(network, cluster[0])
    with pytest.raises(RpcError):
        echo_server(network, cluster[1])


def test_barrier_synchronizes(cluster, network):
    cluster[0].clock.advance(1.0)
    cluster[2].clock.advance(3.0)
    latest = network.barrier([n.clock for n in cluster])
    assert latest == 3.0
    assert all(n.clock.now == 3.0 for n in cluster)


# --- secure RPC -----------------------------------------------------------------


def make_shield(ca, rng, node, name):
    key = Ed25519PrivateKey(rng.random_bytes(32))
    cert = ca.issue(name, key.public_key().public_bytes(), rng.random_bytes(32), now=0.0)
    return NetworkShield(
        TlsIdentity(key, cert), [ca.public_key()], CM, node.clock,
        rng.child(name),
    )


@pytest.fixture
def secure_setup(cluster, network, rng):
    ca = CertificateAuthority("root", Ed25519PrivateKey(rng.random_bytes(32)))
    server_shield = make_shield(ca, rng, cluster[0], "server")
    client_shield = make_shield(ca, rng, cluster[1], "client")
    server = SecureRpcServer(network, "secure", cluster[0], server_shield)
    server.register("echo", lambda payload, peer: payload)
    server.register("whoami", lambda payload, peer: peer.encode())
    server.start()
    client = SecureRpcClient(network, "client", cluster[1], client_shield)
    return ca, rng, client, server, network, cluster


def test_secure_call_roundtrip(secure_setup):
    _, _, client, _, _, _ = secure_setup
    assert connect(client, "secure", expected_server="server") == "server"
    assert client.call("secure", "echo", b"confidential") == b"confidential"


def test_secure_server_sees_client_identity(secure_setup):
    _, _, client, _, _, _ = secure_setup
    connect(client, "secure")
    assert client.call("secure", "whoami", b"") == b"client"


def test_payload_not_visible_on_wire(secure_setup):
    _, _, client, _, network, _ = secure_setup
    seen = []

    def sniff(src, dst, data):
        seen.append(data)
        return data

    connect(client, "secure")
    network.adversary = sniff
    client.call("secure", "echo", b"super-secret-payload")
    assert all(b"super-secret-payload" not in msg for msg in seen)


def test_records_are_counted_at_both_ends(secure_setup):
    _, _, client, server, _, _ = secure_setup
    connect(client, "secure")
    k = 3
    for i in range(k):
        assert client.call("secure", "echo", bytes([i])) == bytes([i])
    for end in (client, server):
        assert end._shield.stats.records_protected == k
        assert end._shield.stats.records_opened == k
        assert end._shield.stats.records_rejected == 0


def test_shielded_training_job_reports_its_records():
    from repro.core.monitoring import collect_metrics
    from repro.core.platform import PlatformConfig, SecureTFPlatform
    from repro.core.training import TrainingJob, TrainingJobConfig
    from repro.data import synthetic_mnist
    from repro.enclave.sgx import SgxMode

    train, _ = synthetic_mnist(n_train=100, n_test=10, seed=60)
    platform = SecureTFPlatform(PlatformConfig(n_nodes=3, seed=62))
    job = TrainingJob(
        platform,
        TrainingJobConfig(
            session="records", n_workers=2, mode=SgxMode.SIM, network_shield=True
        ),
    )
    job.start()
    job.train(list(train.batches(50)), steps=2)
    shields = collect_metrics(platform).shields
    assert shields.net_records_protected > 0
    assert shields.net_records_opened == shields.net_records_protected
    assert shields.net_records_rejected == 0


def test_tampered_secure_response_detected(secure_setup):
    _, _, client, server, network, _ = secure_setup
    connect(client, "secure")

    def tamper(src, dst, data):
        if dst == "client":  # corrupt responses only
            corrupted = bytearray(data)
            corrupted[-1] ^= 1
            return bytes(corrupted)
        return data

    network.adversary = tamper
    with pytest.raises((IntegrityError, RpcError)):
        client.call("secure", "echo", b"payload")
    # The client refused the reply record; the server sealed it fine.
    assert client._shield.stats.records_rejected == 1
    assert server._shield.stats.records_rejected == 0


def test_tampered_secure_request_rejected_by_server(secure_setup):
    _, _, client, server, network, _ = secure_setup
    connect(client, "secure")

    def tamper(src, dst, data):
        if dst == "secure":
            corrupted = bytearray(data)
            corrupted[-1] ^= 1
            return bytes(corrupted)
        return data

    network.adversary = tamper
    # The server's IntegrityError travels back typed, not as bare RpcError.
    with pytest.raises(IntegrityError):
        client.call("secure", "echo", b"payload")
    assert server._shield.stats.records_rejected == 1
    assert client._shield.stats.records_rejected == 0


def test_untrusted_client_cannot_connect(secure_setup, rng):
    ca, _, _, _, network, cluster = secure_setup
    rogue_ca = CertificateAuthority("rogue", Ed25519PrivateKey(rng.random_bytes(32)))
    rogue_key = Ed25519PrivateKey(rng.random_bytes(32))
    rogue_cert = rogue_ca.issue(
        "mallory", rogue_key.public_key().public_bytes(), rng.random_bytes(32), now=0.0
    )
    rogue_shield = NetworkShield(
        TlsIdentity(rogue_key, rogue_cert),
        [ca.public_key()],
        CM,
        cluster[2].clock,
        rng.child("mallory"),
    )
    rogue = SecureRpcClient(network, "mallory", cluster[2], rogue_shield)
    # The server's certificate rejection comes back as a security
    # failure (never retried), not a generic transport error.
    with pytest.raises(SecurityError):
        connect(rogue, "secure")


def test_unknown_connection_rejected(secure_setup):
    _, _, client, _, _, _ = secure_setup
    connect(client, "secure")
    break_session(client, "secure")
    with pytest.raises(RpcError):
        client.call("secure", "echo", b"")


# --- secure-session resilience --------------------------------------------------


def make_retrying_client(secure_setup, **policy_kw):
    from repro.cluster.retry import RetryPolicy

    ca, rng, _, server, network, cluster = secure_setup
    shield = make_shield(ca, rng, cluster[1], "retrier")
    return SecureRpcClient(
        network, "retrier", cluster[1], shield,
        retry=RetryPolicy(jitter=0.0, **policy_kw),
    )


def test_stale_secure_connection_is_typed(secure_setup):
    from repro.errors import StaleConnectionError

    _, _, client, _, _, _ = secure_setup
    connect(client, "secure")
    break_session(client, "secure")
    with pytest.raises(StaleConnectionError):
        client.call("secure", "echo", b"")


def test_pending_handshakes_expire_by_count(secure_setup):
    from repro.cluster.rpc import _envelope

    _, _, client, server, network, cluster = secure_setup
    server.PENDING_CAPACITY = 4
    # Abandoned hs1s (client crashes before hs2) must not pin memory.
    for i in range(10):
        network.scheduler.run_until(network.call_async(
            "client", cluster[1].clock, "secure",
            _envelope("hs1", hello=client._shield.client_handshake(
                now=cluster[1].clock.now).hello()),
        ))
    assert len(server._pending) <= 4 + 1
    assert server.stats.handshakes_expired >= 5


def test_pending_handshakes_expire_by_age(secure_setup):
    from repro.cluster.rpc import _envelope

    _, _, client, server, network, cluster = secure_setup
    network.scheduler.run_until(network.call_async(
        "client", cluster[1].clock, "secure",
        _envelope("hs1", hello=client._shield.client_handshake(
            now=cluster[1].clock.now).hello()),
    ))
    assert len(server._pending) == 1
    cluster[1].clock.advance(server.PENDING_TTL + 1.0)
    network.scheduler.run_until(network.call_async(
        "client", cluster[1].clock, "secure",
        _envelope("hs1", hello=client._shield.client_handshake(
            now=cluster[1].clock.now).hello()),
    ))
    # The sweep on the second hs1 evicted the stale first one.
    assert len(server._pending) == 1
    assert server.stats.handshakes_expired == 1


@pytest.mark.parametrize("cipher", [[1], 7, "rot13", "aes-128-gcm"], ids=repr)
def test_hs1_naming_another_cipher_gets_a_typed_error(secure_setup, cipher):
    from repro.cluster.rpc import _envelope, _open_envelope
    from repro.crypto import encoding

    _, _, client, server, network, cluster = secure_setup
    hello = encoding.decode(
        client._shield.client_handshake(now=cluster[1].clock.now).hello()
    )
    hello["cipher"] = cipher
    raw = network.scheduler.run_until(network.call_async(
        "client", cluster[1].clock, "secure",
        _envelope("hs1", hello=encoding.encode(hello)),
    ))
    # The error envelope re-raises as its original type on the client.
    with pytest.raises(HandshakeError, match="unknown AEAD cipher"):
        _open_envelope(raw)
    assert not server._pending


def test_secure_reconnect_after_server_restart(secure_setup):
    """A server that loses all session state (container restart) forces a
    transparent re-handshake; the call still succeeds."""
    ca, rng, _, server, network, cluster = secure_setup
    client = make_retrying_client(secure_setup)
    connect(client, "secure")
    assert client.call("secure", "echo", b"before") == b"before"

    # Simulate a crash + supervised restart: fresh server, no sessions.
    server.abort()
    server_shield = make_shield(ca, rng, cluster[0], "server2")
    replacement = SecureRpcServer(network, "secure", cluster[0], server_shield)
    replacement.register("echo", lambda payload, peer: payload)
    replacement.start()

    assert client.call("secure", "echo", b"after") == b"after"
    assert client.stats.reconnects >= 1
    assert peer_subject(client, "secure") == "server2"


def test_partition_during_handshake_retries_after_heal(secure_setup):
    """Satellite: a partition between hs1 and hs2 heals while the client
    backs off; open() restarts the handshake from scratch."""
    _, _, _, server, network, cluster = secure_setup
    client = make_retrying_client(secure_setup, max_attempts=8, base_delay=0.5)

    heal_at = cluster[1].clock.now + 1.0
    partitioned = {"on": False}

    def observer(old, new):
        if new >= heal_at and partitioned["on"]:
            network.heal("secure")
            partitioned["on"] = False

    cluster[1].clock.subscribe(observer)
    network.partition("secure")
    partitioned["on"] = True

    connect(client, "secure")
    assert client.call("secure", "echo", b"through") == b"through"
    assert client.stats.retries >= 1
    # The abandoned first hs1 (if any) stays server-side until swept.
    assert server.stats.handshakes_expired == 0


def test_secure_call_retries_through_partition_heal(secure_setup):
    _, _, _, server, network, cluster = secure_setup
    client = make_retrying_client(secure_setup, max_attempts=8, base_delay=0.5)
    connect(client, "secure")

    heal_at = cluster[1].clock.now + 1.0
    partitioned = {"on": False}

    def observer(old, new):
        if new >= heal_at and partitioned["on"]:
            network.heal("secure")
            partitioned["on"] = False

    cluster[1].clock.subscribe(observer)
    network.partition("secure")
    partitioned["on"] = True

    # The in-flight session may or may not survive; the retry layer
    # reconnects as needed and the call completes after the heal.
    assert client.call("secure", "echo", b"persist") == b"persist"
    assert client.stats.retries >= 1


# --- begin_call / settle: the one call path ---------------------------------------
#
# ``call`` is ``begin_call`` then the activity it returns; these drive the two
# halves apart, over the plain and the shielded transport alike, through the
# same client methods.


class _Rig:
    """A retrying client facing a counting server, plain or secure, built
    from seeds alone so two rigs are twins."""

    def __init__(self, kind, breakers=None, **policy_kw):
        from repro.cluster.retry import RetryPolicy

        self.kind = kind
        self.rng = DeterministicRng(77, label="rig")
        self.cluster = make_cluster(
            2, CM, ProvisioningAuthority(self.rng.child("intel")), seed=5
        )
        self.network = Network(CM)
        self.ca = CertificateAuthority(
            "root", Ed25519PrivateKey(self.rng.random_bytes(32))
        )
        self.handled = []
        self.server = self.start_server("server")
        policy = RetryPolicy(jitter=0.0, **policy_kw)
        if kind == "plain":
            self.client = RpcClient(
                self.network, "client", self.cluster[1], retry=policy,
                breakers=breakers,
            )
        else:
            self.client = SecureRpcClient(
                self.network, "client", self.cluster[1],
                make_shield(self.ca, self.rng, self.cluster[1], "client"),
                retry=policy, breakers=breakers,
            )
            connect(self.client, "svc")

    def start_server(self, name):
        node = self.cluster[0]
        if self.kind == "plain":
            server = RpcServer(self.network, "svc", node)
        else:
            server = SecureRpcServer(
                self.network, "svc", node, make_shield(self.ca, self.rng, node, name)
            )

        def apply(payload, peer):
            self.handled.append(payload)
            return b"ok:" + payload

        def deny(payload, peer):
            self.handled.append(payload)
            raise SecurityError("denied")

        server.register("apply", apply)
        server.register("deny", deny)
        server.start()
        return server

    def begin(self, method, payload):
        return self.network.scheduler.drive(
            self.client.begin_call("svc", method, payload)
        )

    def settle(self, activity):
        return self.network.scheduler.drive(activity)

    def call(self, method, payload):
        return self.client.call("svc", method, payload)

    def drop_next(self, src):
        """Lose the next message ``src`` puts on the wire."""
        from repro.cluster.network import FaultAction

        state = {"armed": True}

        def injector(sender, dst, n_bytes, now):
            if state["armed"] and sender == src:
                state["armed"] = False
                return FaultAction(drop=True, reason="test drop")
            return None

        self.network.faults.append(injector)


@pytest.fixture(params=["plain", "secure"])
def kind(request):
    return request.param


def test_a_shielded_client_calls_like_a_plain_one():
    """``call`` and ``begin_call`` take the same arguments on a plain and
    on a shielded client and get the same replies; only the ``rpc.call``
    span says which transport carried them."""
    from repro.observability import Tracer

    def calls(rig):
        drive = rig.network.scheduler.drive
        tracer = Tracer()
        probe.install(tracer)
        try:
            replies = [
                rig.client.call("svc", "apply", b"a"),
                drive(drive(rig.client.begin_call("svc", "apply", b"b"))),
            ]
        finally:
            probe.remove(tracer)
        spans = [span.attrs for span in tracer.spans if span.name == "rpc.call"]
        return replies, spans

    (plain, plain_spans), (secure, secure_spans) = calls(_Rig("plain")), calls(_Rig("secure"))
    assert plain == secure == [b"ok:a", b"ok:b"]
    assert plain_spans == [{"dst": "svc", "method": "apply"}]
    assert secure_spans == [{"dst": "svc", "method": "apply", "secure": True}]


@pytest.mark.parametrize("retrying", [False, True], ids=["once", "retrying"])
def test_a_call_without_a_session_sends_nothing(secure_setup, retrying):
    """A shielded client that never opened a session to the destination
    refuses the call, typed, before a byte reaches the wire."""
    _, _, client, _, network, _ = secure_setup
    if retrying:
        client = make_retrying_client(secure_setup)
    messages = network.stats.messages
    with pytest.raises(RpcError, match="no secure session"):
        client.call("secure", "echo", b"x")
    with pytest.raises(RpcError, match="no secure session"):
        network.scheduler.drive(network.scheduler.drive(
            client.begin_call("secure", "echo", b"y")
        ))
    assert network.stats.messages == messages
    assert client._shield.stats.records_protected == 0


def test_a_shielded_send_puts_nothing_on_the_wire():
    """``send`` writes a cleartext call envelope on a plain client; a
    shielded one refuses it, typed, before anything is written, so no
    payload reaches the wire in the clear."""
    rig = _Rig("secure")
    messages = rig.network.stats.messages
    protected = rig.client._shield.stats.records_protected
    sent = rig.client.send("svc", "apply", b"secret")
    assert sent.done
    with pytest.raises(RpcError, match="no sealed send"):
        sent.result()
    rig.network.scheduler.run()
    assert rig.network.stats.messages == messages
    assert rig.client._shield.stats.records_protected == protected
    assert rig.handled == []


def test_begin_call_request_leg_loss_is_retried_once(kind):
    rig = _Rig(kind)
    rig.drop_next("client")
    messages = rig.network.stats.messages
    pending = rig.begin("apply", b"g")  # the send fails; nothing is raised yet
    assert rig.handled == []
    assert rig.settle(pending) == b"ok:g"
    assert rig.handled == [b"g"]
    assert rig.client.stats.retries == 1
    # One resend sufficed: a secure client re-handshakes *before* it
    # resends (the lost write spent a record sequence number), so the
    # retry is not wasted on a desynced session — the wire carried the
    # four handshake messages and one request/reply pair, nothing else.
    assert rig.client.stats.reconnects == (1 if kind == "secure" else 0)
    assert rig.network.stats.messages == messages + (6 if kind == "secure" else 2)


def test_begin_call_reply_leg_loss_replays_from_dedup_window(kind):
    rig = _Rig(kind)
    rig.drop_next("svc")
    assert rig.settle(rig.begin("apply", b"g")) == b"ok:g"
    # The handler ran exactly once; the resend carried the same call ID
    # and was answered from the server's dedup window.
    assert rig.handled == [b"g"]
    assert rig.server.stats.dedup_hits == 1
    assert rig.client.stats.retries == 1


def test_begin_call_survives_server_restart_before_settle(kind):
    rig = _Rig(kind)
    pending = rig.begin("apply", b"g")
    rig.server.abort()  # the container dies with the request in flight
    rig.server = rig.start_server("server2")
    assert rig.settle(pending) == b"ok:g"
    assert rig.handled == [b"g"]
    if kind == "secure":
        # The replacement knows no sessions: re-handshake, then resend.
        assert rig.client.stats.reconnects == 1
        assert peer_subject(rig.client, "svc") == "server2"


def test_begin_call_open_breaker_sends_nothing(kind):
    from repro.cluster.retry import BreakerRegistry
    from repro.errors import CircuitOpenError, RpcTransportError

    breakers = BreakerRegistry(failure_threshold=2, reset_timeout=60.0)
    rig = _Rig(kind, breakers=breakers, max_attempts=2)
    rig.network.partition("svc")
    with pytest.raises(RpcTransportError):
        rig.settle(rig.begin("apply", b"trip"))
    rig.network.heal("svc")
    assert breakers.get("svc").state == "open"

    messages = rig.network.stats.messages
    rejections = rig.client.stats.breaker_rejections
    pending = rig.begin("apply", b"shed")  # admitted by the breaker: refused
    assert rig.network.stats.messages == messages
    with pytest.raises(CircuitOpenError):
        rig.settle(pending)
    assert rig.network.stats.messages == messages
    assert rig.client.stats.breaker_rejections == rejections + 2
    assert rig.handled == []


def test_begin_call_remote_error_is_not_retried(kind):
    rig = _Rig(kind)
    attempts = rig.client.stats.attempts
    with pytest.raises(SecurityError):
        rig.settle(rig.begin("deny", b"x"))
    assert rig.handled == [b"x"]
    assert rig.client.stats.attempts == attempts + 1
    assert rig.client.stats.retries == 0


def test_begin_call_is_tried_at_most_max_attempts_times(kind):
    from repro.errors import RpcTransportError

    rig = _Rig(kind, max_attempts=3)
    attempts = rig.client.stats.attempts
    rig.network.partition("svc")
    with pytest.raises(RpcTransportError):
        rig.settle(rig.begin("apply", b"g"))
    assert rig.client.stats.attempts == attempts + 3
    assert rig.client.stats.giveups == 1


def test_call_equals_begin_call_settle_under_the_same_fault_plan(kind):
    """Twin seeded rigs, one driven through ``call`` and one through
    ``begin_call`` then ``settle``: same clocks, same recovery counters, same
    wire traffic, same fault dice."""
    from repro.cluster.faults import FaultPlan, FaultSpec
    from repro.cluster.retry import BreakerRegistry

    def drive(use_call):
        # A lenient breaker: lossy re-handshakes must not open it.
        rig = _Rig(
            kind, breakers=BreakerRegistry(failure_threshold=50), max_attempts=12
        )
        plan = FaultPlan(
            9, FaultSpec(loss=0.15, delay=0.2, delay_seconds=0.01, duplication=0.15)
        )
        rig.network.faults.append(plan.inject)
        replies = []
        for i in range(25):
            payload = b"m%d" % i
            if use_call:
                replies.append(rig.call("apply", payload))
            else:
                replies.append(rig.settle(rig.begin("apply", payload)))
        assert plan.counters.losses > 0 and plan.counters.duplicates > 0
        return (
            replies,
            rig.handled,
            [node.clock.now for node in rig.cluster],
            rig.client.stats,
            rig.server.stats,
            rig.network.stats,
            plan.trace_bytes(),
        )

    assert drive(use_call=True) == drive(use_call=False)
