"""Network shield: session establishment, the one record path
(``NetworkShield.seal`` / ``open``) and its cost accounting, driven
through the secure RPC stack over the simulated network."""

import pytest

from repro.cluster import Network, make_cluster
from repro.cluster.rpc import SecureRpcClient, SecureRpcServer
from repro.crypto import encoding
from repro.crypto.aead import CIPHER
from repro.crypto.certs import CertificateAuthority
from repro.crypto.ed25519 import Ed25519PrivateKey
from repro.crypto.tls import TlsIdentity
from repro.enclave.cost_model import DEFAULT_COST_MODEL as CM
from repro.errors import IntegrityError
from repro.runtime.net_shield import RECORD_SIZE, NetworkShield


def make_shield(ca, rng, node, name):
    key = Ed25519PrivateKey(rng.random_bytes(32))
    cert = ca.issue(name, key.public_key().public_bytes(), rng.random_bytes(32), now=0.0)
    return NetworkShield(
        TlsIdentity(key, cert), [ca.public_key()], CM, node.clock, rng.child(name)
    )


@pytest.fixture
def pair(provisioning, rng):
    """``alice`` (a client node) and ``bob`` (a server node) on one
    network, each behind its own shield; bob echoes and names his peer."""
    cluster = make_cluster(2, CM, provisioning, seed=4)
    network = Network(CM)
    ca = CertificateAuthority("root", Ed25519PrivateKey(rng.random_bytes(32)))
    alice = make_shield(ca, rng, cluster[1], "alice")
    bob = make_shield(ca, rng, cluster[0], "bob")
    server = SecureRpcServer(network, "bob", cluster[0], bob)
    server.register("echo", lambda payload, peer: payload)
    server.register("whoami", lambda payload, peer: peer.encode())
    server.start()
    client = SecureRpcClient(network, "alice", cluster[1], alice)
    return alice, bob, client, network, cluster


def connect(client, dst, **kwargs):
    return client._network.scheduler.drive(client.open(dst, **kwargs))


def test_establish_and_exchange(pair):
    alice, bob, client, _, _ = pair
    assert connect(client, "bob", expected_server="bob") == "bob"
    assert client.call("bob", "echo", b"gradients") == b"gradients"
    assert client.call("bob", "whoami", b"") == b"alice"
    assert alice.stats.handshakes == 1
    assert bob.stats.handshakes == 1


def test_crypto_time_charged(pair):
    alice, bob, client, _, cluster = pair
    connect(client, "bob")
    before = cluster[1].clock.now
    client.call("bob", "echo", b"x", declared_request=10_000_000, declared_response=10_000_000)
    elapsed = cluster[1].clock.now - before
    assert elapsed >= 2 * 10_000_000 / CM.net_shield_crypto_bandwidth
    # Each end seals one 10 MB record and opens one, each charged as
    # bytes / bandwidth + one overhead per 16 KiB record.
    one = (
        10_000_000 / CM.net_shield_crypto_bandwidth
        + -(-10_000_000 // RECORD_SIZE) * CM.net_shield_record_overhead
    )
    for shield in (alice, bob):
        assert shield.stats.crypto_bytes == 20_000_000
        assert shield.stats.crypto_time == 2 * one


def test_wire_bytes_are_ciphertext(pair):
    _, _, client, network, _ = pair
    connect(client, "bob")
    wire = []

    def sniff(src, dst, data):
        wire.append(data)
        return data

    network.adversary = sniff
    assert client.call("bob", "echo", b"plaintext-secret") == b"plaintext-secret"
    assert len(wire) == 2  # the request and its echoed reply
    assert all(b"plaintext-secret" not in data for data in wire)


def test_tampered_record_detected(pair):
    alice, bob, client, network, _ = pair
    connect(client, "bob")

    def flip_record_bit(src, dst, data):
        # Dolev-Yao: keep the envelope well-formed, flip a bit inside
        # the sealed record itself.
        msg = encoding.decode(data)
        if msg.get("kind") == "secure_call":
            record = bytearray(msg["record"])
            record[-2] ^= 1
            msg["record"] = bytes(record)
            return encoding.encode(msg)
        return data

    network.adversary = flip_record_bit
    charged = bob.stats.crypto_bytes
    with pytest.raises(IntegrityError):
        client.call("bob", "echo", b"data")
    assert bob.stats.records_rejected == 1
    assert bob.stats.records_opened == 0
    assert bob.stats.crypto_bytes == charged  # a refused record is not charged
    assert alice.stats.records_rejected == 0


def test_record_counters(pair):
    alice, bob, client, _, _ = pair
    connect(client, "bob")
    # Handshake flights travel as plain RPCs: they are not records.
    for shield in (alice, bob):
        assert shield.stats.records_protected == shield.stats.records_opened == 0
    for i in range(5):
        assert client.call("bob", "echo", bytes([i])) == bytes([i])
    for shield in (alice, bob):
        assert shield.stats.records_protected == shield.stats.records_opened == 5
        # Nothing declared a size: the charged bytes are the real ones.
        assert shield.stats.bytes_by_cipher == {CIPHER: shield.stats.crypto_bytes}
