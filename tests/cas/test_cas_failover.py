"""CAS high availability: quorum replication, promotion, client failover.

The pair mirrors logical operations (policy registrations, audit
records) because sealed blobs cannot cross CPUs; after promotion the
standby serves the same session keys, a byte-identical audit chain, and
certificates that verify against the unchanged trust root.
"""

import pytest

from repro.cas import CasService, Policy, ReplicatedCasPair
from repro.cas.client import RemoteCasClient
from repro.cluster import Network, make_cluster
from repro.cluster.network import FaultAction
from repro.cluster.orchestrator import Orchestrator
from repro.cluster.retry import RetryPolicy
from repro.enclave.cost_model import DEFAULT_COST_MODEL as CM
from repro.enclave.sgx import SgxMode
from repro.errors import FreshnessError, RpcError, RpcTransportError
from repro.runtime.scone import RuntimeConfig, SconeRuntime
from repro.tensor.engine import LITE_PROFILE


@pytest.fixture
def cluster(provisioning):
    return make_cluster(3, CM, provisioning, seed=11)


@pytest.fixture
def pair(cluster, provisioning):
    network = Network(CM)
    primary = CasService(cluster[0], provisioning.public_key())
    backup = CasService(cluster[1], provisioning.public_key())
    return ReplicatedCasPair(network, primary, backup)


def make_runtime(node, name="worker"):
    return SconeRuntime(
        RuntimeConfig(
            name=name,
            mode=SgxMode.HW,
            binary_size=LITE_PROFILE.binary_size,
            fs_shield_enabled=False,
        ),
        node.vfs,
        CM,
        node.clock,
        cpu=node.cpu,
        rng=node.rng.child(name),
    )


def register(pair, runtime, session="s", secrets=None):
    pair.primary.register_policy(
        Policy(session, [runtime.measurement], secret_names=sorted(secrets or {})),
        secrets=secrets,
    )


def test_pair_must_span_two_nodes(cluster, provisioning):
    network = Network(CM)
    a = CasService(cluster[0], provisioning.public_key())
    b = CasService(cluster[0], provisioning.public_key())
    with pytest.raises(RpcError):
        ReplicatedCasPair(network, a, b)


def test_policies_and_session_keys_replicate(pair, cluster):
    runtime = make_runtime(cluster[2])
    register(pair, runtime, secrets={"api": b"token"})
    assert pair.stats.ops_replicated == 1
    assert pair.stats.quorum_acks == 1
    # The standby holds the SAME session fs-key (not a fresh one), so
    # shielded files stay readable after a failover.
    assert pair.backup.owner_fs_key("s") == pair.primary.owner_fs_key("s")
    assert pair.backup.db.get("secret/s/api") == b"token"


def test_audit_chain_replicates_byte_identically(pair):
    for version in range(5):
        pair.primary.audit.commit("sess", "/model", version, bytes([version]) * 32)
    assert pair.stats.records_replicated == 5
    assert pair.backup.audit.head == pair.primary.audit.head
    assert pair.backup.audit.log == pair.primary.audit.log


def test_a_duplicated_audit_commit_appends_once(pair, monkeypatch):
    """Every replicated record carries a call ID, with or without a retry
    policy, so a duplicate delivery is answered from the standby's
    at-most-once window: the record is not applied again (where the
    standby's chain would raise a spurious FreshnessError)."""
    applied = []
    commit = pair.backup.audit.commit
    monkeypatch.setattr(
        pair.backup.audit, "commit", lambda *args: applied.append(args) or commit(*args)
    )
    pair.network.faults.append(
        lambda src, dst, n_bytes, now: (
            FaultAction(duplicate=True) if dst == pair.backup_address else None
        )
    )
    pair.primary.audit.commit("sess", "/model", 0, bytes(32))
    pair.network.scheduler.run()
    assert len(applied) == 1
    assert pair._backup_server.stats.dedup_hits == 1
    assert pair.stats.records_replicated == 1
    assert pair.backup.audit.head == pair.primary.audit.head


def test_unreachable_standby_blocks_the_mutation(pair, cluster):
    """Quorum 2/2: a registration the standby never acknowledged must
    not report success."""
    pair._backup_server.abort()
    runtime = make_runtime(cluster[2])
    with pytest.raises(RpcError):
        register(pair, runtime)
    assert pair.stats.ops_replicated == 0


def test_failover_serves_same_identity_from_the_standby(pair, cluster):
    runtime = make_runtime(cluster[2])
    register(pair, runtime, secrets={"api": b"token"})
    client = RemoteCasClient(pair.network, cluster[2], "cas")
    before = client.provision(runtime, "s")

    pair.fail_primary()
    assert pair.probe() is False
    with pytest.raises(RpcTransportError):
        client.provision(runtime, "s")

    pair.promote()
    assert pair.probe() is True
    assert pair.active is pair.backup
    assert pair.stats.failovers == 1

    after = client.provision(runtime, "s")  # same client, same address
    assert after.session == "s"
    assert after.fs_key == before.fs_key
    assert after.secrets == {"api": b"token"}
    # Certificates from before and after the failover verify against the
    # one shared CA root.
    ca = pair.primary.keys.ca.public_key()
    before.tls_identity().certificate.verify_signature(ca)
    after.tls_identity().certificate.verify_signature(ca)


def test_promote_is_idempotent(pair):
    pair.promote()  # healthy: no-op
    assert pair.active is pair.primary
    assert pair.stats.failovers == 0
    pair.fail_primary()
    pair.promote()
    pair.promote()  # already promoted: no-op
    assert pair.stats.failovers == 1


def test_freshness_protection_survives_failover(pair):
    pair.primary.audit.commit("sess", "/w", 0, b"d0" * 16)
    pair.primary.audit.commit("sess", "/w", 1, b"d1" * 16)

    pair.fail_primary()
    pair.promote()

    audit = pair.active.audit  # the standby now
    audit.verify("sess", "/w", 1, b"d1" * 16)
    with pytest.raises(FreshnessError):
        audit.verify("sess", "/w", 0, b"d0" * 16)  # rollback still detected
    # New commits land on the standby's chain, continuing the sequence.
    audit.commit("sess", "/w", 2, b"d2" * 16)
    assert pair.backup.audit.latest("sess", "/w").version == 2
    assert audit.log[-1].sequence == 2


def test_orchestrator_watchdog_promotes(pair, cluster):
    orch = Orchestrator(list(cluster), pair.network.scheduler)
    orch.register_service("cas", pair.probe, pair.promote)
    assert orch.supervise_services() == {"cas": True}

    pair.fail_primary()
    assert orch.supervise_services() == {"cas": False}
    assert pair.active is pair.backup
    assert "service-failover cas" in orch.events
    # The next pass sees a healthy service again.
    assert orch.supervise_services() == {"cas": True}


def test_retrying_client_rides_through_a_supervised_failover(pair, cluster):
    """A client built on the retry plumbing sees only latency: its calls
    during the outage back off, the watchdog promotes, and the retries
    land on the standby."""
    runtime = make_runtime(cluster[2])
    register(pair, runtime)
    orch = Orchestrator(list(cluster), pair.network.scheduler)
    orch.register_service("cas", pair.probe, pair.promote)

    pair.fail_primary()
    orch.supervise_services()  # the watchdog promotes the standby
    retry = RetryPolicy(max_attempts=6, base_delay=0.01)
    client = RemoteCasClient(pair.network, cluster[2], "cas", retry=retry)
    identity = client.provision(runtime, "s")
    assert identity.session == "s"
    assert pair.stats.failovers == 1
