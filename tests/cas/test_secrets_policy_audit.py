"""CAS internals: secrets DB, policy engine, audit log."""

import pytest

from repro.cas import (
    CasService,
    FreshnessAuditService,
    HardwareCounter,
    Policy,
    PolicyEngine,
    SecretsDatabase,
)
from repro.cas.audit import ScopedFreshnessTracker
from repro.cas.service import DB_DIR, DB_PATH
from repro.cluster import make_cluster
from repro.enclave.cost_model import DEFAULT_COST_MODEL as CM
from repro.enclave.attestation import Report
from repro.errors import FreshnessError, IntegrityError, PolicyError


# --- secrets DB -----------------------------------------------------------------


@pytest.fixture
def db():
    return SecretsDatabase(HardwareCounter())


@pytest.fixture
def node(provisioning):
    return make_cluster(1, CM, provisioning, seed=37)[0]


def test_db_crud(db):
    db.put("secret/a", b"1")
    db.put("secret/b", b"2")
    db.put("other", b"3")
    assert db.get("secret/a") == b"1"
    assert db.contains("other")
    assert db.keys("secret/") == ["secret/a", "secret/b"]
    assert len(db) == 3
    db.delete("other")
    with pytest.raises(KeyError):
        db.get("other")
    with pytest.raises(KeyError):
        db.delete("other")


def test_db_snapshot_roundtrip(db):
    db.put("k", b"v")
    snapshot = db.snapshot()
    fresh_counter = HardwareCounter()
    fresh_counter.increment()  # hardware state survives restart
    restored = SecretsDatabase(fresh_counter)
    assert restored.load(snapshot) == 1
    assert restored.get("k") == b"v"
    with pytest.raises(IntegrityError):
        restored.load(b"not a snapshot")


def test_db_sealed_roundtrip(node, provisioning):
    """CAS's file of the database is sealed to its enclave on this CPU."""
    counter = HardwareCounter()
    cas = CasService(node, provisioning.public_key(), counter=counter)
    cas.db.put("k", b"secret-value")
    cas.persist()
    for path in node.vfs.listdir(DB_DIR):
        assert b"secret-value" not in node.vfs.read(path).content  # encrypted at rest
    restored = CasService(node, provisioning.public_key(), counter=counter)
    assert restored.db.get("k") == b"secret-value"


def test_db_rollback_detected(db):
    db.put("k", b"v1")
    old_snapshot = db.snapshot()
    db.acknowledge_persisted()
    db.put("k", b"v2")
    db.snapshot()
    db.acknowledge_persisted()  # counter advanced to 2
    with pytest.raises(FreshnessError):
        db.load(old_snapshot)
    with pytest.raises(FreshnessError):
        db.load(None)  # no database at all is a rollback to empty


def test_db_tamper_detected(node, provisioning):
    counter = HardwareCounter()
    cas = CasService(node, provisioning.public_key(), counter=counter)
    cas.db.put("k", b"v")
    cas.persist()
    (extent,) = node.vfs.listdir(DB_PATH + ".__chunk.")
    stored = bytearray(node.vfs.read(extent).content)
    stored[-1] ^= 1
    node.vfs.tamper(extent, bytes(stored))
    with pytest.raises(IntegrityError):
        CasService(node, provisioning.public_key(), counter=counter)


# --- policy engine ---------------------------------------------------------------


def make_report(measurement=b"\x01" * 32, debug=False):
    return Report(measurement, {"name": "svc"}, b"", debug=debug)


def test_policy_register_and_evaluate():
    engine = PolicyEngine()
    engine.register(Policy("s", [b"\x01" * 32]))
    policy = engine.evaluate("s", make_report())
    assert policy.session == "s"
    assert engine.members("s") == 1


def test_policy_wrong_measurement_rejected():
    engine = PolicyEngine()
    engine.register(Policy("s", [b"\x01" * 32]))
    with pytest.raises(PolicyError):
        engine.evaluate("s", make_report(measurement=b"\x02" * 32))


def test_policy_debug_gate():
    engine = PolicyEngine()
    engine.register(Policy("strict", [b"\x01" * 32], accept_debug=False))
    engine.register(Policy("dev", [b"\x01" * 32], accept_debug=True))
    with pytest.raises(PolicyError):
        engine.evaluate("strict", make_report(debug=True))
    engine.evaluate("dev", make_report(debug=True))


def test_policy_max_members():
    engine = PolicyEngine()
    engine.register(Policy("s", [b"\x01" * 32], max_members=1))
    engine.evaluate("s", make_report())
    with pytest.raises(PolicyError):
        engine.evaluate("s", make_report())


def test_policy_duplicates_and_unknown():
    engine = PolicyEngine()
    engine.register(Policy("s", [b"\x01" * 32]))
    with pytest.raises(PolicyError):
        engine.register(Policy("s", [b"\x02" * 32]))
    with pytest.raises(PolicyError):
        engine.get("unknown")
    with pytest.raises(PolicyError):
        Policy("empty", [])


# --- audit service ----------------------------------------------------------------


def test_audit_commit_verify_cycle():
    audit = FreshnessAuditService()
    audit.commit("owner", "/f", 0, b"d0")
    audit.verify("owner", "/f", 0, b"d0")
    audit.commit("owner", "/f", 1, b"d1")
    with pytest.raises(FreshnessError):
        audit.verify("owner", "/f", 0, b"d0")  # rolled back
    with pytest.raises(FreshnessError):
        audit.verify("owner", "/f", 1, b"wrong-digest")
    with pytest.raises(FreshnessError):
        audit.verify("owner", "/missing", 0, b"")


def test_audit_monotonicity():
    audit = FreshnessAuditService()
    audit.commit("o", "/f", 5, b"d")
    with pytest.raises(FreshnessError):
        audit.commit("o", "/f", 5, b"d2")
    with pytest.raises(FreshnessError):
        audit.commit("o", "/f", 4, b"d2")
    audit.commit("o", "/f", 6, b"d2")


def test_audit_owners_are_isolated():
    audit = FreshnessAuditService()
    audit.commit("alice", "/f", 0, b"a")
    audit.commit("bob", "/f", 0, b"b")
    audit.verify("alice", "/f", 0, b"a")
    with pytest.raises(FreshnessError):
        audit.verify("alice", "/f", 0, b"b")


def test_audit_hash_chain():
    audit = FreshnessAuditService()
    for version in range(5):
        audit.commit("o", "/f", version, bytes([version]) * 32)
    audit.verify_chain()
    assert [r.sequence for r in audit.log] == list(range(5))
    # Tamper with a middle record: the chain must break.
    import dataclasses

    tampered = dataclasses.replace(audit.log[2], digest=b"\xff" * 32)
    audit._log[2] = tampered
    with pytest.raises(FreshnessError):
        audit.verify_chain()


def test_scoped_tracker_adapts_interface():
    audit = FreshnessAuditService()
    tracker = ScopedFreshnessTracker(audit, "session-1")
    tracker.commit("/model", 0, b"digest")
    tracker.verify("/model", 0, b"digest")
    assert audit.latest("session-1", "/model") is not None
    assert audit.latest("other", "/model") is None
