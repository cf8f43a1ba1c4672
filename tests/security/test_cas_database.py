"""Attacks on the CAS database file, mounted on a real CAS reboot.

Each attack runs twice: as written it must be refused, and with its
defence switched off (one monkeypatch) the same attack must get through
— an attack test that still passes without its defence proves nothing.

- rollback (§4.3): the CAS node's disk restored to an image taken one
  persist ago, under the live hardware counter;
- rollback to empty (§4.3): the database deleted while the counter is
  past 0;
- untrusted host (§3): the database copied to a CAS on another node,
  which shares the counter, so only the file key's binding to the CPU
  stands in the way.
"""

import pytest

from repro.cas import CasService, HardwareCounter, SecretsDatabase
from repro.cas.service import DB_DIR
from repro.cluster import make_cluster
from repro.crypto.kdf import hkdf
from repro.enclave.cost_model import DEFAULT_COST_MODEL as CM
from repro.enclave.sgx import SgxCpu
from repro.errors import FreshnessError, ReproError


@pytest.fixture
def cluster(provisioning):
    return make_cluster(2, CM, provisioning, seed=31)


def persisted(node, provisioning, counter, generations):
    """A CAS on ``node`` that has persisted ``generations`` times."""
    cas = CasService(node, provisioning.public_key(), counter=counter)
    for generation in range(generations):
        cas.db.put("k", b"gen%d" % generation)
        cas.persist()
    return cas


def old_disk_image(cluster, provisioning):
    node, counter = cluster[0], HardwareCounter()
    cas = persisted(node, provisioning, counter, 1)
    image = node.vfs.capture_state()
    cas.db.put("k", b"gen1")
    cas.persist()
    node.vfs.restore_state(image)
    with pytest.raises(FreshnessError):
        CasService(node, provisioning.public_key(), counter=counter)


def deleted_database(cluster, provisioning):
    node, counter = cluster[0], HardwareCounter()
    persisted(node, provisioning, counter, 2)
    for path in node.vfs.listdir(DB_DIR):
        node.vfs.delete(path)
    with pytest.raises(FreshnessError):
        CasService(node, provisioning.public_key(), counter=counter)


def copied_to_another_node(cluster, provisioning):
    counter = HardwareCounter()
    persisted(cluster[0], provisioning, counter, 1)
    cluster[1].vfs.restore_state(cluster[0].vfs.capture_state(DB_DIR), prefix=DB_DIR)
    with pytest.raises(ReproError):
        CasService(cluster[1], provisioning.public_key(), counter=counter)


def cpu_blind_sealing_key(cpu, measurement):
    """The sealing key with the CPU's root left out."""
    return hkdf(salt=measurement, ikm=bytes(32), info=b"sgx-seal", length=32)


#: attack → (the defence's owner, attribute, what it is switched off to)
ATTACKS = {
    old_disk_image: (SecretsDatabase, "_admit", lambda db, version: None),
    deleted_database: (SecretsDatabase, "_admit", lambda db, version: None),
    copied_to_another_node: (SgxCpu, "sealing_key", cpu_blind_sealing_key),
}


@pytest.mark.parametrize("attack", ATTACKS, ids=lambda attack: attack.__name__)
def test_the_attack_is_refused(attack, cluster, provisioning):
    attack(cluster, provisioning)


@pytest.mark.parametrize("attack", ATTACKS, ids=lambda attack: attack.__name__)
def test_the_attack_gets_through_with_its_defence_off(
    attack, cluster, provisioning, monkeypatch
):
    monkeypatch.setattr(*ATTACKS[attack])
    with pytest.raises(pytest.fail.Exception, match="DID NOT RAISE"):
        attack(cluster, provisioning)
