"""Crash consistency of the CAS secrets database, across a real CAS reboot.

CAS keeps its database in one protected file of its own fs shield
(``DB_PATH``): :meth:`CasService.persist` is the shield's journaled
commit followed by the counter bump.  A crash at ANY mutating op of one
persist, at both polarities, or a tear inside either of its writes,
must leave a CAS rebuilt on the same node holding exactly the
acknowledged generation or the crashed one — rolling the counter
forward in the second case — and able to persist again.
"""

import pytest

from repro.cas import CasService, HardwareCounter, Policy
from repro.cas.service import DB_DIR, DB_PATH
from repro.cluster import make_cluster
from repro.enclave.cost_model import DEFAULT_COST_MODEL as CM
from repro.errors import StorageCrash
from repro.runtime.storage_faults import CrashPoint, StorageFaultPlan, crash

#: Mutating ops of one persist over an existing database: the new
#: generation's extent, the pending manifest, the rename (the commit
#: point) and the unlink of the old generation.
PERSIST_OPS = 4
RENAME_OP = 2

#: Where a torn write stops, as a function of the write's size.
TEARS = {
    "empty": lambda size: 0,
    "one-byte": lambda size: 1,
    "half": lambda size: size // 2,
    "all-but-one": lambda size: size - 1,
}


@pytest.fixture
def node(provisioning):
    return make_cluster(1, CM, provisioning, seed=29)[0]


@pytest.fixture
def boot(node, provisioning):
    """Build a CAS on ``node`` — a reboot once its disk holds a database."""
    counter = HardwareCounter()
    return lambda: CasService(node, provisioning.public_key(), counter=counter)


class WriteSizes(list):
    """Stands in for a fault plan: injects nothing, records the size of
    every write."""

    def before_mutation(self, op, path, content):
        if content is not None:
            self.append(len(content))

    def on_read(self, path, content):
        return None


def persist(cas, value):
    cas.db.put("k", value)
    cas.persist()


def crash_persist(cas, point):
    """Persist ``b"new"`` and die at ``point``; the fault plan's log."""
    cas.db.put("k", b"new")
    plan = StorageFaultPlan(0, crash_points=[point]).attach(cas.node.vfs)
    with pytest.raises(StorageCrash):
        cas.persist()
    cas.node.vfs.faults = None
    return plan.events


def assert_only_the_live_generation(node):
    listing = node.vfs.listdir(DB_DIR)
    assert listing[0] == DB_PATH and len(listing) == 2  # the file, its extent


def assert_rebooted_to(boot, value, counter_value):
    """A rebuilt CAS holds ``value`` at ``counter_value``, its boot has
    collected what the crash left, and it persists again."""
    cas = boot()
    assert cas.db.get("k") == value
    assert cas.counter.value == counter_value
    assert_only_the_live_generation(cas.node)
    persist(cas, b"recovered")
    assert boot().db.get("k") == b"recovered"
    assert cas.counter.value == counter_value + 1
    assert_only_the_live_generation(cas.node)


def test_clean_save_load_roundtrip(boot):
    cas = boot()
    cas.register_policy(Policy("s", [b"\x01" * 32]), secrets={"api": b"token-1234"})
    persist(cas, b"v2")
    assert cas.counter.value == 2

    rebooted = boot()
    assert rebooted.counter.value == 2
    assert rebooted.db.get("k") == b"v2"
    assert rebooted.db.get("secret/s/api") == b"token-1234"
    # The policy engine is rebuilt from the loaded records.
    assert rebooted.policies.get("s") == cas.policies.get("s")
    assert rebooted.owner_fs_key("s") == cas.owner_fs_key("s")


def test_the_sweep_visits_every_op_of_a_persist(boot):
    cas = boot()
    persist(cas, b"old")
    plan = StorageFaultPlan(0).attach(cas.node.vfs)
    persist(cas, b"new")
    assert plan.op_index == PERSIST_OPS


@pytest.mark.parametrize("after", [False, True])
@pytest.mark.parametrize("at_op", range(PERSIST_OPS))
def test_exhaustive_save_crash_sweep(boot, at_op, after):
    """Crash one persist before and after each of its mutating ops: the
    reboot sees the acknowledged generation until the rename applied,
    and the crashed one, rolled forward, from then on."""
    cas = boot()
    persist(cas, b"old")
    crash_persist(cas, CrashPoint(at_op=at_op, after=after))
    assert cas.counter.value == 1  # the ack never ran
    if (at_op, after) >= (RENAME_OP, True):
        assert_rebooted_to(boot, b"new", 2)
    else:
        assert_rebooted_to(boot, b"old", 1)


@pytest.mark.parametrize("at_op", [0, 1], ids=["extent", "manifest"])
@pytest.mark.parametrize("tear", sorted(TEARS))
def test_torn_write_keeps_the_acknowledged_snapshot(boot, at_op, tear):
    cas = boot()
    # The first persist makes the same two writes, of the same sizes:
    # ``b"old"`` and ``b"new"`` are as long as each other.
    sizes = cas.node.vfs.faults = WriteSizes()
    persist(cas, b"old")
    size = sizes[at_op]
    kept = TEARS[tear](size)
    events = crash_persist(cas, CrashPoint(at_op=at_op, keep=kept))
    assert events[0].endswith(f"kept={kept}/{size}")
    assert_rebooted_to(boot, b"old", 1)


def test_crash_after_write_before_ack_rolls_forward(boot, monkeypatch):
    cas = boot()
    persist(cas, b"old")
    monkeypatch.setattr(cas.db, "acknowledge_persisted", crash)
    with pytest.raises(StorageCrash):
        persist(cas, b"new")

    # The snapshot (carrying counter + 1) is durable; the bump is not.
    assert cas.counter.value == 1
    assert_rebooted_to(boot, b"new", 2)
