"""Sealed output lives in the host's buffer: what the host can do with it.

In HW mode the shield's seal writes ciphertext straight into the
untrusted buffer the asynchronous syscall hands the kernel, so nothing
sealed is copied out of the enclave (DESIGN §2, §5b).  Two hostile
hosts are mounted against that buffer here:

* a kernel that reports a short write count — the write fails typed
  (``ShortWriteError``) before the commit's rename, the destination is
  left as it was, the old version stays readable and ``recover()``
  collects whatever the failed commit left behind;
* a host that rewrites a staged extent after it was handed over and
  before the commit's rename — the manifest's digests were taken over
  the enclave's own ciphertext, so the next cold read self-heals from an
  untouched replica or fails closed, and the outcome is exactly that of
  tampering at rest: never plaintext the host chose.
"""

import pytest

from repro._sim import DeterministicRng, SimClock
from repro.enclave.attestation import ProvisioningAuthority
from repro.enclave.cost_model import DEFAULT_COST_MODEL as CM
from repro.enclave.sgx import EnclaveImage, Segment, SgxCpu, SgxMode
from repro.errors import ShieldError, ShortWriteError, SyscallError
from repro.runtime.fs_shield import (
    CHUNK_MARKER,
    FileSystemShield,
    LocalFreshnessTracker,
    PathRule,
    ShieldPolicy,
)
from repro.runtime.syscall import SyscallInterface
from repro.runtime.vfs import VirtualFileSystem
from tests.runtime._extents import extent_path

PATH = "/s/state"
CHUNK = 256
OLD = bytes(range(256)) * 3  # 3 chunks
NEW = OLD[::-1]
EVIL = b"host-chosen plaintext!".ljust(CHUNK, b"!") * 3
TAG = 16


def mount(vfs, tracker):
    """A HW shield in a fresh enclave over surviving storage (a remount:
    no cached keys or chunks; the tracker models CAS, which outlives it)."""
    clock = SimClock()
    rng = DeterministicRng(25, label="host-buffer")
    cpu = SgxCpu(
        "cpu-host-buffer", CM, clock, ProvisioningAuthority(rng.child("intel")),
        rng.child("cpu"),
    )
    enclave = cpu.create_enclave(
        EnclaveImage("app", [Segment.from_content("b", b"x", "code")]), SgxMode.HW
    )
    syscalls = SyscallInterface(vfs, CM, clock, mode=SgxMode.HW, enclave=enclave)
    shield = FileSystemShield(
        syscalls,
        bytes(range(32)),
        [PathRule("/s/", ShieldPolicy.ENCRYPT)],
        CM,
        clock,
        chunk_size=CHUNK,
        freshness=tracker,
        replicas=2,
        memory=enclave.memory,
    )
    return shield, syscalls


def short_writes(victims):
    """A kernel that reports 0 bytes written for the write calls whose
    0-based order is in ``victims`` and the truth for every other."""
    seen = []

    def hook(name, result):
        if name != "write":
            return result
        seen.append(result)
        return 0 if len(seen) - 1 in victims else result

    return hook


# ---------------------------------------------------------------------------
# Short write counts
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "victims, strays",
    [
        (range(99), 0),  # every write reports 0: the first extent fails
        ({0}, 0),        # replica 0's extent
        ({1}, 1),        # replica 1's extent: replica 0's is left behind
        ({2}, 2),        # the manifest: both extents are left behind
    ],
    ids=["every-write", "extent-0", "extent-1", "manifest"],
)
def test_short_journaled_write_fails_before_the_rename(victims, strays):
    vfs, tracker = VirtualFileSystem(), LocalFreshnessTracker()
    shield, syscalls = mount(vfs, tracker)
    shield.write_file(PATH, OLD)
    before = vfs.capture_state()
    renames = syscalls.stats.by_name["rename"]

    syscalls.hostile_hook = short_writes(victims)
    with pytest.raises(ShortWriteError) as raised:
        shield.write_file(PATH, NEW)
    assert isinstance(raised.value, SyscallError)
    assert syscalls.stats.by_name["rename"] == renames  # never reached the flip
    left = sorted(set(vfs.listdir()) - set(before))
    assert len(left) == strays and all(CHUNK_MARKER in p for p in left)

    remounted, _ = mount(vfs, tracker)
    assert remounted.read_file(PATH) == OLD  # cold: a fresh enclave
    assert remounted.recover() == {PATH: "clean"}
    assert vfs.capture_state() == before  # the strays are collected

    syscalls.hostile_hook = None
    shield.write_file(PATH, NEW)  # an honest kernel: the next commit lands
    assert mount(vfs, tracker)[0].read_file(PATH) == NEW


# ---------------------------------------------------------------------------
# The staged-buffer attack
# ---------------------------------------------------------------------------


def forge(extent):
    """The stream-cipher malleability attack: knowing NEW, XOR every
    chunk's ciphertext so that it would decrypt to EVIL (tags untouched —
    the host cannot compute them)."""
    raw = bytearray(extent)
    for index in range(len(NEW) // CHUNK):
        start = index * (CHUNK + TAG)
        for offset in range(CHUNK):
            raw[start + offset] ^= NEW[index * CHUNK + offset] ^ EVIL[index * CHUNK + offset]
    return bytes(raw)


def rewrite_staged(vfs, replicas):
    """A host that, as each write of generation 1 returns, rewrites the
    extent it was just handed when its replica is in ``replicas``."""
    done = set()

    def hook(name, result):
        if name == "write":
            for replica in replicas:
                extent = extent_path(PATH, 1, replica)
                if extent not in done and vfs.exists(extent):
                    vfs.tamper(extent, forge(vfs.read(extent).content))
                    done.add(extent)
        return result

    return hook, done


def staged_attack(replicas):
    """Write OLD, then NEW with the host rewriting the staged extents of
    ``replicas`` before the rename; returns (vfs, tracker)."""
    vfs, tracker = VirtualFileSystem(), LocalFreshnessTracker()
    shield, syscalls = mount(vfs, tracker)
    shield.write_file(PATH, OLD)
    syscalls.hostile_hook, done = rewrite_staged(vfs, replicas)
    shield.write_file(PATH, NEW)  # the host answered every count truthfully
    assert done == {extent_path(PATH, 1, r) for r in replicas}
    return vfs, tracker


def at_rest_attack(replicas):
    """The same bytes forged into the committed extents afterwards."""
    vfs, tracker = VirtualFileSystem(), LocalFreshnessTracker()
    shield, _ = mount(vfs, tracker)
    shield.write_file(PATH, OLD)
    shield.write_file(PATH, NEW)
    for replica in replicas:
        extent = extent_path(PATH, 1, replica)
        vfs.tamper(extent, forge(vfs.read(extent).content))
    return vfs, tracker


@pytest.mark.parametrize("replicas", [(0,), (1,), (0, 1)], ids=["r0", "r1", "both"])
def test_a_rewritten_staged_extent_gains_nothing_over_tampering_at_rest(replicas):
    staged, _ = staged_attack(replicas)
    at_rest, _ = at_rest_attack(replicas)
    assert staged.capture_state() == at_rest.capture_state()


@pytest.mark.parametrize("replica", [0, 1])
def test_one_rewritten_staged_extent_self_heals(replica):
    vfs, tracker = staged_attack([replica])
    genuine = vfs.read(extent_path(PATH, 1, 1 - replica)).content
    reader, _ = mount(vfs, tracker)
    plaintext = reader.read_file(PATH)
    assert plaintext == NEW and plaintext != EVIL
    assert reader.stats.chunks_repaired == 3  # every chunk of that replica
    assert vfs.read(extent_path(PATH, 1, replica)).content == genuine


def test_both_rewritten_staged_extents_fail_closed():
    vfs, tracker = staged_attack([0, 1])
    reader, _ = mount(vfs, tracker)
    with pytest.raises(ShieldError, match="no intact replica"):
        reader.read_file(PATH)
    assert reader.stats.chunks_opened == 0 and reader.stats.chunks_repaired == 0
