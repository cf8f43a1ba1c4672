"""A protected read pays for the chunks it opens.

The read-side crypto charge has one site, ``_open_chunks``, after the
manifest MAC, the policy and the freshness record have passed.  Every
chunk carries its share of the file's *simulated* size; a missing chunk
pays crypto for its share, a cached one pays a copy of it, and the cache
counts its capacity in the same bytes.  Pinned here:

* the layer table by hand — a twin rig replays what a cold and a warm
  read are supposed to cost (manifest read; every replica's pieces
  submitted together, and the crypto formula of the whole declared file
  — in SIM and HW spread over the enclave's idle threads down to its
  memory floor — charged chunk by chunk as the pieces holding them land
  in every replica; manifest read, one copy) and the two clocks must
  agree **bit for bit**, in NATIVE / SIM / HW and at every replica
  count.  In HW the manifest
  crosses with its own bytes and the extents with none: the scrub checks
  them in the host's buffer and the AEAD opens them there, so nothing
  else is copied in;
* over random write / overwrite / read / ``drop_caches`` sequences,
  ``crypto_bytes`` moves by the shares of exactly the chunks
  ``chunks_opened`` counts, the cache never holds more simulated bytes
  than its capacity, and every read returns what was written;
* a read the shield refuses is billed no crypto at all;
* the row of ``benchmarks/e2e/README.md``'s interaction table: a lower
  hit ratio is a strictly slower read sequence.
"""

import random
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from repro._sim import DeterministicRng, SimClock
from repro.crypto import encoding
from repro.enclave.attestation import ProvisioningAuthority
from repro.enclave.cost_model import DEFAULT_COST_MODEL as CM
from repro.enclave.sgx import EnclaveImage, Segment, SgxCpu, SgxMode
from repro.errors import FreshnessError, ShieldError
from repro.runtime.fs_shield import (
    FileSystemShield,
    LocalFreshnessTracker,
    PathRule,
    ShieldPolicy,
)
from repro.runtime.syscall import SyscallInterface
from repro.runtime.vfs import VirtualFileSystem
from tests.runtime._extents import chunk_slot, extent_path, manifest_body

RULES = [PathRule("/secure/", ShieldPolicy.ENCRYPT)]
PATHS = ("/secure/a", "/secure/b")
PATH = PATHS[0]
REPLICAS = (1, 2, 3)


def make_rig(mode=SgxMode.NATIVE, vfs=None, tracker=None, rules=RULES, **shield_args):
    """A shield where ``mode`` puts it: on a bare syscall interface
    (NATIVE, the owner's side) or inside an enclave whose memory it
    copies hits through (SIM, HW)."""
    clock = SimClock()
    vfs = vfs if vfs is not None else VirtualFileSystem()
    enclave = None
    if mode is not SgxMode.NATIVE:
        rng = DeterministicRng(22, label="read-charge")
        cpu = SgxCpu(
            "cpu", CM, clock, ProvisioningAuthority(rng.child("intel")), rng.child("cpu")
        )
        enclave = cpu.create_enclave(
            EnclaveImage("app", [Segment.from_content("b", b"x", "code")]), mode
        )
        shield_args["memory"] = enclave.memory
    syscalls = SyscallInterface(vfs, CM, clock, mode=mode, enclave=enclave)
    shield = FileSystemShield(
        syscalls, bytes(range(32)), rules, CM, clock,
        freshness=tracker if tracker is not None else LocalFreshnessTracker(),
        **shield_args,
    )
    return SimpleNamespace(
        shield=shield, syscalls=syscalls, vfs=vfs, clock=clock,
        memory=enclave.memory if enclave is not None else None,
    )


def stored_geometry(vfs, path):
    """``(simulated size, plaintext size, chunk size)`` of the file at
    ``path``, read off untrusted storage the way the shield must."""
    body = manifest_body(vfs, path)
    return body["declared_size"], body["plaintext_size"], body["chunk_size"]


def chunk_shares(simulated, plaintext_size, chunk_size):
    """The issue's formula, on its own: chunk ``[off, off + len)`` of the
    plaintext carries ``declared·(off+len)//plaintext − declared·off//plaintext``."""
    if plaintext_size == 0:
        return [simulated]
    shares = []
    for off in range(0, plaintext_size, chunk_size):
        stop = min(off + chunk_size, plaintext_size)
        shares.append(
            simulated * stop // plaintext_size - simulated * off // plaintext_size
        )
    return shares


def crypto_seconds(simulated, chunk_size, mode=SgxMode.NATIVE, passes=2):
    """The crypto charge of one pass over ``simulated`` bytes: the serial
    AES-NI time outside an enclave (the NATIVE rig is the owner's side);
    inside one (an image's default 8 threads, one runnable) spread over
    one helper per chunk and floored at ``passes`` x the bytes over the
    enclave's memory bandwidth, even where the floor is above serial."""
    n_chunks = max(1, -(-simulated // chunk_size))
    serial = (
        simulated / CM.fs_shield_crypto_bandwidth
        + n_chunks * CM.fs_shield_chunk_overhead
    )
    if mode is SgxMode.NATIVE:
        return serial
    bandwidth = (
        CM.enclave_memory_bandwidth if mode is SgxMode.HW else CM.native_memory_bandwidth
    )
    parallel = serial / CM.effective_parallel_speedup(min(n_chunks, 8))
    return max(parallel, passes * simulated / bandwidth)


def declared_size(size, extra):
    """``None`` or a declared size no smaller than the file."""
    return None if extra is None else size + extra


def charge_copy(rig, n_bytes):
    """One in-enclave copy where the rig's shield runs."""
    if rig.memory is not None:
        rig.memory.charge_bytes(n_bytes)
    elif n_bytes:
        rig.clock.advance(n_bytes / CM.native_memory_bandwidth)


# ---------------------------------------------------------------------------
# The layer table by hand, bit for bit
# ---------------------------------------------------------------------------


@settings(max_examples=80, deadline=None)
@given(
    mode=st.sampled_from(list(SgxMode)),
    replicas=st.sampled_from(REPLICAS),
    chunk_size=st.sampled_from([64, 100, 256, 1024]),
    size=st.integers(0, 3000),
    declared_extra=st.one_of(st.none(), st.integers(0, 5_000_000)),
    warm=st.booleans(),
    seed=st.integers(0, 2**16),
)
def test_cold_and_warm_reads_cost_what_the_layer_table_says(
    mode, replicas, chunk_size, size, declared_extra, warm, seed
):
    data = random.Random(seed).randbytes(size)
    declared = declared_size(size, declared_extra)
    rigs = [make_rig(mode, chunk_size=chunk_size, replicas=replicas) for _ in range(2)]
    for rig in rigs:
        rig.shield.write_file(PATH, data, declared_size=declared)
        if not warm:
            rig.shield.drop_caches()
    real, by_hand = rigs
    simulated, _, _ = stored_geometry(real.vfs, PATH)
    if declared is not None:
        assert simulated == declared
    # The write warmed the cache only if every share fits in it.
    assert simulated <= 8 * 1024 * 1024

    stats = real.shield.stats
    opened, crypto_bytes, crypto_time = (
        stats.chunks_opened, stats.crypto_bytes, stats.crypto_time
    )
    assert real.shield.read_file(PATH) == data

    # NATIVE and SIM: the parent's reads, every byte copied with them.
    hw = mode is SgxMode.HW
    manifest = len(real.vfs.read(PATH).content)
    by_hand.syscalls.read_file(PATH, enclave_bytes=manifest if hw else None)
    if warm:
        charge_copy(by_hand, simulated)
        assert stats.chunks_opened == opened
        assert stats.crypto_bytes == crypto_bytes
        assert stats.crypto_time == crypto_time  # not one bit of crypto
    else:
        n_chunks = max(1, -(-size // chunk_size))
        duration = crypto_seconds(simulated, chunk_size, mode)
        shares = chunk_shares(simulated, size, chunk_size)
        stops = [chunk_slot(real.vfs, PATH, index)[1] for index in range(n_chunks)]
        charged = [0, 0.0]  # chunks, seconds

        def decrypt(count):
            """The chunks up to ``count`` pay their share of the open."""
            if count <= charged[0]:
                return
            target = (
                duration if count == n_chunks
                else duration * sum(shares[:count]) / simulated if simulated else 0.0
            )
            piece, charged[:] = target - charged[1], [count, target]
            if piece > 0.0:
                by_hand.clock.advance(piece)

        by_hand.syscalls.read_files(
            [extent_path(PATH, 0, replica) for replica in range(replicas)],
            enclave_bytes=0 if hw else None,
            landed=lambda stop: decrypt(sum(end <= stop for end in stops)),
        )
        decrypt(n_chunks)
        assert stats.chunks_opened - opened == n_chunks
        assert stats.crypto_bytes - crypto_bytes == simulated
    assert real.clock.now == by_hand.clock.now  # bit for bit


# ---------------------------------------------------------------------------
# Shares, occupancy and content over random sequences
# ---------------------------------------------------------------------------

OPS = st.one_of(
    st.tuples(
        st.just("write"),
        st.sampled_from(PATHS),
        st.integers(0, 1500),
        st.one_of(st.none(), st.integers(0, 6000)),
    ),
    st.tuples(st.just("read"), st.sampled_from(PATHS)),
    st.tuples(st.just("read"), st.sampled_from(PATHS)),
    st.tuples(st.just("drop")),
)


@settings(max_examples=120, deadline=None)
@given(
    replicas=st.sampled_from(REPLICAS),
    chunk_size=st.sampled_from([64, 100, 256]),
    cache_bytes=st.sampled_from([0, 90, 300, 1000, 2500, 20_000]),
    ops=st.lists(OPS, min_size=1, max_size=14),
    seed=st.integers(0, 2**16),
)
def test_a_read_is_charged_the_shares_of_the_chunks_it_opens(
    replicas, chunk_size, cache_bytes, ops, seed
):
    rig = make_rig(
        chunk_size=chunk_size, replicas=replicas, chunk_cache_bytes=cache_bytes
    )
    shield, stats, clock = rig.shield, rig.shield.stats, rig.clock
    rng = random.Random(seed)
    written = {}

    def check_occupancy():
        entries = list(shield._chunk_cache.values())
        assert shield._chunk_cache_used == sum(share for _, share in entries)
        assert shield._chunk_cache_used <= cache_bytes
        assert all(share <= cache_bytes for _, share in entries)

    for op, *args in ops:
        if op == "write":
            path, size, declared_extra = args
            written[path] = rng.randbytes(size)
            crypto_time = stats.crypto_time
            shield.write_file(
                path, written[path],
                declared_size=declared_size(size, declared_extra),
            )
            # An insert hands the buffer over: the write costs its seal,
            # whatever the cache then keeps of it.
            simulated, _, _ = stored_geometry(rig.vfs, path)
            assert stats.crypto_time - crypto_time == pytest.approx(
                crypto_seconds(simulated, chunk_size), rel=1e-9
            )
        elif op == "drop":
            shield.drop_caches()
        elif args[0] in written:
            (path,) = args
            shares = chunk_shares(*stored_geometry(rig.vfs, path))
            cached = {
                key[3] for key in shield._chunk_cache
                if key[0] == path and key[1] == shield._versions[path]
            }
            missing = [i for i in range(len(shares)) if i not in cached]
            to_open = sum(shares[i] for i in missing)
            before = (
                clock.now, rig.syscalls.stats.time, stats.chunks_opened,
                stats.crypto_bytes, stats.crypto_time,
            )
            assert shield.read_file(path) == written[path]
            assert stats.chunks_opened - before[2] == len(missing)
            assert stats.crypto_bytes - before[3] == to_open
            crypto = stats.crypto_time - before[4]
            if missing:
                assert crypto == pytest.approx(
                    crypto_seconds(to_open, chunk_size), rel=1e-9
                )
            else:
                assert stats.crypto_time == before[4]
            # Syscalls, crypto for the misses, a copy for the hits —
            # and nothing else.
            assert clock.now - before[0] == pytest.approx(
                rig.syscalls.stats.time - before[1] + crypto
                + (sum(shares) - to_open) / CM.native_memory_bandwidth,
                rel=1e-9,
            )
        check_occupancy()


def test_a_chunk_larger_than_the_cache_is_never_cached():
    """A 3 KiB stand-in declared as 30 MB: its three chunks are 10 MB
    each on the simulated clock and cannot sit in an 8 MiB cache just
    because their real bytes would."""
    rig = make_rig(chunk_size=1024)
    data = bytes(3 * 1024)
    rig.shield.write_file(PATH, data, declared_size=30_000_000)
    assert not rig.shield._chunk_cache
    for _ in range(2):
        before = rig.shield.stats.crypto_bytes
        assert rig.shield.read_file(PATH) == data
        assert rig.shield.stats.crypto_bytes - before == 30_000_000
    assert rig.shield.stats.chunk_cache_hits == 0
    assert rig.shield._chunk_cache_used == 0


# ---------------------------------------------------------------------------
# A refused read is billed no crypto
# ---------------------------------------------------------------------------


def _roll_back(rig, snapshot):
    rig.vfs.restore_state(snapshot)


def _drop_field(rig, snapshot):
    """A manifest that authenticates, one field short."""
    body = manifest_body(rig.vfs, PATH)
    del body["declared_size"]
    body_bytes = encoding.encode(body)
    rig.vfs.tamper(PATH, encoding.encode(
        {"body": body_bytes, "mac": rig.shield._manifest_mac(PATH, body_bytes)}
    ))


def _forge_manifest(rig, snapshot):
    """One bit of the body under the old MAC."""
    envelope = encoding.decode(rig.vfs.read(PATH).content)
    body = bytearray(envelope["body"])
    body[-1] ^= 0x01
    envelope["body"] = bytes(body)
    rig.vfs.tamper(PATH, encoding.encode(envelope))


REJECTIONS = {
    "rollback": (_roll_back, RULES, FreshnessError),
    "policy mismatch": (
        lambda rig, snapshot: None,  # the reader's rules are the attack
        [PathRule("/secure/", ShieldPolicy.AUTHENTICATE)],
        ShieldError,
    ),
    "missing field": (_drop_field, RULES, ShieldError),
    "manifest mac / geometry": (_forge_manifest, RULES, ShieldError),
}


@pytest.mark.parametrize("warm", [True, False], ids=["warm", "cold"])
@pytest.mark.parametrize("replicas", [2], ids=["journaled"])
@pytest.mark.parametrize("reason", REJECTIONS)
def test_a_refused_read_is_billed_no_crypto(reason, replicas, warm):
    attack, reader_rules, error = REJECTIONS[reason]
    tracker = LocalFreshnessTracker()
    args = dict(chunk_size=1024, replicas=replicas)
    rig = make_rig(tracker=tracker, **args)
    rig.shield.write_file(PATH, b"old " * 2000, declared_size=40_000)
    snapshot = rig.vfs.capture_state()
    rig.shield.write_file(PATH, b"new " * 2000, declared_size=40_000)
    # The reader is the same process unless the attack needs other rules.
    reader = rig if reader_rules is RULES else make_rig(
        vfs=rig.vfs, tracker=tracker, rules=reader_rules, **args
    )
    if warm and reader is rig:
        assert rig.shield.read_file(PATH) == b"new " * 2000
    elif not warm:
        reader.shield.drop_caches()
    attack(rig, snapshot)

    stats, syscalls = reader.shield.stats, reader.syscalls.stats
    before = (reader.clock.now, syscalls.time, stats.crypto_bytes, stats.crypto_time)
    with pytest.raises(error):
        reader.shield.read_file(PATH)
    assert stats.crypto_bytes == before[2]
    assert stats.crypto_time == before[3]
    # The whole advance is the read of the stored manifest
    # (the parent added 40 000 B of AES-NI time first: +0.04 ms).
    advance = reader.clock.now - before[0]
    assert advance == pytest.approx(syscalls.time - before[1], rel=1e-9)
    assert advance < crypto_seconds(40_000, 1024)


# ---------------------------------------------------------------------------
# benchmarks/e2e/README.md: fs_chunk_cache_hit_ratio moves shield_read's latency
# ---------------------------------------------------------------------------


def test_a_lower_hit_ratio_is_a_strictly_slower_read_sequence():
    """Seeded 2-replica journaled shield in a HW enclave, two 9-chunk
    files read 1 cold + 3 warm each: shrinking ``chunk_cache_bytes``
    lowers the hit ratio and strictly raises the sequence's simulated
    latency (on the parent every row cost the same)."""
    rng = random.Random(22)
    files = {path: rng.randbytes(9 * 1024 - 100) for path in PATHS}
    hit_ratios, latencies = [], []
    for cache_bytes in (64 * 1024, 6 * 1024, 3 * 1024, 0):
        rig = make_rig(
            SgxMode.HW, chunk_size=1024, replicas=2, chunk_cache_bytes=cache_bytes
        )
        for path, data in files.items():
            rig.shield.write_file(path, data)
        rig.shield.drop_caches()
        stats, start = rig.shield.stats, rig.clock.now
        for path, data in files.items():
            for _ in range(4):
                assert rig.shield.read_file(path) == data
        latencies.append(rig.clock.now - start)
        hit_ratios.append(
            stats.chunk_cache_hits / (stats.chunk_cache_hits + stats.chunk_cache_misses)
        )
    assert hit_ratios[0] == 0.75 and hit_ratios[-1] == 0.0
    assert hit_ratios == sorted(hit_ratios, reverse=True)
    assert len(set(hit_ratios)) == len(hit_ratios)
    assert latencies == sorted(latencies)
    assert len(set(latencies)) == len(latencies)
