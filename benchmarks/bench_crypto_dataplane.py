"""Crypto data-plane throughput: real MB/s of the AEAD and shield paths.

Unlike the figure benchmarks, which report *simulated* time, this one
measures the wall-clock throughput of the cryptography the simulator
actually executes — the vectorized ChaCha20-Poly1305 core (the one
AEAD) and the file-system shield built on it.  Results go to
``benchmark.extra_info`` and are persisted in ``BENCH.json`` so the
repo's perf trajectory is tracked PR over PR.

Both shields seal small units (64 KiB file chunks, TLS records), so the
per-call floor matters as much as the large-message rate: the AEAD is
also swept over message sizes, and the 256-byte row is reported as
calls/s.  The canonical codec under every envelope is priced the same
way (``codec_*``): a fenced serving request and its ``ok`` reply in
microseconds and calls/s, a 1 MiB blob in MB/s.  What the fs shield
actually issues — one ``seal_many`` / ``open_many`` over a file's
chunks — is timed as a 9 x 64 KiB batch, and Poly1305 alone at a chunk
and at 1 MiB.  The public-key plane under attestation, certificates and
handshakes is priced per operation (``pk_*``: Ed25519 keygen / sign /
verify, X25519 public key / exchange, in microseconds and calls/s),
with how many of each one ``ServingPlane`` build issues and what that
build costs.  Beside the shield's host MB/s rows sits what the same
read costs on the *simulated* clock — cold, warm and with half the file
evicted — with the chunk-cache hit ratio that explains it
(``fs_shield_sim_read_*``), and what ``shield_write``'s HW overwrite
costs in an enclave of one thread and of eight
(``fs_shield_sim_hw_write_*``).  Each run keeps the section it replaces
under ``previous``.

Seed baseline for reference: ChaCha20-Poly1305 ~22 MB/s (serial bigint
Poly1305).
"""

import os
import time

import pytest
from harness import load_bench, print_table, record, run_once, save_bench

from repro._sim import DeterministicRng, SimClock
from repro.crypto import encoding
from repro.crypto.aead import CIPHER, get_aead
from repro.crypto.chacha import poly1305_mac
from repro.crypto.ed25519 import Ed25519PrivateKey, Ed25519PublicKey
from repro.crypto.x25519 import X25519PrivateKey
from repro.enclave.cost_model import DEFAULT_COST_MODEL
from repro.enclave.attestation import ProvisioningAuthority
from repro.enclave.sgx import EnclaveImage, Segment, SgxCpu, SgxMode
from repro.runtime.fs_shield import (
    DEFAULT_CHUNK_CACHE_BYTES,
    FileSystemShield,
    PathRule,
    ShieldPolicy,
)
from repro.runtime.syscall import SyscallInterface
from repro.runtime.vfs import VirtualFileSystem
from repro.serving import AutoscalerPolicy, RouterPolicy, ServingPlane, messages

MESSAGE_SIZE = 1 << 20
REPEATS = 5
#: Sizes below MESSAGE_SIZE the AEAD is swept over (MESSAGE_SIZE keeps
#: its unsuffixed keys): a TLS record, a gradient piece, a shield chunk.
SWEEP_SIZES = {"256b": 256, "16k": 16 << 10, "64k": 64 << 10}
#: Small calls are over in well under a millisecond: time them in runs
#: and report them as calls/s too.
SMALL_CALL_BYTES = 4096
SMALL_CALLS_PER_REPEAT = 50
#: One envelope is a few microseconds.
CODEC_CALLS_PER_REPEAT = 2000
#: A file as the fs shield seals it: one batch of 64 KiB chunks.
BATCH_CHUNKS = 9
CHUNK_SIZE = 64 << 10
#: One curve operation is a fraction of a millisecond to a few.
PK_CALLS_PER_REPEAT = 20
#: The priced operations, and the method a plane build's calls are counted on.
PK_OPERATIONS = {
    "ed25519_keygen": (Ed25519PrivateKey, "__init__"),
    "ed25519_sign": (Ed25519PrivateKey, "sign"),
    "ed25519_verify": (Ed25519PublicKey, "verify"),
    "x25519_public_key": (X25519PrivateKey, "public_key"),
    "x25519_exchange": (X25519PrivateKey, "exchange"),
}


def _best_seconds(fn, calls: int = 1) -> float:
    """Best-of-``REPEATS`` seconds for one call of ``fn``."""
    best = float("inf")
    for _ in range(REPEATS):
        started = time.perf_counter()
        for _ in range(calls):
            fn()
        best = min(best, time.perf_counter() - started)
    return best / calls


def _mb_per_s(n_bytes: int, fn) -> float:
    return n_bytes / _best_seconds(fn) / 1e6


def _aead_throughputs() -> dict:
    payload = os.urandom(MESSAGE_SIZE)
    nonce = os.urandom(12)
    aead = get_aead(CIPHER, os.urandom(32))
    sealed = aead.encrypt(nonce, payload)
    return {
        f"{CIPHER}_encrypt_mb_s": _mb_per_s(
            MESSAGE_SIZE, lambda: aead.encrypt(nonce, payload)
        ),
        f"{CIPHER}_decrypt_mb_s": _mb_per_s(
            MESSAGE_SIZE, lambda: aead.decrypt(nonce, sealed)
        ),
    }


def _aead_size_sweep() -> dict:
    results = {}
    nonce = os.urandom(12)
    aead = get_aead(CIPHER, os.urandom(32))
    for label, size in SWEEP_SIZES.items():
        payload = os.urandom(size)
        sealed = aead.encrypt(nonce, payload)
        small = size <= SMALL_CALL_BYTES
        calls = SMALL_CALLS_PER_REPEAT if small else 1
        for op, fn in (
            ("encrypt", lambda: aead.encrypt(nonce, payload)),
            ("decrypt", lambda: aead.decrypt(nonce, sealed)),
        ):
            seconds = _best_seconds(fn, calls)
            results[f"{CIPHER}_{op}_{label}_mb_s"] = size / seconds / 1e6
            if small:
                results[f"{CIPHER}_{op}_{label}_calls_s"] = 1.0 / seconds
    return results


def _batch_and_mac_rates() -> dict:
    """One file's chunks as one batch, and the authenticator by itself."""
    aead = get_aead(CIPHER, os.urandom(32))
    nonces = [bytes([index]) * 12 for index in range(BATCH_CHUNKS)]
    chunks = [os.urandom(CHUNK_SIZE) for _ in range(BATCH_CHUNKS)]
    aads = [b"chunk-%d" % index for index in range(BATCH_CHUNKS)]
    sealed = aead.seal_many(nonces, chunks, aads)
    n_bytes = BATCH_CHUNKS * CHUNK_SIZE
    results = {
        "chacha20-poly1305_seal_many_9x64k_mb_s": _mb_per_s(
            n_bytes, lambda: aead.seal_many(nonces, chunks, aads)
        ),
        "chacha20-poly1305_open_many_9x64k_mb_s": _mb_per_s(
            n_bytes, lambda: aead.open_many(nonces, sealed, aads)
        ),
    }
    key = os.urandom(32)
    for label, size, calls in (("64k", CHUNK_SIZE, 20), ("1m", MESSAGE_SIZE, 2)):
        message = os.urandom(size)
        seconds = _best_seconds(lambda: poly1305_mac(key, message), calls)
        results[f"poly1305_{label}_mb_s"] = size / seconds / 1e6
    return results


def _codec_rates() -> dict:
    """What one router -> replica hop pays the codec, each way."""
    envelopes = {
        "request": messages.encode_request(
            "client-12/345", bytes(64), deadline=2.0066, fence={"role": "router", "epoch": 3}
        ),
        "reply": messages.encode_ok("client-12/345", bytes(64), "replica-2"),
    }
    results = {}
    for label, raw in envelopes.items():
        value = encoding.decode(raw)
        for op, fn in (
            ("encode", lambda: encoding.encode(value)),
            ("decode", lambda: encoding.decode(raw)),
        ):
            seconds = _best_seconds(fn, CODEC_CALLS_PER_REPEAT)
            results[f"codec_{label}_{op}_us"] = seconds * 1e6
            results[f"codec_{label}_{op}_calls_s"] = 1.0 / seconds
    blob = os.urandom(MESSAGE_SIZE)
    sealed = encoding.encode(blob)
    results["codec_blob_encode_mb_s"] = _mb_per_s(MESSAGE_SIZE, lambda: encoding.encode(blob))
    results["codec_blob_decode_mb_s"] = _mb_per_s(MESSAGE_SIZE, lambda: encoding.decode(sealed))
    return results


def _build_plane() -> ServingPlane:
    """The plane ``benchmarks/e2e``'s ``serve_chaos`` builds every lap."""
    return ServingPlane(
        seed=18,
        n_nodes=4,
        initial_replicas=5,
        router_policy=RouterPolicy(max_attempts=5),
        autoscaler_policy=AutoscalerPolicy(slo_p99=0.2, min_replicas=5, max_replicas=8),
    )


def _plane_build_counts() -> dict:
    """Public-key operations one plane build issues (boot, attestation, handshakes)."""
    counts = dict.fromkeys(PK_OPERATIONS, 0)

    def counted(label, method):
        def wrapper(*args, **kwargs):
            counts[label] += 1
            return method(*args, **kwargs)

        return wrapper

    with pytest.MonkeyPatch.context() as patch:
        for label, (owner, name) in PK_OPERATIONS.items():
            patch.setattr(owner, name, counted(label, getattr(owner, name)))
        _build_plane()
    return counts


def _public_key_rates() -> dict:
    """Per-operation cost of the curve arithmetic, and of one plane build on it."""
    seed = bytes(range(32))
    signer = Ed25519PrivateKey(seed)
    verifier = signer.public_key()
    message = os.urandom(96)  # a quote body / certificate payload
    signature = signer.sign(message)
    ours = X25519PrivateKey(seed)
    theirs = X25519PrivateKey(bytes(range(1, 33))).public_key()
    calls = {
        "ed25519_keygen": lambda: Ed25519PrivateKey(seed),
        "ed25519_sign": lambda: signer.sign(message),
        "ed25519_verify": lambda: verifier.verify(signature, message),
        "x25519_public_key": ours.public_key,
        "x25519_exchange": lambda: ours.exchange(theirs),
    }
    results = {}
    for label, count in _plane_build_counts().items():
        seconds = _best_seconds(calls[label], PK_CALLS_PER_REPEAT)
        results[f"pk_{label}_us"] = seconds * 1e6
        results[f"pk_{label}_calls_s"] = 1.0 / seconds
        results[f"pk_{label}_per_plane_build"] = count
    results["pk_plane_build_ms"] = _best_seconds(_build_plane) * 1e3
    return results


def _make_shield(**shield_args):
    """A NATIVE (owner-side) shield and the simulated clock it charges."""
    vfs = VirtualFileSystem()
    clock = SimClock()
    syscalls = SyscallInterface(vfs, DEFAULT_COST_MODEL, clock, mode=SgxMode.NATIVE)
    shield = FileSystemShield(
        syscalls,
        bytes(range(32)),
        [PathRule("/secure/", ShieldPolicy.ENCRYPT)],
        DEFAULT_COST_MODEL,
        clock,
        **shield_args,
    )
    return shield, clock


def _shield_throughputs() -> dict:
    results = {}
    payload = os.urandom(MESSAGE_SIZE)
    shield, _ = _make_shield()
    results[f"fs_shield_{CIPHER}_write_mb_s"] = _mb_per_s(
        MESSAGE_SIZE, lambda: shield.write_file("/secure/bench", payload)
    )
    # Cold read: caches dropped before every iteration.
    results[f"fs_shield_{CIPHER}_read_cold_mb_s"] = _mb_per_s(
        MESSAGE_SIZE, lambda: (shield.drop_caches(), shield.read_file("/secure/bench"))
    )
    # Warm read: chunk cache populated by the previous read.
    shield.read_file("/secure/bench")
    results[f"fs_shield_{CIPHER}_read_warm_mb_s"] = _mb_per_s(
        MESSAGE_SIZE, lambda: shield.read_file("/secure/bench")
    )
    return results


#: (label, chunk_cache_bytes, drop the caches before the measured read)
SIMULATED_READS = (
    ("cold", DEFAULT_CHUNK_CACHE_BYTES, True),
    ("warm", DEFAULT_CHUNK_CACHE_BYTES, False),
    # Room for 8 of the 16 chunks: a chunk occupies its share of the
    # file's size, the 64 KiB of plaintext it holds.
    ("half_evicted", (MESSAGE_SIZE + CHUNK_SIZE) // 2, False),
)


def _shield_simulated_reads() -> dict:
    """The same 1 MiB read on the simulated clock, by how much of the
    file the chunk cache holds: nothing (the cold path), all of it, or —
    a cache of half the file under repeated whole-file reads, where LRU
    keeps whichever half was opened last — every other chunk."""
    payload = os.urandom(MESSAGE_SIZE)
    results = {}
    for label, cache_bytes, drop in SIMULATED_READS:
        shield, clock = _make_shield(chunk_size=CHUNK_SIZE, chunk_cache_bytes=cache_bytes)
        shield.write_file("/secure/bench", payload)
        shield.read_file("/secure/bench")  # past the write-warmed state
        if drop:
            shield.drop_caches()
        stats = shield.stats
        hits, misses = stats.chunk_cache_hits, stats.chunk_cache_misses
        started = clock.now
        shield.read_file("/secure/bench")
        hits, misses = stats.chunk_cache_hits - hits, stats.chunk_cache_misses - misses
        results[f"fs_shield_sim_read_{label}_us"] = (clock.now - started) * 1e6
        results[f"fs_shield_sim_read_{label}_hit_ratio"] = hits / (hits + misses)
    return results


#: ``shield_write``'s geometry: 544 KiB in nine chunks, two replicas.
HW_WRITE_BYTES = 544 << 10
#: Enclave thread budgets the HW write is simulated at: serial, default.
HW_WRITE_THREADS = (1, 8)


def _shield_simulated_hw_writes() -> dict:
    """The steady-state HW overwrite of ``shield_write``'s geometry on
    the simulated clock, in an enclave of 1 and of 8 threads: the seal
    runs on the enclave's idle threads, down to the MEE floor."""
    payload = os.urandom(HW_WRITE_BYTES)
    results = {}
    for threads in HW_WRITE_THREADS:
        clock = SimClock()
        rng = DeterministicRng(36, label="crypto-dataplane")
        cpu = SgxCpu(
            "cpu", DEFAULT_COST_MODEL, clock,
            ProvisioningAuthority(rng.child("intel")), rng.child("cpu"),
        )
        enclave = cpu.create_enclave(
            EnclaveImage(
                "app", [Segment.from_content("b", b"x", "code")], max_threads=threads
            ),
            SgxMode.HW,
        )
        shield = FileSystemShield(
            SyscallInterface(
                VirtualFileSystem(), DEFAULT_COST_MODEL, clock,
                mode=SgxMode.HW, enclave=enclave,
            ),
            bytes(range(32)),
            [PathRule("/secure/", ShieldPolicy.ENCRYPT)],
            DEFAULT_COST_MODEL,
            clock,
            chunk_size=CHUNK_SIZE,
            replicas=2,
            memory=enclave.memory,
        )
        shield.write_file("/secure/bench", payload)
        started, crypto = clock.now, shield.stats.crypto_time
        shield.write_file("/secure/bench", payload[::-1])
        results[f"fs_shield_sim_hw_write_{threads}t_us"] = (clock.now - started) * 1e6
        results[f"fs_shield_sim_hw_write_{threads}t_crypto_us"] = (
            shield.stats.crypto_time - crypto
        ) * 1e6
    return results


def _collect() -> dict:
    results = _aead_throughputs()
    results.update(_aead_size_sweep())
    results.update(_batch_and_mac_rates())
    results.update(_shield_throughputs())
    results.update(_shield_simulated_reads())
    results.update(_shield_simulated_hw_writes())
    results.update(_codec_rates())
    results.update(_public_key_rates())
    return results


def test_crypto_dataplane_throughput(benchmark):
    results = run_once(benchmark, _collect)

    print_table(
        "Crypto data plane — real throughput (MB/s)",
        ("cipher", "encrypt", "decrypt", "shield write", "read cold", "read warm"),
        [
            (
                CIPHER,
                f"{results[f'{CIPHER}_encrypt_mb_s']:.1f}",
                f"{results[f'{CIPHER}_decrypt_mb_s']:.1f}",
                f"{results[f'fs_shield_{CIPHER}_write_mb_s']:.1f}",
                f"{results[f'fs_shield_{CIPHER}_read_cold_mb_s']:.1f}",
                f"{results[f'fs_shield_{CIPHER}_read_warm_mb_s']:.1f}",
            )
        ],
        notes=[
            "seed baseline: chacha20-poly1305 ~22 MB/s",
            "warm reads serve plaintext chunks from the freshness-bound cache",
        ],
    )
    print_table(
        "The same 1 MiB shield read on the simulated clock (16 x 64 KiB, NATIVE)",
        ("chunk cache holds", "hit ratio", "simulated us"),
        [
            (
                label.replace("_", " "),
                f"{results[f'fs_shield_sim_read_{label}_hit_ratio']:.2f}",
                f"{results[f'fs_shield_sim_read_{label}_us']:.1f}",
            )
            for label, _, _ in SIMULATED_READS
        ],
        notes=[
            "a read pays crypto (4 GB/s) for the chunks it opens and a copy "
            "(18 GB/s here, 7.5 GB/s in an HW enclave) for the ones it finds cached",
        ],
    )
    print_table(
        "A 544 KiB HW overwrite, 2 replicas, on the simulated clock",
        ("enclave threads", "write us", "of which crypto us"),
        [
            (
                threads,
                f"{results[f'fs_shield_sim_hw_write_{threads}t_us']:.1f}",
                f"{results[f'fs_shield_sim_hw_write_{threads}t_crypto_us']:.1f}",
            )
            for threads in HW_WRITE_THREADS
        ],
        notes=[
            "one thread seals at 4 GB/s; idle threads spread the chunks down "
            "to the plaintext once through the MEE (7.5 GB/s)",
        ],
    )
    print_table(
        "AEAD encrypt by message size (MB/s; 256 B also as calls/s)",
        ("cipher", "256 B", "calls/s", "16 KiB", "64 KiB", "1 MiB"),
        [
            (
                CIPHER,
                f"{results[f'{CIPHER}_encrypt_256b_mb_s']:.2f}",
                f"{results[f'{CIPHER}_encrypt_256b_calls_s']:.0f}",
                f"{results[f'{CIPHER}_encrypt_16k_mb_s']:.1f}",
                f"{results[f'{CIPHER}_encrypt_64k_mb_s']:.1f}",
                f"{results[f'{CIPHER}_encrypt_mb_s']:.1f}",
            )
        ],
        notes=["the 256 B row is the per-call floor: what a TLS record pays"],
    )
    print_table(
        "What the fs shield issues: one batch per file (ChaCha20-Poly1305, MB/s)",
        ("seal_many 9 x 64 KiB", "open_many 9 x 64 KiB", "Poly1305 64 KiB", "Poly1305 1 MiB"),
        [
            (
                f"{results['chacha20-poly1305_seal_many_9x64k_mb_s']:.1f}",
                f"{results['chacha20-poly1305_open_many_9x64k_mb_s']:.1f}",
                f"{results['poly1305_64k_mb_s']:.0f}",
                f"{results['poly1305_1m_mb_s']:.0f}",
            )
        ],
        notes=["per-chunk passes (PR 15): ~70 MB/s batch, Poly1305 ~165 / ~300 MB/s"],
    )
    print_table(
        "Canonical codec (fenced serving request, ok reply; 1 MiB blob)",
        ("message", "encode us", "decode us", "encode calls/s", "decode calls/s"),
        [
            (
                label,
                f"{results[f'codec_{label}_encode_us']:.2f}",
                f"{results[f'codec_{label}_decode_us']:.2f}",
                f"{results[f'codec_{label}_encode_calls_s']:.0f}",
                f"{results[f'codec_{label}_decode_calls_s']:.0f}",
            )
            for label in ("request", "reply")
        ],
        notes=[
            f"1 MiB bytes: encode {results['codec_blob_encode_mb_s']:.0f} MB/s, "
            f"decode {results['codec_blob_decode_mb_s']:.0f} MB/s",
        ],
    )
    print_table(
        "Public-key plane (Ed25519, X25519) and one ServingPlane build on it",
        ("operation", "us", "calls/s", "per plane build"),
        [
            (
                label,
                f"{results[f'pk_{label}_us']:.0f}",
                f"{results[f'pk_{label}_calls_s']:.0f}",
                results[f"pk_{label}_per_plane_build"],
            )
            for label in PK_OPERATIONS
        ],
        notes=[
            f"one plane build (4 nodes, 5 replicas): {results['pk_plane_build_ms']:.0f} ms",
            "double-and-add (PR 17): keygen/sign ~2 200 us, verify ~4 600, public key ~1 500",
        ],
    )
    record(benchmark, **results)
    # No entry overwritten without its predecessor kept (ROADMAP).
    previous = load_bench("crypto_dataplane")
    previous.pop("previous", None)
    save_bench(
        "crypto_dataplane",
        {**{k: round(v, 2) for k, v in results.items()}, "previous": previous},
    )

    # Acceptance floors from the data-plane rework (conservative: CI
    # machines vary, but regressions to the seed's bigint paths are
    # orders of magnitude, not percent).
    assert results["chacha20-poly1305_encrypt_mb_s"] >= 45.0
    # One keystream pass per call: a shield chunk and a TLS record must
    # not fall back to the ~4 ms/call dispatch floor (16 MB/s, 400/s).
    assert results["chacha20-poly1305_encrypt_64k_mb_s"] >= 25.0
    assert results["chacha20-poly1305_encrypt_256b_calls_s"] >= 1000.0
    # One pass per file, not per chunk; tests/perf/test_crypto_perf_smoke.py
    # holds the floors that separate the two.
    assert (
        results["chacha20-poly1305_seal_many_9x64k_mb_s"]
        > results["chacha20-poly1305_encrypt_64k_mb_s"]
    )
    # Exact-type dispatch, not the nine-way isinstance ladder (~105k and
    # ~90k calls/s here); tests/perf/test_codec_perf_smoke.py holds the
    # tighter floors.
    assert results["codec_request_encode_calls_s"] >= 130_000
    assert results["codec_request_decode_calls_s"] >= 100_000
    # A fixed-base table, not ~380 generic additions per scalar (~450
    # signs/s here); tests/perf/test_crypto_perf_smoke.py holds sign and
    # verify to the retired double-and-add, as ratios, in tier 1.
    assert results["pk_ed25519_sign_calls_s"] >= 1000.0
    # The warm read path must beat the cold one — that's the cache — on
    # the host and, in step with the hit ratio, on the simulated clock.
    assert (
        results[f"fs_shield_{CIPHER}_read_warm_mb_s"]
        > results[f"fs_shield_{CIPHER}_read_cold_mb_s"]
    )
    assert [
        results[f"fs_shield_sim_read_{label}_hit_ratio"] for label, _, _ in SIMULATED_READS
    ] == [0.0, 1.0, 0.5]
    assert (
        results["fs_shield_sim_read_warm_us"]
        < results["fs_shield_sim_read_half_evicted_us"]
        < results["fs_shield_sim_read_cold_us"]
    )
    # Eight threads seal on the MEE floor, one thread at the AES-NI rate.
    assert (
        results["fs_shield_sim_hw_write_8t_crypto_us"]
        < results["fs_shield_sim_hw_write_1t_crypto_us"]
    )
