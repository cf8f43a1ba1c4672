"""Ablations of the design choices DESIGN.md calls out.

(a) asynchronous vs synchronous syscalls (SCONE's exit-less interface),
(b) user-level vs OS threading on blocking events,
(c) file-system shield chunk size,
(d) EPC replacement policy (random vs LRU) under a slight overflow, and
    what the residency model itself costs the host per granule touched,
(e) TLS record cipher choice.
"""

import time

import pytest

from harness import (
    fmt_ms, fmt_s, load_bench, print_table, record, run_once, save_bench,
)

from repro._sim import DeterministicRng, SimClock
from repro.enclave.attestation import ProvisioningAuthority
from repro.enclave.cost_model import DEFAULT_COST_MODEL as CM
from repro.enclave.epc import EpcCache
from repro.enclave.sgx import EnclaveImage, Segment, SgxCpu, SgxMode
from repro.runtime.fs_shield import FileSystemShield, PathRule, ShieldPolicy
from repro.runtime.syscall import SyscallInterface
from repro.runtime.threading_ul import ThreadingModel, UserLevelScheduler
from repro.runtime.vfs import VirtualFileSystem

N_SYSCALLS = 2000
N_BLOCKS = 2000


def _make_cpu(seed=0):
    rng = DeterministicRng(seed, label="ablation")
    clock = SimClock()
    pa = ProvisioningAuthority(rng.child("intel"))
    return SgxCpu("cpu-a", CM, clock, pa, rng.child("cpu")), clock


def _enclave(cpu):
    image = EnclaveImage("abl", [Segment.from_content("b", b"x", "code")])
    return cpu.create_enclave(image, SgxMode.HW)


def test_ablation_async_syscalls(benchmark):
    def scenario():
        results = {}
        for asynchronous in (False, True):
            cpu, clock = _make_cpu()
            enclave = _enclave(cpu)
            syscalls = SyscallInterface(
                VirtualFileSystem(), CM, clock, mode=SgxMode.HW,
                enclave=enclave, asynchronous=asynchronous,
            )
            before = clock.now
            for _ in range(N_SYSCALLS):
                syscalls.nop_syscall()
            results["async" if asynchronous else "sync"] = clock.now - before
        return results

    results = run_once(benchmark, scenario)
    ratio = results["sync"] / results["async"]
    print_table(
        f"Ablation (a) — {N_SYSCALLS} enclave syscalls",
        ("interface", "total time"),
        [(k, fmt_ms(v)) for k, v in results.items()],
        notes=[f"exit-less interface is {ratio:.1f}x faster"],
    )
    record(benchmark, sync_ms=results["sync"] * 1e3, async_ms=results["async"] * 1e3)
    assert ratio > 1.5


def test_ablation_userlevel_threading(benchmark):
    def scenario():
        results = {}
        for model in (ThreadingModel.OS, ThreadingModel.USER_LEVEL):
            cpu, clock = _make_cpu()
            enclave = _enclave(cpu)
            scheduler = UserLevelScheduler(
                CM, clock, mode=SgxMode.HW, threading_model=model,
                enclave=enclave,
            )
            before = clock.now
            for _ in range(N_BLOCKS):
                scheduler.block()
            results[model.value] = clock.now - before
        return results

    results = run_once(benchmark, scenario)
    ratio = results["os"] / results["user-level"]
    print_table(
        f"Ablation (b) — {N_BLOCKS} blocking events in HW mode",
        ("threading", "total time"),
        [(k, fmt_ms(v)) for k, v in results.items()],
        notes=[f"user-level threading is {ratio:.1f}x cheaper per block"],
    )
    record(benchmark, **{k.replace("-", "_"): v for k, v in results.items()})
    assert ratio > 3


def test_ablation_fs_shield_chunk_size(benchmark):
    payload = bytes(np_bytes := 2 * 1024 * 1024)

    def scenario():
        results = {}
        for chunk_size in (4 * 1024, 64 * 1024, 1024 * 1024):
            clock = SimClock()
            syscalls = SyscallInterface(VirtualFileSystem(), CM, clock)
            shield = FileSystemShield(
                syscalls,
                bytes(32),
                [PathRule("/s/", ShieldPolicy.ENCRYPT)],
                CM,
                clock,
                chunk_size=chunk_size,
            )
            before = clock.now
            shield.write_file("/s/blob", payload)
            shield.read_file("/s/blob")
            results[chunk_size] = clock.now - before
        return results

    results = run_once(benchmark, scenario)
    print_table(
        "Ablation (c) — fs-shield chunk size, 2 MiB write+read",
        ("chunk", "time"),
        [(f"{k // 1024} KiB", fmt_ms(v)) for k, v in results.items()],
        notes=["small chunks pay per-chunk overhead; huge chunks lose "
               "random-access granularity (not captured here)"],
    )
    record(benchmark, **{f"chunk_{k}": v for k, v in results.items()})
    assert results[4 * 1024] > results[64 * 1024]


def test_ablation_epc_replacement_policy(benchmark):
    """Random replacement degrades gracefully on a 10%-overflowing cyclic
    scan; LRU collapses to a 100% miss rate — the reason the default EPC
    model is random (see repro/enclave/epc.py)."""

    def scenario():
        results = {}
        granules = 440  # vs capacity 400
        for policy in ("lru", "random"):
            clock = SimClock()
            cache = EpcCache(
                CM, clock, capacity_bytes=400 * 64 * 1024, policy=policy
            )
            for _ in range(10):
                for g in range(granules):
                    cache.access(1, g)
            results[policy] = cache.stats.fault_rate
        return results

    results = run_once(benchmark, scenario)
    print_table(
        "Ablation (d) — EPC policy, cyclic scan at 110% of capacity",
        ("policy", "miss rate"),
        [(k, f"{v * 100:.1f}%") for k, v in results.items()],
    )
    record(benchmark, **results)
    assert results["lru"] > 0.95
    assert results["random"] < 0.5


#: Working set over EPC capacity: resident, the `infer_epc` regime
#: (slight overflow), and two thrashing ones (`train_sharded` faults on
#: ~80 % of its touches, as the 2x scan does).
EPC_SWEEP_RATIOS = (0.93, 1.1, 2.0, 5.0)
#: Granules per ``access_range`` call; the execution engine's calls
#: average ~30 on the e2e workloads.
EPC_SWEEP_CHUNK = 32


def epc_touches_per_s(ratio, repeats=7, min_touches=60_000):
    """Host granule touches/s of a cyclic scan over ``ratio`` x capacity
    (best of ``repeats``), and the fault rate the scan settles at."""
    best, fault_rate = 0.0, 0.0
    for _ in range(repeats):
        cache = EpcCache(CM, SimClock())
        granule = cache.granule_size
        working_set = int(cache.capacity_granules * ratio)
        chunks = [
            (start * granule, min(EPC_SWEEP_CHUNK, working_set - start) * granule)
            for start in range(0, working_set, EPC_SWEEP_CHUNK)
        ]
        for first_byte, n_bytes in chunks:  # warm: fill the EPC
            cache.access_range(1, first_byte, n_bytes)
        passes = -(-min_touches // working_set)
        warm_faults = cache.stats.faults
        started = time.perf_counter()
        for _ in range(passes):
            for first_byte, n_bytes in chunks:
                cache.access_range(1, first_byte, n_bytes)
        elapsed = time.perf_counter() - started
        best = max(best, passes * working_set / elapsed)
        fault_rate = (cache.stats.faults - warm_faults) / (passes * working_set)
    return best, fault_rate


def test_ablation_epc_host_cost(benchmark):
    """(d, host side) Every simulated memory access goes through
    ``EpcCache.access_range``; this is what one granule touch costs the
    simulator in real time, from fully resident to thrashing."""

    def scenario():
        return {ratio: epc_touches_per_s(ratio) for ratio in EPC_SWEEP_RATIOS}

    results = run_once(benchmark, scenario)
    print_table(
        "Ablation (d) — EPC model host cost, cyclic scan in "
        f"{EPC_SWEEP_CHUNK}-granule calls (real wall time, best of 7)",
        ("working set / capacity", "fault rate", "M touches/s"),
        [
            (f"{ratio:g}x", f"{fault_rate * 100:.1f}%", f"{rate / 1e6:.2f}")
            for ratio, (rate, fault_rate) in results.items()
        ],
    )
    metrics = {}
    for ratio, (rate, fault_rate) in results.items():
        tag = f"{ratio:g}".replace(".", "_")
        metrics[f"touches_per_s_at_{tag}x"] = round(rate)
        metrics[f"fault_rate_at_{tag}x"] = round(fault_rate, 4)
    record(benchmark, **metrics)
    previous = load_bench("epc_paging")
    previous.pop("previous", None)
    save_bench("epc_paging", {**metrics, "previous": previous})
    rates = [fault_rate for _, fault_rate in results.values()]
    assert rates[0] == 0.0 and rates == sorted(rates)


def test_ablation_tls_cipher(benchmark):
    from repro.crypto.aead import get_aead

    payload = bytes(256 * 1024)

    def scenario():
        import time

        results = {}
        for cipher, key_len in (("chacha20-poly1305", 32), ("aes-256-gcm", 32)):
            aead = get_aead(cipher, bytes(key_len))
            start = time.perf_counter()
            sealed = aead.encrypt(b"\x01" * 12, payload)
            aead.decrypt(b"\x01" * 12, sealed)
            results[cipher] = time.perf_counter() - start
        return results

    results = run_once(benchmark, scenario)
    print_table(
        "Ablation (e) — record cipher, 256 KiB seal+open (real wall time)",
        ("cipher", "time"),
        [(k, fmt_s(v)) for k, v in results.items()],
        notes=["vectorized ChaCha20 is the practical bulk cipher in pure "
               "Python; AES-GCM is kept for small control messages"],
    )
    record(benchmark, **{k.replace("-", "_"): v for k, v in results.items()})
    assert results["chacha20-poly1305"] < results["aes-256-gcm"]
