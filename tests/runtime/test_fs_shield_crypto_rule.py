"""Tier-1 pin of the shield's one crypto charge rule.

Every seal and open is charged by one formula.  The serial charge is
bytes at the per-thread AES-NI rate plus the per-chunk bookkeeping.
Inside an enclave it is spread over ``min(chunks, idle threads)`` with
``CostModel.effective_parallel_speedup`` and floored at the bytes the
pass moves through the enclave's memory (a seal reads its plaintext
once, an open reads the enclave copy and writes the plaintext: twice),
over that memory's bandwidth — the MEE's 7.5 GB/s in HW, 18 GB/s in SIM.
The floor holds even above the serial charge: an HW open moves 0.267
ns/B through the MEE against a serial 0.262 ns/B, and pays the former.
An owner-side shield outside any enclave pays the serial charge.

Deterministic (simulated clock only), on ``shield_write`` /
``shield_read``'s geometry: one 544 KiB file, nine 64 KiB chunks, two
replicas.
"""

import pytest

from repro._sim import DeterministicRng, SimClock, probe
from repro.enclave.attestation import ProvisioningAuthority
from repro.enclave.cost_model import DEFAULT_COST_MODEL as CM
from repro.enclave.sgx import EnclaveImage, Segment, SgxCpu, SgxMode
from repro.observability.tracer import Tracer
from repro.runtime.fs_shield import (
    CHUNK_MARKER,
    FileSystemShield,
    LocalFreshnessTracker,
    PathRule,
    ShieldPolicy,
)
from repro.runtime.syscall import SyscallInterface
from repro.runtime.threading_ul import UserLevelScheduler
from repro.runtime.vfs import VirtualFileSystem

PATH = "/secure/file"
PAYLOAD = bytes(range(256)) * (544 * 4)  # 544 KiB, nine chunks
SERIAL = len(PAYLOAD) / CM.fs_shield_crypto_bandwidth + 9 * CM.fs_shield_chunk_overhead


def _shield(mode=SgxMode.HW, max_threads=8, in_enclave=True, scheduler=None):
    clock = SimClock()
    enclave = None
    if mode is not SgxMode.NATIVE:
        rng = DeterministicRng(36, label="crypto-rule")
        cpu = SgxCpu(
            "cpu", CM, clock, ProvisioningAuthority(rng.child("intel")), rng.child("cpu")
        )
        enclave = cpu.create_enclave(
            EnclaveImage(
                "app", [Segment.from_content("b", b"x", "code")], max_threads=max_threads
            ),
            mode,
        )
    syscalls = SyscallInterface(VirtualFileSystem(), CM, clock, mode=mode, enclave=enclave)
    options = {} if scheduler is None else {"scheduler": scheduler(clock, enclave)}
    shield = FileSystemShield(
        syscalls,
        bytes(range(32)),
        [PathRule("/secure/", ShieldPolicy.ENCRYPT)],
        CM,
        clock,
        freshness=LocalFreshnessTracker(),
        replicas=2,
        memory=enclave.memory if in_enclave and enclave is not None else None,
        **options,
    )
    return shield, clock


def _charges(shield):
    """(crypto of the write, crypto of a cold read that follows it)."""
    shield.write_file(PATH, PAYLOAD)
    seal = shield.stats.crypto_time
    shield.drop_caches()
    assert shield.read_file(PATH) == PAYLOAD
    return seal, shield.stats.crypto_time - seal


def test_hw_write_lands_on_the_mee_floor():
    """Any three helpers or more beat the MEE: the seal costs the
    plaintext once through it, 74.3 µs instead of 146.5 µs serial."""
    shield, _ = _shield()
    seal, _ = _charges(shield)
    assert seal == len(PAYLOAD) / CM.enclave_memory_bandwidth
    for threads in (3, 4, 16):
        assert _charges(_shield(max_threads=threads)[0])[0] == seal


#: An HW open's floor: 2 x bytes at 7.5 GB/s (0.267 ns/B).
HW_OPEN_FLOOR = 2 * len(PAYLOAD) / CM.enclave_memory_bandwidth


def test_hw_cold_read_sits_on_the_mee_floor():
    """The open's floor is above the serial charge (0.262 ns/B): an HW
    decrypt is MEE-bound, on one thread or eight, and pays the floor
    (it paid serial, 2.1 µs less, while the rule capped the floor)."""
    assert HW_OPEN_FLOOR > SERIAL
    shield, _ = _shield()
    shield.write_file(PATH, PAYLOAD)
    shield.drop_caches()
    before = shield.stats.crypto_time
    shield.read_file(PATH)
    assert shield.stats.crypto_time == before + HW_OPEN_FLOOR


def test_sim_cold_read_sits_on_its_memory_floor():
    shield, _ = _shield(SgxMode.SIM)
    shield.write_file(PATH, PAYLOAD)
    shield.drop_caches()
    before = shield.stats.crypto_time
    shield.read_file(PATH)
    assert shield.stats.crypto_time == before + 2 * len(PAYLOAD) / CM.native_memory_bandwidth


@pytest.mark.parametrize("mode", [SgxMode.HW, SgxMode.SIM])
def test_a_one_thread_image_pays_the_serial_charge(mode):
    """Floored: an HW open pays its MEE floor, above serial."""
    seal, opened = _charges(_shield(mode, max_threads=1)[0])
    assert seal == SERIAL
    # (the floor through a difference of two sums: equal to the last bit or two)
    assert opened == pytest.approx(HW_OPEN_FLOOR if mode is SgxMode.HW else SERIAL, rel=1e-12)


def test_an_owner_side_shield_stays_serial():
    """No enclave memory, no helpers: a NATIVE shield (the owner's
    upload) and one built on an HW syscall layer without it."""
    for mode in (SgxMode.NATIVE, SgxMode.HW):
        seal, opened = _charges(_shield(mode, in_enclave=False)[0])
        assert seal == SERIAL
        assert opened == SERIAL


def test_helpers_are_the_idle_threads_and_stay_off_runnable():
    """Eight runnable application threads on an eight-thread image leave
    only the caller: serial.  A seal never changes ``runnable`` — the
    helpers are not application threads, and raising it would hide later
    syscall waits behind them."""
    schedulers = []

    def busy(clock, enclave):
        scheduler = UserLevelScheduler(CM, clock, mode=SgxMode.HW, enclave=enclave)
        scheduler.set_runnable(8)
        schedulers.append(scheduler)
        return scheduler

    seal, opened = _charges(_shield(scheduler=busy)[0])
    assert seal == SERIAL
    assert opened == pytest.approx(HW_OPEN_FLOOR, rel=1e-12)
    assert schedulers[0].runnable == 8

    def idle(clock, enclave):
        scheduler = UserLevelScheduler(CM, clock, mode=SgxMode.HW, enclave=enclave)
        schedulers.append(scheduler)
        return scheduler

    seal, _ = _charges(_shield(scheduler=idle)[0])
    assert seal == len(PAYLOAD) / CM.enclave_memory_bandwidth
    assert schedulers[1].runnable == 1


def test_the_seal_is_charged_before_its_extents_reach_the_ring():
    """The kernel's write service must not overlap the encryption of the
    bytes it writes: every 256 KiB piece of the extents reaches the ring
    only once every chunk it holds a byte of is sealed — pieces 0, 1 and
    2 of the 557 200 B extent after chunks 0–3, 0–7 and 0–8 (chunk 3
    straddles the first boundary, chunk 7 the second).  The opens go out
    before any of the seal."""
    shield, clock = _shield()
    plane = shield._syscalls.plane
    seen = []
    submit_one = plane._submit_one

    def recording(name, *args):
        seen.append((name, clock.now, shield.stats.crypto_time))
        return submit_one(name, *args)

    plane._submit_one = recording
    shield.write_file(PATH, PAYLOAD)
    opens = [now for name, now, _ in seen if name == "open"]
    assert len(opens) == 3  # two extents and the manifest, ahead of the seal
    start = opens[-1]
    seal = shield.stats.crypto_time  # booked whole, charged by the piece
    share = seal / len(PAYLOAD)
    pieces = [(name, now) for name, now, _ in seen if name in ("write", "rw_continuation")]
    # Both replicas' write, then their two continuations (the manifest's
    # write comes after the seal).
    assert [name for name, _ in pieces[:6]] == ["write"] * 2 + ["rw_continuation"] * 4
    for (_, now), chunks in zip(pieces[:6:2], (4, 8, 9)):
        sealed = min(chunks * 64 * 1024, len(PAYLOAD)) * share
        assert now - start >= sealed * (1 - 1e-12)


def test_traced_crypto_layer_is_the_stats_delta():
    shield, clock = _shield(SgxMode.SIM)
    tracer = Tracer()
    probe.install(tracer)
    try:
        seal, opened = _charges(shield)
    finally:
        probe.remove(tracer)
    assert tracer.clock_record(clock).layer_totals["crypto"] == seal + opened
    assert shield.stats.crypto_time == seal + opened
