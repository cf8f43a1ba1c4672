"""Enclave lifecycle: measurement, sealing, quotes, destruction."""

import pytest

from repro._sim import DeterministicRng, SimClock
from repro.crypto.aead import CIPHER, AeadKey
from repro.enclave.attestation import ProvisioningAuthority
from repro.enclave.cost_model import DEFAULT_COST_MODEL as CM
from repro.enclave.sgx import Enclave, EnclaveImage, Segment, SgxCpu, SgxMode
from repro.errors import EnclaveError, IntegrityError


def make_image(name="app", binary=b"\x90" * 1000, heap=1 << 20, threads=4):
    return EnclaveImage(
        name=name,
        segments=[Segment.from_content("binary", binary, kind="code")],
        heap_size=heap,
        max_threads=threads,
    )


def test_measurement_is_content_sensitive():
    base = make_image().measurement()
    assert make_image().measurement() == base  # deterministic
    assert make_image(binary=b"\x90" * 999 + b"\x91").measurement() != base
    assert make_image(name="other").measurement() != base
    assert make_image(heap=2 << 20).measurement() != base
    assert make_image(threads=8).measurement() != base


def test_declared_segments_measure_identity():
    a = Segment.declared("model", 1000, b"model-v1")
    b = Segment.declared("model", 1000, b"model-v2")
    image_a = EnclaveImage("app", [a])
    image_b = EnclaveImage("app", [b])
    assert image_a.measurement() != image_b.measurement()


def test_create_enclave_charges_hw_costs(cpu, clock):
    enclave = cpu.create_enclave(make_image(), SgxMode.HW)
    pages = -(-enclave.image.static_size // CM.page_size)
    expected = CM.enclave_create_cost + pages * CM.eadd_eextend_cost_per_page
    assert clock.now == pytest.approx(expected)
    assert enclave.memory.encrypted


def test_sim_enclave_is_free_and_unencrypted(cpu, clock):
    enclave = cpu.create_enclave(make_image(), SgxMode.SIM)
    assert clock.now == 0.0
    assert not enclave.memory.encrypted


def test_native_mode_cannot_create_enclave(cpu):
    with pytest.raises(EnclaveError):
        cpu.create_enclave(make_image(), SgxMode.NATIVE)


def test_enclave_regions_allocated(cpu):
    enclave = cpu.create_enclave(make_image(), SgxMode.HW)
    assert set(enclave.memory.regions) == {"binary", "heap"}


def test_report_and_debug_flag(cpu):
    hw = cpu.create_enclave(make_image("a"), SgxMode.HW)
    sim = cpu.create_enclave(make_image("b"), SgxMode.SIM)
    assert hw.create_report().debug is False
    assert sim.create_report().debug is True
    assert hw.create_report(b"data").report_data == b"data"
    with pytest.raises(EnclaveError):
        hw.create_report(b"x" * 65)


def sealer(cpu, enclave):
    """An AEAD key under the enclave's sealing key, as CAS seals its database."""
    return AeadKey(CIPHER, cpu.sealing_key(enclave.measurement))


def test_sealing_roundtrip_same_identity(cpu):
    enclave = cpu.create_enclave(make_image(), SgxMode.HW)
    sealed = sealer(cpu, enclave).seal(b"secret", aad=b"ctx")
    assert sealer(cpu, enclave).open(sealed, aad=b"ctx") == b"secret"
    # A restarted enclave with the same measurement can unseal.
    reborn = cpu.create_enclave(make_image(), SgxMode.HW)
    assert sealer(cpu, reborn).open(sealed, aad=b"ctx") == b"secret"


def test_sealing_bound_to_measurement(cpu):
    enclave = cpu.create_enclave(make_image(), SgxMode.HW)
    other = cpu.create_enclave(make_image(name="different"), SgxMode.HW)
    sealed = sealer(cpu, enclave).seal(b"secret")
    with pytest.raises(IntegrityError):
        sealer(cpu, other).open(sealed)


def test_sealing_bound_to_cpu(cpu, cost_model, provisioning, rng):
    clock2 = SimClock()
    cpu2 = SgxCpu("cpu-2", cost_model, clock2, provisioning, rng.child("cpu2"))
    enclave = cpu.create_enclave(make_image(), SgxMode.HW)
    sealed = sealer(cpu, enclave).seal(b"secret")
    with pytest.raises(IntegrityError):
        sealer(cpu2, cpu2.create_enclave(make_image(), SgxMode.HW)).open(sealed)


def test_quote_charges_generation_cost(cpu, clock):
    enclave = cpu.create_enclave(make_image(), SgxMode.HW)
    before = clock.now
    enclave.get_quote()
    assert clock.now - before == pytest.approx(CM.quote_generation_cost)


def test_destroy_evicts_and_blocks_use(cpu):
    enclave = cpu.create_enclave(make_image(), SgxMode.HW)
    binary = enclave.memory.region("binary")
    enclave.memory.touch_window("binary", 0, binary.size)
    assert cpu.epc.stats.per_enclave_resident.get(enclave.enclave_id, 0) > 0
    enclave.destroy()
    assert enclave._destroyed
    assert cpu.epc.stats.per_enclave_resident.get(enclave.enclave_id, 0) == 0
    with pytest.raises(EnclaveError):
        enclave.create_report()
    enclave.destroy()  # idempotent


def test_transition_costs(cpu, clock):
    before = clock.now
    cpu.transition(asynchronous=False)
    sync_cost = clock.now - before
    before = clock.now
    cpu.transition(asynchronous=True)
    async_cost = clock.now - before
    assert sync_cost == pytest.approx(CM.sync_transition_cost)
    assert async_cost == pytest.approx(CM.async_syscall_cost)
    assert async_cost < sync_cost
    assert cpu.transitions == 2
