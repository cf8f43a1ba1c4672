"""Enclave memory manager: regions, touch accounting, EPC wiring.

Every workload touches memory through ``touch_window``, so the tests
drive it there."""

import pytest

from repro._sim import SimClock
from repro.enclave.cost_model import DEFAULT_COST_MODEL as CM
from repro.enclave.epc import EpcCache
from repro.enclave.memory import EnclaveMemory
from repro.errors import EnclaveError


def make_memory(encrypted=False, capacity_bytes=None, clock=None):
    clock = clock or SimClock()
    epc = (
        EpcCache(CM, clock, capacity_bytes=capacity_bytes) if encrypted else None
    )
    return EnclaveMemory(1, CM, clock, epc=epc), clock


def test_alloc_and_region_lookup():
    memory, _ = make_memory()
    region = memory.alloc("weights", 1000, kind="data")
    assert region.size == 1000
    assert memory.region("weights") == region
    assert memory.footprint == 1000


def test_alloc_duplicate_and_invalid():
    memory, _ = make_memory()
    memory.alloc("a", 10)
    with pytest.raises(EnclaveError):
        memory.alloc("a", 10)
    with pytest.raises(EnclaveError):
        memory.alloc("b", 0)


def test_free_and_missing_region():
    memory, _ = make_memory()
    memory.alloc("a", 10)
    memory.free("a")
    with pytest.raises(EnclaveError):
        memory.free("a")
    with pytest.raises(EnclaveError):
        memory.touch_window("a", 0, 1)


def test_regions_do_not_overlap():
    memory, _ = make_memory()
    a = memory.alloc("a", 100_000)
    b = memory.alloc("b", 100_000)
    assert b.base >= a.base + a.size


def test_touch_charges_native_bandwidth():
    memory, clock = make_memory(encrypted=False)
    memory.alloc("data", 1_000_000)
    memory.touch_window("data", 0, 1_000_000)
    assert clock.now == pytest.approx(1_000_000 / CM.native_memory_bandwidth)
    assert memory.bytes_touched == 1_000_000


def test_touch_charges_mee_bandwidth_when_encrypted():
    memory, clock = make_memory(encrypted=True)
    memory.alloc("data", 1_000_000)
    faults, _ = memory.touch_window("data", 0, 1_000_000)
    assert faults > 0
    bandwidth_part = 1_000_000 / CM.enclave_memory_bandwidth
    assert clock.now > bandwidth_part  # bandwidth + fault time


def test_touch_without_bandwidth_charges_only_faults():
    memory, clock = make_memory(encrypted=True)
    memory.alloc("code", 1_000_000)
    memory.touch_window("code", 0, 1_000_000, bandwidth=False)
    fault_only = clock.now
    assert fault_only > 0
    before = clock.now
    memory.touch_window("code", 0, 1_000_000, bandwidth=False)  # resident now: free
    assert clock.now == before


@pytest.mark.parametrize("encrypted", [False, True])
def test_touch_window_of_no_bytes_moves_nothing(encrypted):
    memory, clock = make_memory(encrypted=encrypted)
    memory.alloc("a", 100)
    assert memory.touch_window("a", 50, 0) == (0, 50)
    assert memory.touch_window("a", 50, -10) == (0, 50)
    assert memory.touch_window("a", 50, -10, bandwidth=False) == (0, 50)
    assert clock.now == 0.0 and memory.bytes_touched == 0


def test_touch_window_wraps():
    memory, _ = make_memory(encrypted=True, capacity_bytes=1024 * 1024)
    memory.alloc("r", 3 * 64 * 1024)
    faults, cursor = memory.touch_window("r", 2 * 64 * 1024, 2 * 64 * 1024)
    assert cursor == 64 * 1024
    assert faults == 2  # last granule + first granule


def test_touch_cyclic_traffic_exceeding_region():
    memory, _ = make_memory(encrypted=True, capacity_bytes=10 * 64 * 1024)
    memory.alloc("r", 2 * 64 * 1024)
    faults, _ = memory.touch_window("r", 0, 10 * 64 * 1024)
    assert faults == 2  # fits in EPC: only cold faults


def test_charge_bytes():
    memory, clock = make_memory()
    memory.charge_bytes(CM.page_size)
    assert clock.now > 0
    before = clock.now
    memory.charge_bytes(0)
    assert clock.now == before
