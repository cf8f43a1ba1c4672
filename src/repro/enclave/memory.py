"""Enclave memory manager: regions, access charging, MEE bandwidth.

An enclave's address space is a set of named :class:`MemoryRegion`\\ s
(binary, model weights, heap, per-thread workspaces).  Workloads declare
*touches* — "read 4 MB starting at offset X of region R" — and the
manager converts them into (a) EPC granule accesses, which may fault and
charge paging time, and (b) memory-bandwidth time through the Memory
Encryption Engine.  Outside HW mode there is no EPC and bandwidth is
native, so the same workload code runs in all three modes (NATIVE / SIM
/ HW) and the mode differences emerge from this one chokepoint.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro._sim.clock import SimClock
from repro.enclave.cost_model import CostModel
from repro.enclave.epc import EpcCache
from repro.errors import EnclaveError


@dataclass(frozen=True)
class MemoryRegion:
    """A contiguous named slice of an enclave's address space."""

    name: str
    base: int
    size: int
    kind: str = "data"  # "code" | "data" | "heap" | "stack"

    @property
    def end(self) -> int:
        return self.base + self.size


class EnclaveMemory:
    """Per-enclave view of memory with cost accounting."""

    def __init__(
        self,
        enclave_id: int,
        cost_model: CostModel,
        clock: SimClock,
        epc: Optional[EpcCache] = None,
        granule_align: int = 64 * 1024,
    ) -> None:
        self._enclave_id = enclave_id
        self._clock = clock
        self._epc = epc
        self._align = granule_align
        #: Bytes/s of DRAM traffic: through the MEE when there is an EPC.
        self._bandwidth = (
            cost_model.enclave_memory_bandwidth
            if epc is not None
            else cost_model.native_memory_bandwidth
        )
        self._regions: Dict[str, MemoryRegion] = {}
        self._next_base = 0
        self.bytes_touched = 0
        self.bandwidth_time = 0.0

    @property
    def encrypted(self) -> bool:
        """True when memory traffic goes through the MEE (HW mode)."""
        return self._epc is not None

    @property
    def granule_fault_cost(self) -> float:
        """Simulated seconds one EPC granule fault costs (0.0 when there
        is no EPC, where nothing faults)."""
        return self._epc.granule_fault_cost if self._epc is not None else 0.0

    @property
    def regions(self) -> Dict[str, MemoryRegion]:
        return dict(self._regions)

    @property
    def footprint(self) -> int:
        """Total bytes allocated across live regions."""
        return sum(region.size for region in self._regions.values())

    def alloc(self, name: str, size: int, kind: str = "data") -> MemoryRegion:
        """Allocate a named region (granule-aligned base)."""
        if name in self._regions:
            raise EnclaveError(f"region {name!r} already allocated")
        if size <= 0:
            raise EnclaveError(f"region {name!r} must have positive size: {size}")
        base = self._next_base
        aligned_size = -(-size // self._align) * self._align
        self._next_base += aligned_size
        region = MemoryRegion(name=name, base=base, size=size, kind=kind)
        self._regions[name] = region
        return region

    def free(self, name: str) -> None:
        """Free a region.  Its granules stay in the EPC until evicted,
        exactly as freed-but-not-EREMOVEd pages do on real hardware."""
        if name not in self._regions:
            raise EnclaveError(f"region {name!r} is not allocated")
        del self._regions[name]

    def region(self, name: str) -> MemoryRegion:
        if name not in self._regions:
            raise EnclaveError(f"region {name!r} is not allocated")
        return self._regions[name]

    def touch(
        self,
        name: str,
        offset: int = 0,
        n_bytes: Optional[int] = None,
        bandwidth: bool = True,
    ) -> int:
        """Charge a sequential access of ``n_bytes`` at ``offset`` in region.

        ``bandwidth=False`` models accesses that hit on-core caches in
        steady state (hot code paths): no DRAM bandwidth is charged, but
        the granules still occupy — and may fault in — the EPC, because
        SGX's protection is at page granularity regardless of the cache
        hierarchy.  Returns the number of EPC granule faults (0 outside
        HW mode).
        """
        region = self.region(name)
        if n_bytes is None:
            n_bytes = region.size - offset
        if offset < 0 or n_bytes < 0 or offset + n_bytes > region.size:
            raise EnclaveError(
                f"touch [{offset}, {offset + n_bytes}) outside region "
                f"{name!r} of size {region.size}"
            )
        if n_bytes == 0:
            return 0
        return self._charge(region.base + offset, n_bytes, bandwidth)

    def _charge(self, first_byte: int, n_bytes: int, bandwidth: bool) -> int:
        """Charge one in-bounds, non-empty access; returns its EPC faults."""
        if bandwidth:
            duration = n_bytes / self._bandwidth
            self._clock.advance(duration)
            self.bandwidth_time += duration
        self.bytes_touched += n_bytes

        if self._epc is None:
            return 0
        return self._epc.access_range(self._enclave_id, first_byte, n_bytes)

    def touch_window(
        self,
        name: str,
        cursor: int,
        n_bytes: int,
        bandwidth: bool = True,
    ) -> "Tuple[int, int]":
        """Touch ``n_bytes`` starting at ``cursor``, wrapping around.

        Returns ``(faults, new_cursor)``.  Used by the execution engine
        to interleave walks over several regions the way real per-op
        execution interleaves code, weights, and activations — the cache
        behaviour under interleaving differs fundamentally from doing one
        region at a time.
        """
        region = self.region(name)
        if n_bytes <= 0:
            return 0, cursor
        base, size = region.base, region.size
        faults = 0
        remaining = n_bytes
        cursor %= size
        while remaining > 0:
            chunk = min(remaining, size - cursor)
            faults += self._charge(base + cursor, chunk, bandwidth)
            cursor = (cursor + chunk) % size
            remaining -= chunk
        return faults, cursor

    def touch_cyclic(
        self,
        name: str,
        traffic_bytes: int,
        bandwidth: bool = True,
    ) -> int:
        """Charge ``traffic_bytes`` of accesses cycling over a whole region.

        Models a working set being streamed repeatedly (weights per
        inference, hot code per op): full sequential passes plus a
        remainder.  Returns total EPC granule faults.
        """
        return self.touch_window(name, 0, traffic_bytes, bandwidth)[0]

    def charge_bytes(self, n_bytes: int) -> None:
        """Charge bandwidth for anonymous traffic (no specific region).

        Used for transient scratch traffic that never develops a resident
        working set (e.g. streaming through a small ring buffer).
        """
        if n_bytes <= 0:
            return
        duration = n_bytes / self._bandwidth
        self._clock.advance(duration)
        self.bandwidth_time += duration
        self.bytes_touched += n_bytes
