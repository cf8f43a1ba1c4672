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
    def bandwidth(self) -> float:
        """Bytes/s of DRAM traffic: the MEE's in HW mode, native outside."""
        return self._bandwidth

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

    def touch_window(
        self,
        name: str,
        cursor: int,
        n_bytes: int,
        bandwidth: bool = True,
        wait: bool = True,
    ) -> "Tuple[int, int]":
        """Touch ``n_bytes`` starting at ``cursor``, wrapping around.

        Returns ``(faults, new_cursor)``.  Used by the execution engine
        to interleave walks over several regions the way real per-op
        execution interleaves code, weights, and activations — the cache
        behaviour under interleaving differs fundamentally from doing one
        region at a time.  ``bandwidth=False`` models hot code that hits
        on-core caches: no DRAM time, but its granules still occupy — and
        may fault in — the EPC.  ``wait=False`` hands the faults to a
        helper thread (:meth:`EpcCache.access_range`): the caller pays the
        DRAM time, and the faults' cost is
        ``faults * granule_fault_cost``, for it to charge what it waits.
        """
        region = self.region(name)
        if n_bytes <= 0:
            return 0, cursor
        base, size = region.base, region.size
        faults = 0
        remaining = n_bytes
        cursor %= size
        while remaining > 0:
            # Each in-bounds piece: DRAM time first, then its granules.
            chunk = min(remaining, size - cursor)
            if bandwidth:
                duration = chunk / self._bandwidth
                self._clock.advance(duration)
                self.bandwidth_time += duration
            self.bytes_touched += chunk
            if self._epc is not None:
                faults += self._epc.access_range(
                    self._enclave_id, base + cursor, chunk, wait
                )
            cursor = (cursor + chunk) % size
            remaining -= chunk
        return faults, cursor

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
