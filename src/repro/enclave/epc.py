"""The Enclave Page Cache (EPC) simulator.

The EPC is a fixed hardware pool of encrypted pages shared by *all*
enclaves on a CPU.  When an enclave touches a page that is not resident,
the kernel evicts a victim (EWB: encrypt + MAC + write to DRAM) and
loads the target (ELDU: read + decrypt + verify) — tens of microseconds
per 4 KiB page.  This is the single mechanism behind the paper's
headline effects: Fig. 5's Graphene gap, Fig. 7's 4→8 core collapse,
Fig. 8's 14× training slowdown, and the 71× TensorFlow-vs-Lite gap.

Two modelling choices, both deliberate:

- **Granularity.**  Residency is tracked in *granules* (default 64 KiB
  = 16 pages) rather than single pages, because a pure-Python 4 KiB LRU
  would dominate benchmark runtime.  A granule fault is charged as the
  faults of all its constituent pages — byte-exact for the sequential
  region walks ML workloads generate.

- **Replacement policy.**  Default is *random* replacement.  Strict LRU
  has a cliff under cyclic scans (miss rate jumps from 0 to 100 % the
  moment the working set exceeds capacity), which contradicts both
  measured SGX behaviour (the kernel uses an approximate second-chance
  over a sampled set) and the paper's graceful degradation across Figs
  5–8.  Random replacement yields the smooth ``1 - capacity/workingset``
  miss curve.  LRU remains available for ablations.

Every simulated memory access of every workload funnels through
:meth:`EpcCache.access_range`, so the random policy is built to cost no
Python on a hit: residency is one ``bytearray`` per enclave (a byte per
granule, 1 = resident) and a range is *scanned* with ``bytearray.find``,
which skips a run of resident granules in C.  Only faults enter the
interpreter loop.  Each adds its cost to the clock's sum in turn
(``SimClock.advance_each``), but the sum and the counters are *stored*
once per scan, and the run is one ``charge_each`` to the telemetry sink
(the same additions: the ledger is bit for bit the per-fault one).  A
clock observer — the metrics sampler — is the one reader that could look
between two faults, so with one subscribed each fault still updates the
stats, then advances the clock.  Both policies follow these rules.

A walk with ``wait=False`` is serviced by a helper thread: the same
walk — the same victims, draws, stats and ``fault_time`` additions — but
the caller's clock does not move and the sink is not charged; the
caller charges what it waits for itself.
"""

from __future__ import annotations

import random
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro._sim import probe
from repro._sim.clock import SimClock
from repro._sim.units import KiB
from repro.enclave.cost_model import CostModel
from repro.errors import ConfigurationError, EnclaveError

#: Default residency-tracking granule (16 × 4 KiB pages).
DEFAULT_GRANULE_SIZE = 64 * KiB

#: A resident granule is named by one int, ``enclave_id << _GRANULE_BITS |
#: granule_index``.  2**32 granules is 256 TiB of enclave address space
#: at the default granule; an index past it is refused, not truncated.
_GRANULE_BITS = 32
_MAX_GRANULES = 1 << _GRANULE_BITS
_GRANULE_MASK = _MAX_GRANULES - 1


@dataclass
class EpcStats:
    """Counters exposed for assertions and benchmark breakdowns.

    ``hits``/``faults`` count granules; ``fault_pages`` counts the
    underlying 4 KiB pages actually charged.
    """

    hits: int = 0
    faults: int = 0
    evictions: int = 0
    cold_loads: int = 0
    fault_pages: int = 0
    fault_time: float = 0.0
    per_enclave_resident: Dict[int, int] = field(default_factory=dict)

    @property
    def accesses(self) -> int:
        return self.hits + self.faults

    @property
    def fault_rate(self) -> float:
        return self.faults / self.accesses if self.accesses else 0.0


class EpcCache:
    """Replacement-policy model of the EPC shared by all enclaves on a CPU."""

    def __init__(
        self,
        cost_model: CostModel,
        clock: SimClock,
        capacity_bytes: Optional[int] = None,
        granule_size: int = DEFAULT_GRANULE_SIZE,
        policy: str = "random",
        seed: int = 0,
    ) -> None:
        if granule_size % cost_model.page_size != 0:
            raise EnclaveError(
                f"granule size {granule_size} must be a multiple of the "
                f"page size {cost_model.page_size}"
            )
        if policy not in ("random", "lru"):
            raise ConfigurationError(f"unknown EPC policy {policy!r}")
        self._model = cost_model
        self._clock = clock
        self.policy = policy
        self.granule_size = granule_size
        self._pages_per_granule = granule_size // cost_model.page_size
        capacity = (
            capacity_bytes
            if capacity_bytes is not None
            else cost_model.epc_capacity_bytes
        )
        if capacity <= 0:
            raise EnclaveError(f"EPC capacity must be positive: {capacity}")
        self._capacity_granules = max(1, capacity // granule_size)
        self._granule_fault_cost = (
            cost_model.epc_page_fault_cost * self._pages_per_granule
        )
        if not self._granule_fault_cost >= 0:  # negative or NaN
            raise EnclaveError(
                f"EPC fault cost must be >= 0: {cost_model.epc_page_fault_cost}"
            )
        # LRU state: packed keys in recency order.  Random state: packed
        # keys in slot order (the victim draw indexes it) plus, per
        # enclave, one byte per granule that is 1 while it is resident.
        self._lru: "OrderedDict[int, None]" = OrderedDict()
        self._slots: List[int] = []
        self._resident: Dict[int, bytearray] = {}
        self._rng = random.Random(seed)
        self._ever_loaded: set = set()
        self.stats = EpcStats()

    @property
    def capacity_granules(self) -> int:
        return self._capacity_granules

    @property
    def capacity_bytes(self) -> int:
        return self._capacity_granules * self.granule_size

    @property
    def granule_fault_cost(self) -> float:
        """Simulated seconds charged for one granule fault."""
        return self._granule_fault_cost

    @property
    def resident_granules(self) -> int:
        return len(self._lru) if self.policy == "lru" else len(self._slots)

    def access(self, enclave_id: int, granule_index: int) -> bool:
        """Touch one granule; returns True on a fault (cost charged)."""
        return self._touch(enclave_id, granule_index, granule_index + 1) == 1

    def access_range(
        self, enclave_id: int, first_byte: int, n_bytes: int, wait: bool = True
    ) -> int:
        """Touch a contiguous byte range; returns the number of granule
        faults.  ``wait=False``: a helper services them (module docstring)."""
        if n_bytes < 0:
            raise EnclaveError(f"negative byte count: {n_bytes}")
        if first_byte < 0:
            raise EnclaveError(f"negative byte address: {first_byte}")
        if n_bytes == 0:
            return 0
        first = first_byte // self.granule_size
        stop = (first_byte + n_bytes - 1) // self.granule_size + 1
        # ``first`` cannot be negative here, so the common case skips the
        # frame that checks it; the rest is left to ``_touch``.
        if stop > _MAX_GRANULES or self.policy == "lru":
            return self._touch(enclave_id, first, stop, wait)
        return self._scan(enclave_id, first, stop, wait)

    def _touch(self, enclave_id: int, first: int, stop: int, wait: bool = True) -> int:
        """Touch granules ``[first, stop)`` of one enclave; returns faults."""
        # A negative index would alias the tail of the residency map and
        # one past the key width would alias another enclave's granule.
        if first < 0 or stop > _MAX_GRANULES:
            raise EnclaveError(
                f"granule range [{first}, {stop}) outside [0, 2**{_GRANULE_BITS})"
            )
        if self.policy == "lru":
            return self._touch_lru(enclave_id, first, stop, wait)
        return self._scan(enclave_id, first, stop, wait)

    def _scan(self, enclave_id: int, first: int, stop: int, wait: bool = True) -> int:
        """Random policy: skip resident runs in C, fault the gaps inline."""
        resident = self._resident.get(enclave_id)
        if resident is None:
            resident = self._resident[enclave_id] = bytearray()
        if len(resident) < stop:
            resident.extend(bytes(stop - len(resident)))
        stats = self.stats
        find = resident.find
        cursor = find(0, first, stop)
        if cursor < 0:
            stats.hits += stop - first
            return 0

        maps = self._resident
        slots = self._slots
        capacity = self._capacity_granules
        # ``Random.randrange(capacity)`` without its two Python frames:
        # the same getrandbits draws, the same rejections.
        getrandbits = self._rng.getrandbits
        draw_bits = capacity.bit_length()
        counts = stats.per_enclave_resident
        own = counts.get(enclave_id, 0)
        ever_loaded = self._ever_loaded
        cost = self._granule_fault_cost
        # Whoever reads the stats at an advance must find this fault in
        # them; with nobody there — or no advance — the totals are
        # stored once, below.
        observed = wait and self._clock.observed
        base = enclave_id << _GRANULE_BITS
        # Every granule of the range that does not fault is a hit.
        hits = stats.hits + stop - first
        evictions, cold_loads = stats.evictions, stats.cold_loads
        fault_time = stats.fault_time
        faults = 0
        full = len(slots) >= capacity  # stays true: a scan only adds
        while cursor >= 0:
            key = base + cursor
            if full:
                slot = getrandbits(draw_bits)
                while slot >= capacity:
                    slot = getrandbits(draw_bits)
                victim = slots[slot]
                # Swap-with-last, pop, append — when the list is full.
                slots[slot] = slots[-1]
                slots[-1] = key
                evictions += 1
                owner = victim >> _GRANULE_BITS
                if owner == enclave_id:
                    resident[victim & _GRANULE_MASK] = 0
                    if own == 1:
                        # A count that passes through zero leaves the
                        # dict and re-enters it last.
                        del counts[enclave_id]
                        counts[enclave_id] = 1
                else:
                    maps[owner][victim & _GRANULE_MASK] = 0
                    left = counts[owner] - 1
                    if left:
                        counts[owner] = left
                    else:
                        del counts[owner]
                    own += 1
                    counts[enclave_id] = own
            else:
                slots.append(key)
                full = len(slots) >= capacity
                own += 1
                counts[enclave_id] = own
            resident[cursor] = 1
            if key not in ever_loaded:
                ever_loaded.add(key)
                cold_loads += 1
            faults += 1
            fault_time += cost
            if observed:
                stats.hits = hits - faults - (stop - cursor - 1)  # not yet seen
                stats.evictions, stats.cold_loads = evictions, cold_loads
                self._publish_fault(fault_time)
            cursor = find(0, cursor + 1, stop)
        stats.hits = hits - faults
        stats.evictions, stats.cold_loads = evictions, cold_loads
        return self._settle(faults, fault_time, observed, wait)

    def _touch_lru(self, enclave_id: int, first: int, stop: int, wait: bool) -> int:
        """LRU ablation: every hit reorders, so every granule is visited.
        Faults are stored, advanced and charged by ``_scan``'s rules."""
        lru = self._lru
        stats = self.stats
        observed = wait and self._clock.observed
        base = enclave_id << _GRANULE_BITS
        fault_time = stats.fault_time
        faults = 0
        for key in range(base + first, base + stop):
            if key in lru:
                lru.move_to_end(key)
                stats.hits += 1
                continue
            if len(lru) >= self._capacity_granules:
                victim, _ = lru.popitem(last=False)
                stats.evictions += 1
                self._dec_resident(victim >> _GRANULE_BITS)
            lru[key] = None
            self._inc_resident(enclave_id)
            if key not in self._ever_loaded:
                self._ever_loaded.add(key)
                stats.cold_loads += 1
            faults += 1
            fault_time += self._granule_fault_cost
            if observed:
                self._publish_fault(fault_time)
        return self._settle(faults, fault_time, observed, wait)

    def _publish_fault(self, fault_time: float) -> None:
        """One fault, published before the next is looked at: stats,
        then the clock (an observer reads the stats at the advance)."""
        stats = self.stats
        stats.faults += 1
        stats.fault_pages += self._pages_per_granule
        stats.fault_time = fault_time
        self._clock.advance(self._granule_fault_cost)

    def _settle(
        self, faults: int, fault_time: float, observed: bool, wait: bool
    ) -> int:
        """Store a walk's faults — unless each was published as it came —
        and, when the caller waits for them, advance its clock and charge
        the run to the sink once; returns ``faults``."""
        cost = self._granule_fault_cost
        if not observed:
            stats = self.stats
            stats.faults += faults
            stats.fault_pages += faults * self._pages_per_granule
            stats.fault_time = fault_time
            if wait:
                self._clock.advance_each(cost, faults)
        if wait and faults and probe.SINK is not None:
            probe.SINK.charge_each(
                self._clock, "epc_faults", cost, faults, histogram="epc.fault_service"
            )
        return faults

    def evict_enclave(self, enclave_id: int) -> int:
        """Drop all granules of a destroyed enclave; returns granules freed."""
        if self.policy == "lru":
            keys = [key for key in self._lru if key >> _GRANULE_BITS == enclave_id]
            for key in keys:
                del self._lru[key]
        else:
            slots = self._slots
            keys = [key for key in slots if key >> _GRANULE_BITS == enclave_id]
            if keys:
                # Swap-remove one by one: the surviving slot order feeds
                # every later victim draw.
                slot_of = {key: slot for slot, key in enumerate(slots)}
                for key in keys:
                    slot = slot_of[key]
                    last = slots[-1]
                    slots[slot] = last
                    slot_of[last] = slot
                    slots.pop()
            self._resident.pop(enclave_id, None)
        self.stats.per_enclave_resident.pop(enclave_id, None)
        return len(keys)

    def _inc_resident(self, enclave_id: int) -> None:
        counts = self.stats.per_enclave_resident
        counts[enclave_id] = counts.get(enclave_id, 0) + 1

    def _dec_resident(self, enclave_id: int) -> None:
        counts = self.stats.per_enclave_resident
        counts[enclave_id] -= 1
        if counts[enclave_id] == 0:
            del counts[enclave_id]
