"""EPC page cache: capacity invariants, fault accounting, policies."""

import dataclasses
import random
from collections import OrderedDict

import pytest
from hypothesis import given, settings, strategies as st

from repro._sim import SimClock, probe
from repro.enclave.cost_model import DEFAULT_COST_MODEL
from repro.enclave.epc import EpcCache, EpcStats
from repro.errors import ConfigurationError, EnclaveError

GRANULE = 64 * 1024


def make_cache(capacity_granules=8, policy="lru", clock=None):
    return EpcCache(
        DEFAULT_COST_MODEL,
        clock or SimClock(),
        capacity_bytes=capacity_granules * GRANULE,
        policy=policy,
    )


def test_cold_access_faults_then_hits():
    cache = make_cache()
    assert cache.access(1, 0) is True
    assert cache.access(1, 0) is False
    assert cache.stats.faults == 1
    assert cache.stats.hits == 1
    assert cache.stats.cold_loads == 1


def test_fault_charges_clock():
    clock = SimClock()
    cache = make_cache(clock=clock)
    cache.access(1, 0)
    pages = GRANULE // DEFAULT_COST_MODEL.page_size
    assert clock.now == pytest.approx(
        pages * DEFAULT_COST_MODEL.epc_page_fault_cost
    )
    before = clock.now
    cache.access(1, 0)  # hit: free
    assert clock.now == before


def test_lru_eviction_order():
    cache = make_cache(capacity_granules=2, policy="lru")
    cache.access(1, 0)
    cache.access(1, 1)
    cache.access(1, 0)  # refresh granule 0
    cache.access(1, 2)  # evicts granule 1 (LRU)
    assert cache.access(1, 0) is False
    assert cache.access(1, 1) is True


def test_capacity_never_exceeded_lru():
    cache = make_cache(capacity_granules=4, policy="lru")
    for i in range(100):
        cache.access(1, i % 13)
        assert cache.resident_granules <= 4


def test_capacity_never_exceeded_random():
    cache = make_cache(capacity_granules=4, policy="random")
    for i in range(200):
        cache.access(i % 3, i % 17)
        assert cache.resident_granules <= 4


def test_lru_cyclic_overflow_thrashes():
    """Classic LRU pathology: cyclic scan one past capacity misses 100%."""
    cache = make_cache(capacity_granules=4, policy="lru")
    for _ in range(5):
        for granule in range(5):
            cache.access(1, granule)
    assert cache.stats.hits == 0


def test_random_cyclic_overflow_degrades_gracefully():
    cache = make_cache(capacity_granules=40, policy="random")
    for _ in range(20):
        for granule in range(44):  # 10% overflow
            cache.access(1, granule)
    assert 0.5 < cache.stats.hits / cache.stats.accesses < 0.99


def test_access_range_counts_faults():
    cache = make_cache(capacity_granules=8)
    faults = cache.access_range(1, 0, 3 * GRANULE)
    assert faults == 3
    assert cache.access_range(1, 0, 3 * GRANULE) == 0
    # Range straddling a granule boundary touches both granules.
    assert cache.access_range(1, 3 * GRANULE - 1, 2) == 1


def test_access_range_validation():
    cache = make_cache()
    with pytest.raises(EnclaveError):
        cache.access_range(1, 0, -1)
    assert cache.access_range(1, 0, 0) == 0


@pytest.mark.parametrize("policy", ["lru", "random"])
def test_out_of_range_granules_fail_closed(policy):
    clock = SimClock()
    cache = make_cache(policy=policy, clock=clock)
    cache.access_range(1, 0, 4 * GRANULE)
    # A negative address would index the residency map from its tail.
    with pytest.raises(EnclaveError):
        cache.access_range(1, -GRANULE, GRANULE)
    with pytest.raises(EnclaveError):
        cache.access_range(1, -1, 0)
    with pytest.raises(EnclaveError):
        cache.access(1, -1)
    # A granule index wider than the packed key would name a granule of
    # the next enclave id.
    with pytest.raises(EnclaveError):
        cache.access(1, 1 << 32)
    with pytest.raises(EnclaveError):
        cache.access_range(1, (1 << 32) * GRANULE - 1, 2)
    assert cache.stats.accesses == 4 and clock.now == cache.stats.fault_time
    assert cache.resident_granules_of(2) == 0


def test_multiple_enclaves_share_capacity():
    cache = make_cache(capacity_granules=4)
    cache.access_range(1, 0, 3 * GRANULE)
    cache.access_range(2, 0, 3 * GRANULE)
    assert cache.resident_granules == 4
    assert cache.resident_granules_of(1) + cache.resident_granules_of(2) == 4


def test_evict_enclave_frees_only_its_granules():
    cache = make_cache(capacity_granules=8)
    cache.access_range(1, 0, 2 * GRANULE)
    cache.access_range(2, 0, 3 * GRANULE)
    freed = cache.evict_enclave(1)
    assert freed == 2
    assert cache.resident_granules_of(1) == 0
    assert cache.resident_granules_of(2) == 3


def test_evicted_enclave_faults_back_in():
    cache = make_cache(capacity_granules=4, policy="random")
    cache.access_range(1, 0, 3 * GRANULE)
    cache.evict_enclave(1)
    assert cache.resident_granules == 0
    assert cache.access_range(1, 0, 3 * GRANULE) == 3
    assert cache.stats.cold_loads == 3  # the reload is not a cold load


def test_count_passing_through_zero_reenters_last():
    """An enclave that evicts its own last granule leaves
    ``per_enclave_resident`` and re-enters it behind the others."""
    orders = set()
    for seed in range(8):
        cache = EpcCache(
            DEFAULT_COST_MODEL, SimClock(), capacity_bytes=2 * GRANULE, seed=seed
        )
        cache.access(1, 0)
        cache.access(2, 0)
        cache.access(1, 1)
        orders.add(tuple(cache.stats.per_enclave_resident.items()))
    assert orders == {((2, 1), (1, 1)), ((1, 2),)}


def test_granule_fault_cost_follows_granule_size():
    for granule_size in (16 * 1024, GRANULE):
        clock = SimClock()
        cache = EpcCache(
            DEFAULT_COST_MODEL, clock, capacity_bytes=GRANULE, granule_size=granule_size
        )
        pages = granule_size // DEFAULT_COST_MODEL.page_size
        assert cache.granule_fault_cost == DEFAULT_COST_MODEL.epc_page_fault_cost * pages
        cache.access(1, 0)
        assert clock.now == cache.granule_fault_cost


@pytest.mark.parametrize("n", [1, 2, 3, 7, 8, 1000, 1472, 1 << 16])
def test_victim_draw_is_randrange(n):
    """The scan inlines ``randrange(n)``; the two must consume MT19937
    output identically or every seeded run changes."""
    ours, theirs = random.Random(n), random.Random(n)
    bits = n.bit_length()
    for _ in range(300):
        slot = ours.getrandbits(bits)
        while slot >= n:
            slot = ours.getrandbits(bits)
        assert slot == theirs.randrange(n)
    assert ours.getstate() == theirs.getstate()


def test_invalid_configuration_rejected():
    with pytest.raises(ConfigurationError):
        make_cache(policy="fifo")
    with pytest.raises(EnclaveError):
        EpcCache(DEFAULT_COST_MODEL, SimClock(), capacity_bytes=0)
    with pytest.raises(EnclaveError):
        EpcCache(DEFAULT_COST_MODEL, SimClock(), granule_size=4096 + 1)
    # A bad fault cost is refused here, not by the clock at the first
    # fault: an unwatched scan validates nothing per fault.
    for cost in (-1e-6, float("nan")):
        model = DEFAULT_COST_MODEL.with_overrides(epc_page_fault_cost=cost)
        with pytest.raises(EnclaveError):
            EpcCache(model, SimClock())
    free = DEFAULT_COST_MODEL.with_overrides(epc_page_fault_cost=0.0)
    assert EpcCache(free, SimClock()).granule_fault_cost == 0.0


@settings(max_examples=30)
@given(
    st.lists(
        st.tuples(st.integers(1, 3), st.integers(0, 30)), min_size=1, max_size=200
    ),
    st.sampled_from(["lru", "random"]),
)
def test_accounting_invariants_property(accesses, policy):
    cache = make_cache(capacity_granules=6, policy=policy)
    for enclave_id, granule in accesses:
        cache.access(enclave_id, granule)
    stats = cache.stats
    assert stats.hits + stats.faults == len(accesses)
    assert stats.faults - stats.evictions == cache.resident_granules
    assert sum(stats.per_enclave_resident.values()) == cache.resident_granules
    assert cache.resident_granules <= cache.capacity_granules
    assert stats.fault_time == pytest.approx(
        stats.fault_pages * DEFAULT_COST_MODEL.epc_page_fault_cost
    )


# ---------------------------------------------------------------------------
# Oracle: the per-granule implementation EpcCache had before residency
# became a scan, kept verbatim as the reference for every observable.
# ---------------------------------------------------------------------------


class ReferenceEpcCache:
    """One Python call, one tuple key and two dict operations per granule."""

    def __init__(self, cost_model, clock, capacity_bytes, granule_size, policy, seed):
        self._clock = clock
        self.policy = policy
        self.granule_size = granule_size
        self._pages_per_granule = granule_size // cost_model.page_size
        self._capacity_granules = max(1, capacity_bytes // granule_size)
        self._granule_fault_cost = (
            cost_model.epc_page_fault_cost * self._pages_per_granule
        )
        self._lru = OrderedDict()
        self._slots = []
        self._slot_of = {}
        self._rng = random.Random(seed)
        self._ever_loaded = set()
        self.stats = EpcStats()

    @property
    def resident_granules(self):
        return len(self._lru) if self.policy == "lru" else len(self._slots)

    def resident_granules_of(self, enclave_id):
        return self.stats.per_enclave_resident.get(enclave_id, 0)

    def access(self, enclave_id, granule_index):
        key = (enclave_id, granule_index)
        if self.policy == "lru":
            if key in self._lru:
                self._lru.move_to_end(key)
                self.stats.hits += 1
                return False
            if len(self._lru) >= self._capacity_granules:
                victim, _ = self._lru.popitem(last=False)
                self._evicted(victim)
            self._lru[key] = None
        else:
            if key in self._slot_of:
                self.stats.hits += 1
                return False
            if len(self._slots) >= self._capacity_granules:
                slot = self._rng.randrange(len(self._slots))
                victim = self._slots[slot]
                last = self._slots[-1]
                self._slots[slot] = last
                self._slot_of[last] = slot
                self._slots.pop()
                del self._slot_of[victim]
                self._evicted(victim)
            self._slot_of[key] = len(self._slots)
            self._slots.append(key)

        self._inc_resident(enclave_id)
        self.stats.faults += 1
        self.stats.fault_pages += self._pages_per_granule
        if key not in self._ever_loaded:
            self._ever_loaded.add(key)
            self.stats.cold_loads += 1
        cost = self._granule_fault_cost
        self.stats.fault_time += cost
        self._clock.advance(cost)
        if probe.ACTIVE is not None:
            probe.ACTIVE.charge(
                self._clock, "epc_faults", cost, histogram="epc.fault_service"
            )
        return True

    def access_range(self, enclave_id, first_byte, n_bytes):
        if n_bytes == 0:
            return 0
        first = first_byte // self.granule_size
        last = (first_byte + n_bytes - 1) // self.granule_size
        faults = 0
        for granule in range(first, last + 1):
            if self.access(enclave_id, granule):
                faults += 1
        return faults

    def evict_enclave(self, enclave_id):
        if self.policy == "lru":
            keys = [key for key in self._lru if key[0] == enclave_id]
            for key in keys:
                del self._lru[key]
        else:
            keys = [key for key in self._slots if key[0] == enclave_id]
            for key in keys:
                slot = self._slot_of[key]
                last = self._slots[-1]
                self._slots[slot] = last
                self._slot_of[last] = slot
                self._slots.pop()
                del self._slot_of[key]
        self.stats.per_enclave_resident.pop(enclave_id, None)
        return len(keys)

    def _evicted(self, victim):
        self.stats.evictions += 1
        self._dec_resident(victim[0])

    def _inc_resident(self, enclave_id):
        counts = self.stats.per_enclave_resident
        counts[enclave_id] = counts.get(enclave_id, 0) + 1

    def _dec_resident(self, enclave_id):
        counts = self.stats.per_enclave_resident
        counts[enclave_id] -= 1
        if counts[enclave_id] == 0:
            del counts[enclave_id]


def _stats_snapshot(stats):
    """Every field, with ``per_enclave_resident`` as ordered pairs."""
    snapshot = dataclasses.asdict(stats)
    snapshot["per_enclave_resident"] = list(stats.per_enclave_resident.items())
    return snapshot


class _RecordingTracer:
    """Stands in for ``probe.ACTIVE``: logs each charge and the clock it saw."""

    def __init__(self):
        self.charges = []

    def charge(self, clock, layer, seconds, histogram=None):
        self.charges.append((clock.now, layer, seconds, histogram))


ORACLE_GRANULE = 4096  # one page: the smallest legal granule

_enclaves = st.integers(1, 3)
_operations = st.one_of(
    st.tuples(
        st.just("access_range"),
        _enclaves,
        # Starts on, just before and just after granule boundaries.
        st.builds(
            lambda granule, skew: max(0, granule * ORACLE_GRANULE + skew),
            st.integers(0, 12),
            st.sampled_from([-1, 0, 1, ORACLE_GRANULE // 2]),
        ),
        st.sampled_from(
            [0, 1, 2, ORACLE_GRANULE - 1, ORACLE_GRANULE, ORACLE_GRANULE + 1]
            + [n * ORACLE_GRANULE + skew for n in (3, 5, 9) for skew in (0, 1)]
        ),
    ),
    st.tuples(st.just("access"), _enclaves, st.integers(0, 14)),
    st.tuples(st.just("evict_enclave"), _enclaves),
)


#: (observer subscribed, tracer installed).  With neither the scan stores
#: a scan's faults once at its end; with either it publishes per fault.
WATCH_MODES = [(False, False), (True, False), (False, True), (True, True)]

_watch_switches = st.tuples(st.just("watch"), st.booleans(), st.booleans())


def _drive(cache_type, clock, operations, capacity_granules, policy, seed):
    """Run ``operations`` and return everything an outsider can observe.

    ``("watch", observe, trace)`` is not a cache call: it subscribes or
    unsubscribes the clock observer and installs or clears the tracer.
    """
    cache = cache_type(
        DEFAULT_COST_MODEL,
        clock,
        capacity_bytes=capacity_granules * ORACLE_GRANULE,
        granule_size=ORACLE_GRANULE,
        policy=policy,
        seed=seed,
    )
    advances = []

    def observer(before, after):
        advances.append((before, after, _stats_snapshot(cache.stats)))

    tracer = _RecordingTracer()
    returned = []
    previous = probe.set_active(None)
    try:
        for name, *args in operations:
            if name == "watch":
                observe, trace = args
                clock.unsubscribe(observer)
                if observe:
                    clock.subscribe(observer)
                probe.set_active(tracer if trace else None)
            else:
                returned.append(getattr(cache, name)(*args))
    finally:
        probe.set_active(previous)
    return cache, {
        "returned": returned,
        "stats": _stats_snapshot(cache.stats),
        "now": clock.now,
        "rng": cache._rng.getstate(),
        "resident": cache.resident_granules,
        "resident_of": [cache.resident_granules_of(e) for e in (1, 2, 3)],
        "advances": advances,
        "charges": tracer.charges,
    }


def _assert_lockstep(operations, capacity, policy, seed):
    reference, expected = _drive(
        ReferenceEpcCache, SimClock(), operations, capacity, policy, seed
    )
    cache, observed = _drive(EpcCache, SimClock(), operations, capacity, policy, seed)
    assert observed == expected  # floats and all: == on clock.now is bit for bit
    if policy == "random":
        # Slot order feeds every later victim draw, and the residency
        # maps must say exactly what the slots say.
        unpacked = [(key >> 32, key & 0xFFFFFFFF) for key in cache._slots]
        assert unpacked == reference._slots
        assert sum(map(sum, cache._resident.values())) == len(unpacked)
        assert all(cache._resident[e][g] == 1 for e, g in unpacked)
    return observed


@settings(max_examples=100, deadline=None)
@given(
    st.lists(_operations, min_size=1, max_size=60),
    st.sampled_from([1, 2, 7]),
    st.sampled_from(["random", "lru"]),
    st.integers(0, 3),
)
def test_scan_matches_per_granule_reference(operations, capacity, policy, seed):
    runs = {
        watch: _assert_lockstep(
            [("watch", *watch)] + operations, capacity, policy, seed
        )
        for watch in WATCH_MODES
    }
    logged = {
        watch: (run.pop("advances"), run.pop("charges")) for watch, run in runs.items()
    }
    assert all(run == runs[False, False] for run in runs.values())
    # Watching changes what is logged and nothing else; each watcher
    # sees one entry per fault whoever else is there.
    faults = runs[False, False]["stats"]["faults"]
    assert [len(log) for log in logged[True, True]] == [faults, faults]
    assert logged[True, False] == (logged[True, True][0], [])
    assert logged[False, True] == ([], logged[True, True][1])
    assert logged[False, False] == ([], [])


@settings(max_examples=150, deadline=None)
@given(
    st.lists(st.one_of(_operations, _watch_switches), min_size=1, max_size=60),
    st.sampled_from([1, 2, 7]),
    st.integers(0, 3),
)
def test_scan_matches_reference_across_watch_switches(operations, capacity, seed):
    """Watchers come and go between operations (a metrics session starts,
    a traced lap ends): every scan decides for itself."""
    _assert_lockstep(operations, capacity, "random", seed)


def test_deferred_publication_keeps_the_float_sum():
    """10^5 faults stored once per scan leave the clock and the fault
    time on the bits the per-fault loop produces."""
    clocks = SimClock(), SimClock()
    caches = [make_cache(capacity_granules=8, policy="random", clock=c) for c in clocks]
    clocks[1].subscribe(lambda before, after: None)  # per-fault publication
    for cache in caches:
        while cache.stats.faults < 100_000:
            cache.access_range(1, 0, 1000 * GRANULE)
    deferred, per_fault = (cache.stats for cache in caches)
    assert deferred == per_fault and deferred.faults >= 100_000
    summed = 0.0
    for _ in range(deferred.faults):
        summed += caches[0].granule_fault_cost
    assert clocks[0].now == clocks[1].now == deferred.fault_time == summed
    assert summed != deferred.faults * caches[0].granule_fault_cost
