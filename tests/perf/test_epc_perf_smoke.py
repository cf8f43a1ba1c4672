"""Tier-2 perf smoke: EPC residency must stay a scan, not a per-granule loop.

Excluded from tier-1 (see ``addopts`` in pyproject.toml); run with
``pytest -m tier2 tests/perf``.  Every simulated memory access goes
through ``EpcCache.access_range``.  With per-granule Python (a call, a
tuple and two dict operations per granule touched) the build box
measured, best of 7, 4.4 M touches/s on a fully resident re-scan and
1.9 M/s on a cyclic scan at 1.1x capacity; the ``bytearray.find`` scan
measured ~39 M/s and ~4.2 M/s in its place (``BENCH.json#epc_paging``
has the later readings).  The floors sit between the two, so only a
regression back toward per-granule Python trips them.

At 2x capacity four touches in five fault and the scan is bound by what
a fault costs, which this box moves by 1.6x from one minute to the next
while the cut being guarded is 1.3x; so that floor is a ratio, timed in
alternation: the same scan with a do-nothing clock observer runs the
per-fault publication (stats, ``advance``, observer call) that every
scan ran before a scan's faults were published once.  Unwatched over
observed read 1.35-1.46x in twelve sittings, and 0.97-1.12x on the code
before (there it is the price of the observer call alone).
"""

import time

import pytest

from repro._sim import SimClock
from repro.enclave.cost_model import DEFAULT_COST_MODEL
from repro.enclave.epc import EpcCache

REPEATS = 7
#: Granules per ``access_range`` call (the execution engine averages ~30).
CHUNK = 32
MIN_TOUCHES = 60_000

RESIDENT_FLOOR = 20e6
OVERFLOW_FLOOR = 2.5e6
THRASHING_RATIO_FLOOR = 1.25


def _touches_per_s(
    ratio: float, observed: bool = False, repeats: int = REPEATS
) -> float:
    """Best host touches/s of a warm cyclic scan over ``ratio`` x capacity,
    optionally with a clock observer that does nothing."""
    best = 0.0
    for _ in range(repeats):
        clock = SimClock()
        if observed:
            clock.subscribe(lambda before, after: None)
        cache = EpcCache(DEFAULT_COST_MODEL, clock)
        granule = cache.granule_size
        working_set = int(cache.capacity_granules * ratio)
        chunks = [
            (start * granule, min(CHUNK, working_set - start) * granule)
            for start in range(0, working_set, CHUNK)
        ]
        for first_byte, n_bytes in chunks:  # warm: fill the EPC
            cache.access_range(1, first_byte, n_bytes)
        passes = -(-MIN_TOUCHES // working_set)
        started = time.perf_counter()
        for _ in range(passes):
            for first_byte, n_bytes in chunks:
                cache.access_range(1, first_byte, n_bytes)
        elapsed = time.perf_counter() - started
        best = max(best, passes * working_set / elapsed)
    return best


@pytest.mark.tier2
@pytest.mark.slow
def test_resident_rescan_floor():
    rate = _touches_per_s(0.93)
    assert rate >= RESIDENT_FLOOR, f"resident re-scan at {rate / 1e6:.1f} M touches/s"


@pytest.mark.tier2
@pytest.mark.slow
def test_slight_overflow_scan_floor():
    rate = _touches_per_s(1.1)
    assert rate >= OVERFLOW_FLOOR, f"1.1x cyclic scan at {rate / 1e6:.2f} M touches/s"


@pytest.mark.tier2
@pytest.mark.slow
def test_thrashing_scan_floor():
    unwatched = observed = 0.0
    for _ in range(REPEATS):
        unwatched = max(unwatched, _touches_per_s(2.0, repeats=1))
        observed = max(observed, _touches_per_s(2.0, observed=True, repeats=1))
    assert unwatched >= THRASHING_RATIO_FLOOR * observed, (
        f"2x cyclic scan at {unwatched / 1e6:.2f} M touches/s unwatched, "
        f"{observed / 1e6:.2f} M/s with an observer"
    )
