"""Tier-1 budget: Python calls per served request.

A served request is two RPC hops (client → router → replica), four
envelopes, four fault-chain legs and about six syscalls, and the host
time of the serving plane is mostly the Python frames that carry them.
Frames added on that path leave every simulated number alone, so
nothing but this count shows them.

A small seeded serving plane in ``serve_chaos``'s shape (loss, delay
and duplication on the replica legs, a replica partitioned for two
seconds) serves its traffic once to warm the process (the codec's key
table, emptied first; lazy imports), then a fresh plane of the same
seed serves it again under :func:`sys.setprofile`, counting every
Python-level ``call`` event (a function entered or a generator resumed)
with the cyclic garbage collector off.  Divided by the requests the
router admitted, that count is a pure function of the source tree and
the interpreter (CPython 3.11 here): the same tree gives the same
number to the last call, whatever ran before it.  Builtins raise
``c_call`` events and are not counted.

:data:`BUDGET` is the count this tree measures, rounded up to the next
whole call: one more Python call per request on the path fails here.  A
change that needs one re-measures (the failure prints the count) and
says why in its CHANGES entry.
"""

from __future__ import annotations

import gc
import sys

from repro.cluster.faults import FaultPlan, FaultSpec, TransientPartition
from repro.crypto import encoding
from repro.serving.autoscaler import AutoscalerPolicy
from repro.serving.router import RouterPolicy
from repro.serving.service import ServingPlane
from repro.serving.traffic import DiurnalProfile

SEED = 11
CLIENTS = 16
DURATION = 6.0
REPLICAS = 3

#: Python calls per admitted request: 252.84 on CPython 3.11 (390.72
#: before the serving hop's cuts: the clock's ``now`` property, the
#: codec's leaf frames, the trap plane's post frame, the fault chain's
#: empty actions and the dedup windows' idle sweeps; 254.84 before the
#: client's ``begin_call`` returned its settling activity directly
#: instead of a pending-call wrapper).
BUDGET = 253


def _plane() -> ServingPlane:
    plane = ServingPlane(
        seed=SEED,
        n_nodes=2,
        initial_replicas=REPLICAS,
        router_policy=RouterPolicy(max_attempts=5),
        autoscaler_policy=AutoscalerPolicy(
            slo_p99=0.2, min_replicas=REPLICAS, max_replicas=REPLICAS
        ),
    )
    replicas = frozenset(f"replica-{i}" for i in range(2 * REPLICAS))
    plane.add_faults(FaultPlan(
        SEED + 1,
        FaultSpec(loss=0.01, delay=0.02, delay_seconds=0.05,
                  duplication=0.01, targets=replicas),
        partitions=[TransientPartition("replica-1", 1.0, 3.0)],
    ))
    return plane


def _serve(plane: ServingPlane) -> None:
    plane.run_traffic(CLIENTS, DURATION, profile=DiurnalProfile(), deadline_budget=1.0)


def calls_per_request() -> float:
    """Python-level calls per admitted request of a warm process."""
    # The codec's key table is the one process-wide cache on the path:
    # other tests may have left it nearly full, and a clear inside the
    # counted run would add misses.  Emptied, the warm-up fills it.
    encoding._KEY_ENCODINGS.clear()
    _serve(_plane())
    plane = _plane()
    calls = 0

    def count(frame, event, arg) -> None:
        nonlocal calls
        if event == "call":
            calls += 1

    gc.collect()
    gc.disable()
    sys.setprofile(count)
    try:
        _serve(plane)
    finally:
        sys.setprofile(None)
        gc.enable()
    return calls / plane.router.admission.stats.admitted


def test_calls_per_served_request_stay_within_budget():
    measured = calls_per_request()
    assert calls_per_request() == measured  # a count, not a timing
    assert measured <= BUDGET, (
        f"{measured:.2f} Python calls per served request, budget {BUDGET}"
    )
