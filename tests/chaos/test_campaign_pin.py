"""What the chaos campaign replays, pinned from one commit to the next.

The replay check in :func:`~repro.chaos.run_campaign` compares two runs
of the same tree; it cannot see a refactor that changes what a family
records.  This pin can: one SHA-256 per family over the canonical trace
bytes of every run in a fixed slice.  A digest that moves means the
family's history, fault plan or epoch log changed — say why when
re-pinning.

Tier 1 pins the boundary and middle steps (0, 4, 8) of every kind,
storm and fencing setting: 4 families x 3 x 4 x 2 x 2 = 192 runs.  The
``chaos_campaign`` sweep pins the full grid.
"""

import hashlib

import pytest

from repro.chaos import (
    FAMILIES,
    FAULT_KINDS,
    FaultSchedule,
    STEPS_PER_FAMILY,
    run_schedule,
)

PIN_STEPS = (0, 4, 8)

SLICE_DIGESTS = {
    "cas-failover": (
        "f8e31d0b7a063f4aa474efa717243e2b"
        "de5676c94c389887d3b261a77952e44e"
    ),
    "ps-restart": (
        "0b5b16f9bc639aeac2d5df7485561f2c"
        "ba5f5f6aadd342bfc1db16233f3b15c3"
    ),
    "router-handoff": (
        "4dced1d7996a4540ab8649ed31acc5c5"
        "e4450c8e6e38ad8e44a3892e7ddb2ad5"
    ),
    "sharded-ps": (
        "636a9ad77a86fc8ace8d3892de0d96f6"
        "a6b44e229fc43b43f6bd69adeba905bc"
    ),
}

GRID_DIGESTS = {
    "cas-failover": (
        "b428e463039efab370c5cbce45deff33"
        "780820c750368b3d39753ac95d2f3fe8"
    ),
    "ps-restart": (
        "964f02980880505498eabe3f039e7d6c"
        "b3315a6100bac8f4feeaa261eb567b5f"
    ),
    "router-handoff": (
        "679ba41c73b5a39f84128f0b550c6ac2"
        "ca98aedb454d625d2118747d30100f2b"
    ),
    "sharded-ps": (
        "a5a7a8781708beb38c2adf86a57cb604"
        "03b1ad462cac5293cd4e396c55c98666"
    ),
}


def family_digest(family, steps):
    """SHA-256 over every run's trace, in grid order, length-prefixed."""
    digest = hashlib.sha256()
    for step in steps:
        for kind in FAULT_KINDS:
            for storm in (False, True):
                schedule = FaultSchedule(family, step, kind, storm)
                for fencing in (True, False):
                    trace = run_schedule(schedule, fencing=fencing).trace
                    digest.update(len(trace).to_bytes(8, "big") + trace)
    return digest.hexdigest()


@pytest.mark.parametrize("family", FAMILIES)
def test_slice_replays_the_pinned_traces(family):
    assert family_digest(family, PIN_STEPS) == SLICE_DIGESTS[family]


@pytest.mark.chaos_campaign
@pytest.mark.parametrize("family", FAMILIES)
def test_full_grid_replays_the_pinned_traces(family):
    assert family_digest(family, range(STEPS_PER_FAMILY)) == GRID_DIGESTS[family]
