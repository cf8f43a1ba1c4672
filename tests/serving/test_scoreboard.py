"""Scoreboard: lifecycle transitions, deterministic least-loaded picking."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ClusterError
from repro.serving.scoreboard import ReplicaScoreboard, ReplicaState

pytestmark = pytest.mark.serving


def board(*addresses, state=ReplicaState.HEALTHY):
    sb = ReplicaScoreboard()
    for address in addresses:
        sb.add(address, state=state)
    return sb


def test_add_tracks_transitions_and_rejects_duplicates():
    sb = ReplicaScoreboard()
    entry = sb.add("r-0", state=ReplicaState.ATTESTING)
    sb.set_state("r-0", ReplicaState.HEALTHY)
    assert entry.transitions == ["attesting", "healthy"]
    with pytest.raises(ClusterError):
        sb.add("r-0")


def test_pick_least_loaded_with_address_tiebreak():
    sb = board("r-0", "r-1", "r-2")
    sb.on_dispatch("r-0")
    # r-1 and r-2 tie on load; the address string breaks the tie.
    assert sb.pick(per_replica_limit=4).address == "r-1"
    sb.on_dispatch("r-1")
    sb.on_dispatch("r-2")
    sb.on_dispatch("r-2")
    # r-0 and r-1 now tie at one in-flight each; r-0 wins on address.
    assert sb.pick(per_replica_limit=4).address == "r-0"


def test_pick_prefers_healthy_over_degraded():
    """DEGRADED loses ties and nothing else: load comes first."""
    sb = board("r-0", "r-1")
    sb.mark_degraded("r-0")
    # Equal load: the healthy replica wins although r-0 sorts first.
    assert sb.pick(per_replica_limit=4).address == "r-1"
    sb.on_dispatch("r-1")
    # r-0 is degraded but lighter: one lost message does not starve it.
    assert sb.pick(per_replica_limit=4).address == "r-0"
    sb.on_dispatch("r-0")
    sb.on_dispatch("r-0")
    assert sb.pick(per_replica_limit=4).address == "r-1"


_ENTRIES = st.lists(
    st.tuples(st.sampled_from(list(ReplicaState)), st.integers(0, 5)),
    min_size=0,
    max_size=8,
)


@settings(max_examples=200, deadline=None)
@given(
    entries=_ENTRIES,
    limit=st.integers(1, 6),
    excluded=st.sets(st.integers(0, 7)),
    order=st.randoms(use_true_random=False),
)
def test_pick_is_least_loaded_and_order_independent(entries, limit, excluded, order):
    """``pick`` returns a routable entry of minimal in-flight, a DEGRADED
    one only when no HEALTHY one ties it, whatever the insertion order."""

    def build(indices):
        sb = ReplicaScoreboard()
        for index in indices:
            state, load = entries[index]
            sb.add(f"r-{index}", state=state)
            for _ in range(load):
                sb.on_dispatch(f"r-{index}")
        return sb

    exclude = frozenset(f"r-{index}" for index in excluded)
    indices = list(range(len(entries)))
    picked = build(indices).pick(limit, exclude)
    routable = [
        (load, state, f"r-{index}")
        for index, (state, load) in enumerate(entries)
        if state in (ReplicaState.HEALTHY, ReplicaState.DEGRADED)
        and load < limit
        and f"r-{index}" not in exclude
    ]
    if not routable:
        assert picked is None
        return
    lightest = min(load for load, _, _ in routable)
    assert (picked.in_flight, picked.state, picked.address) in routable
    assert picked.in_flight == lightest
    if picked.state is ReplicaState.DEGRADED:
        assert not any(
            load == lightest and state is ReplicaState.HEALTHY
            for load, state, _ in routable
        )
    order.shuffle(indices)
    assert build(indices).pick(limit, exclude).address == picked.address


def test_an_idle_plane_spreads_sequential_requests_evenly():
    """Exact ties go to the replica that has served least, so one
    request at a time over five idle replicas is 20 each — by address
    alone all hundred would land on r-0."""
    sb = board("r-0", "r-1", "r-2", "r-3", "r-4")
    for _ in range(100):
        entry = sb.pick(per_replica_limit=8)
        sb.on_dispatch(entry.address)
        sb.on_complete(entry.address, ok=True)
    assert [entry.served for entry in sb.entries()] == [20] * 5


def test_served_count_only_settles_ties_between_equals():
    sb = board("r-0", "r-1", "r-2")
    for _ in range(3):
        sb.on_dispatch("r-0")
        sb.on_complete("r-0", ok=True)
    sb.mark_degraded("r-1")
    sb.on_dispatch("r-2")
    # r-0 has served most and is still the pick: it is HEALTHY and idle,
    # r-1 is DEGRADED (loses the tie), r-2 is busier.
    assert sb.pick(per_replica_limit=4).address == "r-0"
    sb.on_dispatch("r-0")
    # Load still comes first: the fresh-but-DEGRADED r-1 is lightest.
    assert sb.pick(per_replica_limit=4).address == "r-1"
    sb.on_dispatch("r-1")
    # All at one in flight: HEALTHY r-0 (3 served) and r-2 (0 served) tie
    # on load and state, and r-2 has served less.
    assert sb.pick(per_replica_limit=4).address == "r-2"


def test_per_replica_limit_bounds_the_queue():
    sb = board("r-0")
    sb.on_dispatch("r-0")
    sb.on_dispatch("r-0")
    assert sb.pick(per_replica_limit=2) is None
    assert not sb.has_capacity(per_replica_limit=2)
    sb.on_complete("r-0", ok=True)
    assert sb.pick(per_replica_limit=2).address == "r-0"


def test_exclude_supports_retry_and_hedge_spreading():
    sb = board("r-0", "r-1")
    assert sb.pick(4, exclude=frozenset({"r-0"})).address == "r-1"
    assert sb.pick(4, exclude=frozenset({"r-0", "r-1"})) is None


def test_only_healthy_and_degraded_are_routable():
    sb = ReplicaScoreboard()
    for state in ReplicaState:
        sb.add(f"r-{state.value}", state=state)
    routable = {e.address for e in sb.routable(per_replica_limit=4)}
    assert routable == {"r-healthy", "r-degraded"}


def test_degraded_heals_on_success_only_from_degraded():
    sb = board("r-0")
    sb.mark_degraded("r-0")
    assert sb.get("r-0").state is ReplicaState.DEGRADED
    sb.mark_healthy("r-0")
    assert sb.get("r-0").state is ReplicaState.HEALTHY
    # DRAINING must not be "healed" back into the routable set.
    sb.set_state("r-0", ReplicaState.DRAINING)
    sb.mark_healthy("r-0")
    assert sb.get("r-0").state is ReplicaState.DRAINING
    # Nor degraded: a draining replica stays draining on failure.
    sb.mark_degraded("r-0")
    assert sb.get("r-0").state is ReplicaState.DRAINING


def test_served_failure_and_counts_accounting():
    sb = board("r-0", "r-1")
    sb.on_dispatch("r-0")
    sb.on_complete("r-0", ok=True)
    sb.on_dispatch("r-0")
    sb.on_complete("r-0", ok=False)
    entry = sb.get("r-0")
    assert (entry.served, entry.failures, entry.in_flight) == (1, 1, 0)
    sb.set_state("r-1", ReplicaState.FAILED)
    assert sb.counts() == {"healthy": 1, "failed": 1}
    assert sb.total_in_flight() == 0
