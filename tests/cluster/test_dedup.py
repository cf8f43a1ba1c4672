"""DedupWindow against a plain-dict model (TTL edge, capacity edge,
snapshot → restore round trip)."""

from hypothesis import given, settings, strategies as st

from repro.cluster.dedup import DedupWindow

CAPACITY = 4
TTL = 10.0

_keys = st.sampled_from(["a", "b", "c", "d", "e", "f", "g"])
_ops = st.lists(
    st.one_of(
        st.tuples(st.just("get"), _keys),
        st.tuples(st.just("put"), _keys),
        st.tuples(st.just("discard"), _keys),
        # Steps include exactly TTL and its neighbours so the expiry
        # edge (live while age < TTL) is hit, not just approached.
        st.tuples(st.just("advance"), st.sampled_from([0.0, 1.0, 2.5, 9.0, 10.0, 11.0])),
        st.tuples(st.just("snapshot"), st.none()),
    ),
    max_size=60,
)


class _Model:
    """The specification: an insertion-ordered dict, swept in full."""

    def __init__(self):
        self.entries = {}  # key -> (stamp, value), in insertion order

    def get(self, key, now):
        # Expiry drops the stale *prefix* (stamps are monotone here, so
        # that is every stale entry).
        for old in list(self.entries):
            if now - self.entries[old][0] < TTL:
                break
            del self.entries[old]
        hit = self.entries.get(key)
        return None if hit is None else hit[1]

    def put(self, key, now, value):
        self.entries[key] = (now, value)  # a re-put keeps its position
        while len(self.entries) > CAPACITY:
            del self.entries[next(iter(self.entries))]

    def discard(self, key):
        self.entries.pop(key, None)


@settings(max_examples=300, deadline=None)
@given(_ops)
def test_window_matches_dict_model(ops):
    window, model = DedupWindow(CAPACITY, TTL), _Model()
    now, serial = 0.0, 0
    for op, arg in ops:
        if op == "get":
            assert window.get(arg, now) == model.get(arg, now)
        elif op == "put":
            serial += 1
            window.put(arg, now, serial)
            model.put(arg, now, serial)
        elif op == "discard":
            window.discard(arg)
            model.discard(arg)
        elif op == "advance":
            now += arg
        else:
            # A restored copy is indistinguishable from the original.
            snapshot = window.snapshot()
            assert snapshot == [
                (key, stamp, value) for key, (stamp, value) in model.entries.items()
            ]
            window = DedupWindow(CAPACITY, TTL)
            window.restore(snapshot)
        assert len(window) == len(model.entries) <= CAPACITY


def test_ttl_edge_is_exclusive():
    window = DedupWindow(CAPACITY, TTL)
    window.put("k", 5.0, b"reply")
    assert window.get("k", 5.0 + TTL - 1e-9) == b"reply"
    assert window.get("k", 5.0 + TTL) is None
    assert len(window) == 0


def test_capacity_edge_evicts_oldest_on_insert():
    window = DedupWindow(2, TTL)
    window.put("a", 0.0, 1)
    window.put("b", 0.0, 2)
    assert len(window) == 2
    window.put("c", 0.0, 3)
    assert len(window) == 2
    assert window.get("a", 0.0) is None
    assert (window.get("b", 0.0), window.get("c", 0.0)) == (2, 3)


def test_discard_vetoes_a_recorded_outcome():
    window = DedupWindow(CAPACITY, TTL)
    window.put("call", 0.0, b"ok")
    window.discard("call")
    window.discard("never-recorded")
    assert window.get("call", 0.0) is None
