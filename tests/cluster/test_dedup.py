"""DedupWindow against a plain-dict model (TTL edge, capacity edge,
re-put, snapshot → restore round trip, held bytes)."""

from hypothesis import given, settings, strategies as st

from repro.cluster.dedup import DedupWindow
from repro.cluster.retry import RecoveryStats

CAPACITY = 4
TTL = 10.0

_keys = st.sampled_from(["a", "b", "c", "d", "e", "f", "g"])
_ops = st.lists(
    st.one_of(
        st.tuples(st.just("get"), _keys),
        st.tuples(st.just("put"), _keys),
        st.tuples(st.just("share"), _keys),
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

    def expire(self, now):
        # Every entry whose age reached TTL goes, wherever it sits.
        self.entries = {
            key: (stamp, value)
            for key, (stamp, value) in self.entries.items()
            if now - stamp < TTL
        }

    def get(self, key, now):
        self.expire(now)
        hit = self.entries.get(key)
        return None if hit is None else hit[1]

    def put(self, key, now, value):
        self.entries.pop(key, None)  # a re-put moves to the end
        self.expire(now)
        self.entries[key] = (now, value)
        while len(self.entries) > CAPACITY:
            del self.entries[next(iter(self.entries))]

    def discard(self, key):
        self.entries.pop(key, None)

    def held_bytes(self):
        distinct = {id(value): value for _, value in self.entries.values()}
        return sum(len(value) for value in distinct.values())


@settings(max_examples=300, deadline=None)
@given(_ops)
def test_window_matches_dict_model(ops):
    stats = RecoveryStats()
    window, model = DedupWindow(CAPACITY, TTL, stats=stats), _Model()
    now, serial, last = 0.0, 0, b"v0"
    for op, arg in ops:
        if op == "get":
            assert window.get(arg, now) == model.get(arg, now)
        elif op in ("put", "share"):
            if op == "put":
                serial += 1
                last = b"v%d" % serial
            window.put(arg, now, last)  # "share": the same object again
            model.put(arg, now, last)
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
            window = DedupWindow(CAPACITY, TTL, stats=stats)
            window.restore(snapshot)
        assert len(window) == len(model.entries) <= CAPACITY
        assert window.held_bytes == model.held_bytes()
        assert stats.dedup_window_entries == len(model.entries)
        assert stats.dedup_window_bytes == model.held_bytes()


def test_a_re_put_key_expires_with_its_fresh_stamp_not_its_old_position():
    # Regression: a re-put used to keep the key's old position, so the
    # prefix sweep stopped at it and replayed entries behind it past
    # their TTL ("b" below was 12 s old with a 10 s TTL).
    window = DedupWindow(CAPACITY, TTL)
    window.put("a", 0.0, 1)
    window.put("b", 1.0, 2)
    window.put("a", 5.0, 3)
    assert window.get("b", 12.0) is None
    assert window.get("a", 12.0) == 3
    assert [key for key, _, _ in window.snapshot()] == ["a"]


def test_insert_sweeps_expired_entries():
    window = DedupWindow(CAPACITY, TTL)
    window.put("old", 0.0, b"reply")
    window.put("new", TTL, b"other")
    assert len(window) == 1
    assert [key for key, _, _ in window.snapshot()] == ["new"]


def test_one_reply_object_under_many_keys_is_held_once():
    stats = RecoveryStats()
    window = DedupWindow(CAPACITY, TTL, stats=stats)
    reply = bytes(1000)
    window.put("w0/pull", 0.0, reply)
    window.put("w1/pull", 0.0, reply)
    window.put("w0/push", 0.0, b"ack")
    assert (stats.dedup_window_entries, stats.dedup_window_bytes) == (3, 1003)
    window.discard("w0/pull")
    assert window.held_bytes == 1003  # w1's entry still holds it
    window.get("w1/pull", TTL)
    assert (len(window), window.held_bytes) == (0, 0)
    assert (stats.dedup_window_entries, stats.dedup_window_bytes) == (0, 0)


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
