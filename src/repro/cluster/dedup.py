"""The at-most-once reply cache every deduplicating endpoint uses.

A retried or duplicate-delivered request must not execute twice: the
endpoint records ``request key → outcome`` after the first execution
and replays the recorded outcome for every later delivery.  The record
is bounded two ways — by age (``ttl`` simulated seconds) and by count
(``capacity``) — so neither a long run nor a flood of distinct keys can
pin an endpoint's memory.  Every :class:`~repro.cluster.rpc.RpcServer`
holds one, keyed by call ID — the serving router and its replicas are
such servers.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple

if TYPE_CHECKING:
    from repro.cluster.retry import RecoveryStats


class DedupWindow:
    """A TTL- and capacity-bounded map of ``key → recorded value``.

    Entries are kept in stamp order — a re-put moves its key to the end
    with its fresh stamp — so the expired ones are always a prefix.
    That prefix is swept on every lookup and every insert (live while
    ``now - stamp < ttl``), and an insert then trims the window to
    ``capacity``, oldest first.  ``len()`` and :meth:`snapshot` therefore
    count only entries that were live at the last operation.  Recorded
    values must not be ``None`` — that is :meth:`get`'s "no live entry"
    answer.

    :attr:`held_bytes` is the size of the distinct ``bytes`` values the
    window holds: one reply object recorded under several keys counts
    once.  With ``stats`` set (the endpoint's
    :class:`~repro.cluster.retry.RecoveryStats`), every change publishes
    the live entry count and :attr:`held_bytes` into its
    ``dedup_window_entries`` / ``dedup_window_bytes`` gauges.
    """

    def __init__(
        self, capacity: int, ttl: float, stats: Optional["RecoveryStats"] = None
    ) -> None:
        self.capacity = capacity
        self.ttl = ttl
        self.held_bytes = 0
        self._stats = stats
        self._entries: "OrderedDict[str, Tuple[float, Any]]" = OrderedDict()
        self._holders: Dict[int, int] = {}  # id(value) → keys recording it

    def __len__(self) -> int:
        return len(self._entries)

    def _track(self, value: Any, delta: int) -> None:
        """Count one more (``+1``) or one fewer (``-1``) key recording
        ``value``; its bytes enter :attr:`held_bytes` with the first key
        and leave with the last."""
        if not isinstance(value, (bytes, bytearray)):
            return
        holders = self._holders.get(id(value), 0) + delta
        if holders:
            self._holders[id(value)] = holders
        else:
            del self._holders[id(value)]
        if holders == (1 if delta > 0 else 0):
            self.held_bytes += delta * len(value)

    def _publish(self) -> None:
        if self._stats is not None:
            self._stats.dedup_window_entries = len(self._entries)
            self._stats.dedup_window_bytes = self.held_bytes

    def _expire(self, now: float) -> None:
        """Sweep the expired prefix (called once the oldest entry is due)."""
        entries = self._entries
        while entries:
            oldest, (stamp, value) = next(iter(entries.items()))
            if now - stamp < self.ttl:
                break
            del entries[oldest]
            self._track(value, -1)

    def get(self, key: str, now: float) -> Optional[Any]:
        """The value recorded for ``key``, if it is still live at ``now``."""
        entries = self._entries
        if entries and not now - next(iter(entries.values()))[0] < self.ttl:
            self._expire(now)
            self._publish()
        hit = entries.get(key)
        return None if hit is None else hit[1]

    def put(self, key: str, now: float, value: Any) -> None:
        entries = self._entries
        previous = entries.pop(key, None)
        if previous is not None:
            self._track(previous[1], -1)
        if entries and not now - next(iter(entries.values()))[0] < self.ttl:
            self._expire(now)
        entries[key] = (now, value)
        self._track(value, 1)
        while len(entries) > self.capacity:
            _, (_, evicted) = entries.popitem(last=False)
            self._track(evicted, -1)
        self._publish()

    def discard(self, key: str) -> None:
        """Forget ``key``: its outcome turned out not to have committed."""
        dropped = self._entries.pop(key, None)
        if dropped is not None:
            self._track(dropped[1], -1)
            self._publish()

    def snapshot(self) -> List[Tuple[str, float, Any]]:
        """The window as re-loadable state (for checkpoints)."""
        return [(key, stamp, value) for key, (stamp, value) in self._entries.items()]

    def restore(self, entries: List[Tuple[str, float, Any]]) -> None:
        self._entries = OrderedDict()
        self._holders = {}
        self.held_bytes = 0
        for key, stamp, value in entries:
            self._entries[key] = (stamp, value)
            self._track(value, 1)
        self._publish()
