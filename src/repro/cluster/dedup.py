"""The at-most-once reply cache every deduplicating endpoint uses.

A retried or duplicate-delivered request must not execute twice: the
endpoint records ``request key → outcome`` after the first execution
and replays the recorded outcome for every later delivery.  The record
is bounded two ways — by age (``ttl`` simulated seconds) and by count
(``capacity``) — so neither a long run nor a flood of distinct keys can
pin an endpoint's memory.  :class:`~repro.cluster.rpc.RpcServer` (call
IDs), the serving router (client request IDs) and each serving replica
(dispatch IDs) all hold one of these.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, List, Optional, Tuple


class DedupWindow:
    """A TTL- and capacity-bounded map of ``key → recorded value``.

    Entries expire on lookup (oldest first, while ``now - stamp >=
    ttl``) and the window is trimmed to ``capacity`` on insert.  A
    lookup therefore sees exactly what a window trimmed *before* every
    lookup would: both orders drop the same oldest entries before the
    next ``get`` runs.  Recorded values must not be ``None`` — that is
    :meth:`get`'s "no live entry" answer.
    """

    def __init__(self, capacity: int, ttl: float) -> None:
        self.capacity = capacity
        self.ttl = ttl
        self._entries: "OrderedDict[str, Tuple[float, Any]]" = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: str, now: float) -> Optional[Any]:
        """The value recorded for ``key``, if it is still live at ``now``."""
        entries = self._entries
        while entries:
            oldest, (stamp, _) = next(iter(entries.items()))
            if now - stamp < self.ttl:
                break
            del entries[oldest]
        hit = entries.get(key)
        return None if hit is None else hit[1]

    def put(self, key: str, now: float, value: Any) -> None:
        self._entries[key] = (now, value)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)

    def discard(self, key: str) -> None:
        """Forget ``key``: its outcome turned out not to have committed."""
        self._entries.pop(key, None)

    def snapshot(self) -> List[Tuple[str, float, Any]]:
        """The window as re-loadable state (for checkpoints)."""
        return [(key, stamp, value) for key, (stamp, value) in self._entries.items()]

    def restore(self, entries: List[Tuple[str, float, Any]]) -> None:
        self._entries = OrderedDict(
            (key, (stamp, value)) for key, stamp, value in entries
        )
