"""Time-series metrics: ring-buffer series, histograms, and a sampler.

TEEMon (the continuous TEE monitor the paper's group runs alongside
production secureTF) scrapes counters on a fixed interval into
Prometheus.  The simulated equivalent: a :class:`MetricsSampler`
subscribed to the node clocks takes a full
:func:`~repro.core.monitoring.collect_metrics` snapshot every
``interval`` simulated seconds, diffs it against the previous one, and
appends every numeric leaf to a fixed-capacity :class:`Series` — so a
long run keeps a bounded, recent window of per-interval rates, exactly
like a scrape-interval'd TSDB.

:class:`Histogram` is the distribution instrument (RPC latency, chunk
decrypt, EPC fault service): weighted observations with percentile
queries, fed by the tracer's charge/span hooks.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from typing import Dict, List, Optional, Tuple


class Series:
    """A fixed-capacity ring buffer of (simulated time, value) points."""

    def __init__(self, name: str, capacity: int = 512) -> None:
        if capacity < 1:
            raise ValueError(f"series capacity must be positive: {capacity}")
        self.name = name
        self.capacity = capacity
        self._points: List[Tuple[float, float]] = []
        self._head = 0  # next write slot once the buffer is full
        self.total_appended = 0

    def append(self, t: float, value: float) -> None:
        if len(self._points) < self.capacity:
            self._points.append((t, value))
        else:
            self._points[self._head] = (t, value)
            self._head = (self._head + 1) % self.capacity
        self.total_appended += 1

    def points(self) -> List[Tuple[float, float]]:
        """Retained points, oldest first."""
        return self._points[self._head:] + self._points[: self._head]

    def values(self) -> List[float]:
        return [v for _, v in self.points()]

    def latest(self) -> Optional[Tuple[float, float]]:
        pts = self.points()
        return pts[-1] if pts else None

    def __len__(self) -> int:
        return len(self._points)


class Histogram:
    """Weighted-observation distribution with percentile queries."""

    def __init__(self, name: str) -> None:
        self.name = name
        self._samples: List[Tuple[float, int]] = []  # (value, weight)
        self.count = 0
        self.sum = 0.0

    def observe(self, value: float, count: int = 1) -> None:
        """Record ``count`` observations of ``value`` (one charge for an
        n-chunk decrypt is n identical per-chunk observations)."""
        if count <= 0:
            return
        self._samples.append((value, count))
        self.count += count
        self.sum += value * count

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def percentile(self, q: float) -> float:
        """The q-th percentile (q in [0, 100]) by cumulative weight."""
        if not 0.0 <= q <= 100.0:
            raise ValueError(f"percentile must be in [0, 100]: {q}")
        if not self._samples:
            return 0.0
        ordered = sorted(self._samples)
        rank = q / 100.0 * self.count
        cumulative = 0
        for value, weight in ordered:
            cumulative += weight
            if cumulative >= rank:
                return value
        return ordered[-1][0]

    def share_within(self, bound: float) -> float:
        """Share of observations ``<= bound`` (0.0 when empty): how much
        of a latency distribution sits inside a limit."""
        if not self.count:
            return 0.0
        return sum(w for value, w in self._samples if value <= bound) / self.count

    def summary(self) -> Dict[str, float]:
        return {
            "count": float(self.count),
            "sum": self.sum,
            "mean": self.mean,
            "p50": self.percentile(50),
            "p95": self.percentile(95),
            "p99": self.percentile(99),
        }


class WindowedHistogram:
    """Percentiles over the most recent ``window`` observations.

    The serving router's hedge delay tracks the *current* p99, not the
    lifetime p99: a cold-start spike an hour ago must not inflate hedge
    delays forever.  A ring buffer of the last ``window`` raw values
    gives a sliding-window estimate that adapts as the distribution
    moves.  The router asks for a percentile on every request it
    routes, so the window is also kept in sorted order as values arrive
    and leave: a query is an index, an observation two bisections.
    """

    def __init__(self, name: str, window: int = 256) -> None:
        if window < 1:
            raise ValueError(f"window must be positive: {window}")
        self.name = name
        self.window = window
        self._values: List[float] = []
        self._head = 0  # next write slot once the window is full
        self._ordered: List[float] = []  # the same values, ascending
        self.count = 0  # lifetime observations, not window occupancy
        self.sum = 0.0  # lifetime sum

    def observe(self, value: float) -> None:
        if len(self._values) < self.window:
            self._values.append(value)
        else:
            evicted = self._values[self._head]
            del self._ordered[bisect_left(self._ordered, evicted)]
            self._values[self._head] = value
            self._head = (self._head + 1) % self.window
        insort(self._ordered, value)
        self.count += 1
        self.sum += value

    def __len__(self) -> int:
        return len(self._values)

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def percentile(self, q: float) -> float:
        """The q-th percentile (q in [0, 100]) over the current window,
        or 0.0 before any observation (callers treat that as "no signal
        yet" and fall back to their configured floor)."""
        if not 0.0 <= q <= 100.0:
            raise ValueError(f"percentile must be in [0, 100]: {q}")
        ordered = self._ordered
        if not ordered:
            return 0.0
        rank = max(0, min(len(ordered) - 1, int(q / 100.0 * len(ordered) + 0.5) - 1))
        return ordered[rank]

    def summary(self) -> Dict[str, float]:
        return {
            "count": float(self.count),
            "mean": self.mean,
            "p50": self.percentile(50),
            "p95": self.percentile(95),
            "p99": self.percentile(99),
        }


def flatten_metrics(tree: Dict[str, object], prefix: str = "") -> Dict[str, float]:
    """Flatten a ``PlatformMetrics.to_json()`` tree into dotted numeric
    leaves (booleans become 0/1; the per-node list is keyed by node_id)."""
    flat: Dict[str, float] = {}
    for key, value in tree.items():
        path = f"{prefix}{key}"
        if isinstance(value, bool):
            flat[path] = 1.0 if value else 0.0
        elif isinstance(value, (int, float)):
            flat[path] = float(value)
        elif isinstance(value, dict):
            flat.update(flatten_metrics(value, prefix=f"{path}."))
        elif isinstance(value, list):
            for item in value:
                if isinstance(item, dict) and "node_id" in item:
                    flat.update(
                        flatten_metrics(item, prefix=f"{path}.{item['node_id']}.")
                    )
    flat.pop("nodes.node_id", None)
    return {k: v for k, v in flat.items() if not k.endswith(".node_id")}


class MetricsSampler:
    """Scrapes platform counters into ring-buffer series on a simulated
    interval.

    The sampler subscribes to every node clock; whenever any clock
    crosses the next interval boundary, it snapshots the platform,
    diffs against the previous snapshot, and appends each numeric leaf
    of the delta to its series.  A single large advance that jumps
    several boundaries produces one sample (intermediate states are
    unobservable in a discrete simulation) and the schedule realigns
    past the current time.

    Sampling is read-only — it never advances a clock — so an enabled
    sampler does not perturb simulated results.
    """

    def __init__(self, platform, interval: float, capacity: int = 512) -> None:
        if interval <= 0:
            raise ValueError(f"sample interval must be positive: {interval}")
        from repro.core.monitoring import collect_metrics

        self._platform = platform
        self._collect = collect_metrics
        self.interval = interval
        self.capacity = capacity
        self.series: Dict[str, Series] = {}
        self.samples_taken = 0
        self._previous = collect_metrics(platform)
        self._next_sample = platform.time + interval
        self._sampling = False
        self._clocks = [node.clock for node in platform.nodes]
        for clock in self._clocks:
            clock.subscribe(self._on_advance)
        self._closed = False

    # -- clock observer --------------------------------------------------

    def _on_advance(self, old: float, new: float) -> None:
        if self._sampling or self._closed or new < self._next_sample:
            return
        self._sampling = True
        try:
            self.sample(self._next_sample)
            now = max(clock.now for clock in self._clocks)
            intervals = int((now - self._next_sample) // self.interval) + 1
            self._next_sample += intervals * self.interval
        finally:
            self._sampling = False

    def sample(self, t: Optional[float] = None) -> None:
        """Take one scrape at simulated time ``t`` (default: now)."""
        if t is None:
            t = self._platform.time
        current = self._collect(self._platform)
        delta = current.diff(self._previous)
        self._previous = current
        self.samples_taken += 1
        for name, value in flatten_metrics(delta.to_json()).items():
            series = self.series.get(name)
            if series is None:
                series = Series(name, capacity=self.capacity)
                self.series[name] = series
            series.append(t, value)

    def close(self) -> None:
        """Detach from the clocks (no further samples)."""
        if self._closed:
            return
        self._closed = True
        for clock in self._clocks:
            clock.unsubscribe(self._on_advance)
