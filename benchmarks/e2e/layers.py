"""The per-layer ledger, measured from outside the program.

Three sources feed it, none of them inside ``src/``:

- **counters** — the timed-region difference of the program's public
  statistics (``collect_metrics(platform).diff(...)`` flattened by
  ``flatten_metrics``, the EPC's hit/fault counts, and for serving the
  router, admission and traffic stats the workload hands over);
- **simulated time by layer** — the program's own ``Telemetry.profile()``
  table, summed over every registered clock, from one traced lap;
- **host time by layer** — ``cProfile`` self time folded by the
  ``repro.<package>`` a function lives in, from one profiled lap.

A source key that is absent yields ``None`` and is listed as missing,
never a crash: the names here are meant to survive a refactor of the
statistics classes behind them.
"""

from __future__ import annotations

import cProfile
import os
import pstats
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import repro
from repro.core.monitoring import collect_metrics
from repro.core.platform import SecureTFPlatform
from repro.observability import Telemetry, flatten_metrics, validate_chrome_trace

PACKAGE_ROOT = os.path.dirname(os.path.abspath(repro.__file__)) + os.sep

#: ``repro.<package>`` directories that are a host-time bucket of their own.
HOST_PACKAGES = (
    "enclave", "runtime", "cas", "tensor", "cluster", "serving", "_sim",
    "core", "observability",
)
AEAD_MODULES = {"aes", "gcm", "chacha", "aead"}
HOST_BUCKETS = (
    ("crypto_aead", "crypto_pk", "crypto_encoding")
    + HOST_PACKAGES
    + ("numpy", "other")
)


def host_bucket(filename: str, function: str) -> str:
    """The ledger bucket one profiled function's self time belongs to."""
    if filename.startswith(PACKAGE_ROOT):
        parts = filename[len(PACKAGE_ROOT):].split(os.sep)
        if parts[0] == "crypto":
            module = parts[-1].rsplit(".", 1)[0]
            if module in AEAD_MODULES:
                return "crypto_aead"
            # Signatures, key agreement, certificates, TLS, KDF: the
            # attestation/handshake side of the package.
            return "crypto_encoding" if module == "encoding" else "crypto_pk"
        return parts[0] if parts[0] in HOST_PACKAGES else "other"
    if "numpy" in filename or (filename == "~" and "numpy" in function):
        return "numpy"
    return "other"


def fold_profile(profile: cProfile.Profile) -> Dict[str, object]:
    """Fold a profile into self seconds per bucket, the number of calls
    that cross into each bucket from outside it, and the hottest
    functions (for the artifact)."""
    stats = pstats.Stats(profile).stats  # type: ignore[attr-defined]
    self_s = {bucket: 0.0 for bucket in HOST_BUCKETS}
    calls_into = {bucket: 0 for bucket in HOST_BUCKETS}
    hottest = []
    for (filename, line, function), (_, n_calls, tottime, _, callers) in stats.items():
        bucket = host_bucket(filename, function)
        self_s[bucket] += tottime
        for (caller_file, _, caller_function), caller_stats in callers.items():
            if host_bucket(caller_file, caller_function) != bucket:
                calls_into[bucket] += caller_stats[0]
        hottest.append((tottime, n_calls, bucket, f"{filename}:{line}:{function}"))
    hottest.sort(reverse=True)
    return {
        "host_self_s": self_s,
        "calls_into": calls_into,
        "hottest": [
            {"self_s": t, "calls": n, "bucket": b, "function": f.replace(PACKAGE_ROOT, "repro/")}
            for t, n, b, f in hottest[:25]
        ],
    }


def sim_layer_table(telemetry: Telemetry) -> Tuple[Dict[str, float], float]:
    """The program's simulated-time table summed over clocks, and the
    worst per-clock residual ``|Σ layers − elapsed| / elapsed``."""
    layers: Dict[str, float] = {}
    residual = 0.0
    for node in telemetry.profile().values():
        for layer, seconds in node.layers.items():
            layers[layer] = layers.get(layer, 0.0) + seconds
        if node.elapsed > 0:
            residual = max(residual, abs(node.total - node.elapsed) / node.elapsed)
    return layers, residual


# ----------------------------------------------------------------------
# Spans recorded by the benchmark's own files, around calls into a layer
# ----------------------------------------------------------------------


class SpanLog:
    """In-memory spans on both clocks; written out when the run ends."""

    def __init__(self) -> None:
        self.spans: List[Dict[str, object]] = []
        self._open: List[int] = []
        self.lap = "setup"

    @contextmanager
    def span(self, name: str, sim_now: Callable[[], float]):
        record = {
            "id": len(self.spans),
            "parent": self._open[-1] if self._open else None,
            "lap": self.lap,
            "name": name,
            "host_start": time.perf_counter(),
            "sim_start": sim_now(),
        }
        self.spans.append(record)
        self._open.append(record["id"])
        try:
            yield record
        finally:
            self._open.pop()
            record["host_end"] = time.perf_counter()
            record["sim_end"] = sim_now()

    def named(self, name: str) -> List[Dict[str, object]]:
        return [s for s in self.spans if s["name"] == name and "sim_end" in s]


@contextmanager
def provision_spans(log: SpanLog):
    """Record a ``cas.provision`` span around every attestation the
    program performs.  Every enclave reaches CAS through
    ``SecureTFPlatform.provision_runtime``, and most are started deep
    inside the program (``ServingPlane.__init__``, the watchdog), so the
    span is hung on that public method for the length of a traced run."""
    original = SecureTFPlatform.provision_runtime

    def provision_runtime(self, runtime, node, session):
        with log.span("cas.provision", lambda: node.clock.now):
            return original(self, runtime, node, session)

    SecureTFPlatform.provision_runtime = provision_runtime
    try:
        yield
    finally:
        SecureTFPlatform.provision_runtime = original


# ----------------------------------------------------------------------
# The measured region of one lap
# ----------------------------------------------------------------------

PLAIN, COUNTED, TELEMETRY, PROFILED = "plain", "counted", "telemetry", "profiled"


def _snapshot(platform) -> Tuple[object, Dict[str, float]]:
    epc = {"epc.hits": 0.0, "epc.faults": 0.0}
    for node in platform.nodes:
        epc["epc.hits"] += node.cpu.epc.stats.hits
        epc["epc.faults"] += node.cpu.epc.stats.faults
    return collect_metrics(platform), epc


@dataclass
class Region:
    """Times one lap's operations on both clocks.  ``mode`` adds, around
    the same operations, a counter difference (``counted``), the
    program's telemetry (``telemetry``) or ``cProfile`` (``profiled``);
    a ``plain`` region adds nothing, so end-to-end numbers come from it."""

    mode: str = PLAIN
    log: Optional[SpanLog] = None
    host_s: float = 0.0
    sim_s: float = 0.0
    #: Factor ``to_reference_speed`` applied to the host times (1 = none).
    host_scale: float = 1.0
    counters: Dict[str, float] = field(default_factory=dict)
    sim_layers: Optional[Dict[str, float]] = None
    sim_residual: Optional[float] = None
    program_spans: Optional[int] = None
    chrome_trace: Optional[Dict[str, object]] = None
    profile: Optional[Dict[str, object]] = None

    @property
    def traced(self) -> bool:
        return self.mode in (TELEMETRY, PROFILED)

    @contextmanager
    def measure(self, platform, sim_now: Callable[[], float]):
        before = _snapshot(platform) if self.mode != PLAIN else None
        telemetry = Telemetry(platform) if self.mode == TELEMETRY else None
        profiler = cProfile.Profile() if self.mode == PROFILED else None
        sim_start = sim_now()
        if profiler is not None:
            profiler.enable()
        host_start = time.perf_counter()
        try:
            yield
        finally:
            self.host_s = time.perf_counter() - host_start
            if profiler is not None:
                profiler.disable()
            self.sim_s = sim_now() - sim_start
            if telemetry is not None:
                telemetry.close()
        if before is not None:
            metrics, epc = _snapshot(platform)
            self.counters = flatten_metrics(metrics.diff(before[0]).to_json())
            for key, value in epc.items():
                self.counters[key] = value - before[1][key]
        if telemetry is not None:
            self.sim_layers, self.sim_residual = sim_layer_table(telemetry)
            self.chrome_trace = telemetry.chrome_trace()
            self.program_spans = validate_chrome_trace(self.chrome_trace)
        if profiler is not None:
            self.profile = fold_profile(profiler)

    def to_reference_speed(self, scale: float) -> None:
        """Scale every host time measured here by the runner's
        calibration factor for this lap."""
        self.host_scale = scale
        self.host_s *= scale
        if self.profile is not None:
            self.profile["host_self_s"] = {
                bucket: self_s * scale
                for bucket, self_s in self.profile["host_self_s"].items()
            }

    def call(self, name: str, function: Callable, sim_now: Callable[[], float]) -> Callable:
        """``function`` itself in an untraced lap; in a traced lap a
        wrapper that records one operation span and, inside it, one span
        for the call into the layer."""
        if not self.traced:
            return function
        log = self.log

        def traced_call(*args, **kwargs):
            with log.span("op", sim_now):
                with log.span(name, sim_now):
                    return function(*args, **kwargs)

        return traced_call


# ----------------------------------------------------------------------
# Per-layer metric definitions
# ----------------------------------------------------------------------


class Sources:
    """Read access to the summed counters; remembers what was absent."""

    def __init__(self, counters: Dict[str, float], host_s: float, sim_s: float,
                 host_scale: float) -> None:
        self.counters = counters
        #: Host and simulated seconds of the timed laps; ``host_s`` is at
        #: the reference speed, ``host_scale`` takes the program's own
        #: wall-clock counters there.
        self.host_s = host_s
        self.sim_s = sim_s
        self.host_scale = host_scale
        self.missing: List[str] = []

    def get(self, key: str) -> Optional[float]:
        if key not in self.counters:
            if key not in self.missing:
                self.missing.append(key)
            return None
        return self.counters[key]

    def nodes(self, leaf: str) -> Optional[float]:
        """Sum of ``nodes.<id>.<leaf>`` over every node."""
        values = [
            v for k, v in self.counters.items()
            if k.startswith("nodes.") and k.endswith("." + leaf)
        ]
        if not values:
            self.missing.append(f"nodes.*.{leaf}")
            return None
        return sum(values)

    def total(self, *keys: str) -> Optional[float]:
        values = [self.get(key) for key in keys]
        return None if None in values else sum(values)


def ratio(part: Optional[float], whole: Optional[float]) -> Optional[float]:
    if part is None or whole is None:
        return None
    return part / whole if whole else 0.0


def scaled(value: Optional[float], factor: float) -> Optional[float]:
    return None if value is None else value * factor


MB = 1e6


@dataclass(frozen=True)
class LayerMetric:
    """One ledger entry.  ``read`` computes it from the summed counters;
    the runner fills in the entries that have none (traced laps, spans,
    operation counts).  Which end-to-end metric each entry should move,
    on which workload, is the README's interaction table."""

    name: str
    unit: str
    better: str
    read: Optional[Callable[[Sources], Optional[float]]] = None


def _hit_ratio(hits: str, misses: str) -> Callable[[Sources], Optional[float]]:
    return lambda s: ratio(s.get(hits), s.total(hits, misses))


def _aead_bytes(s: Sources) -> Optional[float]:
    return s.total("shields.fs_crypto_bytes", "shields.net_crypto_bytes")


M = LayerMetric
COUNTER_METRICS: List[LayerMetric] = [
    M("crypto.aead_bytes", "B", "lower", _aead_bytes),
    M("crypto.aead_host_mb_per_s", "MB/s", "higher", lambda s: ratio(
        _aead_bytes(s),
        scaled(s.total("shields.fs_real_crypto_time", "shields.net_real_crypto_time"),
               MB * s.host_scale))),
    M("crypto.aead_cache_hit_ratio", "ratio", "higher",
      _hit_ratio("shields.aead_cache_hits", "shields.aead_cache_misses")),
    M("enclave.epc_faults", "count", "lower", lambda s: s.nodes("epc_faults")),
    M("enclave.epc_fault_sim_s", "s", "lower", lambda s: s.nodes("epc_fault_time")),
    M("enclave.epc_fault_rate", "ratio", "lower",
      lambda s: ratio(s.get("epc.faults"), s.total("epc.hits", "epc.faults"))),
    M("enclave.transitions", "count", "lower", lambda s: s.nodes("enclave_transitions")),
    M("runtime.syscalls", "count", "lower", lambda s: s.get("syscalls.calls")),
    M("runtime.ring_submissions", "count", "lower",
      lambda s: s.get("syscalls.ring_submissions")),
    M("runtime.sync_fallbacks", "count", "lower",
      lambda s: s.get("syscalls.sync_fallbacks")),
    M("runtime.backpressure_stalls", "count", "lower",
      lambda s: s.get("syscalls.backpressure_stalls")),
    M("runtime.overlap_hidden_share", "ratio", "higher",
      _hit_ratio("syscalls.overlap_hidden_time", "syscalls.overlap_exposed_time")),
    M("runtime.fs_bytes", "B", "lower", lambda s: s.get("shields.fs_crypto_bytes")),
    M("runtime.fs_chunk_cache_hit_ratio", "ratio", "higher",
      _hit_ratio("shields.fs_chunk_cache_hits", "shields.fs_chunk_cache_misses")),
    M("runtime.fs_sim_mb_per_s", "MB/s", "higher",
      lambda s: ratio(s.get("shields.fs_crypto_bytes"), s.sim_s * MB)),
    M("runtime.net_records", "count", "lower", lambda s: s.total(
        "shields.net_records_protected", "shields.net_records_opened")),
    M("cluster.messages", "count", "lower", lambda s: s.get("network_messages")),
    M("cluster.bytes", "B", "lower", lambda s: s.get("network_bytes")),
    M("cluster.dropped", "count", "lower", lambda s: s.get("network_dropped")),
    M("cluster.duplicated", "count", "lower", lambda s: s.get("network_duplicated")),
    M("cluster.retries", "count", "lower", lambda s: s.get("recovery.retries")),
    M("cluster.retry_backoff_sim_s", "s", "lower",
      lambda s: s.get("recovery.backoff_time")),
    M("cluster.dedup_hits", "count", "higher", lambda s: s.get("recovery.dedup_hits")),
    M("cluster.reconnects", "count", "lower", lambda s: s.get("recovery.reconnects")),
    M("cluster.ps_pushes", "count", "lower", lambda s: s.get("training.pushes")),
    M("cluster.ps_pulls", "count", "lower", lambda s: s.get("training.pulls")),
    M("cluster.gradient_bytes", "B", "lower",
      lambda s: s.get("training.gradient_bytes_in")),
    M("cluster.gradient_bytes_saved", "B", "higher",
      lambda s: s.get("training.gradient_bytes_saved")),
    M("serving.admitted", "count", "higher", lambda s: s.get("serving.admitted")),
    M("serving.shed_overload", "count", "lower", lambda s: s.get("serving.overload")),
    M("serving.deadline_exceeded", "count", "lower",
      lambda s: s.get("serving.deadline")),
    M("serving.transport_errors", "count", "lower",
      lambda s: s.get("serving.transport")),
    M("serving.router_retries", "count", "lower", lambda s: s.get("serving.retries")),
    M("serving.hedges_fired", "count", "lower",
      lambda s: s.get("serving.hedges_fired")),
    M("serving.hedge_win_ratio", "ratio", "higher",
      lambda s: ratio(s.get("serving.hedges_won"), s.get("serving.hedges_fired"))),
    M("serving.dedup_replays", "count", "higher",
      lambda s: s.get("serving.dedup_replays")),
    M("serving.cold_starts", "count", "lower", lambda s: s.get("serving.cold_starts")),
    M("serving.replica_restarts", "count", "lower",
      lambda s: s.get("recovery.restarts")),
    M("sim_core.events_fired", "count", "lower",
      lambda s: s.get("sim_core.events_fired")),
    M("sim_core.events_cancelled_ratio", "ratio", "lower", lambda s: ratio(
        s.get("sim_core.events_cancelled"), s.get("sim_core.events_scheduled"))),
    M("sim_core.heap_peak", "count", "lower", lambda s: s.get("sim_core.heap_peak")),
    M("sim_core.host_events_per_s", "1/s", "higher",
      lambda s: ratio(s.get("sim_core.events_fired"), s.host_s)),
]

SIM_LAYERS = ("crypto", "epc_faults", "syscall_ring", "backpressure",
              "network_wait", "retry_backoff", "compute")

#: The whole ledger, in the order ``BENCHMARK.json`` lists it.
PER_LAYER: List[LayerMetric] = (
    [M(f"host_self_s.{bucket}", "s", "lower") for bucket in HOST_BUCKETS]
    + [M(f"sim_layer_s.{layer}", "s", "lower") for layer in SIM_LAYERS]
    + COUNTER_METRICS
    + [
        M("cas.provisions", "count", "lower"),
        M("cas.sim_s_per_provision", "s", "lower"),
        M("cas.sim_cold_start_s", "s", "lower"),
        M("tensor.invocations", "count", "lower"),
        M("serving.sim_latency_p99_s", "s", "lower"),
        M("failed_share", "ratio", "lower"),
        M("observability.tracer_overhead_ratio", "ratio", "lower"),
        M("observability.profiler_overhead_ratio", "ratio", "lower"),
        M("observability.spans", "count", "higher"),
        M("sim_layer_residual", "ratio", "lower"),
        M("host_traced_s", "s", "lower"),
    ]
)


def counter_values(
    counters, host_s, sim_s, host_scale
) -> Tuple[Dict[str, Optional[float]], List[str]]:
    sources = Sources(counters, host_s, sim_s, host_scale)
    values = {metric.name: metric.read(sources) for metric in COUNTER_METRICS}
    return values, sources.missing


#: Gauges in the flattened counters: summed laps keep the largest.
PEAK_COUNTERS = {"sim_core.heap_peak"}


def add_counters(total: Dict[str, float], lap: Dict[str, float]) -> None:
    for key, value in lap.items():
        if key in PEAK_COUNTERS:
            total[key] = max(total.get(key, 0.0), value)
        else:
            total[key] = total.get(key, 0.0) + value
