"""The execution engine: turns executed graph work into simulated time.

A :class:`Session` (or Lite interpreter) executes real numpy kernels and
collects a :class:`RunStats` — FLOPs, unique weight bytes, activation
traffic, op count.  The engine charges the simulated clock through the
attached :class:`~repro.runtime.scone.SconeRuntime`:

- **compute**: FLOPs at the engine profile's per-core rate, divided by
  the scheduler's parallel speedup, scaled by the libc compute factor;
- **dispatch**: a per-op interpreter overhead (the full TensorFlow
  runtime dispatches through a much deeper stack than Lite's
  mobile-optimized interpreter — §2.1);
- **weights**: streamed once per run through the enclave memory manager
  (region ``weights``), paying MEE bandwidth and EPC faults in HW mode;
- **workspace**: activation traffic cycled over an arena region;
- **code**: each op touches a slice of the binary region *without* DRAM
  bandwidth cost (hot code lives in cache) but *with* EPC residency —
  this is the mechanism behind the paper's 71× TensorFlow-vs-Lite gap
  (§5.3 #4): an 87.4 MB binary cannot stay resident next to a 91 MB
  model in a 94 MB EPC, a 1.9 MB one can.

Graphs carry a ``cost_scale`` letting small-weight stand-in models
declare the FLOP/byte footprint of the paper's full-size models.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro._sim import probe
from repro._sim.units import MiB
from repro.errors import ConfigurationError
from repro.runtime.scone import SconeRuntime


@dataclass(frozen=True)
class EngineProfile:
    """Cost profile of a TensorFlow execution engine variant."""

    name: str
    flops_per_second: float
    binary_size: int
    dispatch_overhead: float  # seconds per executed op
    code_bytes_per_op: int    # hot code footprint touched per op
    #: Multiplier on EPC fault cost.  The granule model charges faults as
    #: sequential 4 KiB streams; an engine whose allocator and dispatch
    #: chase pointers across the whole heap (full TensorFlow) faults in a
    #: random 4 KiB pattern that is several times costlier per byte.
    thrash_factor: float = 1.0


#: Full TensorFlow 1.9 (the paper measures an 87.4 MB binary, §5.3 #4).
FULL_TF_PROFILE = EngineProfile(
    name="tensorflow",
    flops_per_second=9.0e9,
    binary_size=int(87.4 * MiB),
    dispatch_overhead=18e-6,
    code_bytes_per_op=int(8.0 * MiB),
    thrash_factor=4.0,
)

#: Full TensorFlow running *training* steps: large batched kernels with
#: mostly-sequential access (im2col + GEMM), so less pathological
#: thrashing than the op-at-a-time inference path, and a smaller hot-code
#: set (the training loop exercises few distinct kernels repeatedly).
FULL_TF_TRAINING_PROFILE = EngineProfile(
    name="tensorflow-training",
    flops_per_second=9.0e9,
    binary_size=int(87.4 * MiB),
    dispatch_overhead=18e-6,
    code_bytes_per_op=int(3.0 * MiB),
    thrash_factor=2.0,
)

#: TensorFlow Lite (1.9 MB binary, mobile-optimized interpreter).
LITE_PROFILE = EngineProfile(
    name="tensorflow-lite",
    flops_per_second=11.0e9,
    binary_size=int(1.9 * MiB),
    dispatch_overhead=2.5e-6,
    code_bytes_per_op=int(0.4 * MiB),
)


@dataclass(frozen=True)
class GpuProfile:
    """An untrusted GPU accelerator for Slalom-style outsourcing (§7.4).

    The paper discusses offloading *linear* operations (matmul, conv) to
    a GPU outside the enclave, Slalom-style: the enclave keeps the
    non-linear ops, streams layer inputs/outputs over PCIe, and verifies
    the GPU's linear algebra with Freivalds-type checks — preserving
    integrity while weakening confidentiality for the offloaded layers.
    """

    name: str = "untrusted-gpu"
    flops_per_second: float = 1.2e12  # effective fp32 throughput
    pcie_bandwidth: float = 12.0e9
    per_offload_overhead: float = 25e-6  # kernel launch + sync
    #: In-enclave verification cost as a fraction of the offloaded FLOPs
    #: (Freivalds checks are asymptotically cheaper than the multiply).
    verification_fraction: float = 0.02


DEFAULT_GPU_PROFILE = GpuProfile()


@dataclass
class RunStats:
    """Work performed by one ``Session.run`` / ``Interpreter.invoke``."""

    flops: int = 0
    ops: int = 0
    weight_bytes: int = 0
    activation_bytes: int = 0
    max_op_bytes: int = 0
    #: FLOPs spent in linear ops (matmul/conv) — offloadable to a GPU.
    linear_flops: int = 0


@dataclass
class EngineTotals:
    """Cumulative accounting across runs (benchmark breakdowns)."""

    runs: int = 0
    compute_time: float = 0.0
    dispatch_time: float = 0.0
    memory_time: float = 0.0
    epc_faults: int = 0


class ExecutionEngine:
    """Charges one runtime's clock for executed graph work."""

    def __init__(
        self,
        runtime: SconeRuntime,
        profile: EngineProfile,
        threads: int = 1,
    ) -> None:
        if threads < 1:
            raise ConfigurationError(f"thread count must be >= 1, got {threads}")
        if runtime.config.binary_size != profile.binary_size:
            raise ConfigurationError(
                f"runtime binary region is {runtime.config.binary_size} bytes "
                f"but profile {profile.name!r} declares {profile.binary_size}; "
                f"build the RuntimeConfig from the engine profile"
            )
        self.runtime = runtime
        self.profile = profile
        self.threads = threads
        self.totals = EngineTotals()
        self._region_sizes: Dict[str, int] = {}
        self._cursors: Dict[str, int] = {}
        #: When set, linear FLOPs are outsourced to this untrusted GPU
        #: (Slalom-style, §7.4) instead of running in the enclave.
        self.gpu_profile: Optional[GpuProfile] = None
        #: Planned activation-arena size per thread.  The Lite interpreter
        #: sets this from the converter's arena plan (Lite reuses buffers
        #: aggressively); when unset, the engine falls back to a
        #: no-buffer-reuse estimate, which is how full TensorFlow behaves.
        self.arena_hint: Optional[int] = None

    # ------------------------------------------------------------------

    def _ensure_region(self, name: str, size: int, kind: str) -> None:
        """Allocate (or grow) a data region in the runtime's memory."""
        if size <= 0:
            return
        current = self._region_sizes.get(name)
        if current is not None and current >= size:
            return
        if current is not None:
            self.runtime.memory.free(name)
        self.runtime.memory.alloc(name, size, kind=kind)
        self._region_sizes[name] = size

    def charge_run(self, stats: RunStats, threads: Optional[int] = None) -> None:
        """Convert one run's stats into simulated time on the clock."""
        threads = threads or self.threads
        runtime = self.runtime
        clock = runtime.clock
        self.totals.runs += 1

        # Compute + dispatch.  HW mode pays the MEE compute penalty even
        # when fully EPC-resident.  With a GPU attached, linear FLOPs run
        # on the accelerator while the enclave verifies and handles the
        # non-linear remainder (Slalom-style outsourcing, §7.4).
        before = clock.now
        gpu = self.gpu_profile
        enclave_flops = stats.flops
        if gpu is not None and stats.linear_flops > 0:
            offloaded = min(stats.linear_flops, stats.flops)
            enclave_flops = stats.flops - offloaded
            enclave_flops += int(offloaded * gpu.verification_fraction)
            transfers = 2 * stats.activation_bytes  # layer I/O over PCIe
            gpu_time = (
                offloaded / gpu.flops_per_second
                + transfers / gpu.pcie_bandwidth
                + max(stats.ops // 2, 1) * gpu.per_offload_overhead
            )
            clock.advance(gpu_time)
        single_thread = (
            enclave_flops / self.profile.flops_per_second
            + stats.ops * self.profile.dispatch_overhead
        ) * runtime.compute_factor
        if runtime.memory.encrypted:
            single_thread *= runtime.cost_model.enclave_compute_factor
        runtime.scheduler.run_parallel(single_thread, threads)
        self.totals.compute_time += clock.now - before

        # Memory traffic.  Per run:
        # - weights stream through once (region "weights"),
        # - activations cycle through a per-thread arena ("workspace"):
        #   the Lite interpreter plans a tight arena (arena_hint); full
        #   TensorFlow keeps every intermediate live,
        # - each op walks its hot code in the binary and its libc/libOS —
        #   no DRAM bandwidth (cache-hot) but full EPC residency cost.
        #
        # Crucially the four streams are INTERLEAVED in slices, as real
        # per-op execution interleaves them: a big binary (full TF) or a
        # big libOS (Graphene) then continuously evicts model pages —
        # which is the mechanism behind the paper's 71× TF-vs-Lite gap
        # and the growing Graphene gap in Fig. 5.
        before = clock.now
        faults = 0
        weight_bytes = stats.weight_bytes
        if self.gpu_profile is not None and stats.linear_flops > 0:
            # Linear-layer weights are resident on the GPU; only the
            # (small) non-linear parameters stay inside the enclave.
            weight_bytes = max(weight_bytes // 10, 1)
        if weight_bytes > 0:
            self._ensure_region("weights", weight_bytes, "data")
        if stats.activation_bytes > 0:
            if self.arena_hint is not None:
                # Planned arena (Lite): each intra-op worker thread gets
                # its own scratch arena.
                arena = self.arena_hint * threads
            else:
                # Full TF: intermediates stay live; extra threads add
                # modest per-thread scratch on top of the shared buffers.
                base = max(stats.activation_bytes // 2, stats.max_op_bytes)
                arena = int(base * (1.0 + 0.15 * (threads - 1)))
            self._ensure_region("workspace", max(arena, 1), "heap")

        code_traffic = stats.ops * min(
            self.profile.code_bytes_per_op, self.profile.binary_size
        )
        libc_traffic = stats.ops * min(
            runtime.libc.hot_bytes_per_op, runtime.libc.binary_size
        )
        streams = []
        if weight_bytes > 0:
            streams.append(["weights", weight_bytes, True])
        if stats.activation_bytes > 0:
            streams.append(["workspace", stats.activation_bytes, True])
        if code_traffic > 0:
            streams.append(["binary", code_traffic, False])
        if libc_traffic > 0:
            streams.append(["libc", libc_traffic, False])

        slices = max(1, min(stats.ops, 48))
        cursors = self._cursors
        for index in range(slices):
            for stream in streams:
                name, total, bandwidth = stream
                share = total * (index + 1) // slices - total * index // slices
                if share <= 0:
                    continue
                stream_faults, cursors[name] = runtime.memory.touch_window(
                    name, cursors.get(name, 0), share, bandwidth=bandwidth
                )
                faults += stream_faults
        if faults and self.profile.thrash_factor > 1.0:
            granule_cost = runtime.memory.granule_fault_cost
            surcharge = faults * granule_cost * (self.profile.thrash_factor - 1.0)
            clock.advance(surcharge)
            if probe.SINK is not None:
                # Paging, not compute: the tracer files what nobody
                # claims under compute.
                probe.SINK.charge(clock, "epc_faults", surcharge)
        self.totals.memory_time += clock.now - before
        self.totals.epc_faults += faults
