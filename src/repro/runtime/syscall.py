"""The system-call boundary between a (possibly enclaved) app and the OS.

Cost structure per mode (§3.3.3 and the SCONE paper):

- **NATIVE** — a plain trap: fixed entry cost + kernel service time.
- **SIM** — the SCONE runtime outside SGX: the same exit-less ring as
  HW mode, minus enclave transitions; the per-name userspace table
  explains why SIM sometimes *beats* native (the paper observes this).
- **HW, synchronous** — every call pays a full enclave transition.
- **HW, asynchronous** — SCONE's exit-less interface: the request goes
  through the :class:`~repro.runtime.syscall_plane.SyscallPlane` — a
  bounded submission/completion ring served by OS-side handler threads,
  with batched fire-and-forget submission, futex-style handler
  sleep/wake, backpressure when the ring fills, and completion waits
  hidden by the user-level scheduler's runnable-thread occupancy.

The sync-vs-async gap and the userspace-served share *emerge* from the
ring mechanics.

All file operations verify the kernel's answers against Iago checks;
tests install a ``hostile_hook`` to emulate a malicious kernel.  The
checks run identically on the async path — a hostile completion in the
ring is rejected exactly like a hostile synchronous return value.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from repro._sim import probe
from repro._sim.clock import SimClock
from repro.enclave.cost_model import CostModel
from repro.enclave.sgx import Enclave, SgxMode
from repro.runtime import iago, stats_registry
from repro.runtime.syscall_plane import SyscallPlane, SyscallPlaneConfig
from repro.runtime.vfs import VirtualFile, VirtualFileSystem
from repro.errors import ShortWriteError, SyscallError

#: Maximum bytes moved per read/write syscall (Linux pipe-sized chunks).
IO_CHUNK = 256 * 1024


@dataclass
class SyscallStats:
    """Counters for benchmarks and tests.

    A plain comparable dataclass on purpose: the determinism regression
    asserts two identically-seeded runs produce *equal* stats objects.
    """

    calls: int = 0
    userspace_handled: int = 0
    transitions: int = 0
    bytes_read: int = 0
    bytes_written: int = 0
    bytes_sent: int = 0
    bytes_received: int = 0
    time: float = 0.0
    # -- submission/completion ring --------------------------------------
    ring_submissions: int = 0
    ring_completions: int = 0
    ring_occupancy_peak: int = stats_registry.peak(0)
    batches: int = 0
    max_batch: int = stats_registry.peak(0)
    flushes_on_block: int = 0
    backpressure_stalls: int = 0
    backpressure_time: float = 0.0
    handler_wakeups: int = 0
    sync_fallbacks: int = 0
    # -- occupancy-derived kernel overlap --------------------------------
    overlap_hidden_time: float = 0.0
    overlap_exposed_time: float = 0.0
    by_name: Dict[str, int] = field(default_factory=dict)

    @property
    def kernel_overlap(self) -> float:
        total = self.overlap_hidden_time + self.overlap_exposed_time
        return self.overlap_hidden_time / total if total else 0.0


HostileHook = Callable[[str, object], object]


class SyscallInterface:
    """Mode-aware syscall layer over a :class:`VirtualFileSystem`."""

    def __init__(
        self,
        vfs: VirtualFileSystem,
        cost_model: CostModel,
        clock: SimClock,
        mode: SgxMode = SgxMode.NATIVE,
        enclave: Optional[Enclave] = None,
        asynchronous: bool = True,
        plane_config: Optional[SyscallPlaneConfig] = None,
    ) -> None:
        if mode is SgxMode.HW and enclave is None:
            raise SyscallError("HW mode requires an enclave for transitions")
        self._vfs = vfs
        self._model = cost_model
        self._clock = clock
        self._mode = mode
        self._enclave = enclave
        self._asynchronous = asynchronous
        self.stats = SyscallStats()
        stats_registry.register("syscall", self.stats, clock)
        #: The shared submission/completion ring (SIM and HW-async; the
        #: NATIVE and HW-sync paths never touch a ring).
        self.plane: Optional[SyscallPlane] = None
        if mode is SgxMode.SIM or (mode is SgxMode.HW and asynchronous):
            self.plane = SyscallPlane(
                cost_model, clock, self.stats, enclave=enclave, config=plane_config
            )
        #: Test hook: called as ``hook(syscall_name, result)`` and may
        #: return a corrupted result, emulating a malicious kernel.
        self.hostile_hook: Optional[HostileHook] = None

    @property
    def mode(self) -> SgxMode:
        return self._mode

    @property
    def asynchronous(self) -> bool:
        return self._asynchronous

    def attach_scheduler(self, scheduler) -> None:
        """Wire a :class:`~repro.runtime.threading_ul.UserLevelScheduler`
        so the plane hides completion waits behind its runnable threads
        and ``scheduler.block()`` flushes the submission batch."""
        if self.plane is not None:
            self.plane.attach_scheduler(scheduler)
            scheduler.attach_plane(self.plane)

    def flush(self) -> None:
        """Drain any batched fire-and-forget submissions."""
        if self.plane is not None:
            self.plane.flush()

    # ------------------------------------------------------------------
    # Cost accounting
    # ------------------------------------------------------------------

    def _count(self, name: str, n: int = 1) -> None:
        self.stats.calls += n
        self.stats.by_name[name] = self.stats.by_name.get(name, 0) + n

    def _charge(self, name: str, posted: bool = False) -> None:
        """Charge the boundary-crossing cost of one syscall.

        ``posted`` marks fire-and-forget calls (writes, closes, unlinks,
        sends): on the ring they batch and never wait for completion.
        """
        self._count(name)
        model = self._model
        before = self._clock.now

        if self.plane is not None:
            if posted:
                self.plane.post(name)
            else:
                self.plane.call(name)
        elif self._mode is SgxMode.NATIVE:
            self._clock.advance(model.syscall_trap_cost + model.syscall_kernel_cost)
        else:  # HW, synchronous
            assert self._enclave is not None
            self.stats.transitions += 1
            self._enclave.cpu.transition(asynchronous=False)
            self._clock.advance(model.syscall_kernel_cost)
        if probe.ACTIVE is not None and self.plane is None:
            # The plane charges its own advances; trap/transition paths
            # are attributed here.
            probe.ACTIVE.charge(self._clock, "syscall_ring", self._clock.now - before)
        self.stats.time += self._clock.now - before

    def _charge_batch(self, name: str, count: int) -> None:
        """Charge ``count`` identical result-bearing syscalls, submitted
        together so ring handlers service them in parallel."""
        if count <= 0:
            return
        self._count(name, count)
        before = self._clock.now
        if self.plane is not None:
            self.plane.call_batch(name, count)
        else:
            model = self._model
            for _ in range(count):
                if self._mode is SgxMode.NATIVE:
                    self._clock.advance(
                        model.syscall_trap_cost + model.syscall_kernel_cost
                    )
                else:
                    assert self._enclave is not None
                    self.stats.transitions += 1
                    self._enclave.cpu.transition(asynchronous=False)
                    self._clock.advance(model.syscall_kernel_cost)
            if probe.ACTIVE is not None:
                probe.ACTIVE.charge(
                    self._clock, "syscall_ring", self._clock.now - before, count=count
                )
        self.stats.time += self._clock.now - before

    def _charge_copy(self, n_bytes: int) -> None:
        """Charge moving a payload across the boundary; in HW mode the
        copy into/out of the enclave runs at MEE bandwidth."""
        before = self._clock.now
        if self._mode is SgxMode.HW:
            assert self._enclave is not None
            self._enclave.memory.charge_bytes(n_bytes)
        else:
            self._clock.advance(n_bytes / self._model.native_memory_bandwidth)
        if probe.ACTIVE is not None:
            probe.ACTIVE.charge(self._clock, "syscall_ring", self._clock.now - before)
        self.stats.time += self._clock.now - before

    def _maybe_hostile(self, name: str, result: object) -> object:
        if self.hostile_hook is not None:
            return self.hostile_hook(name, result)
        return result

    # ------------------------------------------------------------------
    # File operations (the shield and runtime build on these)
    # ------------------------------------------------------------------

    def read_file(self, path: str) -> VirtualFile:
        """Read a whole file; returns the VirtualFile (content + size)."""
        self._charge("open")
        self._charge("read")
        file = self._vfs.read(path)
        result = self._maybe_hostile("read", file)
        if not isinstance(result, VirtualFile):
            raise SyscallError("kernel returned a non-file object for read")
        iago.check_size_result(result.size)
        iago.check_read_result(result.size, result.content[: result.size + 1])
        # The payload arrives in IO_CHUNK pieces, each a syscall; the
        # continuations submit as one batch the handlers drain in parallel.
        self._charge_batch("rw_continuation", max(1, -(-result.size // IO_CHUNK)) - 1)
        self._charge_copy(result.size)
        self.stats.bytes_read += result.size
        self._charge("close", posted=True)
        return result

    def write_file(
        self,
        path: str,
        content: bytes,
        declared_size: Optional[int] = None,
        enclave_bytes: Optional[int] = None,
    ) -> VirtualFile:
        """Write a whole file (create or replace)."""
        return self.write_files([path], content, declared_size, enclave_bytes)[0]

    def write_files(
        self,
        paths: Sequence[str],
        content: bytes,
        declared_size: Optional[int] = None,
        enclave_bytes: Optional[int] = None,
    ) -> List[VirtualFile]:
        """Write one payload to every path (the replicas of a shield
        extent).

        Every destination pays its own ``open``, posted ``write`` +
        continuations and posted ``close``, and counts in
        ``bytes_written``.  The payload is copied at most once, with the
        first destination, and only what the enclave holds of it: in HW
        mode that is ``enclave_bytes`` (default: all of it) — the rest is
        sealed output the file-system shield wrote straight into the
        host's buffer, where the host already holds it.  NATIVE and SIM
        copy the whole payload: there the copy is the kernel's
        user→kernel one, which no seal skips.

        Each destination's write count is checked: more than was handed
        over is an Iago attack (:class:`IagoError`), fewer is a failed
        write (:class:`ShortWriteError`) that leaves the destination as
        it was."""
        size = declared_size if declared_size is not None else len(content)
        crossing = size
        if self._mode is SgxMode.HW and enclave_bytes is not None:
            crossing = min(enclave_bytes, size)
        files: List[VirtualFile] = []
        for path in paths:
            self._charge("open")
            self._charge("write", posted=True)
            for _ in range(max(1, -(-size // IO_CHUNK)) - 1):
                self._charge("rw_continuation", posted=True)
            if not files:
                self._charge_copy(crossing)
            self.stats.bytes_written += size
            previous = self._vfs.lookup(path)
            files.append(self._vfs.write(path, content, declared_size=declared_size))
            written = self._maybe_hostile("write", size)
            if not isinstance(written, int):
                raise SyscallError("kernel returned a non-integer write count")
            if iago.check_write_result(size, written) < size:
                self._vfs.reinstate(path, previous)
                raise ShortWriteError(
                    f"kernel wrote {written} of {size} bytes to {path!r}"
                )
            self._charge("close", posted=True)
        return files

    def stat(self, path: str) -> int:
        """Size of a file (simulated size)."""
        self._charge("stat")
        size = self._vfs.read(path).size
        result = self._maybe_hostile("stat", size)
        if not isinstance(result, int):
            raise SyscallError("kernel returned a non-integer stat size")
        return iago.check_size_result(result)

    def exists(self, path: str) -> bool:
        self._charge("stat")
        return self._vfs.exists(path)

    def unlink(self, path: str) -> None:
        self._charge("unlink", posted=True)
        self._vfs.delete(path)

    def rename(self, src: str, dst: str) -> VirtualFile:
        """Atomically move ``src`` over ``dst`` (the commit primitive of
        the shield's journaled write protocol).  Result-bearing on the
        ring on purpose: the flush-then-wait makes every posted write
        durable before the commit point returns."""
        self._charge("rename")
        return self._vfs.rename(src, dst)

    def list_dir(self, prefix: str = "") -> List[str]:
        self._charge("getdents")
        paths = self._vfs.listdir(prefix)
        result = self._maybe_hostile("getdents", paths)
        if not isinstance(result, list):
            raise SyscallError("kernel returned a non-list directory listing")
        return iago.check_path_listing(prefix, result)

    def next_version(self, path: str) -> int:
        """The version the next write to ``path`` will get (0 if new)."""
        self._charge("stat")
        if not self._vfs.exists(path):
            return 0
        version = self._vfs.read(path).version + 1
        result = self._maybe_hostile("version", version)
        if not isinstance(result, int):
            raise SyscallError("kernel returned a non-integer version")
        return iago.check_size_result(result)

    # ------------------------------------------------------------------
    # Socket operations (the network shield and RPC stack charge here)
    # ------------------------------------------------------------------

    def socket_send(self, n_bytes: int, name: str = "sendmsg") -> None:
        """Charge transmitting ``n_bytes`` on a socket (fire-and-forget:
        the kernel drains the buffer on a handler thread)."""
        self._charge(name, posted=True)
        chunks = max(1, -(-n_bytes // IO_CHUNK))
        for _ in range(chunks - 1):
            self._charge("rw_continuation", posted=True)
        self._charge_copy(n_bytes)
        self.stats.bytes_sent += n_bytes

    def socket_recv(self, n_bytes: int, name: str = "recvmsg") -> None:
        """Charge receiving ``n_bytes`` from a socket (result-bearing:
        the caller needs the payload)."""
        self._charge(name)
        chunks = max(1, -(-n_bytes // IO_CHUNK))
        self._charge_batch("rw_continuation", chunks - 1)
        self._charge_copy(n_bytes)
        self.stats.bytes_received += n_bytes

    def nop_syscall(self, name: str = "nop") -> None:
        """A syscall with no semantic effect (cost-model microbenchmarks)."""
        self._charge(name)
