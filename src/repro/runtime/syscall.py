"""The system-call boundary between a (possibly enclaved) app and the OS.

Cost structure per mode (§3.3.3 and the SCONE paper):

- **NATIVE** — a plain trap: fixed entry cost + kernel service time.
- **SIM** — the SCONE runtime outside SGX: the same exit-less ring as
  HW mode, minus enclave transitions; the per-name userspace table
  explains why SIM sometimes *beats* native (the paper observes this).
- **HW, synchronous** — every call pays a full enclave transition.
- **HW, asynchronous** — SCONE's exit-less interface: the request goes
  through the submission/completion ring of
  :class:`~repro.runtime.syscall_plane.SyscallPlane`.

NATIVE and HW-sync charge through a
:class:`~repro.runtime.syscall_plane.TrapPlane`, so every call is one of
two verbs in every mode: ``_submit`` / ``_wait`` for a call whose result
the caller needs, ``_post`` for a fire-and-forget one.  The
sync-vs-async gap and the userspace-served share *emerge* from the ring
mechanics.

All file operations verify the kernel's answers against Iago checks;
tests install a ``hostile_hook`` to emulate a malicious kernel.  The
checks run identically on the async path — a hostile completion in the
ring is rejected exactly like a hostile synchronous return value.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import islice
from typing import Callable, Dict, List, Optional, Sequence, Union

from repro._sim import probe
from repro._sim.clock import SimClock
from repro.enclave.cost_model import CostModel
from repro.enclave.sgx import Enclave, SgxMode
from repro.runtime import iago, stats_registry
from repro.runtime.syscall_plane import SyscallPlane, SyscallPlaneConfig, TrapPlane
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
        self.stats = SyscallStats()
        stats_registry.register("syscall", self.stats, clock)
        #: Where every call is charged: the shared submission/completion
        #: ring in SIM and HW-async, a trap plane in NATIVE and HW-sync.
        ring = mode is SgxMode.SIM or (mode is SgxMode.HW and asynchronous)
        trapped = enclave if mode is SgxMode.HW else None  # NATIVE traps, no exit
        self.plane: Union[SyscallPlane, TrapPlane] = (
            SyscallPlane(cost_model, clock, self.stats, enclave, plane_config) if ring
            else TrapPlane(cost_model, clock, self.stats, trapped)
        )
        #: Test hook: called as ``hook(syscall_name, result)`` and may
        #: return a corrupted result, emulating a malicious kernel.
        self.hostile_hook: Optional[HostileHook] = None

    @property
    def mode(self) -> SgxMode:
        return self._mode

    @property
    def enclave(self) -> Optional[Enclave]:
        return self._enclave

    def attach_scheduler(self, scheduler) -> None:
        """Wire a :class:`~repro.runtime.threading_ul.UserLevelScheduler`
        so the plane hides completion waits behind its runnable threads
        and ``scheduler.block()`` flushes the submission batch."""
        self.plane.attach_scheduler(scheduler)
        scheduler.attach_plane(self.plane)

    def flush(self) -> None:
        """Drain any batched fire-and-forget submissions."""
        self.plane.flush()

    # ------------------------------------------------------------------
    # Cost accounting
    # ------------------------------------------------------------------

    def _count(self, name: str) -> None:
        self.stats.calls += 1
        self.stats.by_name[name] = self.stats.by_name.get(name, 0) + 1

    def _submit(self, name: str, ahead: bool = False) -> float:
        """Charge one result-bearing syscall up to its submission and
        return when it completes: the caller works on until it needs the
        result (:meth:`_wait`; ``ahead``: not at once)."""
        self._count(name)
        before = self._clock.now
        completion = self.plane.submit(name, ahead=ahead)
        self.stats.time += self._clock.now - before
        return completion

    def _wait(self, completion: float) -> None:
        """Wait for what :meth:`_submit` returned."""
        before = self._clock.now
        self.plane.wait(completion)
        self.stats.time += self._clock.now - before

    def _submit_batch(self, name: str, count: int) -> List[float]:
        """Submit ``count`` result-bearing calls together, one ring batch
        the handlers serve in parallel; returns their completions."""
        if count > 0:
            self.plane.count_batch(count)
        return [self._submit(name) for _ in range(count)]

    def _post(self, name: str, count: int = 1, wake: bool = True) -> None:
        """Post ``count`` fire-and-forget calls.  Without ``wake`` they
        are handed off: sent at once to an awake ring handler, or left
        for the next flush while all are parked, never paying a wake-up."""
        for _ in range(count):
            self._count(name)
            before = self._clock.now
            self.plane.post(name, wake=wake)
            self.stats.time += self._clock.now - before
        if count > 0 and not wake:
            before = self._clock.now
            self.plane.flush(wake=False)
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
        if probe.SINK is not None:
            probe.SINK.charge(self._clock, "syscall_ring", self._clock.now - before)
        self.stats.time += self._clock.now - before

    def _maybe_hostile(self, name: str, result: object) -> object:
        if self.hostile_hook is not None:
            return self.hostile_hook(name, result)
        return result

    def _kernel_int(self, name: str, value: int, what: str) -> int:
        """The kernel's answer ``value`` to ``name``, refused unless an int."""
        result = self._maybe_hostile(name, value)
        if not isinstance(result, int):
            raise SyscallError(f"kernel returned a non-integer {what}")
        return result

    # ------------------------------------------------------------------
    # File operations (the shield and runtime build on these)
    # ------------------------------------------------------------------

    def read_file(self, path: str, enclave_bytes: Optional[int] = None) -> VirtualFile:
        """Read a whole file; returns the VirtualFile (content + size).

        The payload is copied to the caller once.  In HW mode a caller
        that names ``enclave_bytes`` gets at most that many of the bytes
        stored, never a declared size beyond them (a stand-in for data
        the host holds); the default copies everything read.  What is not
        copied stays in the host's buffer, where the file-system shield
        checks digests and opens chunks in place.  NATIVE and SIM copy
        everything read: the kernel's kernel→user copy, no caller skips."""
        (result,) = self._read([path], enclave_bytes)
        if isinstance(result, SyscallError):
            raise result
        return result

    def read_files(
        self,
        paths: Sequence[str],
        enclave_bytes: Optional[int] = None,
        landed: Optional[Callable[[int], None]] = None,
    ) -> List[Optional[VirtualFile]]:
        """Read whole files together (the replicas of a shield extent),
        each as :meth:`read_file` does; a path the kernel cannot read
        comes back None.

        Every path's ``open`` is submitted as one batch, then every
        file's ``read``, then — once those tell the sizes — every file's
        IO_CHUNK continuations, piece by piece, so the handlers drain
        them in parallel.  ``landed(stop)`` is called as soon as the
        first ``stop`` bytes of every file are in: the caller works on
        what it holds while the rest arrives."""
        return [
            None if isinstance(result, SyscallError) else result
            for result in self._read(paths, enclave_bytes, landed)
        ]

    def _read(
        self,
        paths: Sequence[str],
        enclave_bytes: Optional[int],
        landed: Optional[Callable[[int], None]] = None,
    ) -> List[Union[VirtualFile, SyscallError]]:
        self._wait(max([self._submit("open") for _ in paths]))
        results: List[Union[VirtualFile, SyscallError]] = []
        firsts: List[float] = []  # each file's first piece's completion
        ends: List[int] = []  # the piece each file ends with (-1: unread)
        for path in paths:
            firsts.append(self._submit("read"))
            try:
                result = self._maybe_hostile("read", self._vfs.read(path))
                if not isinstance(result, VirtualFile):
                    raise SyscallError("kernel returned a non-file object for read")
            except SyscallError as exc:
                results.append(exc)
                ends.append(-1)
                continue
            iago.check_size_result(result.size)
            iago.check_read_result(result.size, result.content[: result.size + 1])
            results.append(result)
            ends.append(max(0, -(-result.size // IO_CHUNK) - 1))
        # The first pieces tell every file's size; the rest go out together:
        # piece by piece, every file's continuation, as one batch.
        waited = due = max(firsts)
        self._wait(waited)
        landing = [due]  # per piece: when it has landed in every file holding it
        if max(ends) > 0:
            widths = [sum(end >= index for end in ends) for index in range(1, max(ends) + 1)]
            continuations = iter(self._submit_batch("rw_continuation", sum(widths)))
            landing += [max(islice(continuations, width)) for width in widths]
        for index, lands in enumerate(landing):
            due = max(due, lands)
            if landed is None and index < len(landing) - 1:
                continue  # nobody works on a piece: wait for the last
            if due > waited:  # a wait hidden by other threads ends early
                self._wait(due)
                waited = due
            closing = 0  # the files read to their end
            for result, end in zip(results, ends):
                if end == index or (landed is None and end >= 0):
                    size = result.size
                    crossing = size
                    if enclave_bytes is not None and self._mode is SgxMode.HW:
                        crossing = min(enclave_bytes, len(result.content))
                    self._charge_copy(crossing)
                    self.stats.bytes_read += size
                    closing += 1
            self._post("close", closing, wake=False)
            if landed is not None:
                landed((index + 1) * IO_CHUNK)
        return results

    def open_files(self, paths: Sequence[str]) -> List[float]:
        """Submit every path's ``open`` as one batch, ahead of work the
        caller does before it writes them; returns their completions,
        for :meth:`write_files`' ``opened``."""
        return [self._submit("open", ahead=True) for _ in paths]

    def write_file(
        self,
        path: str,
        content: bytes,
        declared_size: Optional[int] = None,
        enclave_bytes: Optional[int] = None,
        opened: Optional[float] = None,
    ) -> VirtualFile:
        """Write a whole file (create or replace)."""
        return self.write_files(
            [path], content, declared_size, enclave_bytes,
            opened=None if opened is None else [opened],
        )[0]

    def write_files(
        self,
        paths: Sequence[str],
        content: bytes,
        declared_size: Optional[int] = None,
        enclave_bytes: Optional[int] = None,
        produce: Optional[Callable[[int], None]] = None,
        opened: Optional[List[float]] = None,
    ) -> List[VirtualFile]:
        """Write one payload to every path (the replicas of a shield
        extent).

        Every destination pays its own ``open`` — submitted together,
        first, unless :meth:`open_files` submitted them earlier and
        ``opened`` holds what it returned —, posted ``write`` +
        continuations and posted ``close``, and counts in
        ``bytes_written``.  The payload goes out in IO_CHUNK pieces:
        ``produce(stop)`` charges the making of its first ``stop`` bytes
        (the shield's seal) before the piece that ends there, whose calls
        are handed off as soon as it is made; without ``produce`` they are
        posted, lazily.  The payload is copied at most once, with the
        first destination, piece by piece, and only what the enclave
        holds of it: in HW mode that is ``enclave_bytes`` (default: all
        of it) — the rest is sealed output the file-system shield wrote
        straight into the host's buffer, where the host already holds
        it.  NATIVE and SIM copy the whole payload: there the copy is the
        kernel's user→kernel one, which no seal skips.

        Each destination's write count is checked: more than was handed
        over is an Iago attack (:class:`IagoError`), fewer is a failed
        write (:class:`ShortWriteError`) that leaves the destination as
        it was."""
        size = declared_size if declared_size is not None else len(content)
        crossing = size
        if self._mode is SgxMode.HW and enclave_bytes is not None:
            crossing = min(enclave_bytes, size)
        opens = [self._submit("open") for _ in paths] if opened is None else opened
        handing_off = produce is not None
        for index in range(max(1, -(-size // IO_CHUNK))):
            start, stop = index * IO_CHUNK, min((index + 1) * IO_CHUNK, size)
            if handing_off:
                produce(stop)
            if opens:
                self._wait(max(opens))
            opens = []
            if min(crossing, stop) > start:
                self._charge_copy(min(crossing, stop) - start)
            name = "rw_continuation" if index else "write"
            self._post(name, len(paths), wake=not handing_off)
        files: List[VirtualFile] = []
        for path in paths:
            self.stats.bytes_written += size
            previous = self._vfs.lookup(path)
            files.append(self._vfs.write(path, content, declared_size=declared_size))
            written = self._kernel_int("write", size, "write count")
            if iago.check_write_result(size, written) < size:
                self._vfs.reinstate(path, previous)
                raise ShortWriteError(
                    f"kernel wrote {written} of {size} bytes to {path!r}"
                )
        self._post("close", len(paths), wake=False)
        return files

    def stat(self, path: str) -> int:
        """Size of a file (simulated size)."""
        self._wait(self._submit("stat"))
        size = self._vfs.read(path).size
        return iago.check_size_result(self._kernel_int("stat", size, "stat size"))

    def exists(self, path: str) -> bool:
        self._wait(self._submit("stat"))
        return self._vfs.exists(path)

    def unlink(self, path: str) -> None:
        self._post("unlink")
        self._vfs.delete(path)

    def rename(self, src: str, dst: str) -> VirtualFile:
        """Atomically move ``src`` over ``dst`` (the commit primitive of
        the shield's journaled write protocol).  Result-bearing on the
        ring on purpose: the flush-then-wait makes every posted write
        durable before the commit point returns."""
        self._wait(self._submit("rename"))
        return self._vfs.rename(src, dst)

    def list_dir(self, prefix: str = "") -> List[str]:
        self._wait(self._submit("getdents"))
        paths = self._vfs.listdir(prefix)
        result = self._maybe_hostile("getdents", paths)
        if not isinstance(result, list):
            raise SyscallError("kernel returned a non-list directory listing")
        return iago.check_path_listing(prefix, result)

    def next_version(self, path: str) -> int:
        """The version the next write to ``path`` will get (0 if new)."""
        self._wait(self._submit("stat"))
        if not self._vfs.exists(path):
            return 0
        version = self._vfs.read(path).version + 1
        return iago.check_size_result(self._kernel_int("version", version, "version"))

    # ------------------------------------------------------------------
    # Socket operations (the network shield and RPC stack charge here)
    # ------------------------------------------------------------------

    def socket_send(self, n_bytes: int) -> None:
        """Charge transmitting ``n_bytes`` on a socket (posted: the
        kernel drains the buffer on a handler thread)."""
        self._post("sendmsg")
        if n_bytes > IO_CHUNK:  # the rest leaves in continuations
            self._post("rw_continuation", -(-n_bytes // IO_CHUNK) - 1)
        self._charge_copy(n_bytes)
        self.stats.bytes_sent += n_bytes

    def socket_recv(self, n_bytes: int) -> None:
        """Charge receiving ``n_bytes`` from a socket (result-bearing:
        the caller needs the payload)."""
        self._wait(self._submit("recvmsg"))
        if n_bytes > IO_CHUNK:  # the rest arrives in continuations, one batch
            continuations = -(-n_bytes // IO_CHUNK) - 1
            self._wait(max(self._submit_batch("rw_continuation", continuations)))
        self._charge_copy(n_bytes)
        self.stats.bytes_received += n_bytes

    def nop_syscall(self, name: str = "nop") -> None:
        """A syscall with no semantic effect (cost-model microbenchmarks)."""
        self._wait(self._submit(name))
