"""The exit-less syscall plane: SCONE's submission/completion ring.

SCONE's core performance mechanism (§3.3.3, SCONE OSDI'16) is that an
enclave thread never exits for a system call: it writes a request
descriptor into a shared-memory *submission ring*, OS-side handler
threads service the requests, and completions come back through a
completion queue while the user-level scheduler runs another
application thread.  Earlier revisions of this reproduction modelled
the net effect with two analytic constants (a flat userspace-handled
fraction and a fixed kernel-overlap factor); this module replaces them
with the mechanism itself:

- a **bounded ring** of ``ring_depth`` slots — submissions stall
  (backpressure) when all slots hold in-flight requests;
- **N handler threads** outside the enclave, each a timeline of when it
  next becomes free; a request is served by the earliest-free handler,
  so kernel service time queues mechanistically under load;
- **sleep/wake**: a handler idle longer than ``handler_spin_time``
  parks on a futex, and the next submission pays a *real* enclave
  transition to wake it — the exit-less path only wins while traffic
  keeps handlers spinning;
- **batched submission** for fire-and-forget calls (writes, closes,
  unlinks, sends): requests buffer and flush together — on batch
  overflow, before any result-bearing call, and when the scheduler
  blocks;
- **synchronous fallback**: when every handler is busy far enough into
  the future that a classic synchronous transition would be faster
  (handler starvation), the call takes the old-fashioned exit instead;
- **occupancy-derived overlap**: the wait for a completion is handed to
  the :class:`~repro.runtime.threading_ul.UserLevelScheduler`, which
  hides the fraction of it that other *runnable* application threads
  can fill — the overlap now emerges from scheduler occupancy instead
  of a constant.

Userspace-served calls (futexes, clock reads, memory management) are
dispatched by a per-syscall-name table, as in the real runtime, and
never touch the ring.

All state is plain floats and lists mutated in program order — no RNG,
no wall clock — so two identical runs produce byte-identical
:class:`~repro.runtime.syscall.SyscallStats` (the chaos/crash replay
suites of PRs 2 and 3 depend on this).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro._sim import probe
from repro._sim.clock import SimClock
from repro.enclave.cost_model import CostModel
from repro.enclave.sgx import Enclave
from repro.errors import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.runtime.syscall import SyscallStats
    from repro.runtime.threading_ul import UserLevelScheduler


#: Syscalls the SCONE runtime serves entirely inside the enclave,
#: mapped to their cost as a multiple of one user-level context switch.
#: (futexes between application threads, clock reads off the mapped
#: vDSO page, and heap management against the preallocated enclave
#: heap never need the kernel.)
USERSPACE_SYSCALLS: Dict[str, float] = {
    "futex": 1.0,
    "clock_gettime": 0.4,
    "gettimeofday": 0.4,
    "time": 0.3,
    "getpid": 0.3,
    "gettid": 0.3,
    "sched_yield": 1.0,
    "brk": 1.2,
    "mmap": 1.6,
    "munmap": 1.4,
    "madvise": 1.0,
    "nanosleep": 1.2,
    "sigprocmask": 0.5,
}


@dataclass(frozen=True)
class SyscallPlaneConfig:
    """Shape of one enclave's submission/completion ring."""

    #: Slots in the submission ring (in-flight request ceiling).
    ring_depth: int = 64
    #: OS-side syscall handler threads serving the ring.
    handler_threads: int = 2
    #: Fire-and-forget requests buffered before a forced flush.
    batch_max: int = 32

    def __post_init__(self) -> None:
        if self.ring_depth < 1:
            raise ConfigurationError(
                f"ring depth must be positive: {self.ring_depth}"
            )
        if self.handler_threads < 0:
            raise ConfigurationError(
                f"handler thread count cannot be negative: {self.handler_threads}"
            )
        if self.batch_max < 1:
            raise ConfigurationError(
                f"batch size must be positive: {self.batch_max}"
            )


class SyscallPlane:
    """Per-enclave submission/completion ring shared by every shield.

    The plane mutates the owning interface's
    :class:`~repro.runtime.syscall.SyscallStats` in place, so ring
    counters appear next to the per-call counters consumers already
    read.  ``enclave`` is optional: SIM mode runs the same runtime and
    the same ring outside SGX (no transition charges on wake-ups).
    """

    def __init__(
        self,
        cost_model: CostModel,
        clock: SimClock,
        stats: "SyscallStats",
        enclave: Optional[Enclave] = None,
        config: Optional[SyscallPlaneConfig] = None,
    ) -> None:
        self._model = cost_model
        self._clock = clock
        self.stats = stats
        self._enclave = enclave
        self.config = config or SyscallPlaneConfig()
        #: When each handler thread next becomes free (absolute time).
        self._handlers: List[float] = [0.0] * self.config.handler_threads
        #: Completion times of requests still occupying ring slots.
        self._inflight: List[float] = []
        #: Buffered fire-and-forget requests: (name, kernel_cost).
        self._pending: List[Tuple[str, float]] = []
        self._scheduler: Optional["UserLevelScheduler"] = None

    def attach_scheduler(self, scheduler: "UserLevelScheduler") -> None:
        """Wire the scheduler whose runnable-thread occupancy hides
        completion waits (and whose ``block()`` flushes the batch)."""
        self._scheduler = scheduler

    # ------------------------------------------------------------------
    # Ring mechanics
    # ------------------------------------------------------------------

    def occupancy(self) -> int:
        """Ring slots currently held by in-flight requests."""
        self._reap()
        return len(self._inflight)

    def _reap(self) -> None:
        now = self._clock.now
        while self._inflight and self._inflight[0] <= now:
            heapq.heappop(self._inflight)
            self.stats.ring_completions += 1

    def _acquire_slot(self) -> None:
        """Stall (full, unhidden) until the ring has a free slot."""
        self._reap()
        while len(self._inflight) >= self.config.ring_depth:
            target = self._inflight[0]
            stall = target - self._clock.now
            if stall > 0:
                self.stats.backpressure_stalls += 1
                self.stats.backpressure_time += stall
                self._clock.advance_to(target)
                if probe.ACTIVE is not None:
                    probe.ACTIVE.charge(self._clock, "backpressure", stall)
            self._reap()

    def _sync_exit_cost(self) -> float:
        """What a classic synchronous call costs instead of the ring."""
        if self._enclave is not None:
            return self._model.sync_transition_cost
        return self._model.syscall_trap_cost

    def _charge_sync_exit(self, kernel_cost: float) -> None:
        self.stats.sync_fallbacks += 1
        before = self._clock.now
        if self._enclave is not None:
            self.stats.transitions += 1
            self._enclave.cpu.transition(asynchronous=False)
        else:
            self._clock.advance(self._model.syscall_trap_cost)
        self._clock.advance(kernel_cost)
        if probe.ACTIVE is not None:
            probe.ACTIVE.charge(self._clock, "syscall_ring", self._clock.now - before)

    def _starved(self) -> bool:
        """True when the ring cannot win: every handler is busy further
        into the future than a synchronous exit costs (the kernel service
        time is paid on both paths)."""
        if not self._handlers:
            return True
        earliest = min(self._handlers)
        return earliest - self._clock.now > self._sync_exit_cost()

    def _submit_one(self, name: str, kernel_cost: float) -> float:
        """Write one request into the ring; returns its completion time."""
        self._acquire_slot()
        before = self._clock.now  # after the slot wait: stalls are backpressure
        if self._enclave is not None:
            self._enclave.cpu.ring_submit(1)
        else:
            self._clock.advance(self._model.ring_slot_cost)
        self.stats.ring_submissions += 1

        now = self._clock.now
        index = min(range(len(self._handlers)), key=self._handlers.__getitem__)
        free_at = self._handlers[index]
        if now - free_at > self._model.handler_spin_time:
            # The handler spun down and parked on a futex; waking it is a
            # real kernel visit — an enclave exit in HW mode.
            self.stats.handler_wakeups += 1
            if self._enclave is not None:
                self.stats.transitions += 1
                self._enclave.cpu.transition(asynchronous=False)
            else:
                self._clock.advance(
                    self._model.syscall_trap_cost + self._model.syscall_kernel_cost
                )
            now = self._clock.now
        if probe.ACTIVE is not None and now > before:
            probe.ACTIVE.charge(self._clock, "syscall_ring", now - before)
        completion = max(now, free_at) + kernel_cost
        self._handlers[index] = completion
        heapq.heappush(self._inflight, completion)
        if len(self._inflight) > self.stats.ring_occupancy_peak:
            self.stats.ring_occupancy_peak = len(self._inflight)
        return completion

    def _wait_for(self, completion: float) -> None:
        """Wait for a completion, hiding what runnable threads cover."""
        wait = completion - self._clock.now
        if wait > 0:
            before = self._clock.now
            if self._scheduler is not None:
                exposed, hidden = self._scheduler.hide_wait(wait)
            else:
                self._clock.advance(wait)
                exposed, hidden = wait, 0.0
            self.stats.overlap_exposed_time += exposed
            self.stats.overlap_hidden_time += hidden
            if probe.ACTIVE is not None and self._clock.now > before:
                # Only the exposed share advanced the clock; hidden time
                # ran other application threads and stays compute.
                probe.ACTIVE.charge(
                    self._clock, "syscall_ring", self._clock.now - before
                )
        self._reap()

    # ------------------------------------------------------------------
    # The three entry points the syscall interface uses
    # ------------------------------------------------------------------

    def _userspace(self, name: str) -> bool:
        factor = USERSPACE_SYSCALLS.get(name)
        if factor is None:
            return False
        self.stats.userspace_handled += 1
        duration = self._model.userlevel_switch_cost * factor
        self._clock.advance(duration)
        if probe.ACTIVE is not None:
            probe.ACTIVE.charge(self._clock, "syscall_ring", duration)
        return True

    def call(self, name: str, kernel_cost: Optional[float] = None) -> None:
        """One result-bearing syscall: submit, then wait for completion."""
        if self._userspace(name):
            return
        cost = kernel_cost if kernel_cost is not None else self._model.syscall_kernel_cost
        self.flush()
        if self._starved():
            self._charge_sync_exit(cost)
            return
        self._wait_for(self._submit_one(name, cost))

    def call_batch(
        self, name: str, count: int, kernel_cost: Optional[float] = None
    ) -> None:
        """``count`` parallel result-bearing requests (multi-chunk reads):
        all submitted before waiting, serviced across all handlers, the
        caller blocks only on the last completion."""
        if count <= 0:
            return
        cost = kernel_cost if kernel_cost is not None else self._model.syscall_kernel_cost
        self.flush()
        self.stats.batches += 1
        if count > self.stats.max_batch:
            self.stats.max_batch = count
        last = 0.0
        for _ in range(count):
            if self._starved():
                self._charge_sync_exit(cost)
                continue
            last = max(last, self._submit_one(name, cost))
        if last > 0.0:
            self._wait_for(last)

    def post(self, name: str, kernel_cost: Optional[float] = None) -> None:
        """One fire-and-forget syscall: buffered, submitted at the next
        flush, never waited on (its kernel time runs entirely on a
        handler thread)."""
        if self._userspace(name):
            return
        cost = kernel_cost if kernel_cost is not None else self._model.syscall_kernel_cost
        if not self._handlers:
            # Nobody will ever serve the ring: take the classic exit now.
            self._charge_sync_exit(cost)
            return
        self._pending.append((name, cost))
        if len(self._pending) >= self.config.batch_max:
            self.flush()

    def flush(self, on_block: bool = False) -> None:
        """Submit every buffered fire-and-forget request."""
        if not self._pending:
            return
        pending, self._pending = self._pending, []
        self.stats.batches += 1
        if len(pending) > self.stats.max_batch:
            self.stats.max_batch = len(pending)
        if on_block:
            self.stats.flushes_on_block += 1
        for name, cost in pending:
            self._submit_one(name, cost)
