"""The exit-less syscall plane: SCONE's submission/completion ring.

SCONE's core performance mechanism (§3.3.3, SCONE OSDI'16) is that an
enclave thread never exits for a system call: it writes a request
descriptor into a shared-memory *submission ring*, OS-side handler
threads service the requests, and completions come back through a
completion queue while the user-level scheduler runs another
application thread.  This module models the mechanism itself:

- a **bounded ring** of ``ring_depth`` slots — submissions stall
  (backpressure) when all slots hold in-flight requests;
- **N handler threads**, each a timeline of when it next becomes free;
  the earliest-free one serves a request, so kernel service time queues
  mechanistically under load;
- **sleep/wake**: a handler idle longer than ``handler_spin_time``
  parks on a futex, and waking it costs a *real* enclave transition —
  the exit-less path only wins while traffic keeps handlers spinning —
  so a request goes to an awake handler instead, unless that one has
  been busy back to back for longer than a wake costs;
- **two verbs**: :meth:`~SyscallPlane.submit` returns a completion, and
  the caller waits on it (:meth:`~SyscallPlane.wait`) once it needs the
  result, so its own work (a seal, a decrypt) hides the kernel's;
  :meth:`~SyscallPlane.post` is a fire-and-forget call (writes, closes,
  unlinks, sends).  Posted calls buffer and flush together — on batch
  overflow, before any result-bearing call, and when the scheduler
  blocks; a hand-off (``flush(wake=False)``) goes out only while a
  handler is awake;
- **synchronous fallback**: when every handler is busy further ahead
  than a classic synchronous transition costs, the call takes it;
- **occupancy-derived overlap**: a completion wait is handed to the
  :class:`~repro.runtime.threading_ul.UserLevelScheduler`, which hides
  the share other *runnable* application threads can fill.

Userspace-served calls (futexes, clock reads, memory management) are
dispatched by a per-syscall-name table, as in the real runtime, and
never touch the ring.  Off the ring — NATIVE, or HW with asynchronous
syscalls off — a :class:`TrapPlane` speaks the same verbs: every call
traps (or exits the enclave) whole where it is made.

All state is plain floats and lists mutated in program order — no RNG,
no wall clock — so two identical runs produce byte-identical
:class:`~repro.runtime.syscall.SyscallStats` (the chaos/crash replay
suites depend on this).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional

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
        #: When each handler's current run of back-to-back requests began.
        self._busy_since: List[float] = [0.0] * self.config.handler_threads
        #: Completion times of requests still occupying ring slots.
        self._inflight: List[float] = []
        #: Names of the buffered fire-and-forget requests.
        self._pending: List[str] = []
        self._scheduler: Optional["UserLevelScheduler"] = None
        #: What a classic synchronous call costs instead of the ring.
        self._sync_exit_cost = (
            cost_model.sync_transition_cost if enclave is not None
            else cost_model.syscall_trap_cost
        )
        #: What waking a parked handler costs the caller: an enclave exit
        #: in HW, a trap and the futex call outside SGX.
        self._wake_cost = (
            cost_model.sync_transition_cost if enclave is not None
            else cost_model.syscall_trap_cost + cost_model.syscall_kernel_cost
        )

    def attach_scheduler(self, scheduler: "UserLevelScheduler") -> None:
        """Wire the scheduler whose runnable-thread occupancy hides
        completion waits (and whose ``block()`` flushes the batch)."""
        self._scheduler = scheduler

    # ------------------------------------------------------------------
    # Ring mechanics
    # ------------------------------------------------------------------

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
                if probe.SINK is not None:
                    probe.SINK.charge(self._clock, "backpressure", stall)
            self._reap()

    def _charge_sync_exit(self) -> None:
        self.stats.sync_fallbacks += 1
        before = self._clock.now
        if self._enclave is not None:
            self.stats.transitions += 1
            self._enclave.cpu.transition(asynchronous=False)
        else:
            self._clock.advance(self._model.syscall_trap_cost)
        self._clock.advance(self._model.syscall_kernel_cost)
        if probe.SINK is not None:
            probe.SINK.charge(self._clock, "syscall_ring", self._clock.now - before)

    def _starved(self) -> bool:
        """True when the ring cannot win: every handler is busy further
        into the future than a synchronous exit costs (the kernel service
        time is paid on both paths)."""
        return min(self._handlers) - self._clock.now > self._sync_exit_cost

    def _submit_one(self, name: str, wake: bool = True) -> float:
        """Write request ``name`` into the ring; returns its completion time.

        The request goes to the earliest-free handler.  When that one
        has parked, the awake handler (busy, or spinning within
        ``handler_spin_time``) that serves it first takes it instead,
        unless that handler has been busy without a break for longer
        than a wake-up costs the caller by the time it is free (the
        queue a second handler would drain: traffic one handler does not
        keep up with); then the parked one is woken.  With ``wake``
        false nothing is woken (the caller checked one is awake)."""
        self._acquire_slot()
        before = self._clock.now  # after the slot wait: stalls are backpressure
        if self._enclave is not None:
            self._enclave.cpu.ring_submit(1)
        else:
            self._clock.advance(self._model.ring_slot_cost)
        self.stats.ring_submissions += 1

        now = self._clock.now
        handlers = self._handlers
        free_at = min(handlers)
        index = handlers.index(free_at)
        spin = self._model.handler_spin_time
        if now - free_at > spin:  # parked: the first awake one, if any
            parked = index
            for other, free_at in enumerate(handlers):
                if now - free_at <= spin and (index == parked or free_at < handlers[index]):
                    index = other
            busy_run = handlers[index] - self._busy_since[index]
            if wake and index != parked and busy_run > self._wake_cost:
                index = parked  # the awake one does not keep up: wake another
            if wake and index == parked:
                # The handler spun down and parked on a futex; waking it
                # is a real kernel visit — an enclave exit in HW mode.
                self.stats.handler_wakeups += 1
                if self._enclave is not None:
                    self.stats.transitions += 1
                    self._enclave.cpu.transition(asynchronous=False)
                else:
                    self._clock.advance(self._wake_cost)
                now = self._clock.now
            free_at = handlers[index]
        if free_at < now:
            self._busy_since[index] = now
        if probe.SINK is not None and now > before:
            probe.SINK.charge(self._clock, "syscall_ring", now - before)
        completion = max(now, free_at) + self._model.syscall_kernel_cost
        handlers[index] = completion
        heapq.heappush(self._inflight, completion)
        if len(self._inflight) > self.stats.ring_occupancy_peak:
            self.stats.ring_occupancy_peak = len(self._inflight)
        return completion

    # ------------------------------------------------------------------
    # The entry points the syscall interface uses
    # ------------------------------------------------------------------

    def _userspace(self, name: str) -> bool:
        factor = USERSPACE_SYSCALLS.get(name)
        if factor is None:
            return False
        self.stats.userspace_handled += 1
        duration = self._model.userlevel_switch_cost * factor
        self._clock.advance(duration)
        if probe.SINK is not None:
            probe.SINK.charge(self._clock, "syscall_ring", duration)
        return True

    def submit(self, name: str, ahead: bool = False) -> float:
        """Submit one result-bearing syscall and return when it completes:
        the caller works on until it needs the result, then calls
        :meth:`wait`.  The buffered batch goes first.  A userspace-served
        call and a synchronous fallback are done on return.  A request
        submitted ``ahead`` of work the caller does before it waits
        queues behind busy handlers: a synchronous exit only pays when
        the caller would wait at once."""
        if name in USERSPACE_SYSCALLS and self._userspace(name):
            return self._clock.now
        if self._pending:
            self.flush()
        if not self._handlers or (not ahead and self._starved()):
            self._charge_sync_exit()
            return self._clock.now
        return self._submit_one(name)

    def wait(self, completion: float) -> None:
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
            if probe.SINK is not None and self._clock.now > before:
                # Only the exposed share advanced the clock; hidden time
                # ran other application threads and stays compute.
                probe.SINK.charge(
                    self._clock, "syscall_ring", self._clock.now - before
                )
        self._reap()

    def post(self, name: str, wake: bool = True) -> None:
        """One fire-and-forget syscall: buffered, submitted at the next
        flush, never waited on (its kernel time runs entirely on a
        handler thread).  A full batch flushes, waking a handler only
        with ``wake``."""
        if name in USERSPACE_SYSCALLS and self._userspace(name):
            return
        if not self._handlers:
            # Nobody will ever serve the ring: take the classic exit now.
            self._charge_sync_exit()
            return
        self._pending.append(name)
        if len(self._pending) >= self.config.batch_max:
            self.flush(wake=wake)

    def flush(self, on_block: bool = False, wake: bool = True) -> None:
        """Submit every buffered fire-and-forget request.  With ``wake``
        false they go only to a handler already awake, and stay buffered
        for the next flush while every handler is parked: a hand-off in
        the middle of a computation never pays an enclave exit."""
        if not self._pending:
            return
        if not wake and (
            self._clock.now - max(self._handlers) > self._model.handler_spin_time
        ):
            return  # every handler is parked
        pending, self._pending = self._pending, []
        self.count_batch(len(pending))
        if on_block:
            self.stats.flushes_on_block += 1
        for name in pending:
            self._submit_one(name, wake)

    def count_batch(self, size: int) -> None:
        """Count ``size`` requests that went out together as one batch."""
        self.stats.batches += 1
        if size > self.stats.max_batch:
            self.stats.max_batch = size


class TrapPlane:
    """Off the ring (NATIVE, or HW with asynchronous syscalls off): the
    ring's verbs, but every call is paid whole where it is made — a trap
    and the kernel's service time, or in HW a synchronous enclave exit
    and the kernel's — so a completion has passed when :meth:`submit`
    returns it, a post is a submit, no ring counter moves and no call is
    served in userspace."""

    def __init__(
        self, cost_model: CostModel, clock: SimClock, stats: "SyscallStats",
        enclave: Optional[Enclave] = None,
    ) -> None:
        self._model, self._clock, self._enclave = cost_model, clock, enclave
        self.stats = stats

    def submit(self, name: str, ahead: bool = False) -> float:
        model = self._model
        before = self._clock.now
        if self._enclave is None:
            self._clock.advance(model.syscall_trap_cost + model.syscall_kernel_cost)
        else:
            self.stats.transitions += 1
            self._enclave.cpu.transition(asynchronous=False)
            self._clock.advance(model.syscall_kernel_cost)
        if probe.SINK is not None:
            probe.SINK.charge(self._clock, "syscall_ring", self._clock.now - before)
        return self._clock.now

    def post(self, name: str, wake: bool = True) -> None:
        self.submit(name)

    def _nothing(self, *args: object, **kwargs: object) -> None:
        """Off the ring nothing is hidden, waited for, flushed or batched."""

    attach_scheduler = wait = flush = count_batch = _nothing
