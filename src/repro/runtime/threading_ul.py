"""User-level threading (SCONE's in-enclave scheduler).

Enclave transitions are costly, so SCONE multiplexes M application
threads onto N OS threads *inside* the enclave: when an application
thread blocks, the in-enclave scheduler switches to another application
thread instead of exiting to the kernel (§3.3.3).  Consequences modelled
here:

- a blocking event costs a cheap user-level switch instead of an OS
  context switch (plus, in HW mode, the transition that the OS switch
  would imply);
- full CPU utilization needs no more OS threads than cores;
- parallel compute throughput follows the cost model's core/hyperthread
  yield curve.

The scheduler exposes :meth:`parallel_duration`, which the execution
engine uses to turn "X seconds of single-thread work" into elapsed time
on ``n`` threads, :meth:`block`, which charges one blocking event, and
:attr:`idle_threads`, the enclave threads the file-system shield can
spread a file's chunks over (and the execution engine page weights in
on) without raising :attr:`runnable`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro._sim.clock import SimClock
from repro.enclave.cost_model import CostModel
from repro.enclave.sgx import Enclave, SgxMode
from typing import Optional

from repro.errors import ConfigurationError


class ThreadingModel(enum.Enum):
    """OS threading (native baseline) vs SCONE user-level threading."""

    OS = "os"
    USER_LEVEL = "user-level"


@dataclass
class SchedulerStats:
    blocks: int = 0
    switches: int = 0
    switch_time: float = 0.0
    #: Async-completion wait time hidden by running other app threads.
    hidden_time: float = 0.0


class UserLevelScheduler:
    """Charges scheduling costs and computes parallel elapsed time."""

    def __init__(
        self,
        cost_model: CostModel,
        clock: SimClock,
        mode: SgxMode = SgxMode.NATIVE,
        threading_model: ThreadingModel = ThreadingModel.USER_LEVEL,
        enclave: Optional[Enclave] = None,
    ) -> None:
        if mode is SgxMode.HW and threading_model is ThreadingModel.OS and enclave is None:
            raise ConfigurationError(
                "OS threading in HW mode needs an enclave to charge transitions"
            )
        self._model = cost_model
        self._clock = clock
        self._mode = mode
        self._threading_model = threading_model
        self._enclave = enclave
        self.stats = SchedulerStats()
        #: Runnable application threads right now (occupancy).  The
        #: syscall plane reads this to decide how much of an async
        #: completion wait other threads can hide.
        self._runnable = 1
        self._plane = None

    @property
    def threading_model(self) -> ThreadingModel:
        return self._threading_model

    @property
    def runnable(self) -> int:
        return self._runnable

    @property
    def idle_threads(self) -> int:
        """Threads free to take a helper task now: the enclave's measured
        ``max_threads`` less the runnable application threads, plus the
        calling thread itself.  One outside an enclave."""
        if self._enclave is None:
            return 1
        return max(1, self._enclave.image.max_threads - self._runnable + 1)

    def set_runnable(self, threads: int) -> None:
        """Declare how many application threads are currently runnable."""
        if threads < 1:
            raise ConfigurationError(
                f"runnable thread count must be positive: {threads}"
            )
        self._runnable = threads

    def attach_plane(self, plane) -> None:
        """Wire the syscall plane whose batch :meth:`block` must flush."""
        self._plane = plane

    def hide_wait(self, duration: float) -> "tuple[float, float]":
        """Wait ``duration`` for an async completion, hiding the share
        other runnable threads can fill.

        With ``R`` runnable threads, the blocked thread's slot is one of
        ``R``, so a fraction ``(R - 1) / R`` of the wait overlaps other
        threads' work; switching away costs one user-level switch.
        Returns ``(exposed_charged, hidden)``.  OS threading (or a lone
        runnable thread) hides nothing — the wait is fully exposed.
        """
        if duration <= 0:
            return 0.0, 0.0
        extra = self._runnable - 1
        if self._threading_model is not ThreadingModel.USER_LEVEL or extra <= 0:
            self._clock.advance(duration)
            return duration, 0.0
        hidden = duration * (extra / (extra + 1.0))
        switch = self._model.userlevel_switch_cost
        if hidden <= switch:
            # Switching away costs more than it hides: just spin.
            self._clock.advance(duration)
            return duration, 0.0
        hidden -= switch
        exposed = duration - hidden
        self.stats.switches += 1
        self.stats.switch_time += switch
        self.stats.hidden_time += hidden
        self._clock.advance(exposed)
        return exposed, hidden

    def block(self) -> None:
        """One application thread blocked (I/O wait, lock, queue)."""
        if self._plane is not None:
            # The blocking thread's buffered fire-and-forget syscalls
            # must reach the ring before the scheduler switches away.
            self._plane.flush(on_block=True)
        self.stats.blocks += 1
        self.stats.switches += 1
        before = self._clock.now
        if self._threading_model is ThreadingModel.USER_LEVEL:
            self._clock.advance(self._model.userlevel_switch_cost)
        else:
            self._clock.advance(self._model.os_switch_cost)
            if self._mode is SgxMode.HW and self._enclave is not None:
                # An OS-level switch exits and re-enters the enclave.
                self._enclave.cpu.transition(asynchronous=False)
        self.stats.switch_time += self._clock.now - before

    def parallel_duration(self, single_thread_seconds: float, threads: int) -> float:
        """Elapsed time for work that takes ``single_thread_seconds`` on
        one thread when spread over ``threads`` application threads."""
        if single_thread_seconds < 0:
            raise ConfigurationError(
                f"negative work duration: {single_thread_seconds}"
            )
        speedup = self._model.effective_parallel_speedup(threads)
        return single_thread_seconds / speedup

    def run_parallel(self, single_thread_seconds: float, threads: int) -> float:
        """Charge the clock for a parallel region; returns elapsed time."""
        elapsed = self.parallel_duration(single_thread_seconds, threads)
        # The region's thread pool stays runnable afterwards (sticky):
        # syscall waits issued between regions overlap with it.
        self._runnable = max(threads, 1)
        self._clock.advance(elapsed)
        return elapsed
