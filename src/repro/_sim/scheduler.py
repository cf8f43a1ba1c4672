"""The global event-heap scheduler: one clock lattice for whole fleets.

Concurrent actors interleave on a single global **event heap**, never
by Python call nesting, so a fleet of N nodes costs O(events · log
events) however deeply its RPCs nest:

- :class:`Event` — a callback keyed by ``(time, seq)``.  ``time`` is
  absolute simulated seconds on the shared timeline all per-node
  clocks advance through; ``seq`` is a monotone sequence number
  assigned at scheduling, so ties break by *scheduling order* and every
  run is deterministic per seed (no dict-order or identity ordering
  anywhere).
- :class:`Completion` — the park/resume handle.  There is one way to
  wait inside the simulation: an *activity* (a generator) ``yield``\\ s
  the completion, holding no Python stack while it is parked — the way
  SCONE's user-level threads park on an asynchronous system call
  instead of blocking the enclave thread.
- :class:`Scheduler` — the heap plus activity support.  Network
  deliveries and fault-plan delay spikes are scheduled events; retry
  backoffs and the control plane's ticks (watchdog, autoscaler, SLO
  monitor) are activities asleep on :meth:`Scheduler.timer`.

Synchronous code *outside* the heap (a test, an example, a top-level
``train()`` or ``run_traffic()``) enters it through :meth:`Scheduler.drive`
(run an activity to its end) or :meth:`Scheduler.run_until` (wait for
one completion).  Both refuse to nest: called while an event executes
they raise :class:`SchedulerError`, because a wait there would drain the
heap on the caller's stack — other actors' events running inside this
one's.  Code that runs inside an event waits by ``yield``.

Per-node :class:`SimClock`\\ s remain the *views* components charge time
to: an event executes "on" some node by advancing that node's clock to
(at least) the event's timestamp — probe hooks, layer charges, and clock
subscriptions fire as the clock moves.  The scheduler never moves a
clock backwards; a callee whose clock is already past an arrival simply
handles the event late (a saturated callee delays its callers).

One program-wide "now": :attr:`Scheduler.now` is the time of the event
being executed (``None`` outside the heap).  A timer's wake-up, a
router's hedge and a tick-ordered container launch read it instead of
having it threaded through.

Determinism contract: with a fixed seed, the sequence of executed
events — and therefore every RNG draw, trace byte, and final weight —
is identical run to run, because (a) heap order is a pure function of
(time, seq), (b) seq is assigned in program order, and (c) nothing in
the scheduler consults wall-clock time or iteration order of unordered
containers.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Callable, Generator, List, Optional, Tuple

from repro._sim.clock import SimClock
from repro.errors import ReproError


class SchedulerError(ReproError):
    """The event core reached an impossible state (deadlock, misuse)."""


class Event:
    """One scheduled callback, ordered by ``(time, seq)``.

    Cancellation is lazy: a cancelled event stays in the heap and is
    skipped (without counting as processed) when it surfaces.
    """

    __slots__ = ("time", "seq", "fn", "label", "cancelled", "owner")

    def __init__(self, time: float, seq: int, fn: Callable[[], None], label: str) -> None:
        self.time = time
        self.seq = seq
        self.fn = fn
        self.label = label
        self.cancelled = False
        #: Back-reference to the owning scheduler, used only to count
        #: cancellations; dropped at cancel time with the payload.
        self.owner: Optional["Scheduler"] = None

    def cancel(self) -> None:
        if self.cancelled:
            return
        self.cancelled = True
        self.fn = _noop  # drop references early (payloads can be large)
        if self.owner is not None:
            self.owner.events_cancelled += 1
            self.owner = None

    def __lt__(self, other: "Event") -> bool:
        return (self.time, self.seq) < (other.time, other.seq)

    def __repr__(self) -> str:
        state = " cancelled" if self.cancelled else ""
        return f"Event({self.label!r}, t={self.time:.6f}, seq={self.seq}{state})"


def _noop() -> None:
    return None


class Completion:
    """A one-shot future on the scheduler: the park/resume handle.

    Exactly one of :meth:`resolve` / :meth:`fail` may be called, once.
    Waiters (activity resume thunks) run immediately in the resolver's
    context — resumption order is therefore the deterministic order in
    which waiters were attached.
    """

    __slots__ = ("label", "done", "value", "error", "_waiters")

    def __init__(self, label: str = "") -> None:
        self.label = label
        self.done = False
        self.value: Any = None
        self.error: Optional[BaseException] = None
        self._waiters: List[Callable[["Completion"], None]] = []

    def resolve(self, value: Any = None) -> None:
        self._finish(value, None)

    def fail(self, error: BaseException) -> None:
        self._finish(None, error)

    def _finish(self, value: Any, error: Optional[BaseException]) -> None:
        if self.done:
            raise SchedulerError(f"completion {self.label!r} resolved twice")
        self.done = True
        self.value = value
        self.error = error
        waiters, self._waiters = self._waiters, []
        for waiter in waiters:
            waiter(self)

    def add_waiter(self, waiter: Callable[["Completion"], None]) -> None:
        """Run ``waiter(self)`` on resolution (immediately if done)."""
        if self.done:
            waiter(self)
        else:
            self._waiters.append(waiter)

    def result(self) -> Any:
        if not self.done:
            raise SchedulerError(f"completion {self.label!r} is still pending")
        if self.error is not None:
            raise self.error
        return self.value

    def __repr__(self) -> str:
        state = "done" if self.done else "pending"
        return f"Completion({self.label!r}, {state})"


#: An activity: a generator that yields Completions (park points) and
#: receives each completion's value back at resume.
Activity = Generator[Completion, Any, Any]


class Scheduler:
    """A binary heap of events keyed by ``(timestamp, seq)``.

    One scheduler per simulation (the :class:`~repro.cluster.network
    .Network` owns one; independent simulations coexist by owning
    separate schedulers, exactly like independent clocks).
    """

    def __init__(self) -> None:
        #: Heap entries are ``(time, seq, event)`` tuples, not bare
        #: events: sift comparisons stay in C (seq is unique, so the
        #: event itself is never compared) — at fleet scale the heap
        #: does hundreds of thousands of comparisons per second.
        self._heap: List[Tuple[float, int, Event]] = []
        self._seq = itertools.count()
        self._clocks: List[SimClock] = []
        #: Events executed (cancelled pops excluded) — the bench's
        #: simulated-events/s numerator.
        self.events_processed = 0
        #: Events ever scheduled (cancellations included).
        self.events_scheduled = 0
        #: Events cancelled before firing (lazy deletions counted at
        #: ``Event.cancel`` time, not at pop time).
        self.events_cancelled = 0
        #: High-water mark of heap occupancy (cancelled entries count
        #: until they surface — they still cost heap comparisons).
        self.heap_peak = 0
        #: Live activities spawned and not yet finished.
        self.activities_running = 0
        #: Activities currently parked on an unresolved Completion.
        self.activities_parked = 0
        #: True while an event's callback runs: the waits of synchronous
        #: code (run_until, drive) refuse to start then.
        self._executing = False
        self._now: Optional[float] = None

    # -- clock views -----------------------------------------------------

    def register_clock(self, clock: SimClock) -> None:
        """Track ``clock`` as a per-node view onto this timeline."""
        if clock not in self._clocks:
            self._clocks.append(clock)

    @property
    def clocks(self) -> List[SimClock]:
        return list(self._clocks)

    @property
    def now(self) -> Optional[float]:
        """The time of the event being executed; ``None`` outside the heap."""
        return self._now

    def fleet_time(self) -> float:
        """Max simulated time across all registered per-node clocks."""
        return max((c.now for c in self._clocks), default=0.0)

    # -- scheduling ------------------------------------------------------

    def schedule(self, when: float, fn: Callable[[], None], label: str = "") -> Event:
        """Schedule ``fn`` at absolute simulated time ``when``."""
        if when < 0:
            raise SchedulerError(f"cannot schedule in negative time: {when}")
        event = Event(float(when), next(self._seq), fn, label)
        event.owner = self
        heapq.heappush(self._heap, (event.time, event.seq, event))
        self.events_scheduled += 1
        if len(self._heap) > self.heap_peak:
            self.heap_peak = len(self._heap)
        return event

    def timer(
        self, clock: Optional[SimClock], when: float, label: str = "timer"
    ) -> Completion:
        """A completion that resolves with its fire time at absolute
        simulated time ``when``, advancing ``clock`` (if any) to it first
        (observers see the advance)."""
        completion = Completion(label)

        def fire() -> None:
            if clock is not None:
                clock.advance_to(self._now)
            completion.resolve(self._now)

        self.schedule(when, fire, label)
        return completion

    def pending(self) -> int:
        """Live (non-cancelled) events still in the heap."""
        return sum(1 for _, _, e in self._heap if not e.cancelled)

    @property
    def heap_size(self) -> int:
        """Current heap occupancy, cancelled entries included (what the
        heap actually pays comparisons for)."""
        return len(self._heap)

    # -- execution -------------------------------------------------------

    def run(self, until: Optional[float] = None) -> int:
        """Drain the heap (optionally only events with ``time <= until``).

        Returns the number of events executed by this call.
        """
        return self._execute(until, None)

    def run_until(self, completion: Completion) -> Any:
        """Drive the heap until ``completion`` resolves; its result.

        The wait of synchronous code outside the simulation.  Not
        re-entrant: inside an event it raises :class:`SchedulerError`
        (an activity yields the completion instead).
        """
        self._execute(None, completion)
        return completion.result()

    def drive(self, activity: Activity) -> Any:
        """Run ``activity`` to its end from outside the simulation; its
        return value (or its exception, raised here).

        The generator is stepped at once, on the caller's stack — no
        ``spawn:`` event — and each completion it yields is waited for
        as :meth:`run_until` waits, so the events it causes keep the
        order and ``seq`` a synchronous caller's would.  Not re-entrant.
        """
        self._refuse_nesting()
        value: Any = None
        error: Optional[BaseException] = None
        while True:
            try:
                target = activity.throw(error) if error is not None else activity.send(value)
            except StopIteration as stop:
                return stop.value
            if not isinstance(target, Completion):
                raise SchedulerError(
                    f"activity yielded {type(target).__name__}; "
                    "activities may only yield Completions"
                )
            self._execute(None, target)
            value, error = target.value, target.error

    def _execute(self, until: Optional[float], completion: Optional[Completion]) -> int:
        """Execute events in heap order until the heap is empty, the next
        event is past ``until``, or ``completion`` resolved; the number
        executed."""
        self._refuse_nesting()
        executed = 0
        heap = self._heap
        pop = heapq.heappop
        self._executing = True
        try:
            while completion is None or not completion.done:
                if not heap:
                    if completion is not None:
                        raise SchedulerError(
                            f"deadlock: completion {completion.label!r} cannot "
                            "resolve (event heap is empty)"
                        )
                    break
                if until is not None and heap[0][0] > until:
                    break
                event = pop(heap)[2]
                if event.cancelled:
                    continue  # lazy deletion
                self.events_processed += 1
                event.owner = None  # fired: a late cancel() must not count
                self._now = event.time
                event.fn()
                executed += 1
        finally:
            self._executing = False
            self._now = None
        return executed

    def _refuse_nesting(self) -> None:
        if self._executing:
            raise SchedulerError(
                "the scheduler was entered while an event executes: code "
                "inside the simulation waits by yielding the completion"
            )

    # -- activities ------------------------------------------------------

    def spawn(
        self, activity: Activity, name: str = "activity", clock: Optional[SimClock] = None
    ) -> Completion:
        """Run ``activity`` as a resumable coroutine; completion of exit.

        The generator is first stepped by a ``spawn:`` event at
        ``clock.now`` (or time 0).  Each ``yield completion`` parks
        the activity with *no retained Python stack*; it resumes — in the
        resolver's deterministic order — with the completion's value, or
        has the completion's error thrown into it.  ``return value``
        resolves the returned completion with ``value``; an uncaught
        exception fails it.
        """
        done, step = self._activity(activity, name)
        start = clock.now if clock is not None else 0.0
        self.schedule(start, step, label=f"spawn:{name}")
        return done

    def start(self, activity: Activity, name: str = "activity") -> Completion:
        """:meth:`spawn`, but stepped at once on the caller's stack (no
        ``spawn:`` event): the activity runs up to its first ``yield``
        before this returns, as a plain call would."""
        done, step = self._activity(activity, name)
        step()
        return done

    def _activity(self, activity: Activity, name: str):
        """The exit completion of ``activity`` and the function stepping it."""
        done = Completion(name)
        self.activities_running += 1
        parked = {"now": False}  # this activity's park state (gauge feed)

        def step(value: Any = None, error: Optional[BaseException] = None) -> None:
            if parked["now"]:
                parked["now"] = False
                self.activities_parked -= 1
            try:
                target = activity.throw(error) if error is not None else activity.send(value)
            except StopIteration as stop:
                self.activities_running -= 1
                done.resolve(getattr(stop, "value", None))
                return
            except BaseException as exc:  # noqa: BLE001 - fail the handle
                self.activities_running -= 1
                done.fail(exc)
                return
            if not isinstance(target, Completion):
                self.activities_running -= 1
                done.fail(SchedulerError(
                    f"activity {name!r} yielded {type(target).__name__}; "
                    "activities may only yield Completions"
                ))
                return
            parked["now"] = True
            self.activities_parked += 1
            target.add_waiter(lambda c: step(c.value, c.error))

        return done, step

    def __repr__(self) -> str:
        return (
            f"Scheduler(pending={len(self._heap)}, "
            f"processed={self.events_processed})"
        )
