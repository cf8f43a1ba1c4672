"""The simulated LAN: latency, bandwidth, faults, and a Dolev-Yao adversary.

Endpoints are named addresses backed by synchronous request handlers.
Delivery runs on the global event-heap scheduler
(:class:`~repro._sim.scheduler.Scheduler`): a call is a **send event +
park/resume pair** rather than a nested synchronous walk —

    send:     fault/adversary checks on the caller's clock, then a
              delivery event scheduled at
              ``arrival = caller.now + rtt/2 + req_size/bw (+ spike)``
    deliver:  ``callee.advance_to(arrival)`` (no-op if the callee is
              already past it — a saturated callee delays its callers),
              charge the socket read, run the handler, then schedule
              the reply event at ``callee.now + rtt/2 + resp_size/bw``
    reply:    advance the caller to the reply time and resume it with
              the response

so a 256-node fleet costs O(events · log events) with no Python
recursion tied to call nesting: the caller is an activity that sends
with :meth:`call_async` and waits by ``yield``-ing the completion.

Two interception layers run on every payload, in order:

- the **fault chain** (``Network.faults``): composable injectors — the
  seeded chaos plane of :mod:`repro.cluster.faults` — that may drop a
  message, add a latency spike (which simply shifts the delivery
  event), or duplicate its delivery.  Faults model the *cloud*
  misbehaving (paper challenge ❹: containers and links come and go), so
  they are counted separately from adversarial drops.
- the **adversary hook** (``Network.adversary``): sees (and may mutate,
  drop, or replay) every payload — the paper's threat model (§2.3) is
  an attacker who controls the network, and the test suite uses this
  hook to mount those attacks.

Lost messages raise :class:`~repro.errors.RpcTransportError` (the one
retryable RPC failure); ``NetworkStats`` counts only *wire-delivered*
bytes, so dropped traffic never inflates ``bytes_transferred``.
Duplicate accounting is symmetric on both legs: a duplicated request's
handler runs and its extra socket read *and* the discarded response's
socket write + bytes are charged, mirroring the extra-traffic counting
the response leg always had.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Set

from repro._sim import probe
from repro._sim.clock import SimClock
from repro._sim.scheduler import Completion, Scheduler
from repro.enclave.cost_model import CostModel
from repro.errors import RpcError, RpcTransportError
from repro.runtime.syscall import SyscallInterface

#: handler(request_bytes) -> response_bytes, or a Completion that will
#: resolve with the response bytes later (a *deferred reply*: the
#: endpoint parks the caller while it does asynchronous work — e.g. the
#: serving router forwarding to a replica — and the reply leg runs when
#: the completion resolves, at the endpoint clock's then-current time).
Handler = Callable[[bytes], object]

#: adversary(src, dst, payload) -> payload or None (None = drop)
Adversary = Callable[[str, str, bytes], Optional[bytes]]


@dataclass(frozen=True)
class FaultAction:
    """What the fault chain decided for one message leg."""

    drop: bool = False
    delay: float = 0.0
    duplicate: bool = False
    reason: str = ""

    def merge(self, other: Optional["FaultAction"]) -> "FaultAction":
        if other is None:
            return self
        return FaultAction(
            drop=self.drop or other.drop,
            delay=self.delay + other.delay,
            duplicate=self.duplicate or other.duplicate,
            # Keep every injector's reason: compound faults (e.g. a
            # partition drop AND an injected loss from separate plans)
            # must all surface in logs and RpcTransportError messages.
            reason="; ".join(r for r in (self.reason, other.reason) if r),
        )


#: The fault chain's verdict on a leg it leaves alone, built once.
_UNTOUCHED = FaultAction()

#: fault injector: (src, dst, n_bytes, now) -> FaultAction or None
FaultInjector = Callable[[str, str, int, float], Optional[FaultAction]]


@dataclass
class NetworkStats:
    messages: int = 0
    bytes_transferred: int = 0
    dropped: int = 0
    duplicated: int = 0
    delayed: int = 0


@dataclass
class _Endpoint:
    address: str
    clock: SimClock
    handler: Handler
    #: Syscall interface of the process behind the endpoint: delivery
    #: charges its recv/send I/O through that process's syscall plane
    #: (None for bare test handlers, which charge nothing).
    syscalls: Optional[SyscallInterface] = None


class Network:
    """A switched LAN connecting named endpoints."""

    def __init__(
        self, cost_model: CostModel, scheduler: Optional[Scheduler] = None
    ) -> None:
        self._model = cost_model
        #: The event core every delivery, timer, and probe of this
        #: simulation runs on.  Independent simulations coexist by
        #: owning independent schedulers (like independent clocks).
        self.scheduler = scheduler if scheduler is not None else Scheduler()
        self._endpoints: Dict[str, _Endpoint] = {}
        self._partitioned: Set[str] = set()
        self.adversary: Optional[Adversary] = None
        self.faults: List[FaultInjector] = []
        self.stats = NetworkStats()
        #: Distinguishes RPC client instances *within this network* so
        #: call IDs never collide, even when a replacement worker reuses
        #: a crashed worker's address.  Per-network (not process-global)
        #: so seeded simulations are byte-identical no matter how many
        #: ran earlier in the process.
        self._client_instances = itertools.count(1)

    def next_client_instance(self) -> int:
        """A network-unique RPC client instance number (call-ID salt)."""
        return next(self._client_instances)

    def register(
        self,
        address: str,
        clock: SimClock,
        handler: Handler,
        syscalls: Optional[SyscallInterface] = None,
    ) -> None:
        """Bind ``handler`` (running on ``clock``) to ``address``."""
        if address in self._endpoints:
            raise RpcError(f"address {address!r} is already registered")
        self._endpoints[address] = _Endpoint(address, clock, handler, syscalls)
        self.scheduler.register_clock(clock)

    def unregister(self, address: str) -> None:
        self._endpoints.pop(address, None)

    def is_registered(self, address: str) -> bool:
        return address in self._endpoints

    # -- fault injection -------------------------------------------------

    def partition(self, address: str) -> None:
        """Make an endpoint unreachable (node failure / network split)."""
        self._partitioned.add(address)

    def heal(self, address: str) -> None:
        self._partitioned.discard(address)

    def _apply_faults(
        self, src: str, dst: str, n_bytes: int, now: float
    ) -> FaultAction:
        """Every injector's verdict on one leg, merged onto ``_UNTOUCHED``."""
        action = _UNTOUCHED
        for injector in self.faults:
            verdict = injector(src, dst, n_bytes, now)
            if verdict is not None:
                action = action.merge(verdict)
        return action

    # -- transfer --------------------------------------------------------

    def _transfer_time(self, n_bytes: int) -> float:
        return self._model.lan_rtt / 2 + n_bytes / self._model.lan_bandwidth

    def call_async(
        self,
        src: str,
        src_clock: SimClock,
        dst: str,
        request: bytes,
        declared_request: Optional[int] = None,
        declared_response: Optional[int] = None,
    ) -> Completion:
        """Send half of an RPC: returns the completion the reply event
        resolves (with the response bytes) after advancing the caller's
        clock to the reply time; the calling activity ``yield``\\ s it.

        Send-time failures (unknown endpoint, partition, request-leg
        drop) raise synchronously, exactly as the caller would observe
        them on a real socket write.
        """
        if self._endpoints.get(dst) is None or dst in self._partitioned \
                or src in self._partitioned:
            raise RpcTransportError(f"endpoint {dst!r} is unreachable from {src!r}")

        request_size = declared_request if declared_request is not None else len(request)
        action = self._apply_faults(src, dst, request_size, src_clock.now)
        if action.drop:
            self.stats.dropped += 1
            raise RpcTransportError(
                f"request from {src!r} to {dst!r} was lost"
                + (f" ({action.reason})" if action.reason else "")
            )
        if self.adversary is not None:
            mutated = self.adversary(src, dst, request)
            if mutated is None:
                self.stats.dropped += 1
                raise RpcTransportError(f"request from {src!r} to {dst!r} was lost")
            request = mutated

        self.stats.messages += 1
        self.stats.bytes_transferred += request_size
        if action.delay:
            self.stats.delayed += 1

        # A latency spike is not modelled time — it *is* the event's
        # position in the heap.
        arrival = src_clock.now + self._transfer_time(request_size) + action.delay
        completion = Completion(f"net:{src}->{dst}")

        def deliver() -> None:
            # Any failure from here on fails ``completion`` (resuming
            # the caller with the error) instead of escaping the event.
            try:
                self._deliver(
                    src, src_clock, dst, request, request_size, arrival,
                    action, declared_response, completion,
                )
            except BaseException as exc:  # noqa: BLE001 - route to the caller
                completion.fail(exc)

        self.scheduler.schedule(arrival, deliver, label=f"deliver:{src}->{dst}")
        return completion

    def _deliver(
        self,
        src: str,
        src_clock: SimClock,
        dst: str,
        request: bytes,
        request_size: int,
        arrival: float,
        action: FaultAction,
        declared_response: Optional[int],
        completion: Completion,
    ) -> None:
        """The delivery event: handler execution on the callee's clock."""
        # Re-resolve the endpoint: in a concurrent fleet another event
        # (a crash, a partition) may have fired while this message was
        # in flight.
        endpoint = self._endpoints.get(dst)
        if endpoint is None or dst in self._partitioned:
            self.stats.dropped += 1
            completion.fail(
                RpcTransportError(
                    f"endpoint {dst!r} vanished while a message from "
                    f"{src!r} was in flight"
                )
            )
            return

        callee_idle = arrival - endpoint.clock.now
        endpoint.clock.advance_to(arrival)
        if probe.SINK is not None and callee_idle > 0:
            # The callee sat idle until the request arrived: that gap is
            # network wait on the callee's clock, not compute.
            probe.SINK.charge(endpoint.clock, "network_wait", callee_idle)
        if endpoint.syscalls is not None:
            # The server process reads the request off its socket: this
            # is real I/O through its syscall plane, on its clock.
            endpoint.syscalls.socket_recv(request_size)
        response = endpoint.handler(request)
        if action.duplicate:
            # The copy arrives too and is handled; its response is
            # discarded (the transport keeps the first).  At-most-once
            # semantics are the *endpoint's* job (call-ID dedup).
            self.stats.duplicated += 1
            self.stats.messages += 1
            self.stats.bytes_transferred += request_size
            if endpoint.syscalls is not None:
                endpoint.syscalls.socket_recv(request_size)
            dup_response = endpoint.handler(request)

            # Symmetric accounting: the duplicate's response is still
            # *sent* (and crosses the wire) before the caller's
            # transport discards it — charge the server's socket write
            # and count the extra traffic, like the response-duplicate
            # branch below always did.
            def charge_discarded(dup_bytes: bytes) -> None:
                dup_size = (
                    declared_response
                    if declared_response is not None
                    else len(dup_bytes)
                )
                if endpoint.syscalls is not None:
                    endpoint.syscalls.socket_send(dup_size)
                self.stats.messages += 1
                self.stats.bytes_transferred += dup_size

            if isinstance(dup_response, Completion):
                # A deferred endpoint answers the duplicate too (its
                # dedup window makes the second execution a cache hit);
                # the discarded wire traffic is charged when it does.
                dup_response.add_waiter(
                    lambda c: charge_discarded(c.value) if c.error is None else None
                )
            else:
                charge_discarded(dup_response)

        if isinstance(response, Completion):
            # Deferred reply: the endpoint parked this caller while it
            # performs asynchronous work (events on the same heap).  The
            # reply leg runs — on the endpoint's clock at resolve time —
            # when the endpoint settles the completion; a failure routes
            # to the caller exactly like a synchronous handler raise.
            def on_settled(settled: Completion) -> None:
                if settled.error is not None:
                    completion.fail(settled.error)
                    return
                try:
                    if self._endpoints.get(dst) is not endpoint \
                            or dst in self._partitioned:
                        # The endpoint died while the work was deferred:
                        # its reply never makes it onto the wire.
                        self.stats.dropped += 1
                        completion.fail(
                            RpcTransportError(
                                f"endpoint {dst!r} vanished before replying "
                                f"to {src!r}"
                            )
                        )
                        return
                    self._finish_reply(
                        src, src_clock, dst, endpoint, settled.value,
                        declared_response, completion,
                    )
                except BaseException as exc:  # noqa: BLE001 - route to caller
                    completion.fail(exc)

            response.add_waiter(on_settled)
            return

        self._finish_reply(
            src, src_clock, dst, endpoint, response, declared_response, completion
        )

    def _finish_reply(
        self,
        src: str,
        src_clock: SimClock,
        dst: str,
        endpoint: _Endpoint,
        response: bytes,
        declared_response: Optional[int],
        completion: Completion,
    ) -> None:
        """The reply leg: charge the send, roll response faults, schedule
        the reply event.  Runs inside the delivery event for synchronous
        handlers and at completion-resolve time for deferred ones."""
        response_size = (
            declared_response if declared_response is not None else len(response)
        )
        if endpoint.syscalls is not None:
            endpoint.syscalls.socket_send(response_size)
        r_action = self._apply_faults(dst, src, response_size, endpoint.clock.now)
        if r_action.drop:
            self.stats.dropped += 1
            # The caller's clock does NOT advance: from its point of
            # view the reply simply never lands (its retry layer owns
            # the backoff time).
            completion.fail(
                RpcTransportError(
                    f"response from {dst!r} to {src!r} was lost"
                    + (f" ({r_action.reason})" if r_action.reason else "")
                )
            )
            return
        if self.adversary is not None:
            mutated = self.adversary(dst, src, response)
            if mutated is None:
                self.stats.dropped += 1
                completion.fail(
                    RpcTransportError(f"response from {dst!r} to {src!r} was lost")
                )
                return
            response = mutated

        self.stats.messages += 1
        self.stats.bytes_transferred += response_size
        if r_action.duplicate:
            # A duplicated response is delivered twice on the wire but the
            # caller consumes one copy; count the extra traffic only.
            self.stats.duplicated += 1
            self.stats.messages += 1
            self.stats.bytes_transferred += response_size
        if r_action.delay:
            self.stats.delayed += 1

        reply_at = endpoint.clock.now + self._transfer_time(response_size) + r_action.delay
        self.scheduler.schedule(
            reply_at,
            lambda: self._resume_caller(src_clock, reply_at, response, completion),
            label=f"reply:{dst}->{src}",
        )

    def _resume_caller(
        self,
        src_clock: SimClock,
        reply_at: float,
        response: bytes,
        completion: Completion,
    ) -> None:
        """The reply event: land the response on the caller's clock."""
        caller_wait = reply_at - src_clock.now
        src_clock.advance_to(reply_at)
        if probe.SINK is not None and caller_wait > 0:
            # Everything between the caller's send and the reply landing
            # — server occupancy plus both wire legs — is network wait
            # from the caller's point of view.
            probe.SINK.charge(src_clock, "network_wait", caller_wait)
        completion.resolve(response)

    def barrier(self, clocks) -> float:
        """Advance all ``clocks`` to the max (synchronous round barrier)."""
        latest = max(clock.now for clock in clocks)
        for clock in clocks:
            waited = latest - clock.now
            clock.advance_to(latest)
            if probe.SINK is not None and waited > 0:
                probe.SINK.charge(clock, "network_wait", waited)
        return latest
