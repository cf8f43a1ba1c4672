"""Deterministic chaos injection (paper challenge ❹: elastic clouds).

Public clouds lose messages, stall links, deliver duplicates, split the
network, and kill containers — and they do it *constantly* at scale.  A
fault-tolerance claim is only testable if those faults can be produced
on demand and **reproduced exactly**, so this module implements a seeded
chaos plane:

- :class:`FaultPlan` — a deterministic plan of probabilistic message
  faults (loss, latency spikes, duplicate delivery), time-windowed
  transient partitions, and round-scheduled container crashes.  Every
  stochastic decision flows through :class:`repro._sim.rng
  .DeterministicRng`, so the same seed replays the same fault sequence
  byte for byte.
- ``FaultPlan.inject`` — a fault-chain element for
  :attr:`repro.cluster.network.Network.faults`, composable with the
  Dolev-Yao adversary hook (faults model the *cloud* misbehaving, the
  adversary models an *attacker*; the two are accounted separately).
- an **event trace**: every injected fault is appended to
  ``plan.events`` with its simulated timestamp; ``trace_bytes()`` is a
  canonical encoding that tests compare across runs to prove
  reproducibility.

The plan draws exactly three uniforms per in-scope message leg (loss,
delay, duplication) regardless of outcome, keeping the random stream
aligned no matter which faults fire.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import FrozenSet, List, Optional, Sequence, Set

from repro._sim.rng import DeterministicRng
from repro.cluster.network import FaultAction


@dataclass(frozen=True)
class FaultSpec:
    """Per-message fault probabilities (each leg rolls independently)."""

    loss: float = 0.0             # P(message dropped)
    delay: float = 0.0            # P(latency spike)
    delay_seconds: float = 0.05   # spike magnitude when one fires
    duplication: float = 0.0      # P(message delivered twice)
    #: Addresses the spec applies to (either endpoint); None = all.
    targets: Optional[FrozenSet[str]] = None


@dataclass(frozen=True)
class TransientPartition:
    """``address`` is unreachable during ``[start, end)`` sim-seconds.

    Healing is just simulated time passing — a client that backs off
    past ``end`` reconnects without anyone calling ``heal()``.

    ``direction`` selects which legs the partition severs:

    - ``"both"`` (default): the classic symmetric partition — no message
      touching ``address`` gets through in either direction.
    - ``"inbound"``: messages *to* ``address`` are dropped while its own
      sends still flow — the node is deaf but not mute (e.g. a
      half-broken switch port, or an iptables rule on its RX path).
    - ``"outbound"``: messages *from* ``address`` are dropped while it
      still hears the world — mute but not deaf.

    One-way partitions are the nastiest split-brain schedules: an
    outbound-partitioned primary still *receives* client writes and
    believes it is serving them (its replies and replications vanish),
    while the watchdog — whose probe replies are among the vanished
    sends — promotes a replacement.  Symmetric windows cannot express
    this: they silence the zombie's intake too.
    """

    address: str
    start: float
    end: float
    direction: str = "both"  # "both" | "inbound" | "outbound"

    def __post_init__(self) -> None:
        if self.direction not in ("both", "inbound", "outbound"):
            raise ValueError(
                f"partition direction must be 'both', 'inbound', or "
                f"'outbound', got {self.direction!r}"
            )

    def drops(self, src: str, dst: str, now: float) -> bool:
        """Does this partition sever the ``src → dst`` leg at ``now``?

        Each network *leg* (a one-way message: request or reply) is
        judged independently, which is what makes one-way partitions
        expressible: the A→B request may die while the B→A reply path
        would have been fine.
        """
        if not self.start <= now < self.end:
            return False
        if self.direction == "both":
            return self.address in (src, dst)
        if self.direction == "inbound":
            return dst == self.address
        return src == self.address  # outbound


@dataclass(frozen=True)
class CrashFault:
    """Kill container/service ``target`` at the start of round ``at_round``.

    Targets are role names interpreted by the deployment under test
    (e.g. ``"ps"`` or ``"worker-1"`` for a training job).  Crashes are
    round-scheduled rather than time-scheduled so recovery traces stay
    byte-identical even when retries shift the clock.
    """

    target: str
    at_round: int


@dataclass
class FaultCounters:
    """Per-fault injection counts (chaos-plane side of ``NetworkStats``)."""

    losses: int = 0
    delays: int = 0
    duplicates: int = 0
    partition_drops: int = 0
    crashes: int = 0


class FaultPlan:
    """A seeded, replayable schedule of network and container faults."""

    def __init__(
        self,
        seed: int,
        spec: FaultSpec = FaultSpec(),
        partitions: Sequence[TransientPartition] = (),
        crashes: Sequence[CrashFault] = (),
    ) -> None:
        self.seed = int(seed)
        self.spec = spec
        self.partitions = list(partitions)
        self.crashes = sorted(crashes, key=lambda c: (c.at_round, c.target))
        self.counters = FaultCounters()
        self.events: List[str] = []
        self._rng = DeterministicRng(self.seed, label="faults")
        self._fired: Set[CrashFault] = set()

    # -- trace ----------------------------------------------------------

    def record(self, event: str) -> None:
        self.events.append(event)

    def trace_bytes(self) -> bytes:
        """Canonical encoding of the injection trace (for replay tests)."""
        return "\n".join(self.events).encode()

    # -- message faults (fault-chain element) ----------------------------

    def inject(
        self, src: str, dst: str, n_bytes: int, now: float
    ) -> Optional[FaultAction]:
        for partition in self.partitions:
            if partition.drops(src, dst, now):
                self.counters.partition_drops += 1
                self.record(f"partition {src}->{dst} @{now:.6f}")
                return FaultAction(drop=True, reason="transient partition")
        spec = self.spec
        if spec.targets is not None and src not in spec.targets \
                and dst not in spec.targets:
            return None
        # Always three draws per leg, in a fixed order, so the stream
        # stays aligned whatever fires.
        u_loss = self._rng.uniform()
        u_delay = self._rng.uniform()
        u_dup = self._rng.uniform()
        if u_loss < spec.loss:
            self.counters.losses += 1
            self.record(f"loss {src}->{dst} @{now:.6f}")
            return FaultAction(drop=True, reason="injected loss")
        delay, duplicate = 0.0, False
        if u_delay < spec.delay:
            self.counters.delays += 1
            self.record(f"delay {src}->{dst} @{now:.6f}")
            delay = spec.delay_seconds
        if u_dup < spec.duplication:
            self.counters.duplicates += 1
            self.record(f"duplicate {src}->{dst} @{now:.6f}")
            duplicate = True
        if not (delay or duplicate):
            return None
        return FaultAction(delay=delay, duplicate=duplicate)

    # -- container crashes ----------------------------------------------

    def due_crashes(self, round_index: int) -> List[CrashFault]:
        """Crashes scheduled for ``round_index`` that have not fired yet."""
        due = [
            c
            for c in self.crashes
            if c.at_round == round_index and c not in self._fired
        ]
        for crash in due:
            self._fired.add(crash)
            self.counters.crashes += 1
            self.record(f"crash {crash.target} round={round_index}")
        return due


__all__ = [
    "CrashFault",
    "FaultCounters",
    "FaultPlan",
    "FaultSpec",
    "TransientPartition",
]
