"""A physical node: CPU (with SGX + EPC), its own clock, OS storage.

The node's clock is the node's timeline as its control plane sees it:
containers start, enclaves attest and CAS answers on it.  The paper's
machines have four cores (§5.1), and an endpoint that serves traffic
does not wait for its neighbours: :meth:`Node.take_core` hands it a
:class:`Core` — a clock of its own that joins the timeline at the
node's current time, with the host-side syscall interface that charges
it.  At most ``cores - 1`` are out at once; the node's own clock stands
for core 0 and for whoever asks after the last core is taken, so an
oversubscribed node serialises exactly as a one-clock node always did.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro._sim import probe
from repro._sim.clock import SimClock
from repro._sim.rng import DeterministicRng
from repro._sim.scheduler import Scheduler
from repro.enclave.attestation import ProvisioningAuthority
from repro.enclave.cost_model import CostModel
from repro.enclave.sgx import SgxCpu, SgxMode
from repro.runtime import stats_registry
from repro.runtime.syscall import SyscallInterface
from repro.runtime.vfs import VirtualFileSystem


@dataclass(frozen=True)
class Core:
    """One core of a node, as the process pinned to it sees it."""

    clock: SimClock
    #: Host-side (NATIVE) syscall interface charging ``clock``.
    syscalls: SyscallInterface
    label: str


@dataclass
class Node:
    """One server of the simulated cluster (paper: Xeon E3-1280 v6)."""

    node_id: str
    cpu: SgxCpu
    clock: SimClock
    vfs: VirtualFileSystem
    cost_model: CostModel
    rng: DeterministicRng
    #: Cores currently handed out, in the order they were taken.
    cores_out: List[Core] = field(default_factory=list, init=False, repr=False)

    @property
    def cores(self) -> int:
        return self.cost_model.cores_per_node

    def take_core(self, label: str) -> Core:
        """A core for one serving endpoint, named ``label`` in traces.

        The endpoint's handler, timers and socket charges run on the
        returned clock instead of queueing behind everything else the
        node does.  A node out of cores returns its own clock and
        syscall interface: the endpoint then shares the node's timeline.
        """
        if len(self.cores_out) >= self.cores - 1:
            return Core(self.clock, self.syscall_interface(), self.node_id)
        clock = SimClock(self.clock.now)
        syscalls = SyscallInterface(
            self.vfs, self.cost_model, clock, mode=SgxMode.NATIVE
        )
        # Snapshots are scoped by node clock, and a core's counters must
        # outlive the core: file them under the node as well.
        stats_registry.register("syscall", syscalls.stats, self.clock)
        core = Core(clock, syscalls, label)
        self.cores_out.append(core)
        # Named before its first charge, or a trace opened earlier would
        # date the clock from that charge and not from here.
        if probe.ACTIVE is not None:
            probe.ACTIVE.register_clock(clock, label)
        if probe.FLIGHT is not None:
            probe.FLIGHT.register_clock(clock, label)
        return core

    def release_core(self, core: Core) -> None:
        """Hand ``core`` back (a no-op for the node's own clock)."""
        if core in self.cores_out:
            self.cores_out.remove(core)

    @property
    def time(self) -> float:
        """Latest simulated time on this node, cores included."""
        return max(clock.now for clock, _ in self.labelled_clocks())

    def labelled_clocks(self) -> List[Tuple[SimClock, str]]:
        """The node's clock and every core that is out, each with the
        name traces and flight rings show it under."""
        return [(self.clock, self.node_id)] + [
            (core.clock, core.label) for core in self.cores_out
        ]

    def syscall_interface(self):
        """The host-side (non-enclave) syscall interface of this node.

        Lazily built once per node: processes that run *outside* any
        SCONE runtime (plain RPC endpoints, owner-side tools, the
        network delivery path) charge their I/O here, so every byte a
        node moves flows through one accountable syscall layer.
        """
        if "_syscalls" not in self.__dict__:
            self._syscalls = SyscallInterface(
                self.vfs, self.cost_model, self.clock, mode=SgxMode.NATIVE
            )
        return self._syscalls

    def __repr__(self) -> str:
        return f"Node({self.node_id!r}, t={self.clock.now:.3f}s)"


def make_cluster(
    n_nodes: int,
    cost_model: CostModel,
    provisioning: ProvisioningAuthority,
    seed: int = 0,
    epc_policy: str = "random",
    scheduler: Optional[Scheduler] = None,
) -> List[Node]:
    """Build ``n_nodes`` homogeneous nodes, each with its own clock/EPC.

    With ``scheduler`` given, every node clock is registered as a view
    onto that scheduler's timeline (so ``fleet_time()`` and fleet-wide
    event accounting see the whole cluster).
    """
    root = DeterministicRng(seed, label="cluster")
    nodes = []
    for index in range(n_nodes):
        node_id = f"node-{index}"
        clock = SimClock()
        if scheduler is not None:
            scheduler.register_clock(clock)
        rng = root.child(node_id)
        cpu = SgxCpu(
            f"cpu-{index}",
            cost_model,
            clock,
            provisioning,
            rng.child("cpu"),
            epc_policy=epc_policy,
        )
        nodes.append(
            Node(
                node_id=node_id,
                cpu=cpu,
                clock=clock,
                vfs=VirtualFileSystem(),
                cost_model=cost_model,
                rng=rng,
            )
        )
    return nodes
