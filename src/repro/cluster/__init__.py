"""Simulated cluster: nodes, network, containers, orchestration, PS/workers.

Models the paper's deployment substrate (§5.1): three SGX servers on a
1 Gb/s switched LAN, Docker containers, elastic scaling, and the
parameter-server architecture of distributed TensorFlow (§3.3, Fig. 2).

Timing is a discrete-event simulation on a **global event heap**
(:class:`~repro._sim.scheduler.Scheduler`) with one clock per node as
the per-node *view*: an RPC is a delivery event that advances the
callee to the request's arrival time, runs the handler on the callee's
clock (so a busy parameter server naturally serializes its callers),
and a reply event that advances the caller to the response's arrival —
blocking callers park on the heap, fleet-scale replicas run as
stackless activities (:mod:`repro.cluster.fleet`).  Barriers take the
max across clocks — which is exactly how synchronous data-parallel
training behaves on real clusters.

The network carries opaque bytes and exposes a Dolev-Yao adversary hook
(drop/tamper/replay); every protected channel in the test suite must
detect its interference.  A second, separately-accounted interception
layer — the seeded chaos plane of :mod:`repro.cluster.faults` — models
the *cloud* misbehaving (message loss, latency spikes, duplicate
delivery, transient partitions, container crashes), and
:mod:`repro.cluster.retry` provides the client-side resilience policy
(backoff, deadlines, circuit breaking) that keeps training running
through it.
"""

from repro.cluster.network import FaultAction, Network, NetworkStats
from repro.cluster.node import Node, make_cluster
from repro.cluster.container import Container, ContainerState
from repro.cluster.dedup import DedupWindow
from repro.cluster.fleet import FleetStats, ReplicaFleet
from repro.cluster.faults import (
    CrashFault,
    FaultCounters,
    FaultPlan,
    FaultSpec,
    TransientPartition,
)
from repro.cluster.retry import (
    BreakerRegistry,
    CircuitBreaker,
    RecoveryStats,
    RetryPolicy,
    RetryingExecutor,
)
from repro.cluster.rpc import RpcClient, RpcServer, SecureRpcClient, SecureRpcServer
from repro.cluster.orchestrator import Orchestrator, ContainerSpec, Watchdog
from repro.cluster.parameter_server import (
    InMemoryCheckpointStore,
    ParameterServer,
    PSCheckpoint,
    ShardedParameterService,
    SyncTrainer,
)
from repro.cluster.sharding import (
    GradientQuantizer,
    SecureAggregation,
    ShardMap,
    ShardPiece,
    ShardTrainingStats,
)
from repro.cluster.worker import TrainingWorker

__all__ = [
    "DedupWindow",
    "Network",
    "NetworkStats",
    "FaultAction",
    "Node",
    "make_cluster",
    "Container",
    "ContainerState",
    "FleetStats",
    "ReplicaFleet",
    "CrashFault",
    "FaultCounters",
    "FaultPlan",
    "FaultSpec",
    "TransientPartition",
    "BreakerRegistry",
    "CircuitBreaker",
    "RecoveryStats",
    "RetryPolicy",
    "RetryingExecutor",
    "RpcClient",
    "RpcServer",
    "SecureRpcClient",
    "SecureRpcServer",
    "Orchestrator",
    "ContainerSpec",
    "Watchdog",
    "ParameterServer",
    "PSCheckpoint",
    "InMemoryCheckpointStore",
    "ShardedParameterService",
    "GradientQuantizer",
    "SecureAggregation",
    "ShardMap",
    "ShardPiece",
    "ShardTrainingStats",
    "SyncTrainer",
    "TrainingWorker",
]
