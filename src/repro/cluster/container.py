"""Containers: the deployment unit of secureTF (paper §3.3.3, Docker).

A container binds a :class:`SconeRuntime` to a node with lifecycle
state; starting one charges the node's clock for image setup (the cost
the elastic-scaling experiment measures on top of attestation).  A
container that serves traffic may :meth:`~Container.take_core` once it
is up; stopping or crashing gives the core back.
"""

from __future__ import annotations

import enum
from typing import Optional

from repro.cluster.node import Core, Node
from repro.errors import ClusterError
from repro.runtime.scone import RuntimeConfig, SconeRuntime


class ContainerState(enum.Enum):
    CREATED = "created"
    RUNNING = "running"
    STOPPED = "stopped"
    FAILED = "failed"


class Container:
    """One secureTF container on one node."""

    def __init__(self, name: str, node: Node, config: RuntimeConfig) -> None:
        self.name = name
        self.node = node
        self.config = config
        self.state = ContainerState.CREATED
        self.runtime: Optional[SconeRuntime] = None
        self.core: Optional[Core] = None

    def start(self) -> SconeRuntime:
        """Start the container: image setup + enclave creation."""
        if self.state is ContainerState.RUNNING:
            raise ClusterError(f"container {self.name!r} is already running")
        self.node.clock.advance(self.node.cost_model.container_start_cost)
        self.runtime = SconeRuntime(
            self.config,
            self.node.vfs,
            self.node.cost_model,
            self.node.clock,
            cpu=self.node.cpu,
            rng=self.node.rng.child(f"container-{self.name}"),
        )
        self.state = ContainerState.RUNNING
        return self.runtime

    def take_core(self) -> Core:
        """Pin this container's endpoint to a core of its node (the
        node's own clock when none is free)."""
        self.core = self.node.take_core(f"{self.name}@{self.node.node_id}")
        return self.core

    def _teardown(self, state: ContainerState) -> None:
        if self.runtime is not None:
            self.runtime.shutdown()
        self.runtime = None
        if self.core is not None:
            self.node.release_core(self.core)
        self.state = state

    def stop(self) -> None:
        if self.state is not ContainerState.RUNNING:
            raise ClusterError(f"container {self.name!r} is not running")
        self.node.clock.advance(self.node.cost_model.container_stop_cost)
        self._teardown(ContainerState.STOPPED)

    def fail(self) -> None:
        """Simulate a crash (no graceful teardown cost)."""
        self._teardown(ContainerState.FAILED)

    @property
    def running(self) -> bool:
        return self.state is ContainerState.RUNNING

    def __repr__(self) -> str:
        return f"Container({self.name!r} on {self.node.node_id}, {self.state.value})"
