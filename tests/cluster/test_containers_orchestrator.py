"""Nodes, containers, and elastic orchestration."""

import pytest

from repro._sim.clock import SimClock
from repro._sim.scheduler import Scheduler
from repro.cluster import (
    Container,
    ContainerSpec,
    Network,
    Orchestrator,
    make_cluster,
)
from repro.cluster.container import ContainerState
from repro.enclave.cost_model import DEFAULT_COST_MODEL as CM
from repro.enclave.sgx import SgxMode
from repro.errors import ClusterError
from repro.runtime.scone import RuntimeConfig


@pytest.fixture
def cluster(provisioning):
    return make_cluster(3, CM, provisioning, seed=2)


def config_factory(node, index):
    return RuntimeConfig(
        name="svc", mode=SgxMode.HW, fs_shield_enabled=False
    )


def test_cluster_nodes_are_independent(cluster):
    assert len(cluster) == 3
    cluster[0].clock.advance(1.0)
    assert cluster[1].clock.now == 0.0
    assert cluster[0].cpu is not cluster[1].cpu


def test_container_lifecycle_and_costs(cluster):
    node = cluster[0]
    container = Container("c0", node, config_factory(node, 0))
    assert container.state is ContainerState.CREATED
    before = node.clock.now
    runtime = container.start()
    assert node.clock.now - before >= CM.container_start_cost
    assert container.running
    assert runtime.enclave is not None
    container.stop()
    assert container.state is ContainerState.STOPPED
    assert runtime.enclave is None


def test_container_double_start_and_stop_rejected(cluster):
    container = Container("c0", cluster[0], config_factory(cluster[0], 0))
    container.start()
    with pytest.raises(ClusterError):
        container.start()
    container.stop()
    with pytest.raises(ClusterError):
        container.stop()


def test_container_fail(cluster):
    container = Container("c0", cluster[0], config_factory(cluster[0], 0))
    container.start()
    container.fail()
    assert container.state is ContainerState.FAILED
    assert not container.running


def occupancy(orch):
    """node id -> running containers, every node listed."""
    counts = {node.node_id: 0 for node in orch.nodes}
    for container in orch.all_containers():
        if container.running:
            counts[container.node.node_id] += 1
    return counts


def test_orchestrator_round_robin_placement(cluster):
    """Fewest-containers-first with ties in node order *is* round-robin
    on an empty cluster."""
    orch = Orchestrator(cluster, Scheduler())
    spec = ContainerSpec("svc", config_factory)
    containers = [orch.launch(spec) for _ in range(4)]
    nodes = [c.node.node_id for c in containers]
    assert nodes == ["node-0", "node-1", "node-2", "node-0"]


def test_unpinned_launches_go_around_pinned_containers(cluster):
    """Placement counts what is already running on a node, whoever put
    it there: a pinned front end on node-0 sends node-0 its replica
    last, not first."""
    orch = Orchestrator(cluster, Scheduler())
    orch.launch(ContainerSpec("front", config_factory), node=cluster[0])
    spec = ContainerSpec("svc", config_factory)
    nodes = [orch.launch(spec).node.node_id for _ in range(5)]
    assert nodes == ["node-1", "node-2", "node-0", "node-1", "node-2"]


@pytest.mark.parametrize("n_nodes", [1, 2, 3, 5])
@pytest.mark.parametrize("pinned", [(), (0,), (0, 0, 2), (1, 1, 1, 1)])
def test_unpinned_launches_level_the_nodes(provisioning, n_nodes, pinned):
    """N unpinned launches over M nodes leave the nodes within one
    container of each other once they have filled up to the pinned
    ones, which are never moved and always counted."""
    nodes = make_cluster(n_nodes, CM, provisioning, seed=2)
    orch = Orchestrator(nodes, Scheduler())
    front = ContainerSpec("front", config_factory)
    for index in pinned:
        orch.launch(front, node=nodes[index % n_nodes])
    spec = ContainerSpec("svc", config_factory)
    for launched in range(1, 3 * n_nodes + len(pinned) + 1):
        before = occupancy(orch)
        target = orch.launch(spec).node.node_id
        assert before[target] == min(before.values())
        # Ties go to the first such node.
        assert target == next(n for n, c in before.items() if c == before[target])
    counts = occupancy(orch).values()
    assert max(counts) - min(counts) <= 1


def test_scale_out_after_scale_in_refills_the_emptiest_node(cluster):
    orch = Orchestrator(cluster, Scheduler())
    spec = ContainerSpec("svc", config_factory)
    containers = orch.scale_to(spec, 6)
    assert occupancy(orch) == {"node-0": 2, "node-1": 2, "node-2": 2}
    # Scale-in is not placement-aware: stop both of node-1's replicas.
    for container in containers:
        if container.node is cluster[1]:
            container.stop()
    assert occupancy(orch) == {"node-0": 2, "node-1": 0, "node-2": 2}
    refill = [orch.launch(spec).node.node_id for _ in range(3)]
    assert refill == ["node-1", "node-1", "node-0"]


def test_scale_to_spreads_like_the_elastic_attestation_bench(cluster):
    """``bench_elastic_attestation.py``: 8 replicas over 3 nodes."""
    orch = Orchestrator(cluster, Scheduler())
    orch.scale_to(ContainerSpec("elastic", config_factory), 8)
    assert occupancy(orch) == {"node-0": 3, "node-1": 3, "node-2": 2}


def test_elastic_scale_up_and_down(cluster):
    orch = Orchestrator(cluster, Scheduler())
    spec = ContainerSpec("svc", config_factory)
    orch.scale_to(spec, 3)
    assert len(orch.replicas("svc")) == 3
    orch.scale_to(spec, 1)
    assert len(orch.replicas("svc")) == 1
    orch.scale_to(spec, 0)
    assert orch.replicas("svc") == []
    with pytest.raises(ClusterError):
        orch.scale_to(spec, -1)


def test_on_start_hooks_run_for_every_launch(cluster):
    orch = Orchestrator(cluster, Scheduler())
    attested = []
    orch.on_start.append(lambda c: attested.append(c.name))
    spec = ContainerSpec("svc", config_factory)
    orch.scale_to(spec, 2)
    assert len(attested) == 2


def test_recover_replaces_failed_replicas(cluster):
    orch = Orchestrator(cluster, Scheduler())
    spec = ContainerSpec("svc", config_factory)
    containers = orch.scale_to(spec, 2)
    victim = containers[0]
    orch.fail_container(victim)
    assert len(orch.replicas("svc")) == 1
    (replacement,) = orch.supervise(spec).values()
    assert replacement.node is victim.node  # restarted in place
    assert len(orch.replicas("svc")) == 2


def test_restart_stays_on_its_node_even_when_another_is_emptier(cluster):
    orch = Orchestrator(cluster, Scheduler())
    spec = ContainerSpec("svc", config_factory)
    containers = orch.scale_to(spec, 4)  # node-0 holds two
    containers[2].stop()  # node-2 is now empty
    victim = containers[3]
    assert victim.node is cluster[0]
    orch.fail_container(victim)
    (replacement,) = orch.supervise(spec).values()
    assert replacement.node is cluster[0]


def test_stop_all(cluster):
    orch = Orchestrator(cluster, Scheduler())
    orch.scale_to(ContainerSpec("svc", config_factory), 3)
    orch.stop_all()
    assert orch.replicas("svc") == []


def test_orchestrator_needs_nodes():
    with pytest.raises(ClusterError):
        Orchestrator([], Scheduler())


# --- supervised recovery --------------------------------------------------------


def test_replacement_names_are_monotonic(cluster):
    """Satellite: a replacement never reuses a crashed replica's name —
    names are identities in the network and the CAS session registry."""
    orch = Orchestrator(cluster, Scheduler())
    spec = ContainerSpec("svc", config_factory)
    first, second = orch.scale_to(spec, 2)
    assert (first.name, second.name) == ("svc-0", "svc-1")
    orch.fail_container(first)
    (replacement,) = orch.supervise(spec).values()
    assert replacement.name == "svc-2"
    # Even after recovery, a further scale-up keeps counting upward.
    orch.scale_to(spec, 3)
    names = sorted(c.name for c in orch.replicas("svc"))
    assert names == ["svc-1", "svc-2", "svc-3"]


def test_supervise_restarts_within_budget_then_quarantines(cluster):
    orch = Orchestrator(cluster, Scheduler(), restart_budget=2)
    spec = ContainerSpec("svc", config_factory)
    container = orch.launch(spec)
    for round_no in range(2):
        orch.fail_container(orch.replicas("svc")[0])
        outcome = orch.supervise(spec)
        (replacement,) = outcome.values()
        assert replacement is not None and replacement.running
    # Third crash in the same lineage: budget exhausted -> quarantine.
    orch.fail_container(orch.replicas("svc")[0])
    outcome = orch.supervise(spec)
    assert list(outcome.values()) == [None]
    assert orch.replicas("svc") == []
    assert len(orch.quarantined("svc")) == 1
    assert orch.restarts_total == 2
    assert orch.quarantined_total == 1
    assert any(e.startswith("restart svc-0") for e in orch.events)
    assert any(e.startswith("quarantine svc-2") for e in orch.events)


def test_restart_reruns_attestation_hooks(cluster):
    """A replacement enclave has fresh memory: it must re-attest and be
    re-provisioned exactly like the original."""
    orch = Orchestrator(cluster, Scheduler())
    attested = []
    orch.on_start.append(lambda c: attested.append(c.name))
    spec = ContainerSpec("svc", config_factory)
    container = orch.launch(spec)
    assert attested == ["svc-0"]
    orch.fail_container(container)
    replacement = orch.restart(spec, container)
    assert attested == ["svc-0", replacement.name]


def test_restart_rejects_healthy_container(cluster):
    orch = Orchestrator(cluster, Scheduler())
    spec = ContainerSpec("svc", config_factory)
    container = orch.launch(spec)
    with pytest.raises(ClusterError):
        orch.restart(spec, container)


def test_health_and_probe(cluster):
    orch = Orchestrator(cluster, Scheduler())
    spec = ContainerSpec("svc", config_factory)
    a, b = orch.scale_to(spec, 2)
    assert orch.probe("svc")
    assert orch.health("svc") == {
        "svc-0": ContainerState.RUNNING,
        "svc-1": ContainerState.RUNNING,
    }
    orch.fail_container(a)
    assert not orch.probe("svc")
    assert orch.health("svc")["svc-0"] is ContainerState.FAILED


def test_budget_is_per_lineage_not_global(cluster):
    orch = Orchestrator(cluster, Scheduler(), restart_budget=1)
    spec = ContainerSpec("svc", config_factory)
    a, b = orch.scale_to(spec, 2)
    orch.fail_container(a)
    orch.fail_container(b)
    outcome = orch.supervise(spec)
    # Each lineage has its own budget of 1: both replaced.
    assert all(c is not None for c in outcome.values())
    assert len(orch.replicas("svc")) == 2


# -- cores -----------------------------------------------------------------


def call_both(network, first, second):
    """Two requests sent at the same instant from idle clocks; the
    simulated times their replies land."""
    clocks = [SimClock(), SimClock()]
    pending = [
        network.call_async(f"client-{i}", clock, address, b"q")
        for i, (clock, address) in enumerate(zip(clocks, (first, second)))
    ]
    for completion in pending:
        network.scheduler.run_until(completion)
    return [clock.now for clock in clocks]


def serve_on(network, core, address, service_time=0.01):
    def handler(raw):
        core.clock.advance(service_time)
        return raw

    network.register(address, core.clock, handler, syscalls=core.syscalls)


def test_a_node_hands_out_one_core_fewer_than_it_has(cluster):
    node = cluster[0]
    node.clock.advance(2.0)
    cores = [node.take_core(f"svc-{i}") for i in range(node.cores - 1)]
    assert len({id(core.clock) for core in cores} | {id(node.clock)}) == node.cores
    # A core joins the timeline where its node is, with a syscall
    # interface of its own that charges it and not the node.
    assert all(core.clock.now == 2.0 for core in cores)
    cores[0].syscalls.socket_recv(4096)
    assert cores[0].clock.now > 2.0 and node.clock.now == 2.0
    assert node.labelled_clocks() == [(node.clock, "node-0")] + [
        (core.clock, f"svc-{i}") for i, core in enumerate(cores)
    ]
    # Whoever comes after the last core shares the node's own clock.
    shared = node.take_core("svc-late")
    assert shared.clock is node.clock
    assert shared.syscalls is node.syscall_interface()
    assert len(node.cores_out) == node.cores - 1
    node.release_core(shared)  # the node's own clock is not a core to return
    assert len(node.cores_out) == node.cores - 1
    node.release_core(cores[1])
    node.clock.advance(1.0)
    fresh = node.take_core("svc-next")
    assert fresh.clock is not cores[1].clock and fresh.clock.now == 3.0


def test_endpoints_on_cores_overlap_and_on_the_node_clock_serialise(cluster):
    network = Network(CM)
    node = cluster[0]
    cores = [node.take_core(f"svc-{i}") for i in range(node.cores - 1)]
    serve_on(network, cores[0], "a")
    serve_on(network, cores[1], "b")
    first, second = call_both(network, "a", "b")
    assert first == second  # side by side
    serve_on(network, node.take_core("c"), "c")
    serve_on(network, node.take_core("d"), "d")
    first, second = call_both(network, "c", "d")
    # Out of cores: both run on the node's clock, the second behind the first.
    assert second - first == pytest.approx(0.01, rel=1e-3)


def test_a_stopped_or_crashed_container_returns_its_core(cluster):
    node = cluster[0]
    containers = [
        Container(f"c{i}", node, config_factory(node, i)) for i in range(2)
    ]
    for container in containers:
        container.start()
        assert container.take_core().label == f"{container.name}@node-0"
    assert len(node.cores_out) == 2
    last_seen = containers[0].core.clock
    containers[0].fail()
    assert [core.label for core in node.cores_out] == ["c1@node-0"]
    # What it ran on stays readable: the crash is stamped by that clock.
    assert containers[0].core.clock is last_seen
    containers[1].stop()
    assert node.cores_out == []


def test_a_launch_ordered_by_a_tick_starts_no_earlier_than_the_tick(cluster):
    scheduler = Scheduler()
    orch = Orchestrator(cluster, scheduler)
    spec = ContainerSpec("svc", config_factory)

    def at(when, order):
        """Run ``order`` inside an event at ``when``; what it returned."""
        out = []
        scheduler.schedule(when, lambda: out.append(order()))
        scheduler.run()
        return out[0]

    untimed = orch.launch(spec)  # outside the heap: timed as it always was
    assert untimed.node.clock.now == pytest.approx(
        CM.container_start_cost, rel=0.2
    )
    started = {}
    orch.on_start.append(lambda c: started.setdefault(c.name, c.node.clock.now))
    # Nothing has touched node-1 since t = 0; the tick is at t = 20.25.
    late = at(20.25, lambda: orch.launch(spec))
    assert late.node is cluster[1]
    assert started[late.name] >= 20.25 + CM.container_start_cost
    # A node already past the tick is not pulled back or pushed on.
    cluster[2].clock.advance(30.0)
    ahead = at(20.25, lambda: orch.launch(spec))
    assert ahead.node is cluster[2]
    assert started[ahead.name] == pytest.approx(
        30.0 + CM.container_start_cost, rel=0.01
    )
    # A restart starts no earlier than the tick that found the replica dead.
    orch.fail_container(untimed)
    (replacement,) = at(40.0, lambda: orch.supervise(spec)).values()
    assert replacement.node is untimed.node
    assert started[replacement.name] >= 40.0 + CM.container_start_cost
