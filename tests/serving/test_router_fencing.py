"""Router handoff under epoch fencing: the superseded front end cannot
settle work through the replica pool."""

import pytest

from repro.crypto import encoding
from repro.serving.service import ServingPlane

pytestmark = pytest.mark.serving


def make_plane(**kwargs):
    plane = ServingPlane(**kwargs)
    # These tests drive requests by hand and drain the heap after each
    # one; stop the recurring watchdog tick up front so draining
    # terminates (run_traffic-style flows quiesce at the end instead).
    plane.watchdog.stop()
    return plane


def submit(plane, router, request_id):
    """Feed one ``infer`` call through a router object's server (the
    zombie no longer holds the well-known address)."""
    raw = encoding.encode(
        {"kind": "call", "method": "infer", "payload": b"payload", "call_id": request_id}
    )
    result = router.server._handle(raw)
    plane.platform.scheduler.run()
    return result


def test_fenced_plane_stamps_routing_epoch():
    plane = make_plane(seed=3, n_nodes=2, initial_replicas=1, fencing=True)
    assert plane.platform.epochs is not None
    assert plane.router.fence is not None
    assert plane.router.fence.role == "router"
    submit(plane, plane.router, "r1")
    assert plane.router.stats.completed_ok == 1
    plane.check_invariants()


def test_replace_router_fences_the_zombie():
    plane = make_plane(seed=5, n_nodes=2, initial_replicas=2, fencing=True)
    submit(plane, plane.router, "r1")
    zombie = plane.replace_router()

    # Bump-before-promote: the replacement holds a fresh lease, the
    # zombie still holds (and keeps stamping) the dead one.
    assert plane.router is not zombie
    assert plane.router.fence.epoch > zombie.fence.epoch
    assert zombie.fence.stale

    # The replacement serves normally at the well-known address.
    submit(plane, plane.router, "r2")
    assert plane.router.stats.completed_ok == 1

    # The zombie's dispatch reaches a replica and is rejected by its
    # guard — an authoritative error, settled immediately (no retry
    # storm), so the request terminates instead of dangling.
    submit(plane, zombie, "r3")
    assert zombie.stats.completed_ok == 1          # pre-handoff traffic
    assert zombie.stats.failed_other == 1          # the fenced dispatch
    assert zombie.pending_count() == 0
    assert plane.platform.epochs.stats.fenced_rejections >= 1

    # Plane-wide accounting still balances: the shared admission counter
    # covers both routers' admitted work, and every admit terminated.
    admitted = plane.router.admission.stats.admitted
    terminal = plane.router.stats.terminal + zombie.stats.terminal
    assert admitted == terminal


def test_unfenced_plane_has_no_epoch_machinery():
    plane = make_plane(seed=7, n_nodes=2, initial_replicas=1, fencing=False)
    assert plane.platform.epochs is None
    assert plane.router.fence is None
    submit(plane, plane.router, "r1")
    assert plane.router.stats.completed_ok == 1
    plane.check_invariants()
