"""Epoch fencing: leases, guards, and the bump-before-promote contract."""

import pytest

from repro.cluster.epoch import EpochGuard, EpochLease, EpochService
from repro.errors import FencedError, FencingError, LeaseExpiredError


# -- service ---------------------------------------------------------------


def test_epochs_start_at_zero_and_bump_monotonically():
    svc = EpochService()
    assert svc.current("cas-primary") == 0
    assert svc.bump("cas-primary") == 1
    assert svc.bump("cas-primary") == 2
    assert svc.current("cas-primary") == 2
    # Roles are independent counters.
    assert svc.current("router") == 0


def test_grant_bumps_and_issues_lease_for_new_epoch():
    svc = EpochService()
    lease = svc.grant("ps", holder="ps-0")
    assert lease.epoch == 1
    assert lease.role == "ps"
    assert svc.holder("ps") is lease
    assert not lease.stale
    # Granting again supersedes the first lease immediately.
    lease2 = svc.grant("ps", holder="ps-1")
    assert lease2.epoch == 2
    assert lease.stale
    assert svc.holder("ps") is lease2


def test_grant_and_bump_update_stats_and_events():
    svc = EpochService()
    svc.grant("r", holder="a")
    svc.bump("r")
    assert svc.stats.grants == 1
    assert svc.stats.bumps == 2  # grant() bumps too
    assert svc.events == [
        "bump r -> 1",
        "grant r epoch=1 holder=a",
        "bump r -> 2",
    ]
    assert svc.trace_bytes() == b"bump r -> 1\ngrant r epoch=1 holder=a\nbump r -> 2"


def test_backing_hook_sees_every_bump():
    persisted = []
    svc = EpochService(backing=lambda role, epoch: persisted.append((role, epoch)))
    svc.grant("cas-primary")
    svc.bump("cas-primary")
    assert persisted == [("cas-primary", 1), ("cas-primary", 2)]


# -- lease -----------------------------------------------------------------


def test_lease_stamp_never_consults_authority():
    svc = EpochService()
    lease = svc.grant("router", holder="router-a")
    svc.bump("router")  # supersede it
    # A zombie keeps stamping its cached (dead) epoch — by design.
    assert lease.stamp() == {"role": "router", "epoch": 1}


def test_lease_check_raises_when_superseded():
    svc = EpochService()
    lease = svc.grant("cas-primary", holder="cas")
    lease.check()  # current: fine
    svc.bump("cas-primary")
    with pytest.raises(LeaseExpiredError):
        lease.check()
    assert svc.stats.lease_expiries == 1


def test_lease_expired_is_a_fencing_error():
    # Typed so RetryPolicy treats expiry as authoritative, like FencedError.
    assert issubclass(LeaseExpiredError, FencingError)
    assert issubclass(FencedError, FencingError)


# -- guard -----------------------------------------------------------------


def test_guard_rejects_stale_epoch_and_accepts_current():
    svc = EpochService()
    guard = svc.make_guard("ps", name="store")
    svc.grant("ps")  # fence round advances the registered guard to 1
    with pytest.raises(FencedError):
        guard.check(0)
    guard.check(1)  # current epoch passes
    guard.check(2)  # higher epochs teach the guard
    assert guard.highest_seen == 2
    with pytest.raises(FencedError):
        guard.check(1)
    assert svc.stats.fenced_rejections == 2


def test_guard_unstamped_requests_pass_unless_required():
    relaxed = EpochGuard("r")
    relaxed.advance(3)
    relaxed.check(None)  # unstamped tolerated by default
    strict = EpochGuard("r", name="standby", require=True)
    with pytest.raises(FencedError):
        strict.check(None)


def test_registering_a_guard_syncs_it_to_the_current_epoch():
    svc = EpochService()
    svc.grant("r")
    svc.grant("r")
    guard = svc.make_guard("r")
    assert guard.highest_seen == 2
    with pytest.raises(FencedError):
        guard.check(1)


def test_bump_fences_all_registered_guards_before_returning():
    # The bump-before-promote ordering: after bump() returns, every
    # acceptor already rejects the old epoch — there is no window in
    # which the replacement is live while a zombie can still commit.
    svc = EpochService()
    old = svc.grant("cas-primary", holder="old")
    guards = [svc.make_guard("cas-primary", name=f"g{i}") for i in range(3)]
    for g in guards:
        g.check(old.epoch)  # old leader accepted everywhere
    svc.bump("cas-primary")
    for g in guards:
        with pytest.raises(FencedError):
            g.check(old.epoch)
