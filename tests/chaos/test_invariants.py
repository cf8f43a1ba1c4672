"""Invariant checkers are exercised against hand-built histories — the
checkers must be provably able to catch each violation class, or a
green campaign proves nothing."""

from repro.chaos import History, check
from repro.chaos.invariants import (
    admitted_equals_terminal,
    at_most_once,
    no_acked_write_loss,
    single_writer_per_epoch,
    unique_counter_issue,
)


def test_no_acked_write_loss_detects_a_lost_ack():
    h = History()
    h.record("ack", "client", "op1", time=0.0)
    h.record("ack", "client", "op2", time=0.0)
    h.record("durable", "readout", "op1", time=0.0)
    violations = no_acked_write_loss(h)
    assert len(violations) == 1
    assert "op2" in violations[0]


def test_no_acked_write_loss_passes_when_every_ack_is_durable():
    h = History()
    h.record("ack", "client", "op1", time=0.0)
    h.record("durable", "readout", "op1", time=0.0)
    h.record("durable", "readout", "op2", time=0.0)  # extra durability is fine
    assert no_acked_write_loss(h) == []


def test_at_most_once_detects_double_execution():
    h = History()
    h.record("execute", "replica-0", "r1", time=0.0)
    h.record("execute", "replica-1", "r1", time=0.0)  # same op, second acceptor
    h.record("execute", "replica-0", "r2", time=0.0)
    violations = at_most_once(h)
    assert len(violations) == 1
    assert "'r1' executed 2 times" in violations[0]


def test_single_writer_detects_the_zombie_commit():
    h = History()
    h.record("promote", "leader-a", "cas-primary", time=0.0)
    h.record("commit", "leader-a", "seal/1", role="cas-primary", time=0.0)
    h.record("promote", "leader-b", "cas-primary", time=0.0)
    h.record("commit", "leader-b", "seal/2", role="cas-primary", time=0.0)
    h.record("commit", "leader-a", "seal/3", role="cas-primary", time=0.0)  # zombie
    violations = single_writer_per_epoch(h)
    assert len(violations) == 1
    assert "leader-a" in violations[0]
    assert "leader-b" in violations[0]


def test_single_writer_ignores_unroled_commits():
    h = History()
    h.record("promote", "a", "r", time=0.0)
    h.record("commit", "b", "x", time=0.0)  # no role: not leader-authored state
    assert single_writer_per_epoch(h) == []


def test_unique_counter_issue_detects_double_issue():
    h = History()
    h.record("issue", "a", "7", role="cas-primary", time=0.0)
    h.record("issue", "b", "7", role="cas-primary", time=0.0)
    h.record("issue", "b", "8", role="cas-primary", time=0.0)
    violations = unique_counter_issue(h)
    assert len(violations) == 1
    assert "'7' issued 2 times" in violations[0]


def test_unique_counter_issue_scoped_per_role():
    h = History()
    h.record("issue", "a", "7", role="cas-primary", time=0.0)
    h.record("issue", "b", "7", role="ps", time=0.0)  # different role, fine
    assert unique_counter_issue(h) == []


def test_admitted_equals_terminal():
    h = History()
    h.record("admit", "client", "r1", time=0.0)
    h.record("terminal", "client", "r1", time=0.0)
    assert admitted_equals_terminal(h) == []
    h.record("admit", "client", "r2", time=0.0)  # dangling
    assert len(admitted_equals_terminal(h)) == 1


def test_check_prefixes_violations_with_invariant_name():
    h = History()
    h.record("ack", "client", "lost", time=0.0)
    violations = check(h, ["no-acked-write-loss", "at-most-once"])
    assert violations == [
        "[no-acked-write-loss] acked write 'lost' (by client) is not durable"
    ]


def test_history_trace_is_canonical_and_ordered():
    h = History()
    h.record("admit", "c", "r1", time=1.5)
    h.record("commit", "l", "s", epoch=2, role="cas-primary", value="x", time=0.0)
    assert h.trace_bytes() == (
        b"0 1.500000 admit c r1\n"
        b"1 0.000000 commit l s v=x e=2 r=cas-primary"
    )
