"""A lost hospital message neither aborts nor poisons a federated round.

A round rides the training job's trainer: a dropped push is resent under
its call ID, a dropped reply is answered from the shard's at-most-once
window, and a round that raised leaves nothing behind for the next one
to count.
"""

import hashlib

import numpy as np
import pytest

from repro.cluster.network import FaultAction
from repro.errors import RpcTransportError
from tests.core.test_secure_aggregation import make_federation

#: Requests above this size carry a model (pulls and handshakes are far
#: smaller); replies to a push are small.
MODEL_BYTES = 20_000


def _digest(weights):
    return hashlib.sha256(
        b"".join(weights[name].tobytes() for name in sorted(weights))
    ).hexdigest()


def _one_round(secure, fault=None):
    platform, fl, hospitals, _ = make_federation(secure=secure)
    fl.start()
    if fault is not None:
        platform.network.faults.append(fault(hospitals[1], fl.address))
    fl.run_round(local_steps=3, round_seed=0)
    weights = fl.global_weights()
    fl.stop()
    return fl, platform.network.stats.dropped, _digest(weights)


def drop_first_push(hospital, shard):
    """Lose ``hospital``'s first model push to ``shard``, once."""
    dropped = []

    def inject(src, dst, n_bytes, now):
        if (
            not dropped
            and src.startswith(f"{hospital.name}@")
            and dst == shard
            and n_bytes > MODEL_BYTES
        ):
            dropped.append(now)
            return FaultAction(drop=True, reason="test: push lost")
        return None

    return inject


def drop_first_push_reply(hospital, shard):
    """Deliver ``hospital``'s first model push to ``shard`` but lose the
    reply to it, once."""
    state = {"pushed": False, "dropped": False}

    def inject(src, dst, n_bytes, now):
        if src.startswith(f"{hospital.name}@") and dst == shard and n_bytes > MODEL_BYTES:
            state["pushed"] = True
        elif (
            state["pushed"]
            and not state["dropped"]
            and src == shard
            and dst.startswith(f"{hospital.name}@")
        ):
            state["dropped"] = True
            return FaultAction(drop=True, reason="test: reply lost")
        return None

    return inject


@pytest.mark.parametrize("secure", [True, False], ids=["secure", "plain"])
@pytest.mark.parametrize("fault", [drop_first_push, drop_first_push_reply])
def test_lost_message_round_equals_the_fault_free_round(secure, fault):
    _, _, clean = _one_round(secure)
    fl, dropped, faulted = _one_round(secure, fault)
    assert dropped == 1 and fl.rounds_completed == 1
    # At most once: the resent push is not counted twice.
    assert faulted == clean


def test_a_failed_round_leaves_nothing_for_the_next():
    platform, fl, hospitals, _ = make_federation(secure=False)
    fl.start()
    lost = []

    def lose_hospital_1(src, dst, n_bytes, now):
        # Every model hospital-1 sends is lost: its push exhausts the
        # retries after hospital-0's push was already taken.
        if src.startswith(f"{hospitals[1].name}@") and n_bytes > MODEL_BYTES:
            lost.append(now)
            return FaultAction(drop=True, reason="test: hospital-1 offline")
        return None

    platform.network.faults.append(lose_hospital_1)
    with pytest.raises(RpcTransportError):
        fl.run_round(local_steps=3, round_seed=0)
    assert lost
    platform.network.faults.remove(lose_hospital_1)

    fl.run_round(local_steps=3, round_seed=1)
    # The global model is exactly this round's FedAvg of the three
    # hospitals, each counted once.
    total = sum(len(h.dataset) for h in hospitals)
    global_weights = fl.global_weights()
    for name, value in global_weights.items():
        expected = sum(
            h.weights()[name] * (len(h.dataset) / total) for h in hospitals
        ).astype(np.float32)
        np.testing.assert_array_equal(value, expected)
    assert fl.rounds_completed == 1
    fl.stop()


def test_a_shard_lost_mid_round_resumes_with_the_pushes_it_took():
    from tests.core.test_secure_aggregation import PINNED_GLOBAL_WEIGHTS

    platform, fl, hospitals, _ = make_federation()
    fl.start()
    fl.run_round(local_steps=3, round_seed=0)
    shard = fl.job.ps_service.shard(1).address
    crashed = []

    def crash_shard(src, dst, n_bytes, now):
        # Shard 1 already holds hospital-0's shares of this round when
        # hospital-1's arrive: it dies instead of taking them.
        if (
            not crashed
            and src.startswith(f"{hospitals[1].name}@")
            and dst == shard
            and n_bytes > MODEL_BYTES
        ):
            crashed.append(now)
            fl.job._apply_crash("ps-1")
            return FaultAction(drop=True, reason="test: shard 1 crashed")
        return None

    platform.network.faults.append(crash_shard)
    fl.run_round(local_steps=3, round_seed=1)
    assert crashed
    assert any("ps-shard-restart shard=1" in e for e in fl.job.recovery_events)
    # The replacement resumed from the checkpoint holding hospital-0's
    # shares, so the round equals the fault-free one bit for bit.
    assert _digest(fl.global_weights()) == PINNED_GLOBAL_WEIGHTS[True]
    fl.stop()
