"""Secure-aggregation federated mode: additive masking across an
aggregator-enclave committee.

The aggregate must be *exact* (bit-identical to the unmasked fixed-point
FedAvg computation — ring addition is associative, unlike float sums),
no single committee member may hold anything but uniformly random masks,
and hospitals must be unable to read partial sums.
"""

import hashlib

import numpy as np
import pytest

from repro.core import FederatedLearning, Hospital, SecureTFPlatform
from repro.core.platform import PlatformConfig
from repro.crypto.masking import combine_shares, decode_fixed, encode_fixed
from repro.data import synthetic_mnist
from repro.enclave.sgx import SgxMode
from repro.errors import AttestationError, ConfigurationError, RpcError


def make_federation(seed=5, n_aggregators=2, n_train=300, take=100, secure=True):
    platform = SecureTFPlatform(PlatformConfig(n_nodes=3, seed=seed))
    train, test = synthetic_mnist(n_train=n_train, n_test=200, seed=6)
    hospitals = [
        Hospital(
            f"hospital-{i}",
            platform.node(i),
            train.take(take) if take else train,
            learning_rate=0.1,
            seed=3,
        )
        for i in range(3)
    ]
    fl = FederatedLearning(
        platform, "sfl", hospitals, mode=SgxMode.HW,
        secure_aggregation=secure, n_aggregators=n_aggregators,
    )
    return platform, fl, hospitals, test


def test_secure_aggregate_is_bit_exact_fixed_point_fedavg():
    _, fl, hospitals, _ = make_federation()
    fl.start()
    fl.run_round(local_steps=3, round_seed=0)

    # Recompute the unmasked fixed-point FedAvg from the hospitals'
    # post-training weights: the masked committee aggregate must equal
    # it bit for bit (the masks cancel exactly over Z_2^64).
    total = sum(len(h.dataset) for h in hospitals)
    expected = {}
    for hospital in hospitals:
        n = np.float32(len(hospital.dataset))
        for name, value in hospital.weights().items():
            encoded = encode_fixed(value * n)
            expected[name] = (
                combine_shares([expected[name], encoded])
                if name in expected
                else encoded
            )
    aggregated = fl.global_weights()
    assert set(aggregated) == set(expected)
    for name in expected:
        reference = (
            decode_fixed(expected[name]) / np.float32(total)
        ).astype(np.float32)
        np.testing.assert_array_equal(aggregated[name], reference)

    # Every hospital handed one share to every committee member.
    assert [ps.shard_stats.pushes for ps in fl.job.ps_service.shards] == [
        len(hospitals)
    ] * 2
    fl.stop()


#: SHA-256 of ``global_weights()`` after two rounds of
#: ``make_federation()`` (sorted names, raw float32 bytes), captured
#: before federated rounds ran on the sharded trainer.  Ring arithmetic
#: is exact, so the secure aggregate may not move by a bit; plain FedAvg
#: applies ``sum(w_i * (n_i / N))`` in hospital order, as it always did.
PINNED_GLOBAL_WEIGHTS = {
    True: "a1401c467316a99a85d1159a2be05d99298bfd0b1579e1d60de7ee71e1b32b91",
    False: "987391ec3b3e4def557d89cbea9e633fa7928e6174aaa9d571990b2325b9a0de",
}


@pytest.mark.parametrize("secure", [True, False], ids=["secure", "plain"])
def test_two_rounds_match_the_pinned_aggregate(secure):
    _, fl, _, _ = make_federation(secure=secure)
    fl.start()
    for round_index in range(2):
        fl.run_round(local_steps=3, round_seed=round_index)
    weights = fl.global_weights()
    fl.stop()
    digest = hashlib.sha256(
        b"".join(weights[name].tobytes() for name in sorted(weights))
    ).hexdigest()
    assert digest == PINNED_GLOBAL_WEIGHTS[secure]


def test_secure_rounds_are_deterministic():
    def one_run():
        _, fl, _, _ = make_federation()
        fl.start()
        for round_index in range(2):
            fl.run_round(local_steps=3, round_seed=round_index)
        weights = fl.global_weights()
        fl.stop()
        return {name: value.tobytes() for name, value in weights.items()}

    assert one_run() == one_run()


def test_secure_rounds_improve_accuracy():
    """The masked protocol trains as well as plain FedAvg (§6.2): the
    mirror of ``test_federated_rounds_improve_accuracy`` with the
    committee in the loop."""
    platform = SecureTFPlatform(PlatformConfig(n_nodes=3, seed=5))
    train, test = synthetic_mnist(n_train=900, n_test=200, seed=6)
    shard = len(train) // 3
    hospitals = [
        Hospital(
            f"hospital-{i}",
            platform.node(i),
            type(train)(
                train.images[i * shard : (i + 1) * shard],
                train.labels[i * shard : (i + 1) * shard],
                train.num_classes,
            ),
            learning_rate=0.1,
            seed=3,
        )
        for i in range(3)
    ]
    fl = FederatedLearning(
        platform, "sfl", hospitals, mode=SgxMode.HW,
        secure_aggregation=True, n_aggregators=3,
    )
    fl.start()
    hospitals[0].load_weights(fl.global_weights())
    before = hospitals[0].evaluate_accuracy(test)
    for round_index in range(4):
        fl.run_round(local_steps=4, round_seed=round_index)
    hospitals[0].load_weights(fl.global_weights())
    after = hospitals[0].evaluate_accuracy(test)
    assert fl.rounds_completed == 4
    assert after > before + 0.2
    fl.stop()


def test_committee_partials_are_masked_until_combined(monkeypatch):
    """A single member's partial sum is not the (encoded) aggregate:
    each partial is a share of it, useless alone."""
    _, fl, hospitals, _ = make_federation()
    fl.start()
    # Read every member's partial sums at the round barrier, before the
    # first owner installs its pieces (which moves its round on).
    service = fl.job.ps_service
    keys = [piece.key for piece in service.shard_map.pieces]
    partials = []
    first = service.shard(service.active_shards[0])
    finish = first.finish_round

    def inspect_then_finish(round_tag, expected, *rest):
        for ps in service.shards:
            partials.append(ps._round_sums(round_tag, expected, keys))
        finish(round_tag, expected, *rest)

    monkeypatch.setattr(first, "finish_round", inspect_then_finish)
    fl.run_round(local_steps=2, round_seed=0)

    expected = {}
    for hospital in hospitals:
        n = np.float32(len(hospital.dataset))
        for part in service.shard_map.partition(hospital.weights()):
            for key, value in part.items():
                encoded = encode_fixed(value * n)
                expected[key] = (
                    combine_shares([expected[key], encoded])
                    if key in expected
                    else encoded
                )
    # No single partial equals the aggregate encoding; the wrapping sum
    # of all partials does, exactly.
    key = sorted(expected)[0]
    assert len(partials) == 2
    for partial in partials:
        assert not np.array_equal(partial[key], expected[key])
    combined = combine_shares([partial[key] for partial in partials])
    np.testing.assert_array_equal(combined, expected[key])
    fl.stop()


def test_hospitals_cannot_read_partial_sums():
    from repro.cluster.rpc import SecureRpcClient

    platform, fl, hospitals, _ = make_federation()
    fl.start()
    hospital = hospitals[0]
    client = SecureRpcClient(
        platform.network,
        f"{hospital.name}@{hospital.node.node_id}-snoop",
        hospital.node,
        shield=hospital.shield,
    )
    address = fl.job.ps_service.shard(1).address
    platform.network.scheduler.drive(client.open(address, expected_server=None))
    with pytest.raises((AttestationError, RpcError)):
        client.call(address, "partial", b"")
    fl.stop()


def test_secure_aggregation_needs_a_committee():
    platform = SecureTFPlatform(PlatformConfig(n_nodes=2, seed=5))
    train, _ = synthetic_mnist(n_train=60, n_test=10, seed=6)
    hospitals = [
        Hospital(f"h{i}", platform.node(i), train.take(30), seed=3)
        for i in range(2)
    ]
    with pytest.raises(ConfigurationError):
        FederatedLearning(
            platform, "sfl", hospitals,
            secure_aggregation=True, n_aggregators=1,
        )
