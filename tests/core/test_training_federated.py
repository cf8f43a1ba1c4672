"""Training jobs and federated learning through the platform API."""

import numpy as np
import pytest

from repro.core import FederatedLearning, Hospital, SecureTFPlatform, TrainingJob
from repro.core.platform import PlatformConfig
from repro.core.training import TrainingJobConfig
from repro.data import synthetic_mnist
from repro.enclave.sgx import SgxMode
from repro.errors import AttestationError, ConfigurationError


@pytest.fixture(scope="module")
def mnist():
    train, test = synthetic_mnist(n_train=800, n_test=100, seed=4)
    return list(train.batches(100)), test


def run_job(mode, network_shield, workers, batches, steps=None):
    platform = SecureTFPlatform(PlatformConfig(n_nodes=3, seed=2))
    job = TrainingJob(
        platform,
        TrainingJobConfig(
            session="job",
            n_workers=workers,
            mode=mode,
            network_shield=network_shield,
            learning_rate=0.05,
        ),
    )
    job.start()
    result = job.train(batches, steps=steps)
    job.stop()
    return job, result


def test_secure_training_reduces_loss(mnist):
    batches, _ = mnist
    job, result = run_job(SgxMode.HW, True, 1, batches)
    first_losses = result.final_loss
    assert result.steps == len(batches)
    assert result.wall_clock > 0
    # Weights at the PS actually moved.
    assert any(np.abs(w).sum() > 0 for w in job.weights().values())


def test_hw_much_slower_than_native(mnist):
    batches, _ = mnist
    _, native = run_job(SgxMode.NATIVE, False, 1, batches, steps=4)
    _, hw = run_job(SgxMode.HW, True, 1, batches, steps=4)
    # Paper Fig. 8: full secureTF training is roughly an order of
    # magnitude slower than native (14x) due to EPC pressure.
    ratio = hw.wall_clock / native.wall_clock
    assert 6 < ratio < 30


def test_workers_speed_up_training(mnist):
    batches, _ = mnist
    _, one = run_job(SgxMode.HW, True, 1, batches)
    _, two = run_job(SgxMode.HW, True, 2, batches)
    speedup = one.wall_clock / two.wall_clock
    assert 1.6 < speedup < 2.2  # paper: 1.96x


def test_network_shield_adds_overhead(mnist):
    batches, _ = mnist
    _, plain = run_job(SgxMode.SIM, False, 1, batches, steps=4)
    _, shielded = run_job(SgxMode.SIM, True, 1, batches, steps=4)
    assert shielded.wall_clock > plain.wall_clock


def test_native_cannot_enable_network_shield():
    platform = SecureTFPlatform(PlatformConfig(n_nodes=2))
    with pytest.raises(ConfigurationError):
        TrainingJob(
            platform,
            TrainingJobConfig(
                session="x", mode=SgxMode.NATIVE, network_shield=True
            ),
        )
    with pytest.raises(ConfigurationError):
        TrainingJob(
            platform, TrainingJobConfig(session="x", n_workers=0)
        )


def _outsider_client(platform, node, subject, address):
    """A client with a secure session to ``address`` under a
    CAS-certified ``subject``."""
    from repro.cluster.rpc import SecureRpcClient
    from repro.crypto.certs import Certificate
    from repro.crypto.ed25519 import Ed25519PrivateKey
    from repro.crypto.tls import TlsIdentity
    from repro.runtime.net_shield import NetworkShield

    key_bytes, cert_bytes = platform.cas.keys.new_tls_identity(
        subject, now=node.clock.now
    )
    shield = NetworkShield(
        TlsIdentity(Ed25519PrivateKey(key_bytes), Certificate.from_bytes(cert_bytes)),
        [platform.cas.keys.ca.public_key()],
        platform.cost_model,
        node.clock,
        node.rng.child(subject),
    )
    client = SecureRpcClient(platform.network, subject, node, shield)
    platform.network.scheduler.drive(client.open(address))
    return client


def test_parameter_server_serves_only_its_own_session():
    """CAS certifies more than one session's enclaves (and users): a
    certificate that chains to its root is not, on its own, a reason to
    hand out the model or take a gradient."""
    from repro.cluster.rpc import SecureRpcClient
    from repro.crypto import encoding
    from repro.tensor.arrays import encode_array_dict

    platform = SecureTFPlatform(PlatformConfig(n_nodes=3, seed=2))
    jobs = [
        TrainingJob(
            platform,
            TrainingJobConfig(session=session, mode=SgxMode.HW, learning_rate=0.05),
        )
        for session in ("job", "other")
    ]
    for job in jobs:
        job.start()
    ps = jobs[0].ps_service.shard(0)
    push = encoding.encode({"gradients": encode_array_dict({}), "declared_flops": 0})
    node = platform.node(1)
    stranger = _outsider_client(platform, node, "user/random-guy", ps.address)
    foreign = jobs[1].workers[0]
    foreigner = SecureRpcClient(
        platform.network, foreign.address, foreign.node, foreign.shield
    )
    platform.network.scheduler.drive(foreigner.open(ps.address))
    for client in (stranger, foreigner):
        for method, payload in (("pull", b""), ("push", push)):
            with pytest.raises(AttestationError):
                client.call(ps.address, method, payload)
    assert ps.version == 1  # nothing was applied
    # The job's own worker is still served.
    own = jobs[0].workers[0]
    client = SecureRpcClient(platform.network, own.address, own.node, own.shield)
    platform.network.scheduler.drive(client.open(ps.address))
    assert encoding.decode(client.call(ps.address, "pull", b""))["version"] == 1


@pytest.mark.parametrize("when", ["connect", "reconnect"])
def test_training_worker_talks_only_to_its_own_session(mnist, when):
    """The mirror of the shard's peer scope: a CAS-certified shard of
    another session that answers at this job's shard address chains to
    the same root, and is refused before it sees a pull or a push —
    whether it is there at the first handshake or takes the address
    from under a live session (the retry loop's re-handshake)."""
    from repro.cluster.retry import RetryPolicy
    from repro.cluster.rpc import SecureRpcServer

    batches, _ = mnist
    platform = SecureTFPlatform(PlatformConfig(n_nodes=3, seed=2))
    jobs = [
        TrainingJob(
            platform,
            TrainingJobConfig(
                session=session, mode=SgxMode.HW, learning_rate=0.05,
                retry_policy=RetryPolicy(max_attempts=3),
            ),
        )
        for session in ("job", "other")
    ]
    for job in jobs:
        job.start()
    if when == "reconnect":
        jobs[0].train(batches, steps=1)  # sessions to the real shard exist
    target = jobs[0].ps_service.shard(0)
    foreign = jobs[1].ps_service.shard(0)
    served = []
    platform.network.unregister(target.address)
    impostor = SecureRpcServer(
        platform.network, target.address, foreign.node, foreign.shield
    )
    for method in ("pull", "push"):
        impostor.register(method, lambda payload, peer, m=method: served.append(m) or b"")
    impostor.start()
    refusal = "presented" if when == "connect" else "is now"
    with pytest.raises(AttestationError, match=f"{refusal} .* outside 'job/'"):
        jobs[0].train(batches, steps=2)
    assert served == []
    for job in jobs:
        job.stop()


def test_train_requires_start(mnist):
    batches, _ = mnist
    platform = SecureTFPlatform(PlatformConfig(n_nodes=2))
    job = TrainingJob(
        platform, TrainingJobConfig(session="x", mode=SgxMode.SIM, network_shield=False)
    )
    with pytest.raises(ConfigurationError):
        job.train(batches)


# --- federated learning -----------------------------------------------------------


def test_federated_rounds_improve_accuracy():
    platform = SecureTFPlatform(PlatformConfig(n_nodes=3, seed=5))
    train, test = synthetic_mnist(n_train=900, n_test=200, seed=6)
    shard = len(train) // 3
    hospitals = [
        Hospital(
            f"hospital-{i}",
            platform.node(i),
            # Disjoint shards: each hospital holds private data.
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
    fl = FederatedLearning(platform, "fl", hospitals, mode=SgxMode.HW)
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


def test_federated_needs_multiple_parties():
    platform = SecureTFPlatform(PlatformConfig(n_nodes=2))
    train, _ = synthetic_mnist(n_train=50, n_test=10, seed=0)
    hospital = Hospital("solo", platform.node(0), train)
    with pytest.raises(ConfigurationError):
        FederatedLearning(platform, "fl", [hospital])


def test_unauthorized_party_cannot_submit():
    from repro.cluster.rpc import SecureRpcClient
    from repro.crypto.certs import Certificate
    from repro.crypto.ed25519 import Ed25519PrivateKey
    from repro.crypto.tls import TlsIdentity
    from repro.runtime.net_shield import NetworkShield

    platform = SecureTFPlatform(PlatformConfig(n_nodes=3, seed=5))
    train, _ = synthetic_mnist(n_train=100, n_test=10, seed=6)
    hospitals = [
        Hospital(f"h{i}", platform.node(i), train.take(30), seed=3)
        for i in range(2)
    ]
    fl = FederatedLearning(platform, "fl", hospitals, mode=SgxMode.HW)
    fl.start()

    # A CAS-certified identity that is NOT a hospital of this session.
    node = platform.node(2)
    key_bytes, cert_bytes = platform.cas.keys.new_tls_identity(
        "user/random-guy", now=node.clock.now
    )
    shield = NetworkShield(
        TlsIdentity(Ed25519PrivateKey(key_bytes), Certificate.from_bytes(cert_bytes)),
        [platform.cas.keys.ca.public_key()],
        platform.cost_model,
        node.clock,
        node.rng.child("rg"),
    )
    outsider = SecureRpcClient(platform.network, "rg", node, shield)
    platform.network.scheduler.drive(outsider.open(fl.address))
    # The aggregator's authentication rejection arrives typed.
    with pytest.raises(AttestationError):
        outsider.call(fl.address, "pull", b"")
    fl.stop()
