"""Platform assembly and the secure inference service."""

import numpy as np
import pytest

from repro.core import InferenceService, SecureTFPlatform
from repro.core.inference import (
    MODEL_PATH_PREFIX,
    deploy_encrypted_model,
    service_runtime_config,
)
from repro.core.platform import PlatformConfig
from repro.crypto import encoding
from repro.data import synthetic_cifar10
from repro.enclave.sgx import SgxMode
from repro.errors import ConfigurationError, RpcError
from repro.models import build_model, pretrained_lite_model
from repro.tensor.lite import Interpreter


@pytest.fixture(scope="module")
def lite_model():
    return pretrained_lite_model("densenet", seed=0)


@pytest.fixture(scope="module")
def images():
    _, test = synthetic_cifar10(n_train=10, n_test=10, seed=2)
    return test.images


@pytest.fixture
def platform():
    return SecureTFPlatform(PlatformConfig(n_nodes=3, seed=1))


@pytest.mark.parametrize("backup", [-1, 5, -3, 0, 3])
def test_cas_backup_node_must_name_another_existing_node(backup):
    """CAS runs on node 0; on 3 nodes the standby is node 1 or 2.  A
    negative index would alias a node from the end (-3 is CAS itself),
    and an index past the cluster has no node."""
    with pytest.raises(ConfigurationError, match="cas_backup_node"):
        SecureTFPlatform(PlatformConfig(n_nodes=3, seed=1, cas_backup_node=backup))


def test_cas_backup_node_on_the_last_node_builds_a_pair():
    platform = SecureTFPlatform(PlatformConfig(n_nodes=3, seed=1, cas_backup_node=2))
    assert platform.cas_pair is not None
    assert platform.cas_pair.backup.node is platform.nodes[2]


def start_service(platform, lite_model, mode=SgxMode.HW, **kwargs):
    session = "infer"
    platform.register_session(
        session,
        [service_runtime_config("svc", m) for m in (SgxMode.HW, SgxMode.SIM)],
        accept_debug=True,
    )
    path = deploy_encrypted_model(platform, session, platform.node(1), lite_model)
    service = InferenceService(
        platform, session, platform.node(1), path, mode=mode, name="svc", **kwargs
    )
    service.start()
    return service, path


def test_user_attests_cas(platform):
    report = platform.user_attest_cas()
    assert report.attributes["name"] == "cas"


def test_model_is_encrypted_at_rest(platform, lite_model):
    _, path = start_service(platform, lite_model)
    raw = platform.node(1).vfs.read(path).content
    assert lite_model.graph_blob[:200] not in raw
    assert path.startswith(MODEL_PATH_PREFIX)


def test_classification_matches_unprotected_reference(platform, lite_model, images):
    service, _ = start_service(platform, lite_model)
    reference = Interpreter(lite_model)
    reference.allocate_tensors()
    for image in images[:5]:
        assert service.classify(image) == reference.classify(image[None])


def test_all_modes_agree_on_labels(platform, lite_model, images):
    """The paper's accuracy claim: protection does not change outputs."""
    labels = {}
    for mode in (SgxMode.HW, SgxMode.SIM):
        fresh = SecureTFPlatform(PlatformConfig(n_nodes=2, seed=1))
        service, _ = start_service(fresh, lite_model, mode=mode)
        labels[mode] = [service.classify(img) for img in images[:4]]
    assert labels[SgxMode.HW] == labels[SgxMode.SIM]


def test_hw_slower_than_sim(platform, lite_model, images):
    latencies = {}
    for mode in (SgxMode.HW, SgxMode.SIM):
        fresh = SecureTFPlatform(PlatformConfig(n_nodes=2, seed=1))
        service, _ = start_service(fresh, lite_model, mode=mode)
        service.classify(images[0])  # warm
        before = service.node.clock.now
        for img in images[:3]:
            service.classify(img)
        latencies[mode] = service.node.clock.now - before
    assert latencies[SgxMode.HW] > latencies[SgxMode.SIM]


def test_classify_requires_start(platform, lite_model):
    platform.register_session(
        "s", [service_runtime_config("svc", SgxMode.HW)]
    )
    path = deploy_encrypted_model(platform, "s", platform.node(1), lite_model)
    service = InferenceService(
        platform, "s", platform.node(1), path, name="svc"
    )
    with pytest.raises(ConfigurationError):
        service.classify(np.zeros((32, 32, 3), np.float32))


def test_serve_over_secure_rpc(platform, lite_model, images):
    from repro.cluster.rpc import SecureRpcClient
    from repro.crypto.ed25519 import Ed25519PublicKey
    from repro.runtime.net_shield import NetworkShield
    from repro.crypto.tls import TlsIdentity
    from repro.crypto.ed25519 import Ed25519PrivateKey
    from repro.crypto.certs import Certificate
    from repro.tensor.arrays import encode_array

    service, _ = start_service(platform, lite_model)
    address = service.serve()

    # A client (the end user) gets an identity from the CAS CA.
    user_node = platform.node(2)
    key_bytes, cert_bytes = platform.cas.keys.new_tls_identity(
        "user/alice", now=user_node.clock.now
    )
    shield = NetworkShield(
        TlsIdentity(Ed25519PrivateKey(key_bytes), Certificate.from_bytes(cert_bytes)),
        [platform.cas.keys.ca.public_key()],
        platform.cost_model,
        user_node.clock,
        user_node.rng.child("user"),
    )
    client = SecureRpcClient(platform.network, "alice", user_node, shield)
    platform.network.scheduler.drive(client.open(address))
    reply = client.call(
        address, "classify", encoding.encode(encode_array(images[0]))
    )
    label = encoding.decode(reply)["label"]
    reference = Interpreter(lite_model)
    reference.allocate_tensors()
    assert label == reference.classify(images[0][None])
    service.stop()
    with pytest.raises(RpcError):
        client.call(address, "classify", encoding.encode(encode_array(images[0])))


def test_stats_track_requests(platform, lite_model, images):
    service, _ = start_service(platform, lite_model)
    for img in images[:3]:
        service.classify(img)
    assert service.stats.requests == 3
    assert service.stats.mean_latency > 0
    assert service.stats.startup_latency > 0


def test_platform_validation():
    with pytest.raises(ConfigurationError):
        SecureTFPlatform(PlatformConfig(n_nodes=0))
