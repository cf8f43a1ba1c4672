"""The paper's full deployment story, end to end (Fig. 1 + §6.1).

One test walks every step: the user attests CAS, registers a policy,
uploads an encrypted model, the service container attests and gets
provisioned, inference runs in the enclave, and results flow back over
TLS — with assertions at each trust boundary.
"""

import numpy as np
import pytest

from repro.core import InferenceService, SecureTFPlatform
from repro.core.inference import deploy_encrypted_model, service_runtime_config
from repro.core.platform import PlatformConfig
from repro.crypto import encoding
from repro.data import synthetic_cifar10, synthetic_mnist
from repro.enclave.sgx import SgxMode
from repro.models import build_model, pretrained_lite_model
from repro.tensor.lite import Interpreter

import repro.tensor as tf


def test_document_digitization_deployment_story():
    """§6.1: a company serves handwritten-document classification from
    enclaves; clients keep inputs confidential, the company keeps its
    model confidential."""
    platform = SecureTFPlatform(PlatformConfig(n_nodes=3, seed=10))

    # Step 1 (user): attest CAS before trusting it with anything.
    report = platform.user_attest_cas()
    assert not report.debug

    # Step 2 (company): train a model on MNIST-like documents, freeze,
    # convert to Lite.
    train, test = synthetic_mnist(n_train=1500, n_test=200, seed=11)
    built = build_model("mnist_cnn", seed=11)
    with built.graph.as_default():
        labels = tf.placeholder("float32", (None, 10), name="labels")
        loss = tf.losses.softmax_cross_entropy(labels, built.logits)
        train_op = tf.optimizers.Adam(0.005).minimize(loss)
        init = tf.global_variables_initializer(built.graph)
    sess = tf.Session(graph=built.graph)
    sess.run(init)
    for epoch in range(2):
        for bx, by in train.batches(64, shuffle_seed=epoch):
            sess.run(train_op, {built.input: bx, labels: by})
    model = built.to_lite("digitizer")

    # Step 3 (company): register the session and upload the model,
    # encrypted under the CAS-held session key.
    session = "digitizer"
    platform.register_session(
        session, [service_runtime_config("digitizer-svc", SgxMode.HW)]
    )
    path = deploy_encrypted_model(platform, session, platform.node(1), model)
    stored = platform.node(1).vfs.read(path).content
    assert model.graph_blob[100:400] not in stored  # plaintext never lands

    # Step 4: container starts, attests to CAS, loads the model inside
    # the enclave, serves.
    service = InferenceService(
        platform, session, platform.node(1), path, mode=SgxMode.HW,
        name="digitizer-svc",
    )
    service.start()
    assert service.identity is not None
    assert service.identity.session == session

    # Step 5: classification matches the unprotected model exactly
    # (the paper's accuracy property), and is correct on real data.
    reference = Interpreter(model)
    reference.allocate_tensors()
    correct = 0
    for i in range(30):
        image = test.images[i]
        label = service.classify(image)
        assert label == reference.classify(image[None])
        correct += label == test.labels[i]
    assert correct / 30 > 0.85  # the trained model genuinely works

    # Step 6: the audit log recorded the model upload; the chain verifies.
    platform.cas.audit.verify_chain()
    # Freshness is tracked per (session, node) — the model lives on node-1.
    assert platform.cas.audit.latest(f"{session}@node-1", path) is not None
    service.stop()


def test_elastic_scale_out_with_attestation():
    """Challenge ❹: elastic scaling with per-container attestation."""
    from repro.cluster import ContainerSpec

    platform = SecureTFPlatform(PlatformConfig(n_nodes=3, seed=12))
    model = pretrained_lite_model("densenet", seed=0)
    session = "elastic"
    config = service_runtime_config("elastic-svc", SgxMode.HW)
    platform.register_session(session, [config])
    for node in platform.nodes:
        deploy_encrypted_model(platform, session, node, model)

    provisioned = []

    def attest_hook(container):
        identity = platform.provision_runtime(
            container.runtime, container.node, session
        )
        provisioned.append(identity)

    platform.orchestrator.on_start.append(attest_hook)
    spec = ContainerSpec(session, lambda node, index: config)

    platform.orchestrator.scale_to(spec, 3)
    assert len(provisioned) == 3
    assert len({p.tls_certificate for p in provisioned}) == 3

    # Scale down and back up: the new replica is attested afresh.
    platform.orchestrator.scale_to(spec, 1)
    platform.orchestrator.scale_to(spec, 2)
    assert len(provisioned) == 4


def test_failure_recovery_reattests():
    from repro.cluster import ContainerSpec

    platform = SecureTFPlatform(PlatformConfig(n_nodes=2, seed=13))
    session = "ha"
    config = service_runtime_config("ha-svc", SgxMode.HW)
    platform.register_session(session, [config])
    provisioned = []
    platform.orchestrator.on_start.append(
        lambda c: provisioned.append(
            platform.provision_runtime(c.runtime, c.node, session)
        )
    )
    spec = ContainerSpec(session, lambda node, index: config)
    containers = platform.orchestrator.scale_to(spec, 2)
    platform.orchestrator.fail_container(containers[0])
    (replacement,) = platform.orchestrator.supervise(spec).values()
    assert replacement is not None
    assert len(provisioned) == 3
    assert len(platform.orchestrator.replicas(session)) == 2


def test_multi_node_classification_scales_out():
    """Fig. 7 scale-out shape: distributing images over nodes divides
    the makespan."""
    _, test = synthetic_cifar10(n_train=5, n_test=30, seed=3)
    model = pretrained_lite_model("densenet", seed=0)

    def run_on_nodes(n_nodes, images_total=12):
        platform = SecureTFPlatform(PlatformConfig(n_nodes=3, seed=14))
        session = "scale"
        platform.register_session(
            session, [service_runtime_config("svc", SgxMode.HW)]
        )
        services = []
        for node in platform.nodes[:n_nodes]:
            path = deploy_encrypted_model(platform, session, node, model)
            service = InferenceService(
                platform, session, node, path, mode=SgxMode.HW, name="svc",
                threads=4,
            )
            service.start()
            services.append(service)
        start = platform.time
        per_node = images_total // n_nodes
        for service in services:
            for i in range(per_node):
                service.classify(test.images[i])
        return max(s.node.clock.now for s in services) - start

    one = run_on_nodes(1)
    three = run_on_nodes(3)
    assert one / three > 2.0  # near-linear scale-out (paper: 1180s -> 403s)
