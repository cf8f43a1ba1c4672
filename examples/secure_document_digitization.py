#!/usr/bin/env python3
"""Use case §6.1: secure handwritten-document digitization (Fig. 9).

A company runs a handwriting-classification service in a public cloud.
Its customers demand input confidentiality; the company wants to protect
its trained model and code.  Both are satisfied by running inference in
an attested enclave, with the model encrypted at rest and all requests
on network-shield TLS.

This example also *plays the adversary*: it tampers with the stored
model and rolls it back, showing both attacks detected.

Run:  python examples/secure_document_digitization.py
"""

import copy

import numpy as np

import repro.tensor as tf
from repro.core import InferenceService, SecureTFPlatform
from repro.core.inference import deploy_encrypted_model, service_runtime_config
from repro.core.platform import PlatformConfig
from repro.crypto import encoding
from repro.data import synthetic_mnist
from repro.enclave.sgx import SgxMode
from repro.errors import FreshnessError, ShieldError
from repro.models import build_model
from repro.tensor.arrays import encode_array


def train_digitizer():
    """The company trains its document model on its own infrastructure."""
    print("== training the digitizer (company premises) ==")
    train, test = synthetic_mnist(n_train=2000, n_test=300, seed=3)
    built = build_model("mnist_cnn", seed=3)
    with built.graph.as_default():
        labels = tf.placeholder("float32", (None, 10), name="labels")
        loss = tf.losses.softmax_cross_entropy(labels, built.logits)
        accuracy = tf.metrics.accuracy(labels, built.logits)
        step = tf.optimizers.Adam(0.005).minimize(loss)
        init = tf.global_variables_initializer(built.graph)
    session = tf.Session(graph=built.graph)
    session.run(init)
    for epoch in range(2):
        for batch_x, batch_y in train.batches(64, shuffle_seed=epoch):
            session.run(step, {built.input: batch_x, labels: batch_y})
    test_accuracy = session.run(
        accuracy, {built.input: test.images, labels: test.one_hot_labels}
    )
    print(f"   test accuracy: {test_accuracy:.1%}")
    return built.to_lite("digitizer"), test


def main() -> None:
    model, test = train_digitizer()

    print("== deploying to the untrusted cloud ==")
    platform = SecureTFPlatform(PlatformConfig(n_nodes=3, seed=4))
    platform.user_attest_cas()
    session = "digitizer"
    platform.register_session(
        session, [service_runtime_config("digitizer-svc", SgxMode.HW)]
    )
    node = platform.node(1)
    path = deploy_encrypted_model(platform, session, node, model)
    print(f"   model at {path}: encrypted, integrity-protected, "
          f"freshness-audited by CAS")

    service = InferenceService(
        platform, session, node, path, mode=SgxMode.HW, name="digitizer-svc"
    )
    service.start()
    address = service.serve()
    print(f"   service attested; listening on {address!r} (TLS only)")

    print("== customers send documents over TLS ==")
    correct = 0
    for index in range(20):
        label = service.classify(test.images[index])
        correct += label == test.labels[index]
    print(f"   20 documents classified, {correct} correct")

    print("== adversary: tamper with the stored model ==")
    raw = node.vfs.read(path).content
    corrupted = bytearray(raw)
    corrupted[len(corrupted) // 3] ^= 0x80
    node.vfs.tamper(path, bytes(corrupted))
    probe = InferenceService(
        platform, session, node, path, mode=SgxMode.HW, name="digitizer-svc"
    )
    try:
        probe.start()
        print("   !! tampering went UNDETECTED (bug)")
    except (ShieldError, FreshnessError) as exc:
        print(f"   tampering detected: {type(exc).__name__}")
    node.vfs.tamper(path, raw)  # restore

    print("== adversary: roll the model back to an old version ==")
    snapshot = copy.deepcopy(node.vfs.read(path))
    deploy_encrypted_model(platform, session, node, model, path=path)  # v1
    node.vfs.rollback(path, snapshot)
    probe = InferenceService(
        platform, session, node, path, mode=SgxMode.HW, name="digitizer-svc"
    )
    try:
        probe.start()
        print("   !! rollback went UNDETECTED (bug)")
    except FreshnessError as exc:
        print(f"   rollback detected by the CAS audit service: "
              f"{type(exc).__name__}")

    audit = platform.cas.audit
    audit.verify_chain()
    print(f"   audit log intact: {len(audit.log)} entries, hash chain verifies")
    # A long-running service bounds its log: CAS signs the head with its
    # root key and drops the covered history; the signed head still pins it.
    root = platform.cas.keys.ca.root_key
    audit.checkpoint(root)
    dropped = audit.truncate()
    audit.verify_chain(root.public_key())
    print(f"   CAS checkpointed the log and truncated {dropped} covered entries; "
          f"the retained chain verifies from the signed head")
    service.stop()


if __name__ == "__main__":
    main()
