#!/usr/bin/env python3
"""A TensorFlow-1 training program, unmodified, inside the enclave (§3.3.4, §4.1).

The paper's promise is that a TF 1.x program runs in secureTF as it is:
a static graph, a ``Session``, a ``Saver`` checkpoint.  This script is
such a program, with the platform around it:

1. the data owner uploads the training set encrypted under the session
   key (§4.1: "secureTF protects the input data ... by activating the
   file system shield");
2. the trainer enclave attests to CAS, receives the key, and reads the
   set back through its file-system shield;
3. the TF-1 program normalizes its inputs (§7.1), builds a classifier
   with dropout, an L2-regularized mean-squared-error loss, momentum on
   an exponentially decaying learning rate and global-norm gradient
   clipping, and trains it with its compute charged to the enclave;
4. it checkpoints the weights with ``Saver`` into an encrypted file,
   restores them into a fresh graph and checks they are the same.

Run:  python examples/tf1_training_in_enclave.py
"""

import numpy as np

import repro.tensor as tf
from repro.cas.audit import ScopedFreshnessTracker
from repro.core import SecureTFPlatform
from repro.core.data_protection import (
    dataset_rules,
    deploy_encrypted_dataset,
    load_encrypted_dataset,
)
from repro.core.platform import PlatformConfig
from repro.data import synthetic_mnist
from repro.data.preprocess import normalize_dataset, standardize
from repro.enclave.sgx import SgxMode
from repro.runtime.fs_shield import PathRule, ShieldPolicy
from repro.runtime.scone import RuntimeConfig, SconeRuntime
from repro.tensor.engine import FULL_TF_TRAINING_PROFILE, ExecutionEngine
from repro.tensor.schedules import ExponentialDecay, clip_by_global_norm

SESSION = "tf1-trainer"
CHECKPOINT = "/secure/checkpoints/tf1-classifier.ckpt"
STEPS = 40
BATCH = 50


def start_trainer_enclave(platform, node):
    """Attest a trainer enclave to CAS and arm its file-system shield."""
    config = RuntimeConfig(
        name="tf1-trainer",
        mode=SgxMode.HW,
        binary_size=FULL_TF_TRAINING_PROFILE.binary_size,
        fs_shield_enabled=True,
        fs_rules=dataset_rules()
        + [PathRule("/secure/checkpoints/", ShieldPolicy.ENCRYPT)],
    )
    platform.register_session(SESSION, [config])
    runtime = SconeRuntime(
        config, node.vfs, platform.cost_model, node.clock,
        cpu=node.cpu, rng=node.rng.child("tf1-trainer"),
    )
    identity = platform.provision_runtime(runtime, node, SESSION)
    runtime.install_fs_key(
        identity.fs_key,
        freshness=ScopedFreshnessTracker(
            platform.cas.audit, f"{SESSION}@{node.node_id}"
        ),
    )
    return runtime


def classifier(images, training):
    """The model, as a TF-1 program writes it into the default graph."""
    rng = np.random.default_rng(3)
    net = tf.layers.flatten(images, name="flat")
    net = tf.layers.dense(net, 64, activation="relu", name="fc1", rng=rng)
    if training:
        net = tf.nn.dropout(net, 0.1, seed=4, name="fc1/dropout")
    return tf.layers.dense(net, 10, name="logits", rng=rng)


def main() -> None:
    platform = SecureTFPlatform(PlatformConfig(n_nodes=2, seed=12))
    node = platform.node(1)
    runtime = start_trainer_enclave(platform, node)
    print(f"trainer enclave attested: measurement {runtime.measurement.hex()[:16]}…")

    # 1. The data owner's upload: ciphertext at rest, audited by CAS.
    train, _ = synthetic_mnist(n_train=STEPS * BATCH, n_test=10, seed=13)
    path = deploy_encrypted_dataset(platform, SESSION, node, train)
    stored = node.vfs.listdir(path)
    leaked = any(train.images.tobytes()[:256] in node.vfs.read(p).content for p in stored)
    print(f"training set uploaded encrypted: {path} ({len(train)} examples in "
          f"{len(stored)} host files; plaintext visible on the host: {leaked})")

    # 2. Inside the enclave: decrypt and verify through the shield.
    loaded = load_encrypted_dataset(runtime, path)
    small = normalize_dataset(loaded, 14)  # §7.1: a smaller working set
    images, (mean, std) = standardize(small.images)
    labels = small.one_hot_labels
    print(f"enclave read {len(loaded)} examples; normalized "
          f"{loaded.images.shape[1]}px -> {small.images.shape[1]}px "
          f"(mean {mean:.3f}, std {std:.3f})")

    # 3. The TF-1 program.
    graph = tf.reset_default_graph()
    x = tf.placeholder("float32", (None, 14, 14, 1), name="images")
    y = tf.placeholder("float32", (None, 10), name="labels")
    logits = classifier(x, training=True)
    weights = [v for v in tf.global_variables() if v.trainable]
    loss = tf.add(
        tf.losses.mean_squared_error(y, tf.softmax(logits)),
        tf.losses.l2_regularization(weights, 1e-4),
        name="loss",
    )
    top3 = tf.metrics.top_k_accuracy(y, logits, k=3)
    schedule = ExponentialDecay(0.5, 0.5, decay_steps=STEPS)
    optimizer = tf.optimizers.Momentum(schedule.tensor, momentum=0.9)
    grads, norm = clip_by_global_norm(
        [g for g, _ in optimizer.compute_gradients(loss)], max_norm=1.0
    )
    train_op = optimizer.apply_gradients(list(zip(grads, weights)))

    engine = ExecutionEngine(runtime, FULL_TF_TRAINING_PROFILE, threads=4)
    sess = tf.Session(graph=graph, engine=engine, threads=4)
    sess.run(tf.global_variables_initializer(graph))
    start = runtime.clock.now
    for step in range(STEPS):
        batch = slice(step * BATCH, (step + 1) * BATCH)
        feed = {x: images[batch], y: labels[batch]}
        if step in (0, STEPS - 1):
            value, accuracy, grad_norm = sess.run([loss, top3, norm], feed)
            print(f"  step {step:2d}: loss {value:.4f}, top-3 accuracy "
                  f"{accuracy:.0%}, gradient norm {grad_norm:.3f}")
        sess.run([train_op, schedule.step_op()], feed)
    print(f"trained {STEPS} steps in {runtime.clock.now - start:.3f} s "
          f"simulated (lr now {sess.run(schedule.tensor):.3f})")

    # 4. Checkpoint through the shield, then restore into a fresh graph.
    saved = {v.name: np.array(v.value) for v in weights}
    runtime.write_protected(CHECKPOINT, tf.Saver(graph).to_bytes())
    print(f"checkpoint written encrypted: {CHECKPOINT} "
          f"({runtime.fs.stat(CHECKPOINT)} bytes, from its authenticated manifest)")

    fresh = tf.reset_default_graph()
    classifier(tf.placeholder("float32", (None, 14, 14, 1), name="images"),
               training=False)
    restored = tf.Saver(fresh).restore(runtime.read_protected(CHECKPOINT))
    same = all(
        np.array_equal(v.value, saved[v.name])
        for v in tf.global_variables() if v.trainable
    )
    print(f"restored {restored} variables into a fresh graph; "
          f"weights identical: {same}")
    if not same:
        raise SystemExit("restored weights differ from the saved ones")


if __name__ == "__main__":
    main()
