"""Tier-2 perf smoke: ``Session.run`` must stay one pass over a compiled
plan, not a graph walk per call.

Excluded from tier-1 (see ``addopts`` in pyproject.toml); run with
``OMP_NUM_THREADS=1 OPENBLAS_NUM_THREADS=1 pytest -m tier2
tests/perf/test_tensor_plan_smoke.py -o addopts=""``.  The build box
measured, best of 200 with one BLAS thread and no engine attached,
4.1 ms per ``inception_v4`` invoke (8.3 ms when every call re-walked the
graph, re-derived its accounting and im2col-copied into fresh arrays),
2.6 ms per ``densenet`` invoke (5.1 ms) and 11.7 ms per ``mnist_cnn``
training step at batch 50 (14.3 ms) — ``BENCH.json#tensor_plan``.  The
floors are half the measured rates, so they trip on a collapse (a plan
compiled per call, BLAS oversubscribed), not on a busy box; what
separates this design from its predecessor is asserted structurally: a
steady-state invoke derives no FLOPs, compiles nothing and allocates no
scratch.
"""

import time

import numpy as np
import pytest

import repro.tensor as tf
from repro.models.zoo import build_model, pretrained_lite_model
from repro.tensor import session as session_module
from repro.tensor.lite import Interpreter

REPEATS = 30
INVOKE_FLOORS = {"inception_v4": 120.0, "densenet": 190.0}  # invokes/s
TRAIN_STEP_FLOOR = 41.0  # steps/s


def _best_rate(fn):
    for _ in range(5):
        fn()
    best = float("inf")
    for _ in range(REPEATS):
        started = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - started)
    return 1.0 / best


@pytest.mark.tier2
@pytest.mark.slow
@pytest.mark.parametrize("name", sorted(INVOKE_FLOORS))
def test_lite_invoke_floor_and_steady_state(name, monkeypatch):
    interpreter = Interpreter(pretrained_lite_model(name, seed=3))
    interpreter.allocate_tensors()
    image = np.random.default_rng(0).normal(size=(1, 32, 32, 3)).astype(np.float32)
    interpreter.invoke(image)

    derived = []
    real = session_module.flops_of
    monkeypatch.setattr(
        session_module, "flops_of", lambda *args: derived.append(args[0]) or real(*args)
    )
    session = interpreter._session
    (plan,) = session._plans.values()
    scratch = {key: id(held) for key, held in plan.scratch.items()}
    assert scratch, "no convolution borrowed scratch"
    rate = _best_rate(lambda: interpreter.invoke(image))
    assert derived == [], "a steady-state invoke called flops_of"
    assert list(session._plans.values()) == [plan], "a steady-state invoke compiled a plan"
    assert {key: id(held) for key, held in plan.scratch.items()} == scratch
    assert rate >= INVOKE_FLOORS[name], f"{name}: {rate:.0f} invokes/s"


@pytest.mark.tier2
@pytest.mark.slow
def test_training_step_floor():
    built = build_model("mnist_cnn", seed=3)
    with built.graph.as_default():
        labels = tf.placeholder("float32", (None, 10), name="labels")
        loss = tf.losses.softmax_cross_entropy(labels, built.logits)
        train = tf.optimizers.GradientDescent(0.05).minimize(loss)
    rng = np.random.default_rng(1)
    feed = {
        built.input: rng.normal(size=(50, 28, 28, 1)).astype(np.float32),
        labels: np.eye(10, dtype=np.float32)[rng.integers(0, 10, 50)],
    }
    session = tf.Session(graph=built.graph)
    rate = _best_rate(lambda: session.run([train, loss], feed))
    assert len(session._plans) == 1
    assert rate >= TRAIN_STEP_FLOOR, f"{rate:.1f} training steps/s"
