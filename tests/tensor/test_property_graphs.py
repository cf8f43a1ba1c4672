"""Property-based tests over randomly generated network architectures.

Hypothesis builds random MLP/conv architectures; for each we assert the
core pipeline invariants the rest of the system relies on:
freeze → import → Lite conversion preserves outputs bit-for-bit, and
autodiff matches numeric gradients on the composed graph.

The second half is the differential oracle for ``Session``'s compiled
plans: on the same random architectures, on every model of the zoo and
on one ``mnist_cnn`` training step, the plan and the recursive evaluator
it replaced (``_reference_session.py``) produce bitwise-equal fetches,
call the kernels in the same order and account the same ``RunStats``.
"""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.tensor as tf
from repro.errors import GraphError
from repro.tensor.graph import Graph
from repro.tensor.lite import Interpreter, LiteConverter
from repro.models.zoo import MODEL_ZOO, build_model, pretrained_lite_model
from repro.tensor.saver import freeze_graph, import_graph

from tests.tensor._oracle import Differential, assert_bitwise_equal

ACTIVATIONS = st.sampled_from([None, "relu", "tanh", "sigmoid"])

mlp_architectures = st.lists(
    st.tuples(st.integers(min_value=1, max_value=12), ACTIVATIONS),
    min_size=1,
    max_size=4,
)


def build_mlp(architecture, in_width=5, seed=0):
    graph = Graph()
    rng = np.random.default_rng(seed)
    with graph.as_default():
        x = tf.placeholder("float32", (None, in_width), name="x")
        net = x
        for index, (units, activation) in enumerate(architecture):
            net = tf.layers.dense(
                net, units, activation=activation, name=f"layer{index}", rng=rng
            )
    for var in graph.get_collection("global_variables"):
        var.initialize()
    return graph, x, net


@settings(max_examples=25, deadline=None)
@given(mlp_architectures, st.integers(min_value=0, max_value=2**31 - 1))
def test_freeze_lite_pipeline_preserves_outputs(architecture, seed):
    graph, x, out = build_mlp(architecture, seed=seed % 1000)
    data = np.random.default_rng(seed).normal(size=(3, 5)).astype(np.float32)
    reference = tf.Session(graph=graph).run(out, {x: data})

    frozen = freeze_graph([out], inputs=[x])
    imported = import_graph(frozen)
    via_import = tf.Session(graph=imported.graph).run(
        imported.outputs[0], {imported.inputs[0]: data}
    )
    np.testing.assert_array_equal(via_import, reference)

    model = LiteConverter("prop").convert(frozen)
    interp = Interpreter(model)
    interp.allocate_tensors()
    np.testing.assert_array_equal(interp.invoke(data)[0], reference)


@settings(max_examples=15, deadline=None)
@given(mlp_architectures)
def test_gradients_flow_to_every_trainable_variable(architecture):
    graph, x, out = build_mlp(architecture)
    with graph.as_default():
        loss = tf.reduce_sum(tf.square(out))
        trainables = [
            v for v in graph.get_collection("trainable_variables")
        ]
        grads = tf.gradients(loss, [v.tensor for v in trainables])
    sess = tf.Session(graph=graph)
    data = np.random.default_rng(0).normal(size=(2, 5)).astype(np.float32)
    values = sess.run(grads, {x: data})
    assert len(values) == len(trainables)
    for variable, grad in zip(trainables, values):
        assert grad.shape == tuple(variable.shape)
        assert np.isfinite(grad).all()


@settings(max_examples=15, deadline=None)
@given(
    st.integers(min_value=1, max_value=3),   # conv layers
    st.integers(min_value=1, max_value=6),   # filters
    st.booleans(),                           # pool after each conv
)
def test_conv_pipelines_survive_freeze(conv_layers, filters, pool):
    size = 16
    graph, x, logits = build_convnet(conv_layers, filters, pool, size=size)
    data = np.random.default_rng(2).normal(size=(2, size, size, 2)).astype(
        np.float32
    )
    reference = tf.Session(graph=graph).run(logits, {x: data})
    imported = import_graph(freeze_graph([logits], inputs=[x]))
    out = tf.Session(graph=imported.graph).run(
        imported.outputs[0], {imported.inputs[0]: data}
    )
    np.testing.assert_array_equal(out, reference)


def build_convnet(conv_layers, filters, pool, size=16):
    graph = Graph()
    rng = np.random.default_rng(1)
    with graph.as_default():
        x = tf.placeholder("float32", (None, size, size, 2), name="x")
        net = x
        for index in range(conv_layers):
            net = tf.layers.conv2d(
                net, filters, 3, activation="relu", name=f"c{index}", rng=rng
            )
            if pool and net.shape[1] is not None and net.shape[1] >= 2:
                net = tf.layers.max_pool(net, 2, name=f"p{index}")
        net = tf.layers.flatten(net, name="flat")
        logits = tf.layers.dense(net, 4, name="out", rng=rng)
    for var in graph.get_collection("global_variables"):
        var.initialize()
    return graph, x, logits


# ---------------------------------------------------------------------------
# The compiled plan against the recursive evaluator it replaced
# ---------------------------------------------------------------------------


def _with_gradients(model):
    """Differentiate a loss of ``model.out`` — ops added to a graph that
    has already run, so the session must not replay a stale plan."""
    with model.graph.as_default():
        model.loss = tf.reduce_sum(tf.square(model.out))
        model.grads = tf.gradients(
            model.loss,
            [v.tensor for v in model.graph.get_collection("trainable_variables")],
        )


def _hold_equal_across_batch_sizes(differential, shape, seed):
    """Forward, then forward + backward through ops added after the first
    run, at two batch sizes and back at the first."""
    rng = np.random.default_rng(seed)
    small = rng.normal(size=(2,) + shape).astype(np.float32)
    large = rng.normal(size=(5,) + shape).astype(np.float32)
    differential.run(lambda m: m.out, lambda m: {m.x: small})
    for model in differential.models:
        _with_gradients(model)
    fetches = lambda m: {"loss": m.loss, "grads": [m.grads, (m.out,)]}  # noqa: E731
    _, first = differential.run(fetches, lambda m: {m.x: small})
    # Another batch size re-derives the accounting rather than replaying
    # the first shape's.
    _, second = differential.run(fetches, lambda m: {m.x: large})
    assert second.flops > first.flops
    assert second.activation_bytes > first.activation_bytes
    _, again = differential.run(fetches, lambda m: {m.x: small})
    assert again == first and again is not first


@settings(max_examples=15, deadline=None)
@given(mlp_architectures, st.integers(min_value=0, max_value=999))
def test_plan_matches_reference_on_mlps(architecture, seed):
    def build():
        graph, x, out = build_mlp(architecture, seed=seed)
        return SimpleNamespace(graph=graph, x=x, out=out)

    _hold_equal_across_batch_sizes(Differential(build), (5,), seed)


@settings(max_examples=10, deadline=None)
@given(
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=1, max_value=6),
    st.booleans(),
)
def test_plan_matches_reference_on_convnets(conv_layers, filters, pool):
    def build():
        graph, x, out = build_convnet(conv_layers, filters, pool, size=8)
        return SimpleNamespace(graph=graph, x=x, out=out)

    _hold_equal_across_batch_sizes(Differential(build), (8, 8, 2), conv_layers)


@pytest.mark.parametrize("name", sorted(MODEL_ZOO))
def test_plan_matches_reference_on_zoo_models(name):
    """The frozen Lite graphs the serving path runs (weights as consts)."""
    blob = pretrained_lite_model(name, seed=5).graph_blob
    differential = Differential(lambda: import_graph(blob))
    shape = MODEL_ZOO[name].input_shape
    rng = np.random.default_rng(6)
    fetches = lambda m: list(m.outputs)  # noqa: E731
    one = rng.normal(size=(1,) + shape).astype(np.float32)
    other = rng.normal(size=(1,) + shape).astype(np.float32)
    batch = rng.normal(size=(3,) + shape).astype(np.float32)
    (first,), stats = differential.run(fetches, lambda m: {m.inputs[0]: one})
    (second,), replayed = differential.run(fetches, lambda m: {m.inputs[0]: other})
    assert replayed == stats and first.tobytes() != second.tobytes()
    _, batched = differential.run(fetches, lambda m: {m.inputs[0]: batch})
    assert batched.flops > 2 * stats.flops
    assert batched.weight_bytes == stats.weight_bytes


def _training_model():
    """``mnist_cnn`` with everything a training loop puts around it:
    dropout (a stateful two-output op), a loss, its gradients, an SGD
    update group and a step counter sequenced after it by a control
    edge."""
    built = build_model("mnist_cnn", seed=7)
    model = SimpleNamespace(graph=built.graph, images=built.input, logits=built.logits)
    with built.graph.as_default():
        model.labels = tf.placeholder("float32", (None, 10), name="labels")
        model.dropped = tf.nn.dropout(built.logits, 0.25, seed=3, name="drop")
        model.mask = model.dropped.op.outputs[1]
        model.loss = tf.reduce_mean(
            tf.nn.softmax_cross_entropy_with_logits(model.labels, model.dropped),
            name="loss",
        )
        model.variables = built.graph.get_collection("trainable_variables")
        model.grads = tf.gradients(model.loss, [v.tensor for v in model.variables])
        model.train = tf.optimizers.GradientDescent(0.05).minimize(model.loss)
        model.step = tf.variable(np.zeros((), np.float32), name="step", trainable=False)
        model.step.initialize()
        bump = model.step.assign_add(tf.constant(np.float32(1.0)))
        bump.op.add_control_input(model.train.op)
        model.bump = bump
    return model


def test_plan_matches_reference_on_a_training_step():
    differential = Differential(_training_model)
    rng = np.random.default_rng(8)

    def batch(n):
        images = rng.normal(size=(n, 28, 28, 1)).astype(np.float32)
        labels = np.eye(10, dtype=np.float32)[rng.integers(0, 10, n)]
        return lambda m: {m.images: images, "labels": labels}

    step = lambda m: {  # noqa: E731
        "loss": m.loss.name,            # str fetch
        "update": m.bump.op,            # Operation fetch -> None
        "grads": [list(m.grads), (m.mask, m.dropped)],
        "step": m.bump,
    }
    differential.run(lambda m: m.logits, batch(4))
    value, first = differential.run(step, batch(4))
    assert value["update"] is None and value["step"] == 1.0
    value, second = differential.run(step, batch(4))
    assert value["step"] == 2.0 and second == first
    _, third = differential.run(step, batch(9))
    assert third.flops > first.flops

    # Feeding an intermediate tensor skips the ops under it ...
    logits = rng.normal(size=(4, 10)).astype(np.float32)
    labels = np.eye(10, dtype=np.float32)[rng.integers(0, 10, 4)]
    _, fed = differential.run(
        lambda m: [m.loss, m.mask],
        lambda m: {m.logits: logits, m.labels: labels},
    )
    assert fed.weight_bytes == 0
    # ... and a run that dies on an unfed placeholder part-way through
    # is accounted, on both sides, for the ops that did run.
    with pytest.raises(GraphError, match="was not fed"):
        differential.run(
            lambda m: [m.logits, m.loss], lambda m: {m.images: np.zeros((4, 28, 28, 1))}
        )
    assert differential.plan.session.last_stats.linear_flops > 0

    for ours, theirs in zip(*(m.variables + [m.step] for m in differential.models)):
        assert_bitwise_equal(ours.value, theirs.value)
