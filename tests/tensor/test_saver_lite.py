"""Checkpoints, freezing, graph import, Lite conversion and interpretation."""

import numpy as np
import pytest

import repro.tensor as tf
from repro.errors import CheckpointError, GraphError, LiteConversionError
from repro.tensor.graph import Graph
from repro.tensor.lite import Interpreter, LiteConverter, LiteModel
from repro.tensor.saver import Saver, export_graph, freeze_graph, import_graph

RNG = np.random.default_rng(13)


def build_trained_net():
    g = Graph()
    rng = np.random.default_rng(2)
    with g.as_default():
        x = tf.placeholder("float32", (None, 5), name="x")
        h = tf.layers.dense(x, 7, activation="relu", name="h", rng=rng)
        logits = tf.layers.dense(h, 3, name="out", rng=rng)
        init = tf.global_variables_initializer(g)
    sess = tf.Session(graph=g)
    sess.run(init)
    return g, x, logits, sess


# --- checkpoints ---------------------------------------------------------------


def test_checkpoint_roundtrip():
    g, x, logits, sess = build_trained_net()
    data = RNG.normal(size=(4, 5)).astype(np.float32)
    reference = sess.run(logits, {x: data})
    blob = Saver(g).to_bytes()

    # Perturb, then restore.
    for var in g.get_collection("global_variables"):
        var.load(var.value + 1.0)
    assert not np.allclose(sess.run(logits, {x: data}), reference)
    restored = Saver(g).restore(blob)
    assert restored == len(g.get_collection("global_variables"))
    np.testing.assert_allclose(sess.run(logits, {x: data}), reference)


def test_checkpoint_into_fresh_graph_same_architecture():
    g1, x1, logits1, sess1 = build_trained_net()
    blob = Saver(g1).to_bytes()
    g2, x2, logits2, sess2 = build_trained_net()
    Saver(g2).restore(blob)
    data = RNG.normal(size=(3, 5)).astype(np.float32)
    np.testing.assert_allclose(
        sess1.run(logits1, {x1: data}), sess2.run(logits2, {x2: data}), rtol=1e-6
    )


def test_checkpoint_errors():
    g = Graph()
    with pytest.raises(CheckpointError):
        Saver(g).to_bytes()  # no variables
    with g.as_default():
        v = tf.variable(np.ones(1, np.float32), name="v")
    with pytest.raises(CheckpointError):
        Saver(g).to_bytes()  # uninitialized
    v.initialize()
    blob = Saver(g).to_bytes()
    with pytest.raises(CheckpointError):
        Saver(g).restore(b"garbage")
    g2 = Graph()
    with g2.as_default():
        tf.variable(np.ones(1, np.float32), name="other").initialize()
    with pytest.raises(CheckpointError):
        Saver(g2).restore(blob)  # missing variable name


# --- freeze / import -------------------------------------------------------------


def test_freeze_import_preserves_outputs():
    g, x, logits, sess = build_trained_net()
    data = RNG.normal(size=(6, 5)).astype(np.float32)
    reference = sess.run(logits, {x: data})
    frozen = freeze_graph([logits], inputs=[x])
    imported = import_graph(frozen)
    out = tf.Session(graph=imported.graph).run(
        imported.outputs[0], {imported.inputs[0]: data}
    )
    np.testing.assert_allclose(out, reference, rtol=1e-5)


def test_freeze_captures_values_not_references():
    g, x, logits, sess = build_trained_net()
    data = RNG.normal(size=(2, 5)).astype(np.float32)
    frozen = freeze_graph([logits], inputs=[x])
    reference = sess.run(logits, {x: data})
    for var in g.get_collection("global_variables"):
        var.load(var.value * 5)
    imported = import_graph(frozen)
    out = tf.Session(graph=imported.graph).run(
        imported.outputs[0], {imported.inputs[0]: data}
    )
    np.testing.assert_allclose(out, reference, rtol=1e-5)


def test_scales_survive_freeze_and_import():
    g, x, logits, _ = build_trained_net()
    g.cost_scale = 3.0
    g.weight_scale = 7.0
    g.op_scale = 2.0
    g.activation_scale = 5.0
    imported = import_graph(freeze_graph([logits], inputs=[x]))
    assert imported.graph.cost_scale == 3.0
    assert imported.graph.weight_scale == 7.0
    assert imported.graph.op_scale == 2.0
    assert imported.graph.activation_scale == 5.0


def test_export_rejects_unfrozen_variables():
    g, x, logits, _ = build_trained_net()
    with pytest.raises(GraphError):
        export_graph([logits], inputs=[x])


def test_freeze_rejects_training_ops():
    g, x, logits, sess = build_trained_net()
    with g.as_default():
        y = tf.placeholder("float32", (None, 3), name="y")
        loss = tf.losses.softmax_cross_entropy(y, logits)
        train = tf.optimizers.GradientDescent(0.1).minimize(loss)
    with pytest.raises(GraphError):
        freeze_graph([train])


def test_import_rejects_garbage():
    with pytest.raises(CheckpointError):
        import_graph(b"not-a-graph")


# --- Lite -------------------------------------------------------------------


def test_lite_conversion_and_equivalence():
    g, x, logits, sess = build_trained_net()
    data = RNG.normal(size=(4, 5)).astype(np.float32)
    reference = sess.run(logits, {x: data})
    model = LiteConverter("net").convert(freeze_graph([logits], inputs=[x]))
    interp = Interpreter(model)
    interp.allocate_tensors()
    np.testing.assert_allclose(interp.invoke(data)[0], reference, rtol=1e-5)
    assert interp.classify(data[:1]) == int(np.argmax(reference[0]))


def test_lite_model_serialization_roundtrip():
    g, x, logits, _ = build_trained_net()
    model = LiteConverter("net").convert(
        freeze_graph([logits], inputs=[x]), declared_size=42_000_000
    )
    restored = LiteModel.from_bytes(model.to_bytes())
    assert restored.size_bytes == 42_000_000
    assert restored.name == "net"
    interp = Interpreter(restored)
    interp.allocate_tensors()
    assert len(interp._imported.inputs) == 1


def test_lite_folds_identity_ops():
    g = Graph()
    with g.as_default():
        x = tf.placeholder("float32", (None, 2), name="x")
        y = tf.identity(tf.stop_gradient(tf.identity(tf.square(x))))
    model = LiteConverter("folded").convert(export_graph([y], inputs=[x]))
    from repro.crypto import encoding

    ops_kept = [r["op_type"] for r in encoding.decode(model.graph_blob)["ops"]]
    assert "identity" not in ops_kept
    assert "stop_gradient" not in ops_kept
    interp = Interpreter(model)
    interp.allocate_tensors()
    out = interp.invoke(np.array([[2.0, 3.0]], np.float32))[0]
    np.testing.assert_allclose(out, [[4.0, 9.0]])


def test_lite_rejects_malformed_inputs():
    with pytest.raises(LiteConversionError):
        LiteConverter().convert(b"junk")
    with pytest.raises(LiteConversionError):
        LiteModel.from_bytes(b"junk")


def test_interpreter_requires_allocation_and_validates_inputs():
    g, x, logits, _ = build_trained_net()
    model = LiteConverter().convert(freeze_graph([logits], inputs=[x]))
    interp = Interpreter(model)
    with pytest.raises(LiteConversionError):
        interp.invoke(np.zeros((1, 5), np.float32))
    interp.allocate_tensors()
    with pytest.raises(LiteConversionError):
        interp.invoke([np.zeros((1, 5), np.float32)] * 2)


def test_interpreter_dict_inputs():
    g, x, logits, sess = build_trained_net()
    model = LiteConverter().convert(freeze_graph([logits], inputs=[x]))
    interp = Interpreter(model)
    interp.allocate_tensors()
    data = RNG.normal(size=(2, 5)).astype(np.float32)
    out = interp.invoke({x.name: data})[0]
    np.testing.assert_allclose(out, sess.run(logits, {x: data}), rtol=1e-5)
