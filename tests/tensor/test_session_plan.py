"""What compiling ``Session.run`` into a plan must not change.

The bug classes a cached plan opens, each mounted here: a graph or a
variable that changed since the plan was compiled (stale plan), a kernel
that raises mid-run (accounting, reusability, scratch), memory the plan
owns leaking into what callers hold (aliasing), and accounting replayed
for shapes it was not derived from.  Equality is against the recursive
evaluator kept in ``_reference_session.py``.
"""

from types import SimpleNamespace

import numpy as np
import pytest

import repro.tensor as tf
from repro.errors import GraphError, LiteConversionError
from repro.models.zoo import pretrained_lite_model
from repro.tensor import session as session_module
from repro.tensor.graph import Graph
from repro.tensor.lite import Interpreter, LiteConverter
from repro.tensor.ops import FLOPS_REGISTRY
from repro.tensor.saver import export_graph, freeze_graph

from tests.tensor._oracle import Differential, RecordingEngine, assert_bitwise_equal

RNG = np.random.default_rng(17)


def _convnet():
    """Two padded 3x3 convolutions (scratch users) around a relu."""
    graph = Graph()
    rng = np.random.default_rng(3)
    with graph.as_default():
        x = tf.placeholder("float32", (None, 6, 6, 2), name="x")
        hidden = tf.layers.conv2d(x, 3, 3, activation="relu", name="c0", rng=rng)
        out = tf.layers.conv2d(hidden, 2, 3, name="c1", rng=rng)
    for var in graph.get_collection("global_variables"):
        var.initialize()
    return SimpleNamespace(graph=graph, x=x, hidden=hidden, out=out)


def _images(n):
    return RNG.normal(size=(n, 6, 6, 2)).astype(np.float32)


# --- stale plans --------------------------------------------------------------


def test_ops_added_after_the_first_run_are_executed():
    differential = Differential(_convnet)
    data = _images(2)
    differential.run(lambda m: m.out, lambda m: {m.x: data})
    for model in differential.models:
        with model.graph.as_default():
            model.loss = tf.reduce_sum(tf.square(model.out))
            model.train = tf.optimizers.GradientDescent(0.1).minimize(model.loss)
    variables = differential.plan.model.graph.get_collection("trainable_variables")
    before = [v.value.copy() for v in variables]
    differential.run(lambda m: [m.train, m.loss], lambda m: {m.x: data})
    assert any((b != v.value).any() for b, v in zip(before, variables))
    # The forward fetch compiled before minimize() sees the new weights.
    differential.run(lambda m: m.out, lambda m: {m.x: data})


def test_a_control_edge_added_after_the_first_run_is_honoured():
    def build():
        graph = Graph()
        with graph.as_default():
            v = tf.variable(np.array([0.0], np.float32), name="v")
            bump = v.assign_add(tf.constant(np.array([5.0], np.float32)))
            read = tf.identity(v.tensor, name="read")
        v.initialize()
        return SimpleNamespace(graph=graph, bump=bump, read=read)

    differential = Differential(build)
    value, _ = differential.run(lambda m: m.read)
    assert value == [0.0]
    for model in differential.models:
        model.read.op.add_control_input(model.bump.op)
    value, _ = differential.run(lambda m: m.read)
    assert value == [5.0]


def test_variable_and_const_values_are_read_on_every_run():
    graph = Graph()
    with graph.as_default():
        v = tf.variable(np.array([1.0, 2.0], np.float32), name="v")
        c = tf.constant(np.array([10.0, 10.0], np.float32), name="c")
        y = tf.mul(v.tensor, c)
        bump = v.assign(tf.add(v.tensor, c))
    sess = tf.Session(graph=graph)
    v.initialize()
    np.testing.assert_array_equal(sess.run(y), [10.0, 20.0])
    v.load(np.array([3.0, 4.0], np.float32))              # PS pull / restore
    np.testing.assert_array_equal(sess.run(y), [30.0, 40.0])
    sess.run(bump)                                        # assigned by another plan
    np.testing.assert_array_equal(sess.run(y), [130.0, 140.0])
    v.initialize()                                        # re-initialised
    np.testing.assert_array_equal(sess.run(y), [10.0, 20.0])
    c.op.attrs["value"] = np.array([1.0, 1.0], np.float32)  # quantize-style rewrite
    np.testing.assert_array_equal(sess.run(y), [1.0, 2.0])


def test_plans_are_dropped_when_the_graph_version_moves():
    model = _convnet()
    sess = tf.Session(graph=model.graph)
    sess.run(model.out, {model.x: _images(1)})
    sess.run(model.hidden, {model.x: _images(1)})
    assert len(sess._plans) == 2
    with model.graph.as_default():
        tf.identity(model.out)
    sess.run(model.out, {model.x: _images(1)})
    assert len(sess._plans) == 1


# --- a kernel that raises mid-run --------------------------------------------


class _Fuse:
    """Wraps an op's kernel; raises instead while ``blown``."""

    def __init__(self, op):
        self.blown = False
        inner = op._compute

        def kernel(op, *args, **kwargs):
            if self.blown:
                raise RuntimeError("kernel failed")
            return inner(op, *args, **kwargs)

        op._compute = kernel


@pytest.mark.parametrize("fail_first_run", [True, False])
def test_a_failed_run_charges_what_ran_and_leaves_the_plan_usable(fail_first_run):
    differential = Differential(_convnet)
    fuses = [_Fuse(model.out.op) for model in differential.models]
    data = _images(2)
    run = lambda: differential.run(lambda m: m.out, lambda m: {m.x: data})  # noqa: E731

    def failed_run():
        for fuse in fuses:
            fuse.blown = True
        with pytest.raises(RuntimeError, match="kernel failed"):
            run()  # the differential holds stats and engine charge equal
        for fuse in fuses:
            fuse.blown = False
        return differential.plan.session.last_stats

    if fail_first_run:
        partial = failed_run()
        _, full = run()
    else:
        _, full = run()
        partial = failed_run()
    # Everything but the last op (the bias add) ran and was charged.
    assert 0 < partial.ops == full.ops - 1
    assert 0 < partial.flops < full.flops
    assert len(differential.plan.session._plans) == 1
    # Neither the accounting nor the scratch kept anything of the failure.
    value, again = run()
    assert again == full
    other = _images(2)
    differential.run(lambda m: m.out, lambda m: {m.x: other})
    assert_bitwise_equal(run()[0], value)


def test_a_bad_fetch_or_feed_is_refused_before_anything_runs():
    model = _convnet()
    engine = RecordingEngine()
    sess = tf.Session(graph=model.graph, engine=engine)
    with pytest.raises(GraphError, match="cannot fetch"):
        sess.run([model.out, 3.14], {model.x: _images(1)})
    with pytest.raises(GraphError, match="no operation named"):
        sess.run("missing:0")
    assert engine.charged == [] and sess.last_stats is None


# --- aliasing -----------------------------------------------------------------


def _scratch_arrays(session):
    for plan in session._plans.values():
        for held in plan.scratch.values():
            yield from (held if isinstance(held, tuple) else (held,))


def test_fetches_own_their_memory_and_feeds_are_never_written():
    model = pretrained_lite_model("inception_v4", seed=2)
    interpreter = Interpreter(model)
    interpreter.allocate_tensors()
    first_image = RNG.normal(size=(1, 32, 32, 3)).astype(np.float32)
    second_image = RNG.normal(size=(1, 32, 32, 3)).astype(np.float32)
    first_bytes, second_bytes = first_image.tobytes(), second_image.tobytes()

    (first,) = interpreter.invoke(first_image)
    kept = first.copy()
    (second,) = interpreter.invoke(second_image)
    assert first.tobytes() == kept.tobytes() != second.tobytes()
    assert first_image.tobytes() == first_bytes
    assert second_image.tobytes() == second_bytes
    (repeat,) = interpreter.invoke(first_image)
    assert repeat.tobytes() == kept.tobytes()

    scratch = list(_scratch_arrays(interpreter._session))
    assert scratch, "the k > 1 convolutions should be holding scratch"
    for buffer in scratch:
        for array in (first, second, repeat, first_image, second_image):
            assert not np.shares_memory(buffer, array)


def test_an_intermediate_fetch_does_not_alias_scratch():
    model = _convnet()
    sess = tf.Session(graph=model.graph)
    data = _images(2)
    hidden, out = sess.run([model.hidden, model.out], {model.x: data})
    kept = (hidden.copy(), out.copy())
    sess.run([model.hidden, model.out], {model.x: _images(2)})
    assert_bitwise_equal((hidden, out), kept)
    for buffer in _scratch_arrays(sess):
        assert not np.shares_memory(buffer, hidden)
        assert not np.shares_memory(buffer, out)


def test_feeding_a_tensor_of_another_graph_is_refused():
    ours, theirs = _convnet(), _convnet()
    assert ours.x.name == theirs.x.name  # the name exists here too
    sess = tf.Session(graph=ours.graph)
    with pytest.raises(GraphError) as excinfo:
        sess.run(ours.out, {theirs.x: _images(1)})
    message = str(excinfo.value)
    assert hex(id(ours.graph)) in message and hex(id(theirs.graph)) in message
    with pytest.raises(GraphError):
        sess.prepare(ours.out, [theirs.x])
    sess.run(ours.out, {ours.x: _images(1)})


def test_a_fed_output_of_a_multi_output_op_is_seen_as_the_reference_sees_it():
    """Feeding one output of a two-output op that still has to run (the
    other output is needed): what was evaluated before the op ran sees
    the fed value, what comes after sees the computed one."""

    def build():
        graph = Graph()
        with graph.as_default():
            x = tf.placeholder("float32", (None, 4), name="x")
            dropped = tf.nn.dropout(x, 0.5, seed=1, name="drop")
            mask = dropped.op.outputs[1]
            early = tf.square(dropped, name="early")
            late = tf.neg(dropped, name="late")
        return SimpleNamespace(
            graph=graph, x=x, dropped=dropped, mask=mask, early=early, late=late
        )

    differential = Differential(build)
    data = RNG.normal(size=(3, 4)).astype(np.float32)
    fed = np.full((3, 4), 7.0, np.float32)
    value, _ = differential.run(
        lambda m: [m.dropped, m.early, m.mask, m.dropped, m.late],
        lambda m: {m.x: data, m.dropped: fed},
    )
    np.testing.assert_array_equal(value[0], fed)
    np.testing.assert_array_equal(value[1], fed * fed)
    np.testing.assert_array_equal(value[3], data * value[2])
    np.testing.assert_array_equal(value[4], -(data * value[2]))
    assert fed.tobytes() == np.full((3, 4), 7.0, np.float32).tobytes()


# --- accounting ---------------------------------------------------------------


def test_steady_state_runs_replay_the_accounting(monkeypatch):
    calls = []
    real = session_module.flops_of
    monkeypatch.setattr(
        session_module, "flops_of", lambda *args: calls.append(args[0].name) or real(*args)
    )
    model = _convnet()
    sess = tf.Session(graph=model.graph)
    sess.run(model.out, {model.x: _images(2)})
    derived, first = len(calls), sess.last_stats
    assert derived > 0
    sess.run(model.out, {model.x: _images(2)})
    assert len(calls) == derived, "a second run of the same shapes re-derived its costs"
    assert sess.last_stats == first and sess.last_stats is not first
    first.flops = -1  # a caller scribbling on last_stats ...
    sess.run(model.out, {model.x: _images(2)})
    assert sess.last_stats.flops > 0  # ... does not reach the plan's copy
    sess.run(model.out, {model.x: _images(3)})
    assert len(calls) == 2 * derived, "a new batch size must be derived, not replayed"
    sess.run(model.out, {model.x: _images(2).astype(np.float64)})  # cast to float32
    assert len(calls) == 2 * derived


def test_a_dtype_change_at_equal_shape_is_derived_again():
    def build():
        graph = Graph()
        with graph.as_default():
            x = tf.placeholder("float32", (None, 3), name="x")
            y = tf.add(x, x)
        return SimpleNamespace(graph=graph, x=x, y=y)

    differential = Differential(build)
    _, narrow = differential.run(lambda m: m.y, lambda m: {m.x: np.ones((2, 3), np.float32)})
    _, wide = differential.run(lambda m: m.y, lambda m: {m.x: np.ones((2, 3), np.int64)})
    assert wide.activation_bytes == 2 * narrow.activation_bytes


def test_a_plan_remembers_a_bounded_number_of_shapes():
    differential = Differential(_convnet)
    sizes = list(range(1, session_module._MAX_SIGNATURES + 4))
    for n in sizes + sizes[:2]:
        data = _images(n)
        differential.run(lambda m: m.out, lambda m: {m.x: data})
    (plan,) = differential.plan.session._plans.values()
    assert 0 < len(plan.costs) <= session_module._MAX_SIGNATURES
    # one padded buffer per (shape, convolution geometry) still held + columns
    assert len(plan.scratch) <= 2 * session_module._MAX_SIGNATURES + 1


class _ShapeOnly:
    """All a FLOP function may look at: an array's geometry."""

    def __init__(self, *shape, dtype=np.float32):
        self.shape = shape
        self.ndim = len(shape)
        self.size = int(np.prod(shape, dtype=np.int64))
        self.dtype = np.dtype(dtype)
        self.itemsize = self.dtype.itemsize
        self.nbytes = self.size * self.itemsize


#: op type -> (input geometries, output geometry) for its FLOP function.
_FLOP_SAMPLES = {
    "matmul": ([(4, 8), (8, 2)], (4, 2)),
    "exp": ([(3, 5)], (3, 5)),
    "log": ([(3, 5)], (3, 5)),
    "tanh": ([(3, 5)], (3, 5)),
    "sigmoid": ([(3, 5)], (3, 5)),
    "softmax": ([(3, 5)], (3, 5)),
    "log_softmax": ([(3, 5)], (3, 5)),
    "reduce_sum": ([(3, 5)], (3,)),
    "reduce_mean": ([(3, 5)], (3,)),
    "reduce_max": ([(3, 5)], (3,)),
    "const": ([], (2, 2)),
    "placeholder": ([], (2, 2)),
    "variable": ([], (2, 2)),
    "identity": ([(2, 2)], (2, 2)),
    "stop_gradient": ([(2, 2)], (2, 2)),
    "conv2d": ([(2, 6, 6, 3), (3, 3, 3, 4)], (2, 6, 6, 4)),
    "conv2d_grad_filters": ([(2, 6, 6, 4), (2, 6, 6, 3), (3, 3, 3, 4)], (3, 3, 3, 4)),
    "conv2d_grad_input": ([(2, 6, 6, 4), (2, 6, 6, 3), (3, 3, 3, 4)], (2, 6, 6, 3)),
    "softmax_xent": ([(4, 10), (4, 10)], (4,)),
    "softmax_xent_grad": ([(4,), (4, 10), (4, 10)], (4, 10)),
}


def test_every_flop_function_reads_shapes_only():
    """``Session`` replays a run's accounting for equal fed shapes, which
    is sound only while no FLOP function looks at values.  A function
    registered without a sample here, or one that touches anything but
    geometry, fails this test."""
    assert set(FLOPS_REGISTRY) == set(_FLOP_SAMPLES), (
        "give every registered FLOP function a sample in _FLOP_SAMPLES"
    )
    for op_type, (inputs, output) in _FLOP_SAMPLES.items():
        op = SimpleNamespace(op_type=op_type, attrs={})
        flops = FLOPS_REGISTRY[op_type](
            op, [_ShapeOnly(*shape) for shape in inputs], _ShapeOnly(*output)
        )
        assert int(flops) >= 0, op_type


# --- planning ahead -----------------------------------------------------------


def test_prepare_compiles_without_running_and_names_unfed_placeholders():
    model = _convnet()
    engine = RecordingEngine()
    sess = tf.Session(graph=model.graph, engine=engine)
    sess.prepare([model.out], [model.x])
    sess.prepare(model.out, ["x:0"])
    assert len(sess._plans) == 2 and engine.charged == [] and sess.last_stats is None
    with pytest.raises(GraphError, match="not fed: 'x'"):
        sess.prepare(model.out)
    # The plan prepare() made is the one run() uses.
    plans = dict(sess._plans)
    sess.run([model.out], {model.x: _images(1)})
    assert {key: plan for key, plan in sess._plans.items() if key in plans} == plans
    assert len(sess._plans) == 3  # the refused, input-less plan is cached too


def test_a_model_that_cannot_run_from_its_declared_inputs_fails_at_load():
    graph = Graph()
    with graph.as_default():
        x = tf.placeholder("float32", (None, 2), name="x")
        side = tf.placeholder("float32", (None, 2), name="side")
        out = tf.add(x, side)
    blob = export_graph([out], [x])  # declares one of the two it needs
    interpreter = Interpreter(LiteConverter("lopsided").convert(blob))
    with pytest.raises(LiteConversionError, match="'side'"):
        interpreter.allocate_tensors()
    with pytest.raises(LiteConversionError, match="allocate_tensors"):
        interpreter.invoke(np.zeros((1, 2), np.float32))

    good = Interpreter(LiteConverter("fine").convert(freeze_graph([out], [x, side])))
    good.allocate_tensors()
    (plan,) = good._session._plans.values()  # compiled at load ...
    good.invoke([np.ones((1, 2)), np.ones((1, 2))])
    assert list(good._session._plans.values()) == [plan]  # ... and used by invoke
