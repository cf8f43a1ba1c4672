"""A from-scratch TensorFlow-1.x-style dataflow framework.

The paper runs *unmodified TensorFlow applications*; this package is the
TensorFlow stand-in the reproduction protects.  It follows the TF 1.x
architecture the paper describes (§2.1): the user builds a static
directed graph of operations, then executes it in a session.  Training
uses reverse-mode autodiff that *builds a backward graph* (like
``tf.gradients``), so frozen inference graphs and training graphs are
the same kind of object and the checkpoint/freeze/convert pipeline of
§4.1 works exactly as in the paper.

Numerics are real numpy; execution time is charged to the simulated
clock by :mod:`repro.tensor.engine` using per-op FLOP counts, which is
how the same graph exhibits NATIVE/SIM/HW performance differences.

Public API (mirroring the TF 1.x names users know)::

    import repro.tensor as tf

    g = tf.Graph()
    with g.as_default():
        x = tf.placeholder("float32", (None, 784), name="x")
        logits = tf.layers.dense(x, 10, name="fc")
        loss = tf.losses.softmax_cross_entropy(labels, logits)
        train = tf.optimizers.GradientDescent(0.5).minimize(loss)
    with tf.Session(graph=g) as sess:
        sess.run(tf.global_variables_initializer(g))
        sess.run(train, feed_dict={x: batch, labels: y})
"""

from repro.tensor.graph import (
    Graph,
    Operation,
    Tensor,
    get_default_graph,
    reset_default_graph,
)
from repro.tensor.ops import (
    add,
    argmax,
    cast,
    concat,
    constant,
    div,
    equal,
    exp,
    expand_dims,
    identity,
    log,
    matmul,
    maximum,
    mul,
    neg,
    pad,
    placeholder,
    pow_,
    reduce_max,
    reduce_mean,
    reduce_sum,
    relu,
    reshape,
    sigmoid,
    softmax,
    sqrt,
    square,
    stop_gradient,
    sub,
    tanh,
    transpose,
)
from repro.tensor import nn
from repro.tensor.ops.extra import (
    abs_,
    clip_by_value,
    leaky_relu,
    log_softmax,
    one_hot,
    slice_,
    softplus,
    squeeze,
)
from repro.tensor.variables import (
    Variable,
    global_variables,
    global_variables_initializer,
    variable,
)
from repro.tensor.gradients import gradients
from repro.tensor.session import Session
from repro.tensor.engine import (
    ExecutionEngine,
    EngineProfile,
    FULL_TF_PROFILE,
    LITE_PROFILE,
)
from repro.tensor import initializers, layers, losses, metrics, optimizers
from repro.tensor.saver import (
    Saver,
    freeze_graph,
    export_graph,
    import_graph,
)

__all__ = [
    "Graph",
    "Operation",
    "Tensor",
    "get_default_graph",
    "reset_default_graph",
    "constant",
    "placeholder",
    "variable",
    "Variable",
    "global_variables",
    "global_variables_initializer",
    "add",
    "sub",
    "mul",
    "div",
    "neg",
    "square",
    "sqrt",
    "exp",
    "log",
    "pow_",
    "matmul",
    "reduce_sum",
    "reduce_mean",
    "reduce_max",
    "maximum",
    "relu",
    "sigmoid",
    "tanh",
    "softmax",
    "argmax",
    "equal",
    "cast",
    "reshape",
    "transpose",
    "concat",
    "pad",
    "expand_dims",
    "identity",
    "stop_gradient",
    "abs_",
    "leaky_relu",
    "softplus",
    "clip_by_value",
    "squeeze",
    "slice_",
    "log_softmax",
    "one_hot",
    "nn",
    "gradients",
    "Session",
    "ExecutionEngine",
    "EngineProfile",
    "FULL_TF_PROFILE",
    "LITE_PROFILE",
    "initializers",
    "layers",
    "losses",
    "metrics",
    "optimizers",
    "Saver",
    "freeze_graph",
    "export_graph",
    "import_graph",
]
