"""Layer builders: dense, conv2d, pooling, flatten, batch-norm, dropout.

Functional TF-1.x-style builders: each creates its variables (with a
caller-supplied numpy Generator for determinism) and returns the output
tensor of the layer subgraph.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.errors import ShapeError
from repro.tensor import initializers as init_mod
from repro.tensor import nn
from repro.tensor.graph import Tensor
from repro.tensor.ops import core as ops
from repro.tensor.variables import variable

_DEFAULT_RNG = np.random.default_rng(0)


def _rng_or_default(rng: Optional[np.random.Generator]) -> np.random.Generator:
    return rng if rng is not None else _DEFAULT_RNG


def dense(
    x: Tensor,
    units: int,
    activation: Optional[str] = None,
    use_bias: bool = True,
    kernel_initializer=None,
    name: str = "dense",
    rng: Optional[np.random.Generator] = None,
) -> Tensor:
    """Fully connected layer: ``activation(x @ W + b)``."""
    if x.rank != 2:
        raise ShapeError(f"dense expects rank-2 input, got {x.shape}")
    in_units = x.shape[1]
    if in_units is None:
        raise ShapeError("dense needs a static input width")
    rng = _rng_or_default(rng)
    kinit = kernel_initializer or init_mod.glorot_uniform()
    w = variable(kinit((in_units, units), rng), name=f"{name}/kernel")
    y = ops.matmul(x, w.tensor, name=f"{name}/matmul")
    if use_bias:
        b = variable(np.zeros(units, dtype=np.float32), name=f"{name}/bias")
        y = nn.bias_add(y, b.tensor, name=f"{name}/bias_add")
    return _activate(y, activation, name)


def conv2d(
    x: Tensor,
    filters: int,
    kernel_size: int = 3,
    stride: int = 1,
    padding: str = "SAME",
    activation: Optional[str] = None,
    use_bias: bool = True,
    kernel_initializer=None,
    name: str = "conv",
    rng: Optional[np.random.Generator] = None,
) -> Tensor:
    """Convolutional layer over NHWC input."""
    if x.rank != 4:
        raise ShapeError(f"conv2d expects NHWC input, got {x.shape}")
    in_channels = x.shape[3]
    if in_channels is None:
        raise ShapeError("conv2d needs static input channels")
    rng = _rng_or_default(rng)
    kinit = kernel_initializer or init_mod.he_normal()
    w = variable(
        kinit((kernel_size, kernel_size, in_channels, filters), rng),
        name=f"{name}/kernel",
    )
    y = nn.conv2d(x, w.tensor, stride=stride, padding=padding, name=f"{name}/conv")
    if use_bias:
        b = variable(np.zeros(filters, dtype=np.float32), name=f"{name}/bias")
        y = nn.bias_add(y, b.tensor, name=f"{name}/bias_add")
    return _activate(y, activation, name)


def max_pool(x: Tensor, window: int = 2, name: str = "pool") -> Tensor:
    return nn.max_pool(x, window=window, name=name)


def avg_pool(x: Tensor, window: int = 2, name: str = "avg_pool") -> Tensor:
    return nn.avg_pool(x, window=window, name=name)


def flatten(x: Tensor, name: str = "flatten") -> Tensor:
    """Collapse all non-batch dims."""
    static = 1
    for dim in x.shape[1:]:
        if dim is None:
            raise ShapeError(f"flatten needs static non-batch dims, got {x.shape}")
        static *= dim
    return ops.reshape(x, (None, static), name=name)


def batch_norm(
    x: Tensor,
    epsilon: float = 1e-3,
    training: bool = False,
    momentum: float = 0.99,
    name: str = "bn",
) -> Tensor:
    """Batch normalization with learned scale/offset.

    - ``training=False`` (default): normalizes with stored *moving*
      statistics — the frozen-graph deployments the paper benchmarks.
    - ``training=True``: normalizes with the current batch's statistics
      (gradients flow through them) and registers moving-average update
      ops in the graph collection ``"update_ops"``; run those alongside
      the train op, as in TF-1.x:

          updates = graph.get_collection("update_ops")
          sess.run([train_op] + updates, feed)
    """
    channels = x.shape[-1]
    if channels is None:
        raise ShapeError("batch_norm needs static channel count")
    gamma = variable(np.ones(channels, dtype=np.float32), name=f"{name}/gamma")
    beta = variable(np.zeros(channels, dtype=np.float32), name=f"{name}/beta")
    moving_mean = variable(
        np.zeros(channels, dtype=np.float32), name=f"{name}/moving_mean",
        trainable=False,
    )
    moving_var = variable(
        np.ones(channels, dtype=np.float32), name=f"{name}/moving_var",
        trainable=False,
    )
    eps = ops.constant(epsilon, graph=x.graph, name=f"{name}/eps")

    if training:
        reduce_axes = tuple(range(x.rank - 1))
        batch_mean = ops.reduce_mean(x, axis=reduce_axes, name=f"{name}/batch_mean")
        centered = ops.sub(x, batch_mean, name=f"{name}/center")
        batch_var = ops.reduce_mean(
            ops.square(centered), axis=reduce_axes, name=f"{name}/batch_var"
        )
        mean_t, var_t = batch_mean, batch_var
        # Moving-statistic updates: m = momentum*m + (1-momentum)*batch.
        m = ops.constant(momentum, graph=x.graph)
        one_minus = ops.constant(1.0 - momentum, graph=x.graph)
        update_mean = moving_mean.assign(
            ops.add(
                ops.mul(m, moving_mean.tensor),
                ops.mul(one_minus, ops.stop_gradient(batch_mean)),
            ),
            name=f"{name}/update_mean",
        )
        update_var = moving_var.assign(
            ops.add(
                ops.mul(m, moving_var.tensor),
                ops.mul(one_minus, ops.stop_gradient(batch_var)),
            ),
            name=f"{name}/update_var",
        )
        x.graph.add_to_collection("update_ops", update_mean)
        x.graph.add_to_collection("update_ops", update_var)
        normalized = ops.div(
            centered,
            ops.sqrt(ops.add(var_t, eps), name=f"{name}/stddev"),
            name=f"{name}/normalize",
        )
    else:
        mean_t, var_t = moving_mean.tensor, moving_var.tensor
        normalized = ops.div(
            ops.sub(x, mean_t, name=f"{name}/center"),
            ops.sqrt(ops.add(var_t, eps), name=f"{name}/stddev"),
            name=f"{name}/normalize",
        )
    return ops.add(
        ops.mul(normalized, gamma.tensor, name=f"{name}/scale"),
        beta.tensor,
        name=f"{name}/shift",
    )


def _activate(y: Tensor, activation: Optional[str], name: str) -> Tensor:
    if activation is None or activation == "linear":
        return y
    if activation == "relu":
        return ops.relu(y, name=f"{name}/relu")
    if activation == "tanh":
        return ops.tanh(y, name=f"{name}/tanh")
    if activation == "sigmoid":
        return ops.sigmoid(y, name=f"{name}/sigmoid")
    if activation == "softmax":
        return ops.softmax(y, name=f"{name}/softmax")
    raise ShapeError(f"unknown activation {activation!r}")
