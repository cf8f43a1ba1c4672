"""Neural-network operations: convolution, pooling, bias, cross-entropy.

Convolutions run through im2col + matmul (real numpy, real gradients);
pooling is restricted to non-overlapping windows (stride == window),
which covers every model in the zoo and keeps the backward kernel
simple and fast.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.errors import ShapeError
from repro.tensor.graph import Operation, Tensor
from repro.tensor.ops import register_flops, register_gradient
from repro.tensor.ops.core import make_op


def _conv_output_dim(size: Optional[int], k: int, stride: int, padding: str) -> Optional[int]:
    if size is None:
        return None
    if padding == "SAME":
        return -(-size // stride)
    return (size - k) // stride + 1


def _same_padding(size: int, k: int, stride: int) -> Tuple[int, int]:
    out = -(-size // stride)
    total = max((out - 1) * stride + k - size, 0)
    return total // 2, total - total // 2


def _extract_patches(
    x: np.ndarray,
    kh: int,
    kw: int,
    stride: int,
    padding: str,
    scratch: Optional[Dict[Any, Any]] = None,
) -> np.ndarray:
    """Return patches of shape (N, Ho, Wo, kh*kw*C).

    The patches of a 1×1 stride-1 window over a contiguous input *are*
    the input, which is returned as it is.  ``scratch`` is a dict the
    caller owns and lends on every call: the padded copy (zero border
    written once, interior overwritten per call) and the columns live in
    buffers kept there, so the result is valid only until the next call
    with the same dict and must not be handed on.  Without one the
    result is a fresh array.
    """
    n, h, w, c = x.shape
    if kh == 1 and kw == 1 and stride == 1 and x.flags.c_contiguous:
        return x
    if scratch is None:
        scratch = {}  # buffers made here then belong to the result
    ph = pw = (0, 0)
    if padding == "SAME":
        ph = _same_padding(h, kh, stride)
        pw = _same_padding(w, kw, stride)
    if ph != (0, 0) or pw != (0, 0):
        # np.pad is a Python-level routine that costs more than the
        # copy itself on maps this small.
        key = (x.shape, x.dtype, kh, kw, stride)
        held = scratch.get(key)
        if held is None:
            buffer = np.zeros((n, h + sum(ph), w + sum(pw), c), dtype=x.dtype)
            held = scratch[key] = (
                buffer[:, ph[0] : ph[0] + h, pw[0] : pw[0] + w],
                _windows(buffer, kh, kw, stride),
            )
        interior, windows = held
        np.copyto(interior, x)
    else:
        windows = _windows(x, kh, kw, stride)
    key = ("columns", x.dtype)
    buffer = scratch.get(key)
    if buffer is None or buffer.size < windows.size:
        buffer = scratch[key] = np.empty(windows.size, dtype=x.dtype)
    columns = buffer[: windows.size].reshape(windows.shape)
    np.copyto(columns, windows)
    n, ho, wo = windows.shape[:3]
    return columns.reshape(n, ho, wo, kh * kw * c)


def _windows(x: np.ndarray, kh: int, kw: int, stride: int) -> np.ndarray:
    """A (N, Ho, Wo, kh, kw, C) view of every window of ``x``."""
    windows = np.lib.stride_tricks.sliding_window_view(x, (kh, kw), axis=(1, 2))
    # windows: (N, H', W', C, kh, kw) -> strided and reordered
    return np.transpose(windows[:, ::stride, ::stride], (0, 1, 2, 4, 5, 3))


def conv2d(
    x: Tensor,
    filters: Tensor,
    stride: int = 1,
    padding: str = "SAME",
    name: str = "conv2d",
) -> Tensor:
    """2-D convolution, NHWC layout, square stride."""
    if x.rank != 4 or filters.rank != 4:
        raise ShapeError(f"conv2d expects NHWC input and khkwCiCo filters, got {x.shape}, {filters.shape}")
    if padding not in ("SAME", "VALID"):
        raise ShapeError(f"padding must be SAME or VALID, got {padding!r}")
    kh, kw, ci, co = filters.shape
    if x.shape[3] is not None and ci is not None and x.shape[3] != ci:
        raise ShapeError(f"conv2d channels mismatch: input {x.shape[3]}, filters {ci}")
    out_shape = (
        x.shape[0],
        _conv_output_dim(x.shape[1], kh, stride, padding),
        _conv_output_dim(x.shape[2], kw, stride, padding),
        co,
    )

    def kernel(
        op: Operation, xv: np.ndarray, fv: np.ndarray, scratch=None
    ) -> np.ndarray:
        s = op.attrs["stride"]
        pad_mode = op.attrs["padding"]
        fkh, fkw, fci, fco = fv.shape
        patches = _extract_patches(xv, fkh, fkw, s, pad_mode, scratch)
        n, ho, wo, _ = patches.shape
        out = patches.reshape(-1, fkh * fkw * fci) @ fv.reshape(-1, fco)
        return out.reshape(n, ho, wo, fco)

    return make_op(
        "conv2d",
        [x, filters],
        out_shape,
        x.dtype,
        kernel,
        name=name,
        attrs={"stride": stride, "padding": padding},
    )


def _conv2d_grad_filters(grad: Tensor, op: Operation) -> Tensor:
    def kernel(
        gop: Operation, g: np.ndarray, xv: np.ndarray, fv: np.ndarray, scratch=None
    ) -> np.ndarray:
        s = gop.attrs["stride"]
        pad_mode = gop.attrs["padding"]
        kh, kw, ci, co = fv.shape
        patches = _extract_patches(xv, kh, kw, s, pad_mode, scratch)
        cols = patches.reshape(-1, kh * kw * ci)
        gcols = g.reshape(-1, co)
        return (cols.T @ gcols).reshape(kh, kw, ci, co)

    return make_op(
        "conv2d_grad_filters",
        [grad, op.inputs[0], op.inputs[1]],
        op.inputs[1].shape,
        grad.dtype,
        kernel,
        name="conv2d_grad_filters",
        attrs=dict(op.attrs),
    )


def _conv2d_grad_input(grad: Tensor, op: Operation) -> Tensor:
    def kernel(gop: Operation, g: np.ndarray, xv: np.ndarray, fv: np.ndarray) -> np.ndarray:
        s = gop.attrs["stride"]
        pad_mode = gop.attrs["padding"]
        kh, kw, ci, co = fv.shape
        n, h, w, _ = xv.shape
        if pad_mode == "SAME":
            ph = _same_padding(h, kh, s)
            pw = _same_padding(w, kw, s)
        else:
            ph = pw = (0, 0)
        hp, wp = h + sum(ph), w + sum(pw)
        gcols = g.reshape(-1, co) @ fv.reshape(-1, co).T  # (N*Ho*Wo, kh*kw*ci)
        if kh == 1 and kw == 1 and s == 1 and gcols.dtype == xv.dtype:
            # col2im of a 1×1 window is the identity; the + 0 is what the
            # scatter-add into zeros below does to a -0.0.
            gcols += 0
            return gcols.reshape(n, h, w, ci)
        ho, wo = g.shape[1], g.shape[2]
        gcols = gcols.reshape(n, ho, wo, kh, kw, ci)
        dx = np.zeros((n, hp, wp, ci), dtype=xv.dtype)
        # Scatter-add each kernel offset back (col2im).
        for i in range(kh):
            for j in range(kw):
                dx[:, i: i + ho * s: s, j: j + wo * s: s, :] += gcols[:, :, :, i, j, :]
        return dx[:, ph[0]: hp - ph[1], pw[0]: wp - pw[1], :]

    return make_op(
        "conv2d_grad_input",
        [grad, op.inputs[0], op.inputs[1]],
        op.inputs[0].shape,
        grad.dtype,
        kernel,
        name="conv2d_grad_input",
        attrs=dict(op.attrs),
    )


@register_gradient("conv2d")
def _grad_conv2d(op: Operation, grad: Tensor) -> List[Optional[Tensor]]:
    return [_conv2d_grad_input(grad, op), _conv2d_grad_filters(grad, op)]


@register_flops("conv2d")
def _flops_conv2d(op: Operation, input_values, output_value) -> int:
    fv = input_values[1]
    kh, kw, ci, co = fv.shape
    return int(2 * kh * kw * ci * output_value.size)


@register_flops("conv2d_grad_filters")
def _flops_conv2d_gf(op, input_values, output_value):
    g = input_values[0]
    kh, kw, ci, co = input_values[2].shape
    return int(2 * kh * kw * ci * g.size)


@register_flops("conv2d_grad_input")
def _flops_conv2d_gi(op, input_values, output_value):
    g = input_values[0]
    kh, kw, ci, co = input_values[2].shape
    return int(2 * kh * kw * ci * g.size)


# ---------------------------------------------------------------------------
# Pooling (non-overlapping windows: stride == window size)
# ---------------------------------------------------------------------------


def _check_pool_args(x: Tensor, window: int, stride: int) -> None:
    if x.rank != 4:
        raise ShapeError(f"pooling expects NHWC input, got {x.shape}")
    if stride != window:
        raise ShapeError(
            "pooling supports non-overlapping windows only (stride == window); "
            f"got window={window}, stride={stride}"
        )


def _pool_shape(x: Tensor, window: int) -> Tuple:
    return (
        x.shape[0],
        None if x.shape[1] is None else x.shape[1] // window,
        None if x.shape[2] is None else x.shape[2] // window,
        x.shape[3],
    )


def _pool_view(v: np.ndarray, k: int) -> np.ndarray:
    n, h, w, c = v.shape
    ho, wo = h // k, w // k
    return v[:, : ho * k, : wo * k, :].reshape(n, ho, k, wo, k, c)


def max_pool(x: Tensor, window: int = 2, stride: Optional[int] = None, name="max_pool") -> Tensor:
    stride = window if stride is None else stride
    _check_pool_args(x, window, stride)

    def kernel(op: Operation, v: np.ndarray) -> np.ndarray:
        return _pool_view(v, op.attrs["window"]).max(axis=(2, 4))

    return make_op(
        "max_pool", [x], _pool_shape(x, window), x.dtype, kernel, name=name,
        attrs={"window": window},
    )


def avg_pool(x: Tensor, window: int = 2, stride: Optional[int] = None, name="avg_pool") -> Tensor:
    stride = window if stride is None else stride
    _check_pool_args(x, window, stride)

    def kernel(op: Operation, v: np.ndarray) -> np.ndarray:
        return _pool_view(v, op.attrs["window"]).mean(axis=(2, 4))

    return make_op(
        "avg_pool", [x], _pool_shape(x, window), x.dtype, kernel, name=name,
        attrs={"window": window},
    )


@register_gradient("max_pool")
def _grad_max_pool(op: Operation, grad: Tensor) -> List[Optional[Tensor]]:
    def kernel(gop: Operation, g: np.ndarray, v: np.ndarray, y: np.ndarray) -> np.ndarray:
        k = gop.attrs["window"]
        view = _pool_view(v, k)
        mask = view == y[:, :, None, :, None, :]
        spread = mask * g[:, :, None, :, None, :]
        n, ho, _, wo, _, c = spread.shape
        out = np.zeros_like(v)
        out[:, : ho * k, : wo * k, :] = spread.reshape(n, ho * k, wo * k, c)
        return out

    result = make_op(
        "max_pool_grad",
        [grad, op.inputs[0], op.outputs[0]],
        op.inputs[0].shape,
        grad.dtype,
        kernel,
        name="max_pool_grad",
        attrs=dict(op.attrs),
    )
    return [result]


@register_gradient("avg_pool")
def _grad_avg_pool(op: Operation, grad: Tensor) -> List[Optional[Tensor]]:
    def kernel(gop: Operation, g: np.ndarray, v: np.ndarray) -> np.ndarray:
        k = gop.attrs["window"]
        n, ho, wo, c = g.shape
        spread = np.broadcast_to(
            g[:, :, None, :, None, :] / (k * k), (n, ho, k, wo, k, c)
        )
        out = np.zeros_like(v)
        out[:, : ho * k, : wo * k, :] = spread.reshape(n, ho * k, wo * k, c)
        return out

    result = make_op(
        "avg_pool_grad",
        [grad, op.inputs[0]],
        op.inputs[0].shape,
        grad.dtype,
        kernel,
        name="avg_pool_grad",
        attrs=dict(op.attrs),
    )
    return [result]


# ---------------------------------------------------------------------------
# Bias, dropout, cross-entropy
# ---------------------------------------------------------------------------


def bias_add(x: Tensor, bias: Tensor, name: str = "bias_add") -> Tensor:
    """Add a rank-1 bias over the last axis."""
    if bias.rank != 1:
        raise ShapeError(f"bias must be rank-1, got {bias.shape}")
    return make_op(
        "bias_add",
        [x, bias],
        x.shape,
        x.dtype,
        lambda op, v, b: v + b,
        name=name,
    )


@register_gradient("bias_add")
def _grad_bias_add(op: Operation, grad: Tensor) -> List[Optional[Tensor]]:
    def kernel(gop: Operation, g: np.ndarray) -> np.ndarray:
        return g.reshape(-1, g.shape[-1]).sum(axis=0)

    gb = make_op(
        "bias_add_grad",
        [grad],
        op.inputs[1].shape,
        grad.dtype,
        kernel,
        name="bias_add_grad",
    )
    return [grad, gb]


def dropout(x: Tensor, rate: float, seed: int = 0, name: str = "dropout") -> Tensor:
    """Inverted dropout with a deterministic per-call mask sequence.

    Returns the dropped-out tensor; the mask is the op's second output,
    consumed by the gradient so forward and backward always agree.
    """
    if not 0.0 <= rate < 1.0:
        raise ShapeError(f"dropout rate must be in [0, 1), got {rate}")

    state = {"calls": 0}

    def kernel(op: Operation, v: np.ndarray):
        r = op.attrs["rate"]
        rng = np.random.default_rng(op.attrs["seed"] + state["calls"])
        state["calls"] += 1
        mask = (rng.random(v.shape) >= r).astype(v.dtype) / (1.0 - r)
        return v * mask, mask

    op = Operation(
        graph=x.graph,
        op_type="dropout",
        name=name,
        inputs=[x],
        attrs={"rate": rate, "seed": seed},
        output_shapes=[x.shape, x.shape],
        output_dtypes=[x.dtype, x.dtype],
        compute=kernel,
    )
    return op.outputs[0]


@register_gradient("dropout")
def _grad_dropout(op: Operation, grad: Tensor) -> List[Optional[Tensor]]:
    mask = op.outputs[1]
    result = make_op(
        "dropout_grad",
        [grad, mask],
        op.inputs[0].shape,
        grad.dtype,
        lambda gop, g, m: g * m,
        name="dropout_grad",
    )
    return [result]


def softmax_cross_entropy_with_logits(
    labels: Tensor, logits: Tensor, name: str = "softmax_xent"
) -> Tensor:
    """Per-example cross entropy between one-hot labels and logits."""
    if logits.rank != 2 or labels.rank != 2:
        raise ShapeError(
            f"expected rank-2 labels/logits, got {labels.shape} / {logits.shape}"
        )

    def kernel(op: Operation, lab: np.ndarray, log_: np.ndarray) -> np.ndarray:
        shifted = log_ - log_.max(axis=-1, keepdims=True)
        log_z = np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
        log_softmax = shifted - log_z
        return -(lab * log_softmax).sum(axis=-1)

    return make_op(
        "softmax_xent",
        [labels, logits],
        (logits.shape[0],),
        logits.dtype,
        kernel,
        name=name,
    )


@register_gradient("softmax_xent")
def _grad_softmax_xent(op: Operation, grad: Tensor) -> List[Optional[Tensor]]:
    def kernel(gop: Operation, g: np.ndarray, lab: np.ndarray, log_: np.ndarray) -> np.ndarray:
        shifted = log_ - log_.max(axis=-1, keepdims=True)
        e = np.exp(shifted)
        probs = e / e.sum(axis=-1, keepdims=True)
        return (probs - lab) * g[:, None]

    glogits = make_op(
        "softmax_xent_grad",
        [grad, op.inputs[0], op.inputs[1]],
        op.inputs[1].shape,
        grad.dtype,
        kernel,
        name="softmax_xent_grad",
    )
    return [None, glogits]


@register_flops("softmax_xent")
def _flops_xent(op, input_values, output_value):
    return 12 * input_values[1].size


@register_flops("softmax_xent_grad")
def _flops_xent_grad(op, input_values, output_value):
    return 12 * output_value.size
