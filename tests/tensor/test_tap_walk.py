"""The windowed kernels rewritten for memory layout, held bit for bit
to the expressions they replaced.

``max_pool`` and the col2im of ``conv2d_grad_input`` loop over the
window's taps and run one ufunc per contiguous slab; the two pool
gradients write straight into the 6-D window view of their output.
The oracles below are those kernels' bodies as they were before,
written inline: a reduction, a mask or a broadcast over axes (2, 4) of
a 6-D window view, each spread into a zeroed output, and a scatter-add
of strided columns.
Inputs are drawn from a palette of signed zeros, NaNs and repeated
values, so windows hold tied maxima, zero gradients of both signs and
NaNs; heights and widths run odd as well as even, so the last row and
column of a pool fall outside every window.

One deviation is pinned rather than hidden.  Among tied zeros of both
signs, and among NaNs of both signs, ``np.max`` over the 6-D view picks
by numpy's own loop order.  With two or more channels that order is the
taps' row-major order, which the walk keeps.  With one channel the
view's innermost reduced axis is contiguous, numpy reduces it with its
own contiguous loop, and its pick follows no tap order; there the test
holds ``max_pool`` to equal values (NaN where NaN, ``0.0 == -0.0``) and
to equal bits everywhere else.

col2im's NaNs all have one sign.  When two NaNs meet in an addition,
IEEE 754 leaves open which one the sum carries; x86 returns its first
machine operand, and numpy's strided and contiguous add loops put the
operands in different orders, so a sum of +NaN and -NaN came out
positive from one kernel and negative from the other.
"""

import functools

import numpy as np
from hypothesis import given, settings, strategies as st

import repro.tensor as tf
from repro.tensor.graph import Graph
from repro.tensor.nn import _same_padding

NAN = float("nan")
PALETTE = (0.0, -0.0, 1.0, -1.0, 2.0, NAN, -NAN)
ONE_NAN = (0.0, -0.0, 1.0, -1.0, 2.0, NAN)
UINT = {np.dtype(np.float32): np.uint32, np.dtype(np.float64): np.uint64}
DTYPES = st.sampled_from([np.float32, np.float64])


def _draw(rng, shape, dtype, palette=PALETTE):
    """Half palette (ties, signed zeros, NaNs), half normal."""
    palette = np.array(palette, dtype=dtype)[rng.integers(0, len(palette), shape)]
    normal = rng.normal(size=shape).astype(dtype)
    return np.where(rng.random(shape) < 0.5, palette, normal)


def _assert_same_bits(got, expected):
    assert got.dtype == expected.dtype and got.shape == expected.shape
    kind = UINT[got.dtype]
    assert np.array_equal(got.view(kind), expected.view(kind))


# --- the replaced expressions --------------------------------------------


def _pool_view(v, k):
    n, h, w, c = v.shape
    ho, wo = h // k, w // k
    return v[:, : ho * k, : wo * k, :].reshape(n, ho, k, wo, k, c)


def old_max_pool(v, k):
    return _pool_view(v, k).max(axis=(2, 4))


def old_max_pool_grad(g, v, y, k):
    mask = _pool_view(v, k) == y[:, :, None, :, None, :]
    spread = mask * g[:, :, None, :, None, :]
    n, ho, _, wo, _, c = spread.shape
    out = np.zeros_like(v)
    out[:, : ho * k, : wo * k, :] = spread.reshape(n, ho * k, wo * k, c)
    return out


def old_avg_pool_grad(g, v, k):
    n, ho, wo, c = g.shape
    spread = np.broadcast_to(g[:, :, None, :, None, :] / (k * k), (n, ho, k, wo, k, c))
    out = np.zeros_like(v)
    out[:, : ho * k, : wo * k, :] = spread.reshape(n, ho * k, wo * k, c)
    return out


def old_conv2d_grad_input(g, xv, fv, s, pad_mode):
    kh, kw, ci, co = fv.shape
    n, h, w, _ = xv.shape
    if pad_mode == "SAME":
        ph = _same_padding(h, kh, s)
        pw = _same_padding(w, kw, s)
    else:
        ph = pw = (0, 0)
    hp, wp = h + sum(ph), w + sum(pw)
    gcols = g.reshape(-1, co) @ fv.reshape(-1, co).T
    if kh == 1 and kw == 1 and s == 1 and gcols.dtype == xv.dtype:
        gcols += 0
        return gcols.reshape(n, h, w, ci)
    ho, wo = g.shape[1], g.shape[2]
    gcols = gcols.reshape(n, ho, wo, kh, kw, ci)
    dx = np.zeros((n, hp, wp, ci), dtype=xv.dtype)
    for i in range(kh):
        for j in range(kw):
            dx[:, i: i + ho * s: s, j: j + wo * s: s, :] += gcols[:, :, :, i, j, :]
    return dx[:, ph[0]: hp - ph[1], pw[0]: wp - pw[1], :]


# --- the kernels under test ----------------------------------------------


@functools.lru_cache(maxsize=None)
def _pool_ops(dtype, k):
    """(max_pool, max_pool_grad, avg_pool_grad) ops for any NHWC shape."""
    name = np.dtype(dtype).name
    graph = Graph()
    with graph.as_default():
        x = tf.placeholder(name, (None, None, None, None))
        g = tf.placeholder(name, (None, None, None, None))
        pooled = tf.nn.max_pool(x, k)
        (max_grad,) = tf.gradients(pooled, [x], grad_ys=[g])
        (avg_grad,) = tf.gradients(tf.nn.avg_pool(x, k), [x], grad_ys=[g])
    return pooled.op, max_grad.op, avg_grad.op


@st.composite
def pool_cases(draw):
    dtype = draw(DTYPES)
    k = draw(st.sampled_from([2, 3]))
    shape = (
        draw(st.integers(1, 3)),
        draw(st.integers(k, 3 * k + 2)),
        draw(st.integers(k, 3 * k + 2)),
        draw(st.integers(1, 4)),
    )
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    v = _draw(rng, shape, dtype)
    g = _draw(rng, (shape[0], shape[1] // k, shape[2] // k, shape[3]), dtype)
    return k, v, g


@settings(max_examples=300, deadline=None)
@given(pool_cases())
def test_pool_kernels_keep_the_bits_of_the_window_view(case):
    k, v, g = case
    max_pool, max_pool_grad, avg_pool_grad = _pool_ops(v.dtype.type, k)

    pooled, expected = max_pool.compute(v), old_max_pool(v, k)
    assert pooled.flags.c_contiguous and not np.shares_memory(pooled, v)
    if v.shape[3] > 1:
        _assert_same_bits(pooled, expected)
    else:
        assert pooled.dtype == expected.dtype
        assert np.array_equal(pooled, expected, equal_nan=True)
        signed = (pooled != 0) & ~np.isnan(pooled)
        _assert_same_bits(pooled[signed], expected[signed])

    # Equality does not see the sign of a zero or a NaN, so the mask —
    # and the gradient — is the same whichever of them the pool kept.
    _assert_same_bits(max_pool_grad.compute(g, v, pooled), old_max_pool_grad(g, v, expected, k))
    _assert_same_bits(avg_pool_grad.compute(g, v), old_avg_pool_grad(g, v, k))


@st.composite
def col2im_cases(draw):
    dtype = draw(DTYPES)
    kh = draw(st.sampled_from([1, 3, 5]))
    kw = draw(st.sampled_from([1, 3, 5]))
    stride = draw(st.sampled_from([1, 2]))
    padding = draw(st.sampled_from(["SAME", "VALID"]))
    low_h, low_w = (kh, kw) if padding == "VALID" else (1, 1)
    n, ci, co = draw(st.integers(1, 3)), draw(st.integers(1, 4)), draw(st.integers(1, 4))
    h, w = draw(st.integers(low_h, 9)), draw(st.integers(low_w, 9))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    ho = -(-h // stride) if padding == "SAME" else (h - kh) // stride + 1
    wo = -(-w // stride) if padding == "SAME" else (w - kw) // stride + 1
    x = rng.normal(size=(n, h, w, ci)).astype(dtype)
    f = _draw(rng, (kh, kw, ci, co), dtype, ONE_NAN)
    g = _draw(rng, (n, ho, wo, co), dtype, ONE_NAN)
    return stride, padding, x, f, g


@settings(max_examples=300, deadline=None)
@given(col2im_cases())
def test_col2im_keeps_the_bits_of_the_strided_scatter(case):
    stride, padding, x, f, g = case
    graph = Graph()
    with graph.as_default():
        xin = tf.placeholder(x.dtype.name, (None,) + x.shape[1:])
        fin = tf.placeholder(x.dtype.name, f.shape)
        gin = tf.placeholder(x.dtype.name, (None,) + g.shape[1:])
        y = tf.nn.conv2d(xin, fin, stride=stride, padding=padding)
        (grad_x,) = tf.gradients(y, [xin], grad_ys=[gin])
    op = grad_x.op
    expected = old_conv2d_grad_input(g, x, f, stride, padding)

    _assert_same_bits(op.compute(g, x, f), expected)
    # A plan lends its scratch: a columns buffer left dirty and larger
    # by other kernels, reused call after call.
    scratch = {("columns", g.dtype): np.full(g.size * f[..., 0].size + 7, NAN, g.dtype)}
    for _ in range(2):
        got = op._compute(op, g, x, f, scratch=scratch)
        _assert_same_bits(got, expected)
        assert not any(np.shares_memory(got, held) for held in scratch.values())
