"""Neural-net ops: conv/pool forward vs naive references, gradients."""

import numpy as np
import pytest

import repro.tensor as tf
from repro.errors import ShapeError
from repro.tensor.graph import Graph
from repro.tensor.nn import _extract_patches, _same_padding

RNG = np.random.default_rng(3)


def naive_conv2d(x, filters, stride, padding):
    n, h, w, c = x.shape
    kh, kw, _, co = filters.shape
    if padding == "SAME":
        out_h = -(-h // stride)
        out_w = -(-w // stride)
        pad_h = max((out_h - 1) * stride + kh - h, 0)
        pad_w = max((out_w - 1) * stride + kw - w, 0)
        x = np.pad(
            x,
            (
                (0, 0),
                (pad_h // 2, pad_h - pad_h // 2),
                (pad_w // 2, pad_w - pad_w // 2),
                (0, 0),
            ),
        )
    else:
        out_h = (h - kh) // stride + 1
        out_w = (w - kw) // stride + 1
    out = np.zeros((n, out_h, out_w, co), dtype=np.float32)
    for b in range(n):
        for i in range(out_h):
            for j in range(out_w):
                patch = x[b, i * stride : i * stride + kh, j * stride : j * stride + kw, :]
                for k in range(co):
                    out[b, i, j, k] = np.sum(patch * filters[:, :, :, k])
    return out


@pytest.mark.parametrize("stride", [1, 2])
@pytest.mark.parametrize("padding", ["SAME", "VALID"])
def test_conv2d_matches_naive(stride, padding):
    x = RNG.normal(size=(2, 6, 7, 3)).astype(np.float32)
    filters = RNG.normal(size=(3, 3, 3, 4)).astype(np.float32)
    g = Graph()
    with g.as_default():
        xin = tf.placeholder("float32", x.shape)
        w = tf.constant(filters)
        y = tf.nn.conv2d(xin, w, stride=stride, padding=padding)
    out = tf.Session(graph=g).run(y, {xin: x})
    np.testing.assert_allclose(
        out, naive_conv2d(x, filters, stride, padding), rtol=1e-4, atol=1e-4
    )


def _extract_patches_np_pad(x, kh, kw, stride, padding):
    """``_extract_patches`` as it was when it padded with ``np.pad``."""
    n, h, w, c = x.shape
    if padding == "SAME":
        ph = _same_padding(h, kh, stride)
        pw = _same_padding(w, kw, stride)
        x = np.pad(x, ((0, 0), ph, pw, (0, 0)))
    windows = np.lib.stride_tricks.sliding_window_view(x, (kh, kw), axis=(1, 2))
    windows = windows[:, ::stride, ::stride]
    windows = np.transpose(windows, (0, 1, 2, 4, 5, 3))
    n, ho, wo = windows.shape[:3]
    return np.ascontiguousarray(windows).reshape(n, ho, wo, kh * kw * c)


@pytest.mark.parametrize("padding", ["SAME", "VALID"])
@pytest.mark.parametrize("kernel", [1, 3, 5])
@pytest.mark.parametrize("stride", [1, 2])
@pytest.mark.parametrize("size", [(7, 7), (8, 8), (9, 6)])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_extract_patches_bit_identical_to_np_pad_form(
    padding, kernel, stride, size, dtype
):
    h, w = size
    x = np.random.default_rng(h * w + kernel).normal(size=(2, h, w, 3)).astype(dtype)
    patches = _extract_patches(x, kernel, kernel, stride, padding)
    expected = _extract_patches_np_pad(x, kernel, kernel, stride, padding)
    assert patches.dtype == expected.dtype and patches.shape == expected.shape
    assert patches.tobytes() == expected.tobytes()
    assert patches.flags.c_contiguous


@pytest.mark.parametrize("padding", ["SAME", "VALID"])
@pytest.mark.parametrize("kernel", [1, 3, 5])
@pytest.mark.parametrize("stride", [1, 2])
@pytest.mark.parametrize("batch", [1, 50])
def test_extract_patches_on_any_layout_with_or_without_scratch(
    padding, kernel, stride, batch
):
    """A transposed or sliced activation must take the copying path (the
    1x1 shortcut is for contiguous inputs only), and lending scratch —
    one dict across inputs of different shapes, each used twice — changes
    no byte of the result and never the input."""
    base = np.random.default_rng(kernel + stride).normal(
        size=(batch, 9, 8, 6)
    ).astype(np.float32)
    layouts = {
        "contiguous": base,
        "transposed": base.transpose(0, 2, 1, 3),
        "sliced": base[..., ::2],
    }
    assert not layouts["transposed"].flags.c_contiguous
    assert not layouts["sliced"].flags.c_contiguous
    scratch = {}
    for layout, x in layouts.items():
        before = x.tobytes()
        expected = _extract_patches_np_pad(x, kernel, kernel, stride, padding)
        for lent in (None, scratch, scratch):
            patches = _extract_patches(x, kernel, kernel, stride, padding, lent)
            assert patches.shape == expected.shape and patches.flags.c_contiguous
            assert patches.tobytes() == expected.tobytes(), (layout, lent is None)
            assert x.tobytes() == before
            if kernel == 1 and stride == 1 and layout == "contiguous":
                assert patches is x
            else:
                assert not np.shares_memory(patches, x)
            if lent is None:
                assert not any(
                    np.shares_memory(patches, part)
                    for held in scratch.values()
                    for part in (held if isinstance(held, tuple) else (held,))
                )


@pytest.mark.parametrize("contiguous", [True, False])
def test_pointwise_conv2d_kernels_match_the_general_form(contiguous):
    """The 1x1 stride-1 shortcuts (input used as the patch matrix, col2im
    as the identity) against im2col / scatter-add, bit for bit — with
    zero gradients of both signs, which a scatter into +0.0 normalises."""
    n, h, w, ci, co = 3, 5, 4, 6, 7
    x = RNG.normal(size=(n, h, w, ci)).astype(np.float32)
    if not contiguous:
        x = RNG.normal(size=(n, w, h, ci)).astype(np.float32).transpose(0, 2, 1, 3)
    f = RNG.normal(size=(1, 1, ci, co)).astype(np.float32)
    g = RNG.normal(size=(n, h, w, co)).astype(np.float32)
    g[0] = -0.0
    g[1, 0] = 0.0

    graph = Graph()
    with graph.as_default():
        xin = tf.placeholder("float32", (None, h, w, ci))
        fin = tf.placeholder("float32", f.shape)
        y = tf.nn.conv2d(xin, fin, stride=1, padding="SAME")
        gin = tf.placeholder("float32", (None, h, w, co))
        grad_x, grad_f = tf.gradients(y, [xin, fin], grad_ys=[gin])

    out = y.op.compute(x, f)
    patches = _extract_patches_np_pad(x, 1, 1, 1, "SAME").reshape(-1, ci)
    assert out.tobytes() == (patches @ f.reshape(ci, co)).reshape(n, h, w, co).tobytes()
    assert not np.shares_memory(out, x)

    dx = np.zeros((n, h, w, ci), np.float32)
    dx += (g.reshape(-1, co) @ f.reshape(ci, co).T).reshape(n, h, w, ci)
    got = grad_x.op.compute(g, x, f)
    assert got.tobytes() == dx.tobytes()
    assert not np.shares_memory(got, g)

    df = (patches.T @ g.reshape(-1, co)).reshape(1, 1, ci, co)
    assert grad_f.op.compute(g, x, f).tobytes() == df.tobytes()


#: mnist_cnn's conv layers as (batch, height, width, in, out) at the
#: training batch of 50 and at 1, with in = the layer's channels and its
#: 3x3 patch width (9 x channels): the matmul shapes its gradients run.
_MNIST_POINTWISE = [
    (batch, side, side, ci, co)
    for batch in (1, 50)
    for side, channels, co in ((28, 1, 8), (14, 8, 16))
    for ci in (channels, 9 * channels)
]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("shape", _MNIST_POINTWISE)
def test_pointwise_grad_input_of_negative_zeros_is_positive_zero(shape, dtype):
    """The 1x1 col2im shortcut returns the matmul as it is; a scatter-add
    into zeros would turn a -0.0 into +0.0, so the matmul must never
    give one: its accumulator starts at +0.0.  All-(-0.0) operands, and
    -0.0 against ordinary values on either side, come out +0.0 bits."""
    n, h, w, ci, co = shape
    graph = Graph()
    with graph.as_default():
        xin = tf.placeholder(np.dtype(dtype).name, (None, h, w, ci))
        fin = tf.placeholder(np.dtype(dtype).name, (1, 1, ci, co))
        gin = tf.placeholder(np.dtype(dtype).name, (None, h, w, co))
        y = tf.nn.conv2d(xin, fin, stride=1, padding="SAME")
        (grad_x,) = tf.gradients(y, [xin], grad_ys=[gin])
    x = np.zeros((n, h, w, ci), dtype)
    zeros_g, zeros_f = np.full((n, h, w, co), -0.0, dtype), np.full((1, 1, ci, co), -0.0, dtype)
    some_g = RNG.normal(size=zeros_g.shape).astype(dtype)
    some_f = RNG.normal(size=zeros_f.shape).astype(dtype)
    for g, f in ((zeros_g, zeros_f), (zeros_g, some_f), (some_g, zeros_f)):
        got = grad_x.op.compute(g, x, f)
        assert got.shape == x.shape
        assert not np.signbit(got).any() and not got.any()


def test_conv2d_gradients_numeric():
    x = RNG.normal(size=(1, 6, 6, 2)).astype(np.float32)
    filters = RNG.normal(size=(3, 3, 2, 3)).astype(np.float32) * 0.3

    g = Graph()
    with g.as_default():
        xin = tf.placeholder("float32", x.shape)
        w = tf.variable(filters, name="w")
        y = tf.nn.conv2d(xin, w.tensor, stride=2, padding="SAME")
        loss = tf.reduce_sum(tf.square(y))
        grad_x, grad_w = tf.gradients(loss, [xin, w.tensor])
    for var in g.get_collection("global_variables"):
        var.initialize()
    sess = tf.Session(graph=g)
    ax = sess.run(grad_x, {xin: x})
    aw = sess.run(grad_w, {xin: x})

    eps = 1e-2
    for idx in [(0, 1, 2, 0), (0, 5, 5, 1)]:
        xp = x.copy(); xp[idx] += eps
        xm = x.copy(); xm[idx] -= eps
        numeric = (sess.run(loss, {xin: xp}) - sess.run(loss, {xin: xm})) / (2 * eps)
        assert ax[idx] == pytest.approx(numeric, rel=0.05, abs=1e-2)
    for idx in [(0, 0, 0, 0), (2, 2, 1, 2)]:
        orig = w.value.copy()
        wp = orig.copy(); wp[idx] += eps
        w.load(wp); lp = sess.run(loss, {xin: x})
        wm = orig.copy(); wm[idx] -= eps
        w.load(wm); lm = sess.run(loss, {xin: x})
        w.load(orig)
        numeric = (lp - lm) / (2 * eps)
        assert aw[idx] == pytest.approx(numeric, rel=0.05, abs=1e-2)


def test_conv2d_shape_validation():
    g = Graph()
    with g.as_default():
        x = tf.placeholder("float32", (1, 6, 6, 2))
        bad_filters = tf.placeholder("float32", (3, 3, 5, 4))
        with pytest.raises(ShapeError):
            tf.nn.conv2d(x, bad_filters)
        with pytest.raises(ShapeError):
            tf.nn.conv2d(x, tf.placeholder("float32", (3, 3, 2, 4)), padding="WRONG")


def test_max_pool_and_avg_pool():
    x = RNG.normal(size=(2, 4, 6, 3)).astype(np.float32)
    g = Graph()
    with g.as_default():
        xin = tf.placeholder("float32", x.shape)
        mp = tf.nn.max_pool(xin, 2)
        ap = tf.nn.avg_pool(xin, 2)
    sess = tf.Session(graph=g)
    mp_out, ap_out = sess.run([mp, ap], {xin: x})
    view = x.reshape(2, 2, 2, 3, 2, 3)
    np.testing.assert_allclose(mp_out, view.max(axis=(2, 4)), rtol=1e-5)
    np.testing.assert_allclose(ap_out, view.mean(axis=(2, 4)), rtol=1e-5)


def test_overlapping_pool_rejected():
    g = Graph()
    with g.as_default():
        x = tf.placeholder("float32", (1, 4, 4, 1))
        with pytest.raises(ShapeError):
            tf.nn.max_pool(x, window=3, stride=1)


def test_pool_gradients_numeric():
    x = (RNG.normal(size=(1, 4, 4, 2)) * 3).astype(np.float32)
    for pool in (tf.nn.max_pool, tf.nn.avg_pool):
        g = Graph()
        with g.as_default():
            xin = tf.placeholder("float32", x.shape)
            loss = tf.reduce_sum(tf.square(pool(xin, 2)))
            (grad,) = tf.gradients(loss, [xin])
        sess = tf.Session(graph=g)
        analytic = sess.run(grad, {xin: x})
        eps = 1e-2
        idx = (0, 1, 2, 0)
        xp = x.copy(); xp[idx] += eps
        xm = x.copy(); xm[idx] -= eps
        numeric = (sess.run(loss, {xin: xp}) - sess.run(loss, {xin: xm})) / (2 * eps)
        assert analytic[idx] == pytest.approx(numeric, rel=0.05, abs=1e-2)


def test_bias_add_and_gradient():
    x = RNG.normal(size=(2, 5)).astype(np.float32)
    bias = RNG.normal(size=(5,)).astype(np.float32)
    g = Graph()
    with g.as_default():
        xin = tf.placeholder("float32", x.shape)
        b = tf.placeholder("float32", bias.shape)
        y = tf.nn.bias_add(xin, b)
        loss = tf.reduce_sum(tf.square(y))
        grad_b, = tf.gradients(loss, [b])
    sess = tf.Session(graph=g)
    np.testing.assert_allclose(sess.run(y, {xin: x, b: bias}), x + bias, rtol=1e-5)
    analytic = sess.run(grad_b, {xin: x, b: bias})
    np.testing.assert_allclose(analytic, (2 * (x + bias)).sum(axis=0), rtol=1e-4)


def test_softmax_xent_matches_manual():
    logits = RNG.normal(size=(4, 5)).astype(np.float32)
    labels = np.eye(5, dtype=np.float32)[[0, 2, 4, 1]]
    g = Graph()
    with g.as_default():
        lg = tf.placeholder("float32", logits.shape)
        lb = tf.placeholder("float32", labels.shape)
        loss_vec = tf.nn.softmax_cross_entropy_with_logits(lb, lg)
    out = tf.Session(graph=g).run(loss_vec, {lg: logits, lb: labels})
    shifted = logits - logits.max(axis=1, keepdims=True)
    log_softmax = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    expected = -(labels * log_softmax).sum(axis=1)
    np.testing.assert_allclose(out, expected, rtol=1e-5)


def test_softmax_xent_gradient_is_probs_minus_labels():
    logits = RNG.normal(size=(3, 4)).astype(np.float32)
    labels = np.eye(4, dtype=np.float32)[[1, 0, 3]]
    g = Graph()
    with g.as_default():
        lg = tf.placeholder("float32", logits.shape)
        lb = tf.placeholder("float32", labels.shape)
        loss = tf.reduce_sum(tf.nn.softmax_cross_entropy_with_logits(lb, lg))
        (grad,) = tf.gradients(loss, [lg])
    out = tf.Session(graph=g).run(grad, {lg: logits, lb: labels})
    e = np.exp(logits - logits.max(axis=1, keepdims=True))
    probs = e / e.sum(axis=1, keepdims=True)
    np.testing.assert_allclose(out, probs - labels, rtol=1e-4, atol=1e-5)


def test_dropout_forward_and_gradient_share_mask():
    x = np.ones((4, 100), dtype=np.float32)
    g = Graph()
    with g.as_default():
        xin = tf.placeholder("float32", x.shape)
        y = tf.nn.dropout(xin, rate=0.5, seed=42)
        loss = tf.reduce_sum(y)
        (grad,) = tf.gradients(loss, [xin])
    sess = tf.Session(graph=g)
    y_val, grad_val = sess.run([y, grad], {xin: x})
    # Inverted dropout: survivors are scaled by 1/(1-rate).
    survivors = y_val != 0
    assert 0.3 < survivors.mean() < 0.7
    np.testing.assert_allclose(y_val[survivors], 2.0, rtol=1e-5)
    # Gradient mask must match the forward mask exactly.
    np.testing.assert_array_equal(grad_val != 0, survivors)


def test_dropout_rate_validation():
    g = Graph()
    with g.as_default():
        x = tf.placeholder("float32", (2, 2))
        with pytest.raises(ShapeError):
            tf.nn.dropout(x, rate=1.0)
