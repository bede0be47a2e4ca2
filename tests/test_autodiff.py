import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from ofdmemu.nn import autodiff
from ofdmemu.nn.autodiff import Tensor, concat, conv2d


def numeric_grad(fn, x, eps=1e-6):
    """Central-difference gradient of a scalar fn at array x."""
    g = np.zeros_like(x, dtype=np.float64)
    it = np.nditer(x, flags=["multi_index"])
    for _ in it:
        idx = it.multi_index
        xp = x.copy()
        xp[idx] += eps
        xm = x.copy()
        xm[idx] -= eps
        g[idx] = (fn(xp) - fn(xm)) / (2 * eps)
    return g


def check_unary(op, x):
    t = Tensor(x, requires_grad=True)
    out = op(t).sum()
    out.backward()
    num = numeric_grad(lambda a: float(op(Tensor(a)).sum().data), x)
    np.testing.assert_allclose(t.grad, num, rtol=1e-5, atol=1e-7)


def test_add_mul_sub_div_grads(rng):
    a = rng.normal(size=(3, 4))
    b = rng.normal(size=(3, 4)) + 3.0  # keep divisors away from zero
    ta, tb = Tensor(a, requires_grad=True), Tensor(b, requires_grad=True)
    out = ((ta + tb) * ta - tb / ta + ta / tb).sum()
    out.backward()

    def f(which, val):
        x, y = (val, b) if which == 0 else (a, val)
        return float(np.sum((x + y) * x - y / x + x / y))

    np.testing.assert_allclose(ta.grad, numeric_grad(lambda v: f(0, v), a), rtol=1e-5)
    np.testing.assert_allclose(tb.grad, numeric_grad(lambda v: f(1, v), b), rtol=1e-5)


def test_scalar_and_reverse_ops(rng):
    x = rng.normal(size=5)
    t = Tensor(x, requires_grad=True)
    out = (2.0 * t + 1.0 - (3.0 - t)).sum()
    out.backward()
    np.testing.assert_allclose(t.grad, np.full(5, 3.0))


def test_broadcast_add_unbroadcasts_grad(rng):
    a = rng.normal(size=(4, 3))
    b = rng.normal(size=(3,))
    ta, tb = Tensor(a, requires_grad=True), Tensor(b, requires_grad=True)
    ((ta + tb) * (ta + tb)).sum().backward()
    assert tb.grad.shape == (3,)
    num = numeric_grad(lambda v: float(np.sum((a + v) ** 2)), b)
    np.testing.assert_allclose(tb.grad, num, rtol=1e-5)


def test_matmul_grads(rng):
    a = rng.normal(size=(3, 5))
    b = rng.normal(size=(5, 2))
    ta, tb = Tensor(a, requires_grad=True), Tensor(b, requires_grad=True)
    (ta @ tb).sum().backward()
    np.testing.assert_allclose(
        ta.grad, numeric_grad(lambda v: float(np.sum(v @ b)), a), rtol=1e-5
    )
    np.testing.assert_allclose(
        tb.grad, numeric_grad(lambda v: float(np.sum(a @ v)), b), rtol=1e-5
    )


@pytest.mark.parametrize("name", ["tanh", "square", "sqrt", "mean"])
def test_unary_ops(name, rng):
    x = rng.normal(size=(4, 4))
    if name == "sqrt":
        x = np.abs(x) + 0.5
    check_unary(lambda t: getattr(t, name)(), x)


def test_reused_node_accumulates(rng):
    x = rng.normal(size=3)
    t = Tensor(x, requires_grad=True)
    y = t * t
    (y + y).sum().backward()  # d/dx of 2x^2 = 4x
    np.testing.assert_allclose(t.grad, 4 * x, rtol=1e-12)


def test_reshape_and_getitem(rng):
    x = rng.normal(size=(2, 6))
    t = Tensor(x, requires_grad=True)
    out = t.reshape(3, 4)[1].sum()
    out.backward()
    want = np.zeros((2, 6))
    want.reshape(3, 4)[1] = 1.0
    np.testing.assert_allclose(t.grad, want)


def test_concat_grads(rng):
    a = rng.normal(size=(2, 3))
    b = rng.normal(size=(2, 5))
    ta, tb = Tensor(a, requires_grad=True), Tensor(b, requires_grad=True)
    (concat([ta, tb], axis=1) * 2.0).sum().backward()
    np.testing.assert_allclose(ta.grad, np.full((2, 3), 2.0))
    np.testing.assert_allclose(tb.grad, np.full((2, 5), 2.0))


def test_conv2d_matches_numeric(rng):
    x = rng.normal(size=(2, 5, 5, 3))
    w = rng.normal(size=(3, 3, 3, 4))
    b = rng.normal(size=4)
    tx = Tensor(x, requires_grad=True)
    tw = Tensor(w, requires_grad=True)
    tb = Tensor(b, requires_grad=True)
    out = conv2d(tx, tw, tb)
    assert out.shape == (2, 5, 5, 4)
    (out * out).sum().backward()

    def f(xx, ww, bb):
        o = conv2d(Tensor(xx), Tensor(ww), Tensor(bb))
        return float((o * o).sum().data)

    np.testing.assert_allclose(
        tx.grad, numeric_grad(lambda v: f(v, w, b), x), rtol=1e-4, atol=1e-6
    )
    np.testing.assert_allclose(
        tw.grad, numeric_grad(lambda v: f(x, v, b), w), rtol=1e-4, atol=1e-6
    )
    np.testing.assert_allclose(
        tb.grad, numeric_grad(lambda v: f(x, w, v), b), rtol=1e-4, atol=1e-6
    )


def test_conv2d_forward_matches_direct(rng):
    # 3x3 kernel, SAME padding: output pixel (i, j) sees input rows
    # i-1..i+1 and cols j-1..j+1 with zeros off the edge
    x = rng.normal(size=(1, 4, 4, 2))
    w = rng.normal(size=(3, 3, 2, 3))
    out = conv2d(Tensor(x), Tensor(w)).data
    xp = np.pad(x, ((0, 0), (1, 1), (1, 1), (0, 0)))
    want = np.zeros((1, 4, 4, 3))
    for i in range(4):
        for j in range(4):
            patch = xp[0, i : i + 3, j : j + 3, :]
            for o in range(3):
                want[0, i, j, o] = np.sum(patch * w[:, :, :, o])
    np.testing.assert_allclose(out, want, rtol=1e-12)


def _conv2d_with_grads(x, w, b, g):
    """conv2d's output and the x, weight and bias gradients for output
    gradient ``g`` (multiplying by ``g`` then summing passes it on exactly)."""
    tx, tw, tb = (Tensor(a, requires_grad=True) for a in (x, w, b))
    out = conv2d(tx, tw, tb)
    (out * Tensor(g)).sum().backward()
    return out.data, tx.grad, tw.grad, tb.grad


# (B, H, W, kh, kw, Cin, Cout) of the convs the training pipeline and
# image evaluation run.  Each fold and waveform comes with every layer of
# its stack, though not at every batch size:
# - the compensator's 5x11 stack (4 -> 8 -> 8 -> 2 channels) on the 160x2
#   and 40x2 source-period folds and the 4x80 and 1x80 OFDM-period folds
#   of 4- and 1-symbol waveforms, in minibatches;
# - the same stack on the 1x80 and 40x2 folds of a batched evaluation,
#   one row per image (128 in criterion 7);
# - the proxy's 1x9 stack (2 -> 8 -> 8 -> 2) on 1x320 waveforms, and on
#   1x80 ones in stage-3 minibatches of 16 or 32 and refresh batches of 2
#   and 6;
# - both stacks at the batch sizes of the benchmark's train workload:
#   stage 1 at 8, stage 2 at 4, stage 3 at 16, 6 and 2, evaluation at 16;
# - the 2-symbol waveforms of the training hash's TINY_TRAIN run: the
#   5x11 stack on their 2x80 and 80x2 folds, and the 1x9 stack on 1x160
#   (test_training.py checks that this list holds every layer it runs)
PIPELINE_CONVS = [
    (12, 160, 2, 5, 11, 4, 8),
    (12, 160, 2, 5, 11, 8, 8),
    (12, 160, 2, 5, 11, 8, 2),
    (12, 40, 2, 5, 11, 4, 8),
    (32, 40, 2, 5, 11, 8, 2),
    (12, 4, 80, 5, 11, 4, 8),
    (12, 4, 80, 5, 11, 8, 2),
    (12, 1, 80, 5, 11, 4, 8),
    (32, 1, 80, 5, 11, 8, 2),
    (128, 1, 80, 5, 11, 4, 8),
    (128, 1, 80, 5, 11, 8, 8),
    (128, 1, 80, 5, 11, 8, 2),
    (128, 40, 2, 5, 11, 4, 8),
    (128, 40, 2, 5, 11, 8, 8),
    (128, 40, 2, 5, 11, 8, 2),
    (12, 1, 320, 1, 9, 2, 8),
    (12, 1, 320, 1, 9, 8, 8),
    (12, 1, 320, 1, 9, 8, 2),
    (32, 1, 80, 1, 9, 2, 8),
    (32, 1, 80, 1, 9, 8, 8),
    (16, 1, 80, 1, 9, 8, 2),
    (2, 1, 80, 1, 9, 2, 8),
    (2, 1, 80, 1, 9, 8, 2),
    (6, 1, 80, 1, 9, 8, 8),
    (8, 160, 2, 5, 11, 4, 8),
    (8, 160, 2, 5, 11, 8, 8),
    (8, 160, 2, 5, 11, 8, 2),
    (8, 4, 80, 5, 11, 4, 8),
    (8, 4, 80, 5, 11, 8, 8),
    (8, 4, 80, 5, 11, 8, 2),
    (16, 40, 2, 5, 11, 4, 8),
    (16, 40, 2, 5, 11, 8, 8),
    (16, 40, 2, 5, 11, 8, 2),
    (16, 1, 80, 5, 11, 4, 8),
    (16, 1, 80, 5, 11, 8, 8),
    (16, 1, 80, 5, 11, 8, 2),
    (4, 1, 320, 1, 9, 2, 8),
    (4, 1, 320, 1, 9, 8, 8),
    (4, 1, 320, 1, 9, 8, 2),
    (16, 1, 80, 1, 9, 2, 8),
    (16, 1, 80, 1, 9, 8, 8),
    (6, 1, 80, 1, 9, 2, 8),
    (6, 1, 80, 1, 9, 8, 2),
    (2, 1, 80, 1, 9, 8, 8),
    (4, 2, 80, 5, 11, 4, 8),
    (4, 2, 80, 5, 11, 8, 8),
    (4, 2, 80, 5, 11, 8, 2),
    (4, 80, 2, 5, 11, 4, 8),
    (4, 80, 2, 5, 11, 8, 8),
    (4, 80, 2, 5, 11, 8, 2),
    (2, 1, 160, 1, 9, 2, 8),
    (2, 1, 160, 1, 9, 8, 8),
    (2, 1, 160, 1, 9, 8, 2),
]


def _assert_bit_identical_to_reference(shape, rng, zero_tail):
    """conv2d and its gradients equal the pad-and-loop kernel's, values and
    sign bits, on drawn data of ``shape`` (B, H, W, kh, kw, Cin, Cout)."""
    b, h, w, kh, kw, cin, cout = shape
    x = rng.normal(size=(b, h, w, cin))
    if zero_tail:
        x[:, h // 2 :, w // 2 :, :] = 0.0  # exact zeros, like a fold's padded tail
    wt = rng.normal(size=(kh, kw, cin, cout))
    bias = rng.normal(size=cout)
    g = rng.normal(size=(b, h, w, cout))
    got = _conv2d_with_grads(x, wt, bias, g)
    want = oracles.conv2d_reference(x, wt, bias, g)
    for name, a, e in zip(("out", "x.grad", "weight.grad", "bias.grad"), got, want):
        assert np.array_equal(a, e), name
        assert np.array_equal(np.signbit(a), np.signbit(e)), name


@pytest.mark.parametrize("b,h,w,kh,kw,cin,cout", PIPELINE_CONVS)
def test_conv2d_bit_identical_to_reference(b, h, w, kh, kw, cin, cout, rng):
    _assert_bit_identical_to_reference((b, h, w, kh, kw, cin, cout), rng, zero_tail=True)


@settings(max_examples=100, deadline=None)
@given(
    layer=st.sampled_from(sorted({shape[1:] for shape in PIPELINE_CONVS})),
    b=st.integers(1, 32),
    zero_tail=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_conv2d_bit_identical_to_reference_at_any_batch(layer, b, zero_tail, seed):
    # operand layout decides the rounding, and the batch size is part of
    # it (batch 1 was the sensitive case for the weight gradient)
    _assert_bit_identical_to_reference((b, *layer), np.random.default_rng(seed), zero_tail)


@settings(max_examples=200, deadline=None)
@given(
    shape=st.tuples(
        st.integers(1, 32), st.integers(1, 6), st.integers(2, 12),
        st.integers(1, 8), st.integers(1, 14), st.integers(2, 8), st.integers(2, 8),
    ),
    zero_tail=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
# every off-centre tap is dead here, so the grid has no padding and its
# patch would reshape as a view where the padded patch copies
@example(shape=(4, 1, 4, 2, 1, 2, 2), zero_tail=False, seed=0)
def test_conv2d_bit_identical_to_reference_on_drawn_shapes(shape, zero_tail, seed):
    # shapes past PIPELINE_CONVS: even kernels, and kernels past the input
    # whose outer taps read only padding.  W, Cin and Cout start at 2, as in
    # every conv the pipeline runs: where one is 1, numpy multiplies the
    # reference's padded windows with a vector kernel whose rounding depends
    # on a row's place, so only test_conv2d_matches_per_pixel_sums covers it
    _assert_bit_identical_to_reference(shape, np.random.default_rng(seed), zero_tail)


# each weight-gradient path at batch 1 and above: the channels-last view
# (a one-row plane at batch 1, where the patch reshapes as a view), the
# strided copy of wide planes and the flat-index gather of 2-wide folds.
# The last layer's Cout = 2 is where the patch's layout decides the rounding
@pytest.mark.parametrize(
    "shape",
    [
        pytest.param((1, 1, 80, 5, 11, 8, 8), id="view"),
        pytest.param((1, 1, 80, 5, 11, 8, 2), id="view-cout2"),
        pytest.param((1, 4, 80, 5, 11, 8, 2), id="copy-batch1-cout2"),
        pytest.param((12, 4, 80, 5, 11, 8, 2), id="copy-cout2"),
        pytest.param((1, 40, 2, 5, 11, 8, 8), id="take-batch1"),
        pytest.param((1, 40, 2, 5, 11, 8, 2), id="take-batch1-cout2"),
        pytest.param((12, 160, 2, 5, 11, 8, 2), id="take-cout2"),
    ],
)
def test_conv2d_weight_gradient_paths_bit_identical_to_reference(shape, rng):
    for zero_tail in (False, True):
        _assert_bit_identical_to_reference(shape, rng, zero_tail)


def _conv2d_tensors(shape, rng):
    """Drawn x, weight and bias Tensors of ``shape`` (B, H, W, kh, kw, Cin,
    Cout), each requiring a gradient."""
    b, h, w, kh, kw, cin, cout = shape
    sizes = ((b, h, w, cin), (kh, kw, cin, cout), (cout,))
    return [Tensor(rng.normal(size=size), requires_grad=True) for size in sizes]


def test_conv2d_output_owns_its_data(rng):
    # the graph holds each conv's output until backward, so it must not be
    # a view that keeps the larger grid alive
    for shape in PIPELINE_CONVS:
        x, wt, bias = _conv2d_tensors(shape, rng)
        for out in (conv2d(x, wt, bias).data, conv2d(x, wt).data):
            assert out.flags.c_contiguous, shape
            assert out.base is None, shape


@pytest.mark.parametrize(
    "shape",
    [
        (128, 1, 80, 5, 11, 8, 8),
        (32, 40, 2, 5, 11, 8, 8),
        (12, 4, 80, 5, 11, 8, 8),
        (12, 160, 2, 5, 11, 8, 8),
    ],
)
def test_conv2d_backward_memory_stays_under_7x_the_input(shape, rng):
    # the backward pass holds one grid at a time; a fully padded copy of
    # the input for the weight gradient, 5.6x the input of a 1x80 layer,
    # would not fit under this bound, nor would a channels-first grid
    # beside a channels-last one on stage 1's 4x80 and 160x2 folds
    x, wt, bias = _conv2d_tensors(shape, rng)
    out = conv2d(x, wt, bias)
    g = rng.normal(size=out.shape)
    tracemalloc.start()
    try:
        out._backward(g)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 7 * x.data.nbytes, f"{peak / x.data.nbytes:.2f}x"


_DIM = st.integers(1, 5)


@settings(max_examples=60, deadline=None)
@given(
    shape=st.tuples(st.integers(1, 2), _DIM, _DIM, _DIM, _DIM, st.integers(1, 3), st.integers(1, 3)),
    seed=st.integers(0, 2**32 - 1),
)
def test_conv2d_matches_per_pixel_sums(shape, seed):
    # covers kernels larger than the input, even kh or kw, 1x1 kernels and
    # H = W = 1
    b, h, w, kh, kw, cin, cout = shape
    r = np.random.default_rng(seed)
    x = r.normal(size=(b, h, w, cin))
    wt = r.normal(size=(kh, kw, cin, cout))
    g = r.normal(size=(b, h, w, cout))
    out, gx, gw, _ = _conv2d_with_grads(x, wt, np.zeros(cout), g)
    want_out, want_gx, want_gw = oracles.conv2d_direct(x, wt, g)
    np.testing.assert_allclose(out, want_out, rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(gx, want_gx, rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(gw, want_gw, rtol=1e-12, atol=1e-12)
    for i in range(kh):
        for j in range(kw):
            if abs(i - kh // 2) >= h or abs(j - kw // 2) >= w:  # reads only padding
                assert np.all(gw[i, j] == 0.0)


def test_conv2d_tap_table_is_built_once_per_shape(rng, monkeypatch):
    calls = []
    axis_taps = autodiff._axis_taps
    monkeypatch.setattr(
        autodiff, "_axis_taps", lambda n, k: calls.append((n, k)) or axis_taps(n, k)
    )
    autodiff._conv_taps.cache_clear()
    x, w = Tensor(rng.normal(size=(2, 3, 7, 2))), Tensor(rng.normal(size=(3, 5, 2, 2)))
    first = conv2d(x, w).data
    built = list(calls)
    assert set(built) == {(3, 3), (7, 5)}
    assert np.array_equal(conv2d(x, w).data, first)
    assert calls == built


@settings(max_examples=100, deadline=None)
@given(b=st.integers(1, 3), h=_DIM, w=_DIM, kh=st.integers(1, 8), kw=st.integers(1, 8))
def test_conv2d_tap_table_lists_the_taps_that_read_input(b, h, w, kh, kw):
    hp, wp, start, taps = autodiff._conv_taps(h, w, kh, kw)
    assert isinstance(taps, tuple)
    assert all(isinstance(entry, tuple) for entry in taps)
    # the taps that oracles.conv2d_direct lets read input, in order
    want = [
        (i, j) for i in range(kh) for j in range(kw)
        if abs(i - kh // 2) < h and abs(j - kw // 2) < w
    ]
    assert [(i, j) for i, j, _ in taps] == want
    # the grid pads by the reach of those taps, and no more
    assert hp - h == max(abs(i - kh // 2) for i, _, _ in taps)
    assert wp - w == max(abs(j - kw // 2) for _, j, _ in taps)
    # output pixel (y, c) reads input (y + i - kh//2, c + j - kw//2) through
    # tap (i, j) at its offset, and a zero where that lies off the input
    labels = np.arange(1.0, b * h * w + 1).reshape(b, h, w, 1)
    grid = autodiff._grid(labels, hp, wp, start)
    size = b * hp * wp
    assert grid.shape == (size + 2 * start, 1)
    padded = np.pad(labels[..., 0], ((0, 0), (kh, kh), (kw, kw)))
    for i, j, o in taps:
        y, c = kh + i - kh // 2, kw + j - kw // 2
        read = grid[o : o + size].reshape(b, hp, wp)[:, :h, :w]
        assert np.array_equal(read, padded[:, y : y + h, c : c + w])


def test_backward_requires_scalar(rng):
    t = Tensor(rng.normal(size=3), requires_grad=True)
    with pytest.raises(Exception):
        (t * 2.0).backward()


def test_zero_grad_resets(rng):
    t = Tensor(rng.normal(size=3), requires_grad=True)
    t.sum().backward()
    assert t.grad is not None
    t.zero_grad()
    assert t.grad is None or not np.any(t.grad)
