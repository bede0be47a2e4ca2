import numpy as np
import pytest

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


@pytest.mark.parametrize("name", ["tanh", "relu", "square", "sqrt"])
def test_unary_ops(name, rng):
    x = rng.normal(size=(4, 4))
    if name == "sqrt":
        x = np.abs(x) + 0.5
    if name == "relu":
        x = x + np.where(np.abs(x) < 1e-3, 0.01, 0.0)  # stay off the kink
    check_unary(lambda t: getattr(t, name)(), x)


def test_pow_and_mean(rng):
    x = np.abs(rng.normal(size=7)) + 0.5
    t = Tensor(x, requires_grad=True)
    (t**1.5).mean().backward()
    num = numeric_grad(lambda v: float(np.mean(v**1.5)), x)
    np.testing.assert_allclose(t.grad, num, rtol=1e-5)


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


def test_backward_requires_scalar(rng):
    t = Tensor(rng.normal(size=3), requires_grad=True)
    with pytest.raises(Exception):
        (t * 2.0).backward()


def test_detach_blocks_gradient(rng):
    t = Tensor(rng.normal(size=3), requires_grad=True)
    (t.detach() * t).sum().backward()
    np.testing.assert_allclose(t.grad, t.data)


def test_zero_grad_resets(rng):
    t = Tensor(rng.normal(size=3), requires_grad=True)
    t.sum().backward()
    assert t.grad is not None
    t.zero_grad()
    assert t.grad is None or not np.any(t.grad)
