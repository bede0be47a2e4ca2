"""Reverse-mode automatic differentiation over float64 numpy arrays.

A Tensor wraps an ndarray plus an optional gradient buffer and a
closure that scatters incoming gradients to its parents.  Graphs are
built dynamically by the overloaded operators; ``backward`` on a scalar
loss walks the graph once in reverse topological order.

Everything runs in double precision; analytic gradients are validated
against central finite differences by the gradcheck module.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

__all__ = ["Tensor", "conv2d", "concat"]


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a broadcast gradient back down to the original shape."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


class Tensor:
    """Array node in the autodiff graph."""

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents")
    __array_priority__ = 100  # keep numpy from hijacking reflected operators

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        self._backward = None
        self._parents: tuple[Tensor, ...] = ()

    # -- construction helpers -------------------------------------------------

    @staticmethod
    def _lift(value) -> "Tensor":
        return value if isinstance(value, Tensor) else Tensor(value)

    @staticmethod
    def _node(data, parents, backward) -> "Tensor":
        out = Tensor(data)
        if any(p.requires_grad for p in parents):
            out.requires_grad = True
            out._parents = tuple(parents)
            out._backward = backward
        return out

    # -- basic protocol -------------------------------------------------------

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    def item(self) -> float:
        return float(self.data)

    # -- arithmetic -----------------------------------------------------------

    def __add__(self, other) -> "Tensor":
        other = Tensor._lift(other)
        out_data = self.data + other.data

        def backward(g):
            if self.requires_grad:
                self._accum(_unbroadcast(g, self.data.shape))
            if other.requires_grad:
                other._accum(_unbroadcast(g, other.data.shape))

        return Tensor._node(out_data, (self, other), backward)

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        def backward(g):
            self._accum(-g)

        return Tensor._node(-self.data, (self,), backward)

    def __sub__(self, other) -> "Tensor":
        return self + (-Tensor._lift(other))

    def __rsub__(self, other) -> "Tensor":
        return Tensor._lift(other) + (-self)

    def __mul__(self, other) -> "Tensor":
        other = Tensor._lift(other)
        out_data = self.data * other.data

        def backward(g):
            if self.requires_grad:
                self._accum(_unbroadcast(g * other.data, self.data.shape))
            if other.requires_grad:
                other._accum(_unbroadcast(g * self.data, other.data.shape))

        return Tensor._node(out_data, (self, other), backward)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Tensor":
        other = Tensor._lift(other)
        out_data = self.data / other.data

        def backward(g):
            if self.requires_grad:
                self._accum(_unbroadcast(g / other.data, self.data.shape))
            if other.requires_grad:
                other._accum(
                    _unbroadcast(-g * self.data / (other.data**2), other.data.shape)
                )

        return Tensor._node(out_data, (self, other), backward)

    def __matmul__(self, other) -> "Tensor":
        other = Tensor._lift(other)
        out_data = self.data @ other.data

        def backward(g):
            if self.requires_grad:
                self._accum(g @ other.data.swapaxes(-1, -2))
            if other.requires_grad:
                other._accum(self.data.swapaxes(-1, -2) @ g)

        return Tensor._node(out_data, (self, other), backward)

    # -- nonlinearities and reductions ---------------------------------------

    def tanh(self) -> "Tensor":
        out_data = np.tanh(self.data)

        def backward(g):
            self._accum(g * (1.0 - out_data**2))

        return Tensor._node(out_data, (self,), backward)

    def sum(self) -> "Tensor":
        def backward(g):
            self._accum(np.broadcast_to(g, self.data.shape).copy())

        return Tensor._node(self.data.sum(), (self,), backward)

    def mean(self) -> "Tensor":
        n = self.data.size

        def backward(g):
            self._accum(np.broadcast_to(g / n, self.data.shape).copy())

        return Tensor._node(self.data.mean(), (self,), backward)

    def square(self) -> "Tensor":
        return self * self

    def sqrt(self) -> "Tensor":
        out_data = np.sqrt(self.data)

        def backward(g):
            self._accum(g * 0.5 / out_data)

        return Tensor._node(out_data, (self,), backward)

    # -- shape manipulation ---------------------------------------------------

    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        old = self.data.shape
        out_data = self.data.reshape(shape)

        def backward(g):
            self._accum(g.reshape(old))

        return Tensor._node(out_data, (self,), backward)

    def __getitem__(self, key) -> "Tensor":
        out_data = self.data[key]

        def backward(g):
            buf = np.zeros_like(self.data)
            np.add.at(buf, key, g)
            self._accum(buf)

        return Tensor._node(out_data, (self,), backward)

    # -- backprop engine ------------------------------------------------------

    def _accum(self, g: np.ndarray) -> None:
        if self.grad is None:
            self.grad = np.array(g, dtype=np.float64, copy=True)
        else:
            self.grad += g

    def zero_grad(self) -> None:
        self.grad = None

    def backward(self) -> None:
        """Backpropagate from this scalar through the recorded graph."""
        if self.data.size != 1:
            raise ValueError("backward() requires a scalar loss")
        order: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if p.requires_grad and id(p) not in seen:
                    stack.append((p, False))
        self.grad = np.ones_like(self.data)
        for node in reversed(order):
            if node._backward is not None:
                node._backward(node.grad)


def concat(tensors: list[Tensor], axis: int = -1) -> Tensor:
    """Concatenate along an axis, scattering gradients back by slice."""
    tensors = [Tensor._lift(t) for t in tensors]
    out_data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward(g):
        for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
            if t.requires_grad:
                idx = [slice(None)] * g.ndim
                idx[axis] = slice(lo, hi)
                t._accum(g[tuple(idx)])

    return Tensor._node(out_data, tuple(tensors), backward)


def _axis_taps(n: int, k: int) -> list[tuple[int, slice, slice]]:
    """(kernel index, output slice, input slice) along one axis of length n.

    Kernel index i moves input index y + i - k//2 to output index y; the
    slices cover the y where both lie inside 0..n-1.  Indices with
    |i - k//2| >= n see only SAME padding and are left out.
    """
    taps = []
    for i in range(k):
        d = i - k // 2
        if abs(d) < n:
            taps.append((i, slice(max(0, -d), n - max(0, d)), slice(max(0, d), n + min(0, d))))
    return taps


@lru_cache(maxsize=None)
def _conv_taps(h: int, w: int, kh: int, kw: int) -> tuple:
    """(i, j, output window, input window) of each tap of a kh x kw kernel
    that reads real input of an H x W plane, built once per shape."""
    return tuple(
        (i, j, (slice(None), ro, co), (slice(None), ri, ci))
        for i, ro, ri in _axis_taps(h, kh)
        for j, co, ci in _axis_taps(w, kw)
    )


def conv2d(x: Tensor, weight: Tensor, bias: Tensor | None = None) -> Tensor:
    """2D convolution, stride 1, SAME zero padding, channels last.

    ``x`` is (B, H, W, Cin), ``weight`` is (kh, kw, Cin, Cout), output is
    (B, H, W, Cout).  Each tap that reads real input is one 2-D matmul of
    the whole unpadded input, (B·H·W, Cin) @ (Cin, Cout), whose valid
    window is added into the output; the taps and their windows come from
    a table built once per (H, W, kh, kw).  The input gradient mirrors the
    forward on one C-contiguous copy of the transposed kernel: a tap's
    transposed view would send BLAS down its slower transposed-operand
    path for the same sums.  Taps that read only padding add exact zeros,
    so they are skipped and their weight gradient is +0.0.  The weight
    gradient of the other taps is one ``np.dot`` of the tap's zero-padded
    patch, reshaped to (Cin, B·H·W), with the (B·H·W, Cout) output
    gradient: the product ``tensordot`` over the patch makes, on the same
    operands, without its per-call bookkeeping; those operands fix its
    rounding, so they stay.  Where W, Cin and Cout are all above 1, as in
    every conv the pipeline runs, every result is bit for bit what a
    pad-and-loop over all kh·kw taps gives.
    """
    kh, kw, cin, cout = weight.data.shape
    b, h, w, cx = x.data.shape
    if cx != cin:
        raise ValueError(f"input has {cx} channels, weight expects {cin}")
    taps = _conv_taps(h, w, kh, kw)
    x2 = x.data.reshape(-1, cin)
    out_data = np.zeros((b, h, w, cout))
    for i, j, o, n in taps:
        out_data[o] += (x2 @ weight.data[i, j]).reshape(b, h, w, cout)[n]
    if bias is not None:
        out_data += bias.data

    parents = (x, weight) if bias is None else (x, weight, bias)

    def backward(g):
        g2 = g.reshape(-1, cout)
        if x.requires_grad:
            gx = np.zeros_like(x.data)
            wt = np.ascontiguousarray(weight.data.transpose(0, 1, 3, 2))
            for i, j, o, n in taps:
                gx[n] += (g2 @ wt[i, j]).reshape(b, h, w, cin)[o]
            x._accum(gx)
        if weight.requires_grad:
            # summing over the padded patch, zeros included, keeps BLAS's
            # accumulation order (and so the bits) of the full-tap kernel
            ph, pw = kh // 2, kw // 2
            xp = np.zeros((b, h + kh - 1, w + kw - 1, cin))
            xp[:, ph : ph + h, pw : pw + w, :] = x.data
            gw = np.zeros_like(weight.data)
            for i, j, _, _ in taps:
                # a copy, or a strided view where the patch's (B, H, W) axes
                # merge, as tensordot has it
                patch = xp[:, i : i + h, j : j + w, :].transpose(3, 0, 1, 2)
                gw[i, j] = np.dot(patch.reshape(cin, -1), g2)
            weight._accum(gw)
        if bias is not None and bias.requires_grad:
            bias._accum(g.sum(axis=(0, 1, 2)))

    return Tensor._node(out_data, parents, backward)
