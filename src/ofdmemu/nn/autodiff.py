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


# widest plane whose weight-gradient patches are gathered by flat index
# (see ``conv2d``): on 40-row planes the flat index takes 0.55 of a
# strided copy's time at W = 4, the two tie at W = 8, and the copy wins
# from W = 16 up
_TAKE_MAX_W = 4


def _axis_taps(n: int, k: int) -> list[int]:
    """Kernel indices along one axis of length n that read real input.

    Kernel index i moves input index y + i - k//2 to output index y.
    Indices with |i - k//2| >= n see only SAME padding and are left out.
    """
    return [i for i in range(k) if abs(i - k // 2) < n]


@lru_cache(maxsize=None)
def _conv_taps(h: int, w: int, kh: int, kw: int) -> tuple:
    """(hp, wp, start, taps): the zero-gapped grid of an H x W plane under
    a kh x kw kernel, built once per shape (see ``conv2d``).

    Each batch item is hp = H + rh rows of wp = W + rw columns, where rh
    and rw are the reach of the taps that read real input, and the flat
    grid has ``start`` zero rows before and after it.  ``taps`` holds
    (i, j, offset) of each such tap: its flat grid slice starts at
    ``offset``.
    """
    rows, cols = _axis_taps(h, kh), _axis_taps(w, kw)
    rh = max(abs(i - kh // 2) for i in rows)
    rw = max(abs(j - kw // 2) for j in cols)
    hp, wp = h + rh, w + rw
    start = rh * wp + rw
    taps = tuple(
        (i, j, start + (i - kh // 2) * wp + (j - kw // 2)) for i in rows for j in cols
    )
    return hp, wp, start, taps


def _grid(a: np.ndarray, hp: int, wp: int, start: int) -> np.ndarray:
    """(B, H, W, C) ``a`` on its flat zero-gapped grid, (B·hp·wp + 2·start, C)."""
    b, h, w, c = a.shape
    flat = np.zeros((b * hp * wp + 2 * start, c))
    flat[start : len(flat) - start].reshape(b, hp, wp, c)[:, :h, :w] = a
    return flat


def conv2d(x: Tensor, weight: Tensor, bias: Tensor | None = None) -> Tensor:
    """2D convolution, stride 1, SAME zero padding, channels last.

    ``x`` is (B, H, W, Cin), ``weight`` is (kh, kw, Cin, Cout), output is
    (B, H, W, Cout).  Taps that read only padding add exact zeros, so they
    are skipped and their weight gradient is +0.0.  Where W, Cin and Cout
    are all above 1, as in every conv the pipeline runs, every result is
    bit for bit what a pad-and-loop over all kh·kw taps gives.

    The grid.  The live taps reach rh rows and rw columns from the
    centre.  Each batch item becomes H + rh rows of W + rw columns with
    its data in the top-left corner: the rh zero rows under one item are
    the padding above the next, and the rw zero columns right of one row
    are the padding left of the next.  Flattened to size = B·(H+rh)·(W+rw)
    positions with start = rh·(W+rw) + rw zeros on each side, tap (i, j)
    reads the grid slice at offset start + (i - kh//2)·(W+rw) + (j - kw//2).
    The geometry and the live taps come from a table built once per
    (H, W, kh, kw); the batch size only scales the length.

    Forward: each live tap, in table order, adds one (size, Cin) @ (Cin,
    Cout) matmul of its contiguous slice into a zeroed (size, Cout)
    accumulator, which is cropped into a new array.  The input gradient
    does the same on the grid of the output gradient, at the mirrored
    offset 2·start - offset, with one C-contiguous copy of the transposed
    kernel: a tap's transposed view would send BLAS down its slower
    transposed-operand path for the same sums.

    The weight gradient of tap (i, j) is ``np.dot(patch, g)``, the
    (Cin, B·H·W) patch of input the tap reads times the (B·H·W, Cout)
    output gradient: the product ``tensordot`` over a zero-padded patch
    makes, without its per-call bookkeeping.  Where the patch must be a
    copy (the copy rule below), ``x`` is written once, transposed, into a
    zeroed channels-first grid of the same geometry, (Cin, size + 2·start),
    and every tap gathers its patch from its slice into one C-ordered
    buffer, reused across taps, and writes its product in place.  The
    gather is a strided copy of the slice's crop, or, where the crop's
    rows are runs of at most ``_TAKE_MAX_W`` samples between gap columns
    (the 2-wide source folds), one ``np.take`` over a flat index, which
    reads such short rows faster.  Elsewhere the patch is the crop of the
    channels-last grid's slice, transposed to (Cin, B, H, W) and reshaped
    as a view.

    Why it is exact.  A tap's product at a gap position is ±0.0.  The
    running sum starts at +0.0 and, in round-to-nearest, never becomes
    -0.0, so adding those products changes no bit, and every real
    position receives the same live-tap products, in table order, as
    from a pad-and-loop.  That a matmul row does not depend on the
    slice's offset or row count was checked by experiment, not argued;
    the property tests keep checking it.

    The copy rule.  BLAS rounds the weight gradient differently by
    operand layout, so the patch is a C-ordered copy exactly where the
    pad-and-loop's patch copies: where reshaping it cannot merge its
    non-unit (B, H, W) axes.  That patch merges H and W only when
    kw = 1, B and H only when kh = 1, and B and W (at H = 1) only when
    kh = kw = 1; the grid's patch merges more often, since the grid
    drops the padding of dead taps.  Both gathers hand BLAS what that
    copy does, a C-ordered (Cin, B·H·W) patch and the C-ordered gradient,
    so the products keep their bits.
    """
    kh, kw, cin, cout = weight.data.shape
    b, h, w, cx = x.data.shape
    if cx != cin:
        raise ValueError(f"input has {cx} channels, weight expects {cin}")
    hp, wp, start, taps = _conv_taps(h, w, kh, kw)
    size = b * hp * wp

    def crop(flat):
        """The real positions of a (size, C) grid, as a (B, H, W, C) view."""
        return flat.reshape(b, hp, wp, -1)[:, :h, :w]

    xf = _grid(x.data, hp, wp, start)
    acc = np.zeros((size, cout))
    for i, j, o in taps:
        acc += xf[o : o + size] @ weight.data[i, j]
    del xf
    # a copy: the graph holds the output until backward, not the grid
    out_data = crop(acc).copy()
    if bias is not None:
        out_data += bias.data

    parents = (x, weight) if bias is None else (x, weight, bias)

    def backward(g):
        if x.requires_grad:
            gf = _grid(g, hp, wp, start)
            wt = np.ascontiguousarray(weight.data.transpose(0, 1, 3, 2))
            gacc = np.zeros((size, cin))
            for i, j, o in taps:
                m = 2 * start - o
                gacc += gf[m : m + size] @ wt[i, j]
            del gf
            x._accum(crop(gacc))
        if weight.requires_grad:
            # the copy rule (see above): where the pad-and-loop's patch
            # reshapes as a view
            merges = (
                (h == 1 or w == 1 or kw == 1)
                and (b == 1 or h == 1 or kh == 1)
                and (b == 1 or h > 1 or w == 1 or kh == kw == 1)
            )
            g2 = g.reshape(-1, cout)
            gw = np.zeros_like(weight.data)
            if merges:
                xg = _grid(x.data, hp, wp, start)
                for i, j, o in taps:
                    patch = crop(xg[o : o + size]).transpose(3, 0, 1, 2)
                    gw[i, j] = np.dot(patch.reshape(cin, -1), g2)
            else:
                xt = np.zeros((cin, size + 2 * start))
                xt[:, start : start + size].reshape(cin, b, hp, wp)[:, :, :h, :w] = (
                    x.data.transpose(3, 0, 1, 2)
                )
                patch = np.empty((cin, b * h * w))
                if w < wp and w <= _TAKE_MAX_W:
                    # the flat index of each real position, from the slice's start
                    rows = np.arange(b * hp).reshape(b, hp)[:, :h, None]
                    base = (rows * wp + np.arange(w)).ravel()
                    for i, j, o in taps:
                        np.take(xt, base + o, axis=1, out=patch, mode="clip")
                        np.dot(patch, g2, out=gw[i, j])
                else:
                    for i, j, o in taps:
                        np.copyto(
                            patch.reshape(cin, b, h, w),
                            xt[:, o : o + size].reshape(cin, b, hp, wp)[:, :, :h, :w],
                        )
                        np.dot(patch, g2, out=gw[i, j])
            weight._accum(gw)
        if bias is not None and bias.requires_grad:
            bias._accum(g.sum(axis=(0, 1, 2)))

    return Tensor._node(out_data, parents, backward)
