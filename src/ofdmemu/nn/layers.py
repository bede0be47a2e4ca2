"""Parameterized layers and the optimizer.

Layers register their parameters in declaration order under stable
names; that order defines the flat serialization layout and the
architecture fingerprint.
"""

from __future__ import annotations

import hashlib

import numpy as np

from .autodiff import Tensor, conv2d

__all__ = ["Module", "Dense", "Conv2d", "SGDMomentum"]


class Module:
    """Base for anything holding trainable tensors.

    Subclasses register parameters via ``_param`` and submodules via
    ``_sub``; iteration order is declaration order, which fixes both the
    checkpoint layout and the fingerprint.
    """

    def __init__(self):
        self._params: dict[str, Tensor] = {}
        self._subs: dict[str, "Module"] = {}

    def _param(self, name: str, value: np.ndarray) -> Tensor:
        t = Tensor(np.asarray(value, dtype=np.float64), requires_grad=True)
        self._params[name] = t
        return t

    def _sub(self, name: str, module: "Module") -> "Module":
        self._subs[name] = module
        return module

    def named_parameters(self, prefix: str = "") -> list[tuple[str, Tensor]]:
        out = [(prefix + name, t) for name, t in self._params.items()]
        for name, sub in self._subs.items():
            out.extend(sub.named_parameters(prefix + name + "."))
        return out

    def parameters(self) -> list[Tensor]:
        return [t for _, t in self.named_parameters()]

    def parameter_count(self) -> int:
        return sum(t.size for t in self.parameters())

    def architecture_fingerprint(self) -> str:
        """Digest of the parameter names and shapes, for checkpoint safety."""
        h = hashlib.sha256()
        for name, t in self.named_parameters():
            h.update(f"{name}:{t.data.shape};".encode())
        return h.hexdigest()[:16]

    def state_vector(self) -> np.ndarray:
        parts = [t.data.reshape(-1) for _, t in self.named_parameters()]
        return np.concatenate(parts) if parts else np.zeros(0)

    def load_state_vector(self, flat: np.ndarray) -> None:
        flat = np.asarray(flat, dtype=np.float64)
        if flat.size != self.parameter_count():
            raise ValueError(
                f"state vector has {flat.size} values, model needs "
                f"{self.parameter_count()}"
            )
        pos = 0
        for _, t in self.named_parameters():
            n = t.size
            t.data = flat[pos : pos + n].reshape(t.data.shape).copy()
            pos += n


def _glorot(rng: np.random.Generator, shape: tuple[int, ...], fan_in: int, fan_out: int):
    bound = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=shape)


class Dense(Module):
    """Affine layer y = x W + b for (..., features_in) inputs."""

    def __init__(self, features_in: int, features_out: int, rng: np.random.Generator):
        super().__init__()
        w = _glorot(rng, (features_in, features_out), features_in, features_out)
        self.weight = self._param("weight", w)
        self.bias = self._param("bias", np.zeros(features_out))

    def __call__(self, x: Tensor) -> Tensor:
        return x @ self.weight + self.bias


class Conv2d(Module):
    """SAME-padded stride-1 convolution over (B, H, W, C) tensors."""

    def __init__(
        self,
        channels_in: int,
        channels_out: int,
        kernel: tuple[int, int],
        rng: np.random.Generator,
        zero_init: bool = False,
    ):
        super().__init__()
        kh, kw = kernel
        fan_in = kh * kw * channels_in
        fan_out = kh * kw * channels_out
        if zero_init:
            w = np.zeros((kh, kw, channels_in, channels_out))
        else:
            w = _glorot(rng, (kh, kw, channels_in, channels_out), fan_in, fan_out)
        self.weight = self._param("weight", w)
        self.bias = self._param("bias", np.zeros(channels_out))

    def __call__(self, x: Tensor) -> Tensor:
        return conv2d(x, self.weight, self.bias)


class SGDMomentum:
    """Plain SGD with classical momentum and a fixed step size."""

    def __init__(self, params: list[Tensor], step: float, momentum: float = 0.9):
        self.params = list(params)
        self.step = float(step)
        self.momentum = float(momentum)
        self.velocity = [np.zeros_like(p.data) for p in self.params]

    def apply(self) -> None:
        for p, v in zip(self.params, self.velocity):
            if p.grad is None:
                continue
            v *= self.momentum
            v -= self.step * p.grad
            p.data += v

    def zero_grad(self) -> None:
        for p in self.params:
            p.zero_grad()
