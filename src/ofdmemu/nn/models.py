"""Waveform-domain models: the periodicity-folding compensator, the link
proxy, and a toy image codec.

Waveforms travel as (N_s, 2) real arrays (I and Q columns); helpers
convert to and from the complex vectors the link layer uses.  The
compensator and the proxy take a batch of them, a (B, N_s, 2) Tensor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..config import PhyConfig
from ..link import axis_noise, noise_variance
from ..sources import GLYPH_SIZE
from .autodiff import Tensor, concat
from .layers import Conv2d, Dense, Module

__all__ = [
    "PeriodSpec",
    "complex_to_wave",
    "wave_to_complex",
    "CompensatorModel",
    "ProxyModel",
    "ToyJsccModel",
]


def complex_to_wave(samples: np.ndarray) -> np.ndarray:
    """(..., N_s) complex array -> (..., N_s, 2) I/Q array."""
    samples = np.atleast_1d(np.asarray(samples, dtype=np.complex128))
    return np.stack([samples.real, samples.imag], axis=-1)


def wave_to_complex(wave: np.ndarray) -> np.ndarray:
    """(..., N_s, 2) I/Q array -> (..., N_s) complex array."""
    wave = np.asarray(wave, dtype=np.float64)
    return wave[..., 0] + 1j * wave[..., 1]


@dataclass(frozen=True)
class PeriodSpec:
    """The two fold periods the compensator synchronizes to."""

    ofdm_period: int  # samples per OFDM symbol (fft + cp)
    source_period: int  # samples per transported symbol, on average

    def __post_init__(self):
        if self.ofdm_period < 1 or self.source_period < 1:
            raise ValueError("fold periods must be >= 1")

    @classmethod
    def from_config(cls, cfg: PhyConfig, n_chosen: int) -> "PeriodSpec":
        src = max(1, round(cfg.samples_per_ofdm / n_chosen))
        return cls(cfg.samples_per_ofdm, src)


def _positional_channels(rows: int, period: int) -> np.ndarray:
    """Per-column phase channels so the shared conv can locate fixed
    structure (the cyclic-prefix columns) inside each fold."""
    phase = 2.0 * math.pi * np.arange(period) / period
    cols = np.stack([np.cos(phase), np.sin(phase)], axis=1)  # (period, 2)
    return np.broadcast_to(cols, (rows, period, 2)).copy()


class _ConvStack(Module):
    """conv -> tanh -> ... -> conv with a zero-initialized final layer."""

    def __init__(
        self,
        channels_in: int,
        channels_out: int,
        hidden: int,
        depth: int,
        kernel: tuple[int, int],
        rng: np.random.Generator,
    ):
        super().__init__()
        if depth < 2:
            raise ValueError("stack needs at least input and output layers")
        self.layers: list[Conv2d] = []
        for i in range(depth):
            cin = channels_in if i == 0 else hidden
            cout = channels_out if i == depth - 1 else hidden
            layer = Conv2d(cin, cout, kernel, rng, zero_init=(i == depth - 1))
            self.layers.append(self._sub(f"conv{i}", layer))

    def __call__(self, x: Tensor) -> Tensor:
        for layer in self.layers[:-1]:
            x = layer(x).tanh()
        return self.layers[-1](x)


class CompensatorModel(Module):
    """Learned correction of structured link distortion.

    One shared convolution stack runs over two foldings of the input
    waveform (OFDM-symbol period and source-symbol period); the branch
    outputs are unfolded, truncated, summed, and added to the input, so
    the zero-initialized model is the identity.  Input and output are
    (B, N_s, 2) Tensors.  Rows never mix, so training and image
    evaluation alike correct a whole stack of waveforms in one call, and
    each row comes out as a batch of one would give it.
    """

    def __init__(
        self,
        period_spec: PeriodSpec,
        rng: np.random.Generator,
        channels: int = 8,
        depth: int = 3,
        kernel: tuple[int, int] = (5, 11),
    ):
        super().__init__()
        self.period_spec = period_spec
        # input channels: I, Q, plus the two positional channels
        self.stack = self._sub("stack", _ConvStack(4, 2, channels, depth, kernel, rng))

    def _branch(self, w: Tensor, period: int) -> Tensor:
        batch, n, _ = w.shape
        pad = (-n) % period
        if pad:
            w = concat([w, Tensor(np.zeros((batch, pad, 2)))], axis=1)
        rows = (n + pad) // period
        folded = w.reshape(batch, rows, period, 2)
        pos = np.broadcast_to(
            _positional_channels(rows, period), (batch, rows, period, 2)
        ).copy()
        x = concat([folded, Tensor(pos)], axis=3)
        y = self.stack(x)
        flat = y.reshape(batch, rows * period, 2)
        return flat if pad == 0 else flat[:, :n, :]

    def __call__(self, wave: Tensor) -> Tensor:
        out = self._branch(wave, self.period_spec.ofdm_period)
        return out + self._branch(wave, self.period_spec.source_period) + wave


class ProxyModel(Module):
    """Differentiable stand-in for the physical link.

    Sender stack -> seeded additive Gaussian noise -> receiver stack,
    all shape-preserving over a (B, N_s, 2) Tensor.  Residual
    connections around both stacks plus zero-initialized final layers
    make the untrained, noise-free proxy an identity map.

    The injected per-sample complex variance is
    ``noise_gain * 10^(-snr/10) + noise_floor``.  The defaults (1, 0)
    give the nominal unit-reference-power law; stage-2 training
    calibrates both constants against measured link records so the
    surrogate noise matches what the real link actually delivers.
    """

    def __init__(
        self,
        rng: np.random.Generator,
        channels: int = 8,
        depth: int = 3,
        kernel_width: int = 9,
    ):
        super().__init__()
        self.noise_gain = 1.0
        self.noise_floor = 0.0
        kern = (1, kernel_width)
        self.sender = self._sub("sender", _ConvStack(2, 2, channels, depth, kern, rng))
        self.receiver = self._sub(
            "receiver", _ConvStack(2, 2, channels, depth, kern, rng)
        )

    def _run(self, stack: _ConvStack, w: Tensor) -> Tensor:
        batch, n, _ = w.shape
        x = w.reshape(batch, 1, n, 2)
        y = stack(x).reshape(batch, n, 2)
        return y + w

    def __call__(
        self,
        wave: Tensor,
        snr_db: float = math.inf,
        seed: int | np.random.Generator | None = None,
        inject_noise: bool = True,
    ) -> Tensor:
        h = self._run(self.sender, wave)
        var = self.noise_gain * noise_variance(snr_db) + self.noise_floor
        if var > 0 and inject_noise:
            if seed is None:
                raise ValueError("noisy proxy evaluation requires a seed")
            h = h + Tensor(axis_noise(np.random.default_rng(seed), var, h.shape))
        return self._run(self.receiver, h)


class ToyJsccModel(Module):
    """Small dense autoencoder mapping glyph images to complex channel
    symbols.

    The encoder emits 2K reals, normalized per image so the paired
    complex symbols have unit average power, then soft-clipped so every
    axis stays strictly inside the link's quantizer box (the box edge
    sits at 3 per-axis sigma, i.e. 3/sqrt(2) in these units).  Bounded
    latents mean the real link never hard-clips codec outputs, and the
    codec cannot drift into amplitude regimes a link surrogate has
    never seen.  Latent pairing: consecutive reals become (real, imag)
    of one symbol.
    """

    def __init__(
        self,
        rng: np.random.Generator,
        latent_pairs: int = 24,
        hidden: int = 48,
    ):
        super().__init__()
        self.latent_pairs = int(latent_pairs)
        # every latent real stays inside (-2, 2), under the box edge 3/sqrt(2)
        self.latent_bound = 2.0
        pixels = GLYPH_SIZE * GLYPH_SIZE
        self.pixels = pixels
        self.enc1 = self._sub("enc1", Dense(pixels, hidden, rng))
        self.enc2 = self._sub("enc2", Dense(hidden, 2 * latent_pairs, rng))
        self.dec1 = self._sub("dec1", Dense(2 * latent_pairs, hidden, rng))
        self.dec2 = self._sub("dec2", Dense(hidden, pixels, rng))
        self._half = Tensor(np.sqrt(0.5))

    def encode(self, images: Tensor) -> Tensor:
        """(B, pixels) -> (B, 2K) bounded near-unit-power latent reals."""
        z = self.enc2(self.enc1(images).tanh())
        power = z.square() @ Tensor(np.full((2 * self.latent_pairs, 1), 1.0 / (2 * self.latent_pairs)))
        rms = (power + 1e-12).sqrt()
        z = z / rms * self._half
        b = self.latent_bound
        return (z * (1.0 / b)).tanh() * b

    def decode(self, latent: Tensor) -> Tensor:
        """(B, 2K) -> (B, pixels)."""
        return self.dec2(self.dec1(latent).tanh())
