"""Synthetic workloads: random symbols, band-shaped smooth waveforms,
and procedural glyph images.

Everything here is generated from an explicit rng, never ambient state,
so sweeps and training runs replay exactly.
"""

from __future__ import annotations

import numpy as np

from .config import bin_to_logical

__all__ = [
    "gaussian_symbols",
    "longest_chosen_run",
    "smooth_waveform",
    "glyph_images",
]


def gaussian_symbols(count: int, rng: np.random.Generator) -> np.ndarray:
    """Unit-average-power circularly-symmetric complex Gaussian symbols."""
    z = rng.normal(size=(count, 2))
    return (z[:, 0] + 1j * z[:, 1]) / np.sqrt(2.0)


def longest_chosen_run(setup) -> tuple[float, int]:
    """Center (in logical subcarrier units) and length of the longest
    consecutive run inside the setup's chosen subset.

    Smooth sources are tuned to occupy such a run so their energy lands
    on controllable subcarriers instead of pilots, DC, or dummies.
    """
    logical = sorted(map(bin_to_logical, setup.chosen))
    best_start, best_len = logical[0], 1
    start, run = logical[0], 1
    for prev, cur in zip(logical, logical[1:]):
        if cur == prev + 1:
            run += 1
        else:
            start, run = cur, 1
        if run > best_len:
            best_start, best_len = start, run
    return best_start + (best_len - 1) / 2.0, best_len


def smooth_waveform(
    n_samples: int,
    rng: np.random.Generator,
    carrier: float,
    fft_size: int = 64,
    bandwidth_bins: float = 4.0,
) -> np.ndarray:
    """Temporally-correlated complex waveform centered on ``carrier``.

    A white complex sequence is smoothed with a Gaussian kernel (the
    envelope) and mixed up to ``carrier`` (in logical subcarrier units),
    then normalized to unit average power.  ``bandwidth_bins`` sets the
    envelope's approximate two-sided spectral occupancy.
    """
    # Gaussian kernel of std s has power spectrum ~ exp(-(2 pi f s)^2),
    # so its two-sided -8.7 dB occupancy is about fft/(pi*s) bins.
    sigma = float(fft_size / (np.pi * bandwidth_bins))
    half = int(np.ceil(4 * sigma))
    taps = np.exp(-0.5 * (np.arange(-half, half + 1) / sigma) ** 2)
    taps /= np.sqrt(np.sum(taps**2))
    white = rng.normal(size=(n_samples + 2 * half, 2))
    base = white[:, 0] + 1j * white[:, 1]
    envelope = np.convolve(base, taps, mode="valid")[:n_samples]
    tone = np.exp(2j * np.pi * carrier * np.arange(n_samples) / fft_size)
    wave = envelope * tone
    return wave / np.sqrt(np.mean(np.abs(wave) ** 2))


def _blur3(img: np.ndarray) -> np.ndarray:
    kern = np.array([0.25, 0.5, 0.25])
    out = np.apply_along_axis(lambda r: np.convolve(r, kern, mode="same"), 1, img)
    return np.apply_along_axis(lambda c: np.convolve(c, kern, mode="same"), 0, out)


def glyph_images(
    count: int, rng: np.random.Generator, size: int = 8
) -> np.ndarray:
    """Procedural stroke glyphs: (count, size, size, 1) grayscale in [0, 1].

    Each image draws two to four straight strokes at random positions,
    orientations, and intensities, then applies a light blur.  This
    stands in for a natural-image dataset without any download.
    """
    images = np.zeros((count, size, size))
    for i in range(count):
        for _ in range(int(rng.integers(2, 5))):
            intensity = rng.uniform(0.55, 1.0)
            kind = int(rng.integers(0, 3))
            if kind == 0:  # horizontal
                r = int(rng.integers(0, size))
                c0, c1 = sorted(rng.integers(0, size, size=2))
                images[i, r, c0 : c1 + 1] = np.maximum(
                    images[i, r, c0 : c1 + 1], intensity
                )
            elif kind == 1:  # vertical
                c = int(rng.integers(0, size))
                r0, r1 = sorted(rng.integers(0, size, size=2))
                images[i, r0 : r1 + 1, c] = np.maximum(
                    images[i, r0 : r1 + 1, c], intensity
                )
            else:  # diagonal
                r0 = int(rng.integers(0, size))
                c0 = int(rng.integers(0, size))
                step = 1 if rng.uniform() < 0.5 else -1
                length = int(rng.integers(2, size))
                for k in range(length):
                    r, c = r0 + k, c0 + step * k
                    if 0 <= r < size and 0 <= c < size:
                        images[i, r, c] = max(images[i, r, c], intensity)
        images[i] = _blur3(images[i])
    return np.clip(images, 0.0, 1.0)[..., None]
