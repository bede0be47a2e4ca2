import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from ofdmemu.config import bin_to_logical
from ofdmemu.sources import (
    _blur3,
    gaussian_symbols,
    glyph_images,
    longest_chosen_run,
    smooth_waveform,
)


def test_gaussian_symbols_statistics(rng):
    z = gaussian_symbols(100_000, rng)
    assert z.shape == (100_000,)
    assert abs(np.mean(np.abs(z) ** 2) - 1.0) < 0.02
    assert abs(np.mean(z.real)) < 0.02
    assert abs(np.mean(z.imag)) < 0.02


def test_gaussian_symbols_deterministic():
    a = gaussian_symbols(64, np.random.default_rng(3))
    b = gaussian_symbols(64, np.random.default_rng(3))
    assert np.array_equal(a, b)


def test_longest_chosen_run_brute_force(default_setup):
    center, length = longest_chosen_run(default_setup)
    logical = sorted(bin_to_logical(b) for b in default_setup.chosen)
    best = 0
    best_seq = None
    for i in range(len(logical)):
        for j in range(i, len(logical)):
            seq = logical[i : j + 1]
            if seq == list(range(seq[0], seq[0] + len(seq))) and len(seq) > best:
                best = len(seq)
                best_seq = seq
    assert length == best
    assert center == best_seq[0] + (best - 1) / 2.0


def test_smooth_waveform_unit_power_and_bandwidth(rng):
    n = 4096
    wave = smooth_waveform(n, rng, carrier=10.0, fft_size=64, bandwidth_bins=4.0)
    assert wave.shape == (n,)
    assert abs(np.mean(np.abs(wave) ** 2) - 1.0) < 1e-9
    # spectral mass concentrates around the carrier bin
    spec = np.abs(np.fft.fft(wave.reshape(-1, 64), axis=1)) ** 2
    prof = spec.mean(axis=0)
    prof /= prof.sum()
    bins = np.arange(64)
    logical = np.where(bins < 32, bins, bins - 64)
    centroid = float(np.sum(logical * prof))
    assert abs(centroid - 10.0) < 1.0
    occupied = np.sum(prof[np.abs(logical - 10.0) <= 4.0])
    assert occupied > 0.8


def test_smooth_waveform_deterministic():
    a = smooth_waveform(256, np.random.default_rng(4), carrier=-5.0)
    b = smooth_waveform(256, np.random.default_rng(4), carrier=-5.0)
    assert np.array_equal(a, b)


def test_glyph_images_range_and_shape(rng):
    imgs = glyph_images(32, rng)
    assert imgs.shape == (32, 8, 8, 1)
    assert np.min(imgs) >= 0.0
    assert np.max(imgs) <= 1.0
    # every image contains at least one stroke
    assert np.all(imgs.reshape(32, -1).max(axis=1) > 0.1)
    # images differ from one another
    assert not np.array_equal(imgs[0], imgs[1])


def test_glyph_images_deterministic():
    a = glyph_images(4, np.random.default_rng(9))
    b = glyph_images(4, np.random.default_rng(9))
    assert np.array_equal(a, b)


@settings(max_examples=100, deadline=None)
@given(count=st.integers(1, 24), seed=st.integers(0, 2**32 - 1), sparse=st.booleans())
def test_blur_matches_per_image_convolutions(count, seed, sparse):
    # one vectorized pass over the stack, byte for byte the two
    # np.convolve passes per image, on stroke-like and on signed values
    rng = np.random.default_rng(seed)
    images = rng.uniform(0.55, 1.0, (count, 8, 8)) * (rng.uniform(size=(count, 8, 8)) < 0.3)
    if not sparse:
        images = rng.normal(size=(count, 8, 8))
    want = np.stack([oracles.blur3_reference(img) for img in images])
    assert _blur3(images).tobytes() == want.tobytes()
