import math

import numpy as np
import pytest

from ofdmemu.nn.autodiff import Tensor
from ofdmemu.nn.layers import Conv2d, Dense, Module, SGDMomentum
from ofdmemu.nn.models import (
    CompensatorModel,
    PeriodSpec,
    ProxyModel,
    ToyJsccModel,
    complex_to_wave,
    wave_to_complex,
)
from ofdmemu.sources import glyph_images


def test_wave_conversion_roundtrip(rng):
    z = rng.normal(size=33) + 1j * rng.normal(size=33)
    w = complex_to_wave(z)
    assert w.shape == (33, 2)
    assert np.array_equal(wave_to_complex(w), z)


def test_period_spec(default_cfg):
    spec = PeriodSpec.from_config(default_cfg, 36)
    assert spec.ofdm_period == default_cfg.samples_per_ofdm
    assert spec.source_period == round(default_cfg.samples_per_ofdm / 36)
    with pytest.raises(ValueError):
        PeriodSpec(0, 2)
    with pytest.raises(ValueError):
        PeriodSpec(80, 0)


def test_module_parameter_registry(rng):
    d = Dense(4, 3, rng)
    names = [n for n, _ in d.named_parameters()]
    assert names == ["weight", "bias"]
    assert d.parameter_count() == 4 * 3 + 3


def test_dense_forward(rng):
    d = Dense(5, 2, rng)
    x = rng.normal(size=(3, 5))
    got = d(Tensor(x)).data
    w = dict(d.named_parameters())
    np.testing.assert_allclose(got, x @ w["weight"].data + w["bias"].data)


def test_conv2d_layer_preserves_shape(rng):
    layer = Conv2d(3, 5, (3, 3), rng)
    x = rng.normal(size=(2, 6, 7, 3))
    assert layer(Tensor(x)).shape == (2, 6, 7, 5)


def test_state_vector_roundtrip(rng):
    a = Dense(6, 4, rng)
    b = Dense(6, 4, np.random.default_rng(999))
    vec = a.state_vector()
    assert vec.size == a.parameter_count()
    b.load_state_vector(vec)
    np.testing.assert_array_equal(b.state_vector(), vec)
    with pytest.raises(Exception):
        b.load_state_vector(vec[:-1])


def test_architecture_fingerprint(rng):
    a = Dense(6, 4, rng)
    b = Dense(6, 4, np.random.default_rng(999))
    c = Dense(6, 5, rng)
    assert a.architecture_fingerprint() == b.architecture_fingerprint()
    assert a.architecture_fingerprint() != c.architecture_fingerprint()


def test_sgd_momentum_single_step(rng):
    p = Tensor(np.array([1.0, 2.0]), requires_grad=True)
    opt = SGDMomentum([p], step=0.1, momentum=0.5)
    p.grad = np.array([1.0, -1.0])
    opt.apply()
    np.testing.assert_allclose(p.data, [0.9, 2.1])
    # second step folds in the velocity
    p.grad = np.array([1.0, -1.0])
    opt.apply()
    np.testing.assert_allclose(p.data, [0.9 - 0.1 * 1.5, 2.1 + 0.1 * 1.5])


def test_sgd_momentum_minimizes_quadratic(rng):
    p = Tensor(np.array([5.0]), requires_grad=True)
    opt = SGDMomentum([p], step=0.05, momentum=0.9)
    for _ in range(200):
        opt.zero_grad()
        loss = (p * p).sum()
        loss.backward()
        opt.apply()
    assert abs(float(p.data[0])) < 1e-3


def fresh_compensator(rng):
    return CompensatorModel(PeriodSpec(80, 2), rng, channels=4, depth=2)


def test_compensator_identity_at_init(rng):
    comp = fresh_compensator(rng)
    w = rng.normal(size=(2, 160, 2))
    np.testing.assert_allclose(comp(Tensor(w)).data, w, atol=1e-12)
    z = rng.normal(size=100) + 1j * rng.normal(size=100)
    z_wave = complex_to_wave(z)
    np.testing.assert_allclose(comp(Tensor(z_wave[None])).data[0], z_wave, atol=1e-12)


def test_proxy_identity_at_init_noise_free(rng):
    proxy = ProxyModel(rng, channels=4, depth=2)
    w = rng.normal(size=(2, 120, 2))
    out = proxy(Tensor(w), snr_db=math.inf).data
    np.testing.assert_allclose(out, w, atol=1e-12)


def test_proxy_noise_requires_seed(rng):
    proxy = ProxyModel(rng, channels=4, depth=2)
    w = rng.normal(size=(2, 60, 2))
    with pytest.raises(ValueError):
        proxy(Tensor(w), snr_db=10.0)
    a = proxy(Tensor(w), snr_db=10.0, seed=3).data
    b = proxy(Tensor(w), snr_db=10.0, seed=3).data
    c = proxy(Tensor(w), snr_db=10.0, seed=4).data
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, c)
    # inject_noise=False gives the deterministic mean path
    d = proxy(Tensor(w), snr_db=10.0, inject_noise=False).data
    np.testing.assert_allclose(d, w, atol=1e-12)


def test_proxy_noise_law_calibration(rng):
    proxy = ProxyModel(rng, channels=4, depth=2)
    proxy.noise_gain = 2.0
    proxy.noise_floor = 0.05
    n = 40_000
    w = np.zeros((1, n, 2))
    out = proxy(Tensor(w), snr_db=10.0, seed=11).data
    var = float(np.mean(np.sum(out**2, axis=2)))
    assert var == pytest.approx(2.0 * 0.1 + 0.05, rel=0.05)


def test_jscc_latent_power_and_bound(rng):
    jscc = ToyJsccModel(rng, latent_pairs=24, hidden=32)
    imgs = rng.uniform(0, 1, size=(16, jscc.pixels))
    z = jscc.encode(Tensor(imgs)).data
    assert z.shape == (16, 48)
    assert np.max(np.abs(z)) < jscc.latent_bound
    power = np.mean(z**2, axis=1) * 2  # complex-symbol average power
    assert np.all(power <= 1.0 + 1e-9)
    assert np.all(power >= 0.7)


def test_jscc_reads_the_glyph_pixel_count(rng):
    assert ToyJsccModel(rng).pixels == glyph_images(1, rng)[0].size
