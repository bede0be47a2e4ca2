import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from ofdmemu.config import PhyConfig
from ofdmemu.errors import ConfigError, FramingError, SelectionError
from ofdmemu.inversion import build_symbol_system, default_subset, max_usable_subcarriers
from ofdmemu.link import (
    EmulationSetup,
    TargetSymbols,
    awgn,
    box_edge,
    box_scale,
    emulated_link,
    extract_estimates,
    float_serialization_link,
    ideal_analog_link,
    receiver_recover_hard,
    receiver_recover_soft,
    reference_waveform,
    sender_invert,
    targets_from_waveform,
    waveform_from_values,
)
from ofdmemu.nn import ProxyModel, Tensor
from ofdmemu.phy import demodulate_frame, tx_chain


def uniform_box_targets(n, cfg, rng, margin=1.0):
    lim = box_edge(cfg) * margin
    re = rng.uniform(-lim, lim, n)
    im = rng.uniform(-lim, lim, n)
    return TargetSymbols(re + 1j * im, 1.0)


@pytest.mark.parametrize(
    "mod,edge",
    [(2, 1.0), (4, 1 / math.sqrt(2)), (16, 3 / math.sqrt(10)), (64, 7 / math.sqrt(42))],
)
def test_box_edge_values(mod, edge):
    cfg = PhyConfig(modulation_order=mod, coding_rate=Fraction(1, 2))
    assert box_edge(cfg) == pytest.approx(edge)
    assert box_scale(cfg) == pytest.approx(edge * math.sqrt(2) / 3)


def test_target_symbols_validation():
    with pytest.raises(FramingError):
        TargetSymbols(np.array([]), 1.0)
    with pytest.raises(FramingError):
        TargetSymbols(np.array([np.nan + 0j]), 1.0)
    with pytest.raises(FramingError):
        TargetSymbols(np.array([1 + 1j]), 0.0)
    with pytest.raises(FramingError):
        TargetSymbols(np.array([1 + 1j]), -2.0)


def test_setup_build_caches_and_bounds(default_cfg, default_setup):
    again = type(default_setup).build(default_cfg)
    assert again is default_setup
    # the selection fills the exactly-controllable capacity
    assert default_setup.n_chosen == max_usable_subcarriers(default_cfg)


def test_setup_rejects_uncertified_selection(default_cfg):
    # the default subset sits a few rows short of full rank until certified
    system = build_symbol_system(default_cfg)
    with pytest.raises(SelectionError, match="not certified"):
        EmulationSetup(default_cfg, system, default_subset(default_cfg), [])


def test_setup_rejects_empty_selection(default_cfg):
    system = build_symbol_system(default_cfg)
    with pytest.raises(SelectionError, match="empty"):
        EmulationSetup(default_cfg, system, (), [])


def test_sender_invert_quantizes_within_half_step(default_setup, rng):
    cfg = default_setup.cfg
    targets = uniform_box_targets(100, cfg, rng)
    plan = sender_invert(targets, default_setup)
    scaled = targets.symbols  # scale is 1.0
    q = plan.quantized.reshape(-1)[: targets.count]
    assert np.max(np.abs(q.real - scaled.real)) <= cfg.k_mod + 1e-12
    assert np.max(np.abs(q.imag - scaled.imag)) <= cfg.k_mod + 1e-12
    assert plan.clip_count == 0


def test_sender_invert_counts_clipped_axes(default_setup):
    cfg = default_setup.cfg
    edge = box_edge(cfg)
    syms = np.array([2 * edge + 2j * edge, 0.1 + 0.1j, -2 * edge + 0.0j])
    plan = sender_invert(TargetSymbols(syms, 1.0), default_setup)
    assert plan.clip_count == 3
    assert plan.clip_rate == pytest.approx(3 / 6)


def test_noiseless_soft_recovery_hits_quantized_points(default_setup, rng):
    targets = uniform_box_targets(80, default_setup.cfg, rng)
    plan = sender_invert(targets, default_setup)
    frame = tx_chain(plan.bitstream, default_setup.cfg)
    est = receiver_recover_soft(frame.samples, plan, default_setup)
    want = plan.quantized.reshape(-1)[: targets.count] / plan.scale
    assert np.allclose(est, want, atol=1e-9)


# Every (modulation, rate): a noiseless soft round trip returns the planned
# quantized points, also for targets beyond the box that the sender clips.

@settings(max_examples=64, deadline=None)
@given(
    m=st.sampled_from([2, 4, 16, 64]),
    rate=st.sampled_from([Fraction(1, 2), Fraction(2, 3), Fraction(3, 4), Fraction(5, 6)]),
    count=st.integers(1, 120),
    seed=st.integers(0, 2**32 - 1),
)
def test_noiseless_soft_round_trip_property(m, rate, count, seed):
    setup = EmulationSetup.build(PhyConfig(modulation_order=m, coding_rate=rate))
    targets = uniform_box_targets(count, setup.cfg, np.random.default_rng(seed), margin=1.3)
    plan = sender_invert(targets, setup)
    est = receiver_recover_soft(tx_chain(plan.bitstream, setup.cfg).samples, plan, setup)
    assert np.allclose(est, plan.quantized.reshape(-1)[:count] / plan.scale, rtol=0, atol=1e-9)


# The sender against its per-symbol original, bit for bit: lengths on both
# sides of one OFDM symbol and multi-symbol frames with a partial last
# symbol, targets out to twice the box so the clip count is exercised.

PHY_PAIRS = [
    (m, r)
    for m in (2, 4, 16, 64)
    for r in (Fraction(1, 2), Fraction(2, 3), Fraction(3, 4), Fraction(5, 6))
]


@pytest.mark.parametrize("m,rate", PHY_PAIRS, ids=[f"{m}-{r}" for m, r in PHY_PAIRS])
@settings(max_examples=20, deadline=None)
@given(
    symbols=st.integers(2, 40),
    extra=st.integers(0, 1000),
    margin=st.floats(0.5, 2.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_sender_matches_reference(m, rate, symbols, extra, margin, seed):
    setup = EmulationSetup.build(PhyConfig(modulation_order=m, coding_rate=rate))
    nch = setup.n_chosen
    rng = np.random.default_rng(seed)
    for count in (1, nch - 1, nch, nch + 1, symbols * nch - extra % nch):
        targets = uniform_box_targets(count, setup.cfg, rng, margin=margin)
        got = sender_invert(targets, setup)
        want = oracles.sender_reference(targets, setup)
        assert np.array_equal(got.bitstream, want.bitstream)
        assert np.array_equal(got.incoming_states, want.incoming_states)
        assert got.incoming_states.dtype == want.incoming_states.dtype
        assert np.array_equal(got.quantized, want.quantized)
        assert got.clip_count == want.clip_count


def test_noiseless_hard_recovery_matches_soft(default_setup, rng):
    targets = uniform_box_targets(80, default_setup.cfg, rng)
    plan = sender_invert(targets, default_setup)
    frame = tx_chain(plan.bitstream, default_setup.cfg)
    est = receiver_recover_hard(frame.samples, plan, default_setup)
    want = plan.quantized.reshape(-1)[: targets.count] / plan.scale
    assert np.allclose(est, want, atol=1e-9)


def test_quantization_error_statistics(default_setup, rng):
    # uniform in-box targets: per-axis error uniform on one half step,
    # so complex RMS error = sqrt(2) * step / sqrt(12)
    cfg = default_setup.cfg
    targets = uniform_box_targets(5000, cfg, rng)
    plan = sender_invert(targets, default_setup)
    err = plan.quantized.reshape(-1)[: targets.count] - targets.symbols
    rms = float(np.sqrt(np.mean(np.abs(err) ** 2)))
    expect = math.sqrt(2) * (2 * cfg.k_mod) / math.sqrt(12)
    assert rms == pytest.approx(expect, rel=0.1)


def test_awgn_hits_requested_snr(rng):
    x = (rng.normal(size=20000) + 1j * rng.normal(size=20000)) / math.sqrt(2)
    y = awgn(x, 10.0, 7)
    measured = np.mean(np.abs(x) ** 2) / np.mean(np.abs(y - x) ** 2)
    assert 10 * math.log10(measured) == pytest.approx(10.0, abs=0.2)
    # deterministic in the seed
    assert np.array_equal(awgn(x, 10.0, 7), y)
    assert not np.array_equal(awgn(x, 10.0, 8), y)


def test_awgn_infinite_snr_is_identity(rng):
    x = rng.normal(size=64) + 1j * rng.normal(size=64)
    assert np.array_equal(awgn(x, math.inf, 1), x)


@pytest.mark.parametrize("snr", [10.0, math.inf])
@pytest.mark.parametrize(
    "samples",
    [
        np.array([1.0, np.nan, 0.5], dtype=np.complex128),
        np.array([1.0, np.inf, 0.5], dtype=np.complex128),
        np.array([complex(0.5, -np.inf)]),
        np.full(4, 1e200, dtype=np.complex128),  # the mean power overflows
        np.zeros(0, dtype=np.complex128),
    ],
    ids=["nan", "inf", "-inf-imag", "power-overflow", "empty"],
)
def test_awgn_rejects_frames_without_a_finite_power(samples, snr):
    with pytest.raises(FramingError):
        awgn(samples, snr, 1)


@pytest.mark.parametrize("snr", [math.nan, -math.inf, -1e308])
def test_channels_reject_nan_and_minus_inf_snr(snr):
    x = np.ones(8, dtype=np.complex128)
    with pytest.raises(ConfigError):
        awgn(x, snr, 1)
    with pytest.raises(ConfigError):
        ideal_analog_link(x, snr, 1)
    # the proxy injects noise by the same law, and checks the SNR the
    # same way: with noise on or off
    proxy = ProxyModel(np.random.default_rng(0), channels=4, depth=2)
    for inject in (True, False):
        with pytest.raises(ConfigError):
            proxy(Tensor(np.zeros((1, 8, 2))), snr_db=snr, seed=1, inject_noise=inject)


def test_ideal_analog_noise_law(rng):
    n = 200_000
    syms = np.zeros(n, dtype=np.complex128)
    out = ideal_analog_link(syms, 10.0, rng)
    mse = float(np.mean(np.abs(out) ** 2))
    assert mse == pytest.approx(0.1, rel=0.02)
    assert np.array_equal(ideal_analog_link(syms, math.inf, 1), syms)


def test_float_serialization_roundtrip_noiseless(default_cfg, rng):
    vals = rng.normal(size=200)
    out, sent, decoded = float_serialization_link(vals, math.inf, 3, default_cfg)
    assert np.array_equal(out, vals.astype(np.float32).astype(np.float64))
    assert sent.size == 32 * vals.size
    assert np.array_equal(sent, decoded)


def test_float_serialization_saturates(default_cfg, rng):
    vals = rng.normal(size=200)
    out, sent, decoded = float_serialization_link(vals, -10.0, 3, default_cfg)
    assert np.any(sent != decoded)
    assert np.all(np.isfinite(out))
    assert np.max(np.abs(out)) <= 1e3


def test_waveform_value_roundtrip(default_setup, rng):
    nch = default_setup.n_chosen
    vals = rng.normal(size=3 * nch) + 1j * rng.normal(size=3 * nch)
    wave = waveform_from_values(vals, default_setup)
    back = targets_from_waveform(wave, default_setup)
    assert np.allclose(back.symbols, vals, atol=1e-9)
    with pytest.raises(FramingError):
        waveform_from_values(vals[:-1], default_setup)
    with pytest.raises(FramingError):
        targets_from_waveform(wave[:-1], default_setup)


def test_reference_waveform_shape(default_setup, rng):
    targets = uniform_box_targets(default_setup.n_chosen + 3, default_setup.cfg, rng)
    ref = reference_waveform(targets, default_setup)
    assert ref.size == 2 * default_setup.cfg.samples_per_ofdm


def reframed(samples, plan, setup):
    """A frame's raw chosen-bin values in user units, framed on their own."""
    values = demodulate_frame(samples, setup.cfg)[:, setup.chosen_bins].reshape(-1)
    return waveform_from_values(values / plan.scale, setup)


def assert_record_derives(rec, targets, snr_db, seed, setup):
    """The record holds this transmission, and its waveforms derive from
    it byte for byte."""
    plan = sender_invert(targets, setup)
    assert rec.targets is targets and rec.setup is setup and rec.snr_db == snr_db
    assert rec.plan.bitstream.tobytes() == plan.bitstream.tobytes()
    assert rec.clip_rate == plan.clip_rate
    assert rec.tx_frame.tobytes() == tx_chain(plan.bitstream, setup.cfg).samples.tobytes()
    assert rec.rx_frame.tobytes() == awgn(rec.tx_frame, snr_db, seed).tobytes()
    assert rec.reference.tobytes() == reference_waveform(targets, setup).tobytes()
    assert rec.clean_waveform.tobytes() == reframed(rec.tx_frame, plan, setup).tobytes()
    assert rec.output_waveform.tobytes() == reframed(rec.rx_frame, plan, setup).tobytes()


def test_emulated_link_soft_record(default_setup, rng):
    targets = uniform_box_targets(60, default_setup.cfg, rng)
    est, rec = emulated_link(targets, 20.0, 11, default_setup)
    assert est.size == 60
    assert_record_derives(rec, targets, 20.0, 11, default_setup)
    assert est.tobytes() == receiver_recover_soft(rec.rx_frame, rec.plan, default_setup).tobytes()
    # same seed reproduces, different seed does not
    est2, _ = emulated_link(targets, 20.0, 11, default_setup)
    assert np.array_equal(est, est2)
    est3, _ = emulated_link(targets, 20.0, 12, default_setup)
    assert not np.array_equal(est, est3)


def test_emulated_link_estimates_stay_in_box(default_setup, rng):
    targets = uniform_box_targets(60, default_setup.cfg, rng)
    est, _ = emulated_link(targets, -5.0, 5, default_setup)
    lim = box_edge(default_setup.cfg) + 1e-12  # scale is 1.0
    assert np.max(np.abs(est.real)) <= lim
    assert np.max(np.abs(est.imag)) <= lim


def test_emulated_link_hard_mode(default_setup, rng):
    targets = uniform_box_targets(60, default_setup.cfg, rng)
    est, rec = emulated_link(targets, math.inf, 1, default_setup, mode="hard")
    plan = sender_invert(targets, default_setup)
    want = plan.quantized.reshape(-1)[:60] / plan.scale
    assert np.allclose(est, want, atol=1e-9)
    # the record is the same in both modes
    assert_record_derives(rec, targets, math.inf, 1, default_setup)
    _, noisy = emulated_link(targets, 10.0, 1, default_setup, mode="hard")
    assert_record_derives(noisy, targets, 10.0, 1, default_setup)
    with pytest.raises(SelectionError):
        emulated_link(targets, 10.0, 1, default_setup, mode="through")


def test_extract_estimates_clips(default_setup, rng):
    targets = uniform_box_targets(default_setup.n_chosen, default_setup.cfg, rng)
    plan = sender_invert(targets, default_setup)
    big = waveform_from_values(
        np.full(default_setup.n_chosen, 100 + 100j), default_setup
    )
    est = extract_estimates(big, plan, default_setup)
    lim = box_edge(default_setup.cfg) / plan.scale
    assert np.all(np.abs(est.real) <= lim + 1e-9)
    assert np.all(np.abs(est.imag) <= lim + 1e-9)
