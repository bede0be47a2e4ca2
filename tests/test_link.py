import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from ofdmemu import link
from ofdmemu.config import MIN_SNR_DB, PhyConfig
from ofdmemu.errors import ConfigError, FramingError, SelectionError
from ofdmemu.inversion import build_symbol_system, default_subset, max_usable_subcarriers
from ofdmemu.link import (
    EmulationSetup,
    TargetSymbols,
    awgn,
    box_edge,
    box_scale,
    clean_waveforms,
    emulated_link,
    extract_estimates,
    float_serialization_link,
    ideal_analog_link,
    output_waveforms,
    receiver_recover_hard,
    receiver_recover_soft,
    reference_waveform,
    sender_invert,
    targets_from_waveform,
    waveform_from_values,
)
from ofdmemu.nn import ProxyModel, Tensor
from ofdmemu.phy import demodulate_frame, tx_chain
from ofdmemu.sources import longest_chosen_run, smooth_waveform


def uniform_box_targets(n, cfg, rng, margin=1.0):
    lim = box_edge(cfg) * margin
    re = rng.uniform(-lim, lim, n)
    im = rng.uniform(-lim, lim, n)
    return TargetSymbols(re + 1j * im, 1.0)


def planned(plan):
    """The plan's quantized points in user units, as (rows, k)."""
    k = plan.target_count // plan.rows
    return plan.quantized.reshape(plan.rows, -1)[:, :k] / plan.scale


@pytest.mark.parametrize(
    "mod,edge",
    [(2, 1.0), (4, 1 / math.sqrt(2)), (16, 3 / math.sqrt(10)), (64, 7 / math.sqrt(42))],
)
def test_box_edge_values(mod, edge):
    cfg = PhyConfig(modulation_order=mod, coding_rate=Fraction(1, 2))
    assert box_edge(cfg) == pytest.approx(edge)
    assert box_scale(cfg) == pytest.approx(edge * math.sqrt(2) / 3)


_ROW = np.ones(3, dtype=np.complex128)
_STACK = np.ones((2, 3), dtype=np.complex128)


# Every malformed row, stack or scale is a FramingError at construction,
# never a NumPy error or a silent reshape.

@pytest.mark.parametrize(
    "symbols,scale",
    [
        pytest.param(np.array([]), 1.0, id="empty"),
        pytest.param(np.zeros((0, 3)), 1.0, id="no-rows"),
        pytest.param(np.zeros((2, 0)), 1.0, id="no-columns"),
        pytest.param(np.ones((2, 2, 3)), 1.0, id="3-d"),
        pytest.param([[1, 2], [1, 2, 3]], 1.0, id="ragged"),
        pytest.param(["a", "b"], 1.0, id="strings"),
        pytest.param([np.nan + 0j], 1.0, id="nan"),
        pytest.param([[1.0, np.inf]], 1.0, id="inf"),
        pytest.param(_ROW, 0.0, id="scale-zero"),
        pytest.param(_ROW, -2.0, id="scale-negative"),
        pytest.param(_ROW, math.nan, id="scale-nan"),
        pytest.param(_ROW, math.inf, id="scale-inf"),
        pytest.param(_ROW, np.array([1.0, 2.0]), id="scale-array"),
        pytest.param(_ROW, np.array(1.0), id="scale-0-d"),
        pytest.param(_ROW, "1", id="scale-str"),
        pytest.param(_ROW, None, id="scale-none"),
        pytest.param(_ROW, 1 + 0j, id="scale-complex"),
        pytest.param(_ROW, 10**400, id="scale-huge-int"),
        pytest.param(_STACK, np.array([1.0, 2.0, 3.0]), id="stack-scale-long"),
        pytest.param(_STACK, np.ones((2, 1)), id="stack-scale-2-d"),
        pytest.param(_STACK, [1.0, 2.0], id="stack-scale-list"),
        pytest.param(_STACK, np.array([1.0, 0.0]), id="stack-scale-zero"),
        pytest.param(_STACK, np.array([1.0, math.nan]), id="stack-scale-nan"),
        pytest.param(_STACK, np.array([1.0, math.inf]), id="stack-scale-inf"),
        pytest.param(_STACK, np.array([1 + 0j, 1 + 0j]), id="stack-scale-complex"),
        pytest.param(_STACK, np.array(["1", "2"]), id="stack-scale-str"),
    ],
)
def test_target_symbols_rejects(symbols, scale):
    with pytest.raises(FramingError):
        TargetSymbols(symbols, scale)


def test_target_symbols_validation():
    # what the checks accept: a row with a real scale, which it keeps,
    # and a stack with one scale per row or one for all
    row = TargetSymbols([1, 2j], 2)
    assert row.symbols.shape == (2,) and row.scale == 2 and row.count == 2
    stack = TargetSymbols(np.ones((3, 4)), np.array([1, 2, 3]))
    assert stack.count == 12 and stack.scale.dtype == np.float64
    # a stack may share one scale
    assert TargetSymbols(np.ones((3, 4)), 0.5).scale == 0.5


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
    assert est.shape == (1, targets.count)
    assert np.allclose(est, planned(plan), atol=1e-9)


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
    assert np.allclose(est, planned(plan), rtol=0, atol=1e-9)


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
        assert np.array_equal(got.bitstream, want.bitstream[None])
        assert np.array_equal(got.incoming_states, want.incoming_states[None])
        assert got.incoming_states.dtype == want.incoming_states.dtype
        assert np.array_equal(got.quantized, want.quantized[None])
        assert got.clip_count == want.clip_count


def test_noiseless_hard_recovery_matches_soft(default_setup, rng):
    targets = uniform_box_targets(80, default_setup.cfg, rng)
    plan = sender_invert(targets, default_setup)
    frame = tx_chain(plan.bitstream, default_setup.cfg)
    est = receiver_recover_hard(frame.samples, plan, default_setup)
    assert est.shape == (1, targets.count)
    assert np.allclose(est, planned(plan), atol=1e-9)


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


# awgn adds its (n, 2) draw as a complex view.  The draw is 0.0 + sigma * z,
# never -0.0, so the view adds what the three-temporary form added, also
# where the frame holds signed zeros or the noise is subnormal.

_SIGNED_PARTS = st.sampled_from([0.0, -0.0, 1e-300, -1e-300, 5e-324, -5e-324, 1.0, -2.5])


@settings(max_examples=200, deadline=None)
@given(
    frame=st.one_of(
        st.integers(1, 40).map(lambda n: np.zeros(n, dtype=np.complex128)),
        st.lists(st.tuples(_SIGNED_PARTS, _SIGNED_PARTS), min_size=1, max_size=40).map(
            lambda parts: np.array([complex(a, b) for a, b in parts])
        ),
        st.lists(
            st.complex_numbers(max_magnitude=1e-150, allow_nan=False, allow_infinity=False),
            min_size=1,
            max_size=40,
        ).map(np.array),
    ),
    snr_db=st.one_of(
        st.just(math.inf), st.just(MIN_SNR_DB), st.floats(-30.0, 300.0), st.just(300.0)
    ),
    seed=st.integers(0, 2**63 - 1),
)
def test_awgn_complex_view_matches_three_temporaries(frame, snr_db, seed):
    frame = frame.astype(np.complex128)
    want = oracles.awgn_reference(frame, snr_db, seed)
    assert awgn(frame, snr_db, seed).tobytes() == want.tobytes()


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


# A stack of waveforms projects as each row alone does, byte for byte: the
# values, and one scale per row from that row's own spread (1.0 where a
# row is silent).

@settings(max_examples=40, deadline=None)
@given(
    rows=st.integers(1, 12),
    n_sym=st.integers(1, 5),
    kinds=st.lists(st.sampled_from(["smooth", "white", "silent"]), min_size=12, max_size=12),
    seed=st.integers(0, 2**32 - 1),
)
def test_targets_from_waveform_stack_equals_row_calls(default_setup, rows, n_sym, kinds, seed):
    cfg = default_setup.cfg
    rng = np.random.default_rng(seed)
    n = n_sym * cfg.samples_per_ofdm
    carrier, _ = longest_chosen_run(default_setup)
    waves = np.zeros((rows, n), dtype=np.complex128)
    for wave, kind in zip(waves, kinds):
        if kind == "smooth":
            wave[:] = smooth_waveform(n, rng, carrier, cfg.fft_size, bandwidth_bins=4.0)
        elif kind == "white":
            wave[:] = rng.normal(size=n) + 1j * rng.normal(size=n)
    stack = targets_from_waveform(waves, default_setup)
    assert stack.symbols.shape == (rows, n_sym * default_setup.n_chosen)
    assert stack.scale.shape == (rows,)
    for r in range(rows):
        one = targets_from_waveform(waves[r], default_setup)
        assert type(one.scale) is float
        assert stack.symbols[r].tobytes() == one.symbols.tobytes()
        assert stack.scale[r].tobytes() == np.float64(one.scale).tobytes()
    with pytest.raises(FramingError):
        targets_from_waveform(waves[:, :-1], default_setup)
    with pytest.raises(FramingError):
        targets_from_waveform(waves[None], default_setup)


def test_reference_waveform_shape(default_setup, rng):
    targets = uniform_box_targets(default_setup.n_chosen + 3, default_setup.cfg, rng)
    ref = reference_waveform(targets, default_setup)[0]
    assert ref.size == 2 * default_setup.cfg.samples_per_ofdm


def reframed(samples, plan, setup):
    """A frame's raw chosen-bin values in user units, framed on their own."""
    values = demodulate_frame(samples, setup.cfg)[:, setup.chosen_bins].reshape(-1)
    return waveform_from_values(values / plan.scale, setup)


def assert_record_derives(rec, targets, snr_db, seed, setup):
    """The record holds this transmission as a stack of one, and its
    waveforms derive from it byte for byte."""
    plan = sender_invert(targets, setup)
    assert rec.targets is targets and rec.setup is setup
    assert rec.snr_db.tolist() == [snr_db]
    assert rec.plan.bitstream.tobytes() == plan.bitstream.tobytes()
    assert rec.plan.clip_rate == plan.clip_rate
    assert rec.tx_frame.shape == rec.rx_frame.shape == (1, rec.tx_frame.size)
    assert rec.tx_frame.tobytes() == tx_chain(plan.bitstream, setup.cfg).samples.tobytes()
    assert rec.rx_frame.tobytes() == awgn(rec.tx_frame[0], snr_db, seed).tobytes()
    assert clean_waveforms(rec).tobytes() == reframed(rec.tx_frame, plan, setup).tobytes()
    assert output_waveforms(rec).tobytes() == reframed(rec.rx_frame, plan, setup).tobytes()


def test_emulated_link_soft_record(default_setup, rng):
    targets = uniform_box_targets(60, default_setup.cfg, rng)
    est, rec = emulated_link(targets, 20.0, 11, default_setup)
    assert est.size == 60
    assert_record_derives(rec, targets, 20.0, 11, default_setup)
    soft = receiver_recover_soft(rec.rx_frame, rec.plan, default_setup)
    assert est.tobytes() == soft[0].tobytes()
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
    assert est.shape == (60,)
    assert np.allclose(est, planned(sender_invert(targets, default_setup))[0], atol=1e-9)
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
    # waveforms of another symbol count, alone or in a stack, and in
    # either receiver
    three = sender_invert(TargetSymbols(np.stack([targets.symbols] * 3), 1.0), default_setup)
    for read in (extract_estimates, receiver_recover_soft, receiver_recover_hard):
        with pytest.raises(FramingError, match="OFDM symbols"):
            read(np.concatenate([big, big]), plan, default_setup)
        with pytest.raises(FramingError, match="OFDM symbols"):
            read(np.stack([big, big]), three, default_setup)
        with pytest.raises(FramingError, match="OFDM symbols"):
            read(big[:-1], plan, default_setup)


# Every entry point that takes a channel SNR refuses one that is not a
# real scalar with ConfigError, before any noise is drawn.

@pytest.mark.parametrize(
    "snr", [np.array([10.0, 20.0]), "10", None, 1 + 0j], ids=["array", "str", "none", "complex"]
)
@pytest.mark.parametrize("entry", ["awgn", "ideal_analog_link", "emulated_link", "stacked_link"])
def test_channels_reject_an_snr_that_is_not_a_real_scalar(default_setup, rng, entry, snr):
    x = np.ones(8, dtype=np.complex128)
    t = uniform_box_targets(24, default_setup.cfg, rng)
    calls = {
        "awgn": lambda: awgn(x, snr, 1),
        "ideal_analog_link": lambda: ideal_analog_link(x, snr, 1),
        "emulated_link": lambda: emulated_link(t, snr, 1, default_setup),
        "stacked_link": lambda: emulated_link(
            TargetSymbols(np.stack([t.symbols] * 2), 1.0), [10.0, snr], [1, 2], default_setup
        ),
    }
    with pytest.raises(ConfigError, match="real number"):
        calls[entry]()


# ---------------------------------------------------------------------------
# stacked links: boundaries, then a stack against one reference call per row


def _stack(setup, rows, k, rng, margin=1.0):
    """A (rows, k) stack of in-box targets with one scale per row."""
    lim = box_edge(setup.cfg) * margin
    symbols = rng.uniform(-lim, lim, (rows, k)) + 1j * rng.uniform(-lim, lim, (rows, k))
    return TargetSymbols(symbols, rng.uniform(0.5, 2.0, rows))


def _row(stack, r):
    """Row ``r`` of a stack as a bare TargetSymbols with a float scale."""
    return TargetSymbols(stack.symbols[r], float(stack.scale[r]))


@pytest.fixture
def no_link_work(monkeypatch):
    """Fail on any sender or transmit work: a boundary must raise first."""

    def unreachable(*args, **kwargs):
        raise AssertionError("sender or transmit work started")

    for name in ("sender_invert", "tx_chain", "awgn", "qam_quantize", "scramble"):
        monkeypatch.setattr(link, name, unreachable)


def test_stack_rejects_rows_of_unequal_length(default_setup, rng, no_link_work):
    rows = [uniform_box_targets(k, default_setup.cfg, rng).symbols for k in (24, 24, 25)]
    with pytest.raises(FramingError, match="one length"):
        TargetSymbols(rows, np.ones(3))


# A target stack is one TargetSymbols: a list of rows, equal or not, is
# refused by every entry point before any work.

@pytest.mark.parametrize(
    "targets", [[], "list of rows", np.ones((2, 24))], ids=["empty", "rows", "array"]
)
def test_stack_rejects_anything_but_one_target_symbols(default_setup, rng, no_link_work, targets):
    if isinstance(targets, str):
        targets = [uniform_box_targets(24, default_setup.cfg, rng)] * 2
    n = len(targets)
    with pytest.raises(FramingError, match="one TargetSymbols"):
        emulated_link(targets, [10.0] * n, list(range(n)), default_setup)
    with pytest.raises(FramingError, match="one TargetSymbols"):
        sender_invert(targets, default_setup)
    with pytest.raises(FramingError, match="one TargetSymbols"):
        reference_waveform(targets, default_setup)


def test_stack_rejects_an_empty_sequence():
    with pytest.raises(FramingError, match="must not be empty"):
        TargetSymbols(np.zeros((0, 24)), np.ones(0))
    with pytest.raises(FramingError, match="must not be empty"):
        TargetSymbols(np.zeros((3, 0)), np.ones(3))


@pytest.mark.parametrize("snrs", [[10.0, 10.0], [10.0] * 4, 10.0], ids=["short", "long", "scalar"])
def test_stack_rejects_an_snr_sequence_of_another_length(default_setup, rng, no_link_work, snrs):
    rows = _stack(default_setup, 3, 24, rng)
    with pytest.raises(FramingError, match="SNRs"):
        emulated_link(rows, snrs, [1, 2, 3], default_setup)


@pytest.mark.parametrize("seeds", [[1, 2], [1, 2, 3, 4], 7], ids=["short", "long", "scalar"])
def test_stack_rejects_a_seed_sequence_of_another_length(default_setup, rng, no_link_work, seeds):
    rows = _stack(default_setup, 3, 24, rng)
    with pytest.raises(FramingError, match="seeds"):
        emulated_link(rows, [10.0] * 3, seeds, default_setup)


@pytest.mark.parametrize("bad", [math.nan, -math.inf], ids=["nan", "-inf"])
def test_stack_rejects_a_bad_snr_in_any_row(default_setup, rng, no_link_work, bad):
    rows = _stack(default_setup, 3, 24, rng)
    with pytest.raises(ConfigError):
        emulated_link(rows, [10.0, 10.0, bad], [1, 2, 3], default_setup)


STACK_PAIRS = [(64, Fraction(3, 4)), (16, Fraction(1, 2)), (4, Fraction(2, 3)), (2, Fraction(5, 6))]


@settings(max_examples=40, deadline=None)
@given(
    pair=st.sampled_from(STACK_PAIRS),
    rows=st.integers(1, 33),
    count=st.integers(1, 300),
    data=st.data(),
)
def test_stack_equals_one_reference_call_per_row(pair, rows, count, data):
    # every row of a stack gets the bytes of its own one-row chain: its
    # own scale, SNR, noise seed and state chain, and a partial last
    # symbol where count is not a multiple of the chosen subcarriers
    m, rate = pair
    setup = EmulationSetup.build(PhyConfig(modulation_order=m, coding_rate=rate))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="draw seed"))
    scales = data.draw(st.lists(st.floats(0.05, 4.0), min_size=rows, max_size=rows), label="scales")
    snrs = data.draw(
        st.lists(
            st.one_of(st.just(math.inf), st.just(MIN_SNR_DB), st.floats(-10.0, 40.0)),
            min_size=rows,
            max_size=rows,
        ),
        label="snrs",
    )
    seeds = data.draw(
        st.lists(st.tuples(st.booleans(), st.integers(0, 2**63 - 1)), min_size=rows, max_size=rows),
        label="seeds (as Generator, value)",
    )
    symbols = rng.normal(size=(rows, count)) + 1j * rng.normal(size=(rows, count))
    targets = TargetSymbols(symbols, np.array(scales))

    def fresh(seed):
        as_rng, value = seed
        return np.random.default_rng(value) if as_rng else value

    est, record = emulated_link(targets, snrs, [fresh(s) for s in seeds], setup)
    plan = record.plan
    n_sym = -(-count // setup.n_chosen)
    assert est.shape == (rows, count)
    n_samples = n_sym * setup.cfg.samples_per_ofdm
    assert record.tx_frame.shape == record.rx_frame.shape == (rows, n_samples)
    # one plan for the stack: its totals are ints (the benchmark's tracer
    # writes them as JSON), and its arrays hold one row per frame
    totals = (plan.target_count, plan.ofdm_symbols, plan.clip_count)
    assert all(type(v) is int for v in totals)
    assert totals[:2] == (rows * count, rows * n_sym) and plan.rows == rows
    assert plan.quantized.shape == (rows, n_sym, setup.n_chosen)
    assert plan.incoming_states.shape == (rows, n_sym)
    assert plan.bitstream.shape == (rows, n_sym * setup.cfg.n_dbps)
    assert plan.scale.shape == (rows, 1) and plan.clip_counts.shape == (rows,)
    outputs, cleans = output_waveforms(record), clean_waveforms(record)
    refs = reference_waveform(targets, setup)
    clips = []
    assert record.targets is targets
    for r, (snr, seed) in enumerate(zip(snrs, seeds)):
        t = TargetSymbols(symbols[r], scales[r])
        want_est, want, tx, rx = oracles.emulated_link_reference(t, snr, fresh(seed), setup)
        assert est[r].tobytes() == want_est.tobytes()
        assert record.tx_frame[r].tobytes() == tx.tobytes()
        assert record.rx_frame[r].tobytes() == rx.tobytes()
        assert plan.bitstream[r].tobytes() == want.bitstream.tobytes()
        assert plan.incoming_states[r].tobytes() == want.incoming_states.tobytes()
        assert plan.quantized[r].tobytes() == want.quantized.tobytes()
        assert plan.scale[r, 0] == want.scale
        assert plan.clip_counts[r] == want.clip_count
        clips.append(want.clip_count)
        assert record.snr_db[r] == snr
        # the stacked waveforms re-frame the reference frames
        assert outputs[r].tobytes() == reframed(rx, want, setup).tobytes()
        assert cleans[r].tobytes() == reframed(tx, want, setup).tobytes()
        assert refs[r].tobytes() == reference_waveform(t, setup)[0].tobytes()
    assert plan.clip_count == sum(clips)
    assert plan.clip_rate == sum(clips) / (2 * rows * count)


@settings(max_examples=40, deadline=None)
@given(
    pair=st.sampled_from(STACK_PAIRS),
    count=st.integers(1, 300),
    scale=st.floats(0.05, 4.0),
    snr=st.one_of(st.just(math.inf), st.just(MIN_SNR_DB), st.floats(-10.0, 40.0)),
    seed=st.tuples(st.booleans(), st.integers(0, 2**63 - 1)),
    mode=st.sampled_from(["soft", "hard"]),
    draw_seed=st.integers(0, 2**32 - 1),
)
def test_bare_call_equals_one_reference_call(pair, count, scale, snr, seed, mode, draw_seed):
    # a bare TargetSymbols is sent as a stack of one and comes back as
    # (k,) estimates and the record of that one row, the reference
    # chain's bytes, with a partial last symbol where count is not a
    # multiple of the chosen subcarriers
    m, rate = pair
    setup = EmulationSetup.build(PhyConfig(modulation_order=m, coding_rate=rate))
    rng = np.random.default_rng(draw_seed)
    t = TargetSymbols(rng.normal(size=count) + 1j * rng.normal(size=count), scale)

    def fresh():
        as_rng, value = seed
        return np.random.default_rng(value) if as_rng else value

    est, rec = emulated_link(t, snr, fresh(), setup, mode=mode)
    want_est, plan, tx, rx = oracles.emulated_link_reference(t, snr, fresh(), setup)
    if mode == "hard":
        want_est = receiver_recover_hard(rx, rec.plan, setup)[0]
    assert est.shape == (count,) and isinstance(rec, link.LinkRecord)
    # one row
    assert rec.plan.rows == 1
    assert rec.tx_frame.shape == rec.rx_frame.shape == (1, tx.size)
    assert est.tobytes() == want_est.tobytes()
    assert rec.tx_frame.tobytes() == tx.tobytes()
    assert rec.rx_frame.tobytes() == rx.tobytes()
    assert rec.plan.bitstream.tobytes() == plan.bitstream.tobytes()
    assert rec.plan.incoming_states.tobytes() == plan.incoming_states.tobytes()
    assert rec.plan.quantized.tobytes() == plan.quantized.tobytes()
    assert rec.plan.clip_count == plan.clip_count
    assert rec.targets is t and rec.snr_db.tolist() == [snr]


def test_bare_call_sends_a_stack_of_one(default_setup, rng, monkeypatch):
    # one link form: a bare call reaches the transmitter as a one-row stack
    shapes = []

    def spy(bits, cfg):
        shapes.append(np.shape(bits))
        return tx_chain(bits, cfg)

    monkeypatch.setattr(link, "tx_chain", spy)
    emulated_link(uniform_box_targets(100, default_setup.cfg, rng), 20.0, 3, default_setup)
    n_sym = -(-100 // default_setup.n_chosen)
    assert shapes == [(1, n_sym * default_setup.cfg.n_dbps)]


def test_stacked_plan_reports_totals_and_per_row_plans(default_setup, rng):
    rows = _stack(default_setup, 3, 50, rng, margin=1.5)
    stack = sender_invert(rows, default_setup)
    singles = [sender_invert(_row(rows, r), default_setup) for r in range(3)]
    assert stack.rows == 3
    assert stack.clip_counts.tolist() == [p.clip_count for p in singles]
    assert stack.target_count == 150
    assert stack.ofdm_symbols == 3 * singles[0].ofdm_symbols
    assert stack.clip_count == sum(p.clip_count for p in singles) > 0
    assert stack.clip_rate == stack.clip_count / 300
    assert stack.bitstream.shape == (3, singles[0].bitstream.shape[1])
    for i, p in enumerate(singles):
        np.testing.assert_array_equal(stack.bitstream[i], p.bitstream[0])
        np.testing.assert_array_equal(stack.quantized[i], p.quantized[0])
        np.testing.assert_array_equal(stack.incoming_states[i], p.incoming_states[0])
        np.testing.assert_array_equal(stack.scale[i], p.scale[0])
    # a stack may share one scale: each row is then scaled by it
    shared = sender_invert(TargetSymbols(rows.symbols, 1.5), default_setup)
    one = sender_invert(TargetSymbols(rows.symbols[1], 1.5), default_setup)
    assert shared.scale.tolist() == [[1.5]] * 3
    assert shared.bitstream[1].tobytes() == one.bitstream[0].tobytes()
    assert shared.clip_counts[1] == one.clip_count


def test_stacked_hard_mode_equals_one_row_calls(default_setup, rng):
    rows = _stack(default_setup, 3, 40, rng)
    snrs, seeds = [math.inf, 8.0, 20.0], [4, 5, 6]
    est, record = emulated_link(rows, snrs, seeds, default_setup, mode="hard")
    for r, (snr, seed, got, noisy) in enumerate(zip(snrs, seeds, est, record.rx_frame)):
        want, one = emulated_link(_row(rows, r), snr, seed, default_setup, mode="hard")
        assert got.tobytes() == want.tobytes()
        assert noisy.tobytes() == one.rx_frame.tobytes()
