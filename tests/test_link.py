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
    assert clean_waveforms([rec])[0].tobytes() == reframed(rec.tx_frame, plan, setup).tobytes()
    assert output_waveforms([rec])[0].tobytes() == reframed(rec.rx_frame, plan, setup).tobytes()


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
    # a waveform of another symbol count, alone or in a stack
    with pytest.raises(FramingError, match="OFDM symbols"):
        extract_estimates(np.concatenate([big, big]), plan, default_setup)
    with pytest.raises(FramingError, match="OFDM symbols"):
        extract_estimates(np.stack([big, big]), [plan] * 3, default_setup)


# ---------------------------------------------------------------------------
# stacked links: boundaries, then a stack against one reference call per row


def _rows(setup, counts, rng):
    return [uniform_box_targets(k, setup.cfg, rng) for k in counts]


@pytest.fixture
def no_link_work(monkeypatch):
    """Fail on any sender or transmit work: a boundary must raise first."""

    def unreachable(*args, **kwargs):
        raise AssertionError("sender or transmit work started")

    for name in ("sender_invert", "tx_chain", "awgn", "qam_quantize", "scramble"):
        monkeypatch.setattr(link, name, unreachable)


def test_stack_rejects_rows_of_unequal_length(default_setup, rng, no_link_work):
    rows = _rows(default_setup, [24, 24, 25], rng)
    with pytest.raises(FramingError, match="one length"):
        emulated_link(rows, [10.0] * 3, [1, 2, 3], default_setup)


def test_stack_rejects_an_empty_sequence(default_setup, no_link_work):
    with pytest.raises(FramingError, match="at least one row"):
        emulated_link([], [], [], default_setup)


@pytest.mark.parametrize("snrs", [[10.0, 10.0], [10.0] * 4, 10.0], ids=["short", "long", "scalar"])
def test_stack_rejects_an_snr_sequence_of_another_length(default_setup, rng, no_link_work, snrs):
    rows = _rows(default_setup, [24] * 3, rng)
    with pytest.raises(FramingError, match="SNRs"):
        emulated_link(rows, snrs, [1, 2, 3], default_setup)


@pytest.mark.parametrize("seeds", [[1, 2], [1, 2, 3, 4], 7], ids=["short", "long", "scalar"])
def test_stack_rejects_a_seed_sequence_of_another_length(default_setup, rng, no_link_work, seeds):
    rows = _rows(default_setup, [24] * 3, rng)
    with pytest.raises(FramingError, match="seeds"):
        emulated_link(rows, [10.0] * 3, seeds, default_setup)


@pytest.mark.parametrize("bad", [math.nan, -math.inf], ids=["nan", "-inf"])
def test_stack_rejects_a_bad_snr_in_any_row(default_setup, rng, no_link_work, bad):
    rows = _rows(default_setup, [24] * 3, rng)
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
    targets = [
        TargetSymbols(rng.normal(size=count) + 1j * rng.normal(size=count), scale)
        for scale in scales
    ]

    def fresh(seed):
        as_rng, value = seed
        return np.random.default_rng(value) if as_rng else value

    est, records = emulated_link(targets, snrs, [fresh(s) for s in seeds], setup)
    assert est.shape == (rows, count) and len(records) == rows
    outputs, cleans = output_waveforms(records), clean_waveforms(records)
    refs = reference_waveform(targets, setup)
    for r, (t, snr, seed, rec) in enumerate(zip(targets, snrs, seeds, records)):
        want_est, plan, tx, rx = oracles.emulated_link_reference(t, snr, fresh(seed), setup)
        assert est[r].tobytes() == want_est.tobytes()
        assert rec.tx_frame.tobytes() == tx.tobytes()
        assert rec.rx_frame.tobytes() == rx.tobytes()
        assert rec.plan.bitstream.tobytes() == plan.bitstream.tobytes()
        assert rec.plan.incoming_states.tobytes() == plan.incoming_states.tobytes()
        assert rec.plan.quantized.tobytes() == plan.quantized.tobytes()
        assert rec.plan.clip_count == plan.clip_count
        assert rec.targets is t and rec.snr_db == snr
        # the stacked waveforms are the one-row stacks of each record, and
        # those re-frame the reference frames
        assert outputs[r].tobytes() == output_waveforms([rec])[0].tobytes()
        assert outputs[r].tobytes() == reframed(rx, plan, setup).tobytes()
        assert cleans[r].tobytes() == reframed(tx, plan, setup).tobytes()
        assert refs[r].tobytes() == reference_waveform(t, setup).tobytes()


def test_stacked_plan_reports_totals_and_per_row_plans(default_setup, rng):
    rows = [uniform_box_targets(50, default_setup.cfg, rng, margin=1.5) for _ in range(3)]
    stack = sender_invert(rows, default_setup)
    assert [p.clip_count for p in stack.plans] == [
        sender_invert(t, default_setup).clip_count for t in rows
    ]
    assert stack.target_count == 150
    assert stack.ofdm_symbols == 3 * stack.plans[0].ofdm_symbols
    assert stack.clip_count == sum(p.clip_count for p in stack.plans) > 0
    assert stack.bitstreams.shape == (3, stack.plans[0].bitstream.size)
    with pytest.raises(FramingError):
        sender_invert([rows[0], uniform_box_targets(49, default_setup.cfg, rng)], default_setup)
    with pytest.raises(FramingError):
        sender_invert([], default_setup)


def test_stacked_hard_mode_equals_one_row_calls(default_setup, rng):
    rows = _rows(default_setup, [40] * 3, rng)
    est, records = emulated_link(rows, [math.inf, 8.0, 20.0], [4, 5, 6], default_setup, mode="hard")
    for t, snr, seed, got, rec in zip(rows, [math.inf, 8.0, 20.0], [4, 5, 6], est, records):
        want, one = emulated_link(t, snr, seed, default_setup, mode="hard")
        assert got.tobytes() == want.tobytes()
        assert rec.rx_frame.tobytes() == one.rx_frame.tobytes()
