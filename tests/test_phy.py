import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from ofdmemu import phy
from ofdmemu.config import BITS_PER_SYMBOL, KMOD_SQUARED, PhyConfig
from ofdmemu.errors import ConfigError, FramingError

ALL_MODES = [
    (m, r)
    for m in (2, 4, 16, 64)
    for r in (Fraction(1, 2), Fraction(2, 3), Fraction(3, 4), Fraction(5, 6))
]


def test_scrambler_matches_reference(rng):
    for _ in range(50):
        seed = int(rng.integers(1, 128))
        bits = rng.integers(0, 2, 200, dtype=np.uint8)
        assert np.array_equal(phy.scramble(bits, seed), oracles.scramble_reference(bits, seed))


def test_scrambler_self_inverse(rng):
    bits = rng.integers(0, 2, 501, dtype=np.uint8)
    assert np.array_equal(phy.scramble(phy.scramble(bits, 93), 93), bits)


def test_conv_encoder_matches_reference(rng):
    for _ in range(50):
        bits = rng.integers(0, 2, 64, dtype=np.uint8)
        state = int(rng.integers(0, 64))
        ours, end = phy.conv_encode(bits, state)
        ref, ref_end = oracles.conv_encode_reference(bits, state)
        assert np.array_equal(ours, ref)
        assert end == ref_end


def test_conv_state_chaining(rng):
    # encoding in two chunks with the carried state equals one shot
    bits = rng.integers(0, 2, 96, dtype=np.uint8)
    whole, _ = phy.conv_encode(bits, 0)
    first, mid = phy.conv_encode(bits[:40], 0)
    second, _ = phy.conv_encode(bits[40:], mid)
    assert np.array_equal(np.concatenate([first, second]), whole)


@pytest.mark.parametrize("rate", ["1/2", "2/3", "3/4", "5/6"])
def test_puncture_matches_reference(rate, rng):
    coded = rng.integers(0, 2, 240, dtype=np.uint8)
    assert np.array_equal(phy.puncture(coded, rate), oracles.puncture_reference(coded, rate))


@pytest.mark.parametrize("m", [2, 4, 16, 64])
def test_interleaver_matches_reference(m, rng):
    n_bpsc = {2: 1, 4: 2, 16: 4, 64: 6}[m]
    n_cbps = 48 * n_bpsc
    for _ in range(20):
        bits = rng.integers(0, 2, n_cbps, dtype=np.uint8)
        assert np.array_equal(
            phy.interleave(bits, n_cbps, n_bpsc),
            oracles.interleave_reference(bits, n_cbps, n_bpsc),
        )


@pytest.mark.parametrize("m,rate", ALL_MODES)
def test_symbol_gather_is_puncture_then_interleave(m, rate, rng, monkeypatch):
    # transmit: the one per-symbol map equals the two stages in turn
    cfg = PhyConfig(modulation_order=m, coding_rate=rate)
    n_sym = 3
    coded = rng.integers(0, 2, n_sym * 2 * cfg.n_dbps, dtype=np.uint8)
    gather = phy._symbol_gather(cfg)
    assert np.unique(gather).size == cfg.n_cbps
    gathered = coded.reshape(n_sym, -1)[:, gather]
    want = phy.interleave(phy.puncture(coded, rate), cfg.n_cbps, cfg.n_bpsc)
    assert np.array_equal(gathered.ravel(), want)

    # receive: the mother stream rx_chain hands the decoder holds every
    # sent coded bit the puncturer kept, and -1 where it dropped one
    seen = []
    decode = phy.viterbi_decode

    def spy(received):
        seen.append(received)
        return decode(received)

    monkeypatch.setattr(phy, "viterbi_decode", spy)
    bits = rng.integers(0, 2, n_sym * cfg.n_dbps, dtype=np.uint8)
    assert np.array_equal(phy.rx_chain(phy.tx_chain(bits, cfg).samples, cfg), bits)
    sent, _ = oracles.conv_encode_reference(oracles.scramble_reference(bits, cfg.scrambler_seed))
    kept = oracles.puncture_reference(sent, str(rate))
    assert seen[0].dtype == np.int8
    assert np.array_equal(seen[0].ravel(), oracles.depuncture_reference(kept, str(rate)))


@pytest.mark.parametrize("m", [2, 4, 16, 64])
def test_qam_map_matches_reference(m, rng):
    n_bpsc = {2: 1, 4: 2, 16: 4, 64: 6}[m]
    bits = rng.integers(0, 2, 48 * n_bpsc, dtype=np.uint8)
    assert np.allclose(phy.qam_map(bits, m), oracles.qam_map_reference(bits, m))


@pytest.mark.parametrize("m", [2, 4, 16, 64])
def test_qam_unit_average_power(m):
    # over the full constellation the mean power is exactly 1
    n_bpsc = {2: 1, 4: 2, 16: 4, 64: 6}[m]
    words = np.arange(m, dtype=np.uint64)
    shifts = np.arange(n_bpsc - 1, -1, -1, dtype=np.uint64)
    bits = ((words[:, None] >> shifts) & 1).astype(np.uint8)
    pts = phy.qam_map(bits.reshape(-1), m)
    assert np.isclose(np.mean(np.abs(pts) ** 2), 1.0)


@pytest.mark.parametrize("m", [2, 4, 16, 64])
def test_qam_map_demap_roundtrip(m, rng):
    n_bpsc = {2: 1, 4: 2, 16: 4, 64: 6}[m]
    bits = rng.integers(0, 2, 60 * n_bpsc, dtype=np.uint8)
    assert np.array_equal(phy.qam_quantize(phy.qam_map(bits, m), m)[1], bits)


@pytest.mark.parametrize("m", [4, 16, 64])
def test_quantize_is_nearest_point(m, rng):
    pts = (rng.standard_normal(200) + 1j * rng.standard_normal(200)) * 0.6
    q, labels = phy.qam_quantize(pts, m)
    n_bpsc = {4: 2, 16: 4, 64: 6}[m]
    words = np.arange(m, dtype=np.uint64)
    shifts = np.arange(n_bpsc - 1, -1, -1, dtype=np.uint64)
    allbits = ((words[:, None] >> shifts) & 1).astype(np.uint8)
    constellation = phy.qam_map(allbits.reshape(-1), m)
    for p, qq in zip(pts, q):
        best = constellation[np.argmin(np.abs(constellation - p))]
        assert np.isclose(qq, best)
    # labels re-map onto the quantized points
    assert np.allclose(phy.qam_map(labels.reshape(-1), m), q)


def _labels(m: int, words) -> np.ndarray:
    """MSB-first bit groups of the given label words, as one 0/1 vector."""
    nb = BITS_PER_SYMBOL[m]
    words = np.asarray(words, dtype=np.int64)
    return ((words[:, None] >> np.arange(nb - 1, -1, -1)) & 1).astype(np.uint8).ravel()


@settings(max_examples=60, deadline=None)
@given(m=st.sampled_from([2, 4, 16, 64]), data=st.data())
def test_qam_map_matches_per_axis(m, data):
    # every label of the order, in a drawn order, then a drawn sequence
    words = data.draw(st.permutations(range(m))) + data.draw(
        st.lists(st.integers(0, m - 1), max_size=200)
    )
    bits = _labels(m, words)
    got = phy.qam_map(bits, m)
    want = oracles.qam_map_per_axis(bits, m)
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


@st.composite
def _axis_values(draw, m):
    """Per-axis inputs: exact midpoints between levels and their
    neighbours, +-0.0, values far outside the box, and anything between."""
    scale = 1.0 / np.sqrt(KMOD_SQUARED[m])
    kind = draw(st.sampled_from(["midpoint", "zero", "far", "any"]))
    if kind == "midpoint":
        # the even coordinates 2k are the midpoints; a few ulps either side
        # of 2k * scale include the value whose division lands on 2k
        x = 2 * draw(st.integers(-5, 5)) * scale
        for _ in range(draw(st.integers(0, 3))):
            x = np.nextafter(x, draw(st.sampled_from([-np.inf, np.inf])))
        return float(x)
    if kind == "zero":
        return draw(st.sampled_from([0.0, -0.0]))
    if kind == "far":
        return draw(st.sampled_from([-1.0, 1.0])) * draw(st.floats(10.0, 1e300))
    return draw(st.floats(-10.0, 10.0))


@settings(max_examples=120, deadline=None)
@given(m=st.sampled_from([2, 4, 16, 64]), data=st.data())
def test_qam_quantize_matches_per_axis(m, data):
    n = data.draw(st.integers(0, 60))
    re = [data.draw(_axis_values(m)) for _ in range(n)]
    im = [data.draw(_axis_values(m)) for _ in range(n)]
    # set per part: adding 1j * im would turn -0.0 parts into +0.0
    points = np.empty(n, dtype=np.complex128)
    points.real, points.imag = re, im
    got_points, got_labels = phy.qam_quantize(points, m)
    want_points, want_labels = oracles.qam_quantize_per_axis(points, m)
    assert got_points.tobytes() == want_points.tobytes()
    assert got_labels.dtype == np.uint8 and np.array_equal(got_labels, want_labels)


@settings(max_examples=60, deadline=None)
@given(n=st.one_of(st.integers(0, 12), st.integers(0, 320)), seed=st.integers(0, 2**32 - 1))
def test_conv_encode_matches_convolve(n, seed):
    bits = np.random.default_rng(seed).integers(0, 2, n, dtype=np.uint8)
    for state in range(64):
        coded, end = phy.conv_encode(bits, state)
        want, want_end = oracles.conv_encode_convolve(bits, state)
        assert coded.dtype == np.uint8 and np.array_equal(coded, want)
        assert end == want_end


def test_ofdm_modulate_demodulate_roundtrip(rng):
    cfg = PhyConfig()
    grid = rng.standard_normal((3, 64)) + 1j * rng.standard_normal((3, 64))
    grid[:, 0] = 0.0
    samples = phy.modulate_symbols(grid, cfg)
    assert samples.shape == (3 * cfg.samples_per_ofdm,)
    back = phy.demodulate_frame(samples, cfg)
    assert np.allclose(back, grid)


def test_ofdm_modulate_is_unitary_on_bodies(rng):
    cfg = PhyConfig()
    grid = rng.standard_normal((1, 64)) + 1j * rng.standard_normal((1, 64))
    samples = phy.modulate_symbols(grid, cfg)
    body = samples[cfg.cp_len :]
    assert np.isclose(np.sum(np.abs(body) ** 2), np.sum(np.abs(grid) ** 2))


def test_cyclic_prefix_is_a_copy(rng):
    cfg = PhyConfig()
    grid = rng.standard_normal((2, 64)) + 1j * rng.standard_normal((2, 64))
    samples = phy.modulate_symbols(grid, cfg).reshape(2, cfg.samples_per_ofdm)
    for sym in samples:
        assert np.allclose(sym[: cfg.cp_len], sym[-cfg.cp_len :])


@pytest.mark.parametrize("m,rate", [(64, "3/4"), (2, "1/2")])
def test_tx_grids_frame_matches_oracles(m, rate, rng):
    # 300 symbols run past the 127-symbol period of the scrambler and of
    # the pilot polarity
    cfg = PhyConfig(modulation_order=m, coding_rate=Fraction(rate))
    n_sym = 300
    bits = rng.integers(0, 2, n_sym * cfg.n_dbps, dtype=np.uint8)
    grids = phy.tx_grids(bits, cfg)

    p = oracles.scramble_reference(np.zeros(n_sym, dtype=np.uint8), 0x7F).astype(int)
    pilots = grids[:, list(cfg.pilot_subcarriers)]
    assert np.array_equal(pilots, np.outer(1 - 2 * p, cfg.pilot_base))

    coded, _ = oracles.conv_encode_reference(oracles.scramble_reference(bits, cfg.scrambler_seed))
    punctured = oracles.puncture_reference(coded, rate)
    blocks = punctured.reshape(n_sym, cfg.n_cbps)
    want = np.concatenate(
        [oracles.interleave_reference(b, cfg.n_cbps, cfg.n_bpsc) for b in blocks]
    )
    data = grids[:, list(cfg.data_subcarriers)]
    assert np.array_equal(data, phy.qam_map(want, m).reshape(n_sym, cfg.n_data))
    idle = sorted(set(range(cfg.fft_size)) - set(cfg.data_subcarriers) - set(cfg.pilot_subcarriers))
    assert not grids[:, idle].any()

    # whole-frame interleaving is the block interleaver applied per block
    interleaved = phy.interleave(punctured, cfg.n_cbps, cfg.n_bpsc)
    assert np.array_equal(interleaved, want)
    back = np.concatenate(
        [oracles.deinterleave_reference(b, cfg.n_cbps, cfg.n_bpsc)
         for b in interleaved.reshape(n_sym, cfg.n_cbps)]
    )
    assert np.array_equal(back, punctured)
    for partial in (punctured[:-1], punctured[: cfg.n_cbps + 1]):
        with pytest.raises(FramingError):
            phy.interleave(partial, cfg.n_cbps, cfg.n_bpsc)


@pytest.mark.parametrize("m,rate", ALL_MODES)
def test_noiseless_loopback(m, rate, rng):
    cfg = PhyConfig(modulation_order=m, coding_rate=rate)
    payload = rng.integers(0, 2, cfg.n_dbps * 4, dtype=np.uint8)
    frame = phy.tx_chain(payload, cfg)
    assert np.array_equal(phy.rx_chain(frame.samples, cfg), payload)


def test_rx_chain_of_no_samples_is_no_bits():
    assert phy.rx_chain(np.zeros(0, dtype=complex), PhyConfig()).size == 0


def test_tx_chain_rejects_partial_symbols(rng):
    cfg = PhyConfig()
    with pytest.raises(FramingError):
        phy.tx_chain(rng.integers(0, 2, cfg.n_dbps + 1, dtype=np.uint8), cfg)
    with pytest.raises(FramingError):
        phy.tx_chain(rng.integers(0, 2, (3, cfg.n_dbps + 1), dtype=np.uint8), cfg)
    with pytest.raises(FramingError):
        phy.tx_chain(np.zeros((0, cfg.n_dbps), dtype=np.uint8), cfg)


@pytest.mark.parametrize("m,rate", ALL_MODES)
def test_tx_stack_equals_one_frame_calls(m, rate, rng):
    # the scrambler, the encoder and the pilot polarity restart with every
    # frame of a (frames, bits) stack; 130 symbols run past the 127-symbol
    # period of the scrambler and the pilots
    cfg = PhyConfig(modulation_order=m, coding_rate=rate)
    for frames, n_sym in ((1, 1), (5, 3), (2, 130)):
        bits = rng.integers(0, 2, (frames, n_sym * cfg.n_dbps), dtype=np.uint8)
        grids = phy.tx_grids(bits, cfg)
        frame = phy.tx_chain(bits, cfg)
        assert grids.shape == (frames, n_sym, cfg.fft_size)
        assert frame.samples.shape == (frames, n_sym * cfg.samples_per_ofdm)
        assert frame.ofdm_symbol_count == frames * n_sym
        scrambled = phy.scramble(bits, cfg.scrambler_seed)
        for row, g, samples, s in zip(bits, grids, frame.samples, scrambled):
            assert g.tobytes() == phy.tx_grids(row, cfg).tobytes()
            assert g.tobytes() == oracles.tx_grids_reference(row, cfg).tobytes()
            assert samples.tobytes() == phy.tx_chain(row, cfg).samples.tobytes()
            assert s.tobytes() == phy.scramble(row, cfg.scrambler_seed).tobytes()


def test_viterbi_matches_exhaustive_small(rng):
    for _ in range(20):
        info = rng.integers(0, 2, 12, dtype=np.uint8)
        coded, _ = phy.conv_encode(info, 0)
        noisy = coded.copy()
        flips = rng.choice(coded.size, size=int(rng.integers(0, 4)), replace=False)
        noisy[flips] ^= 1
        decoded = phy.viterbi_decode(noisy)
        ml_bits, ml_dist = oracles.exhaustive_ml_decode(noisy, 12)
        re_coded, _ = phy.conv_encode(decoded, 0)
        assert int(np.sum(re_coded != noisy)) == ml_dist


def _assert_ml_forms_agree(data, n_info):
    state = data.draw(st.integers(0, 63), label="state")
    received = np.array(
        data.draw(st.lists(st.integers(0, 1), min_size=2 * n_info, max_size=2 * n_info)),
        dtype=np.uint8,
    )
    bits, dist = oracles.exhaustive_ml_decode(received, n_info, state)
    ref_bits, ref_dist = oracles.exhaustive_ml_decode_loop(received, n_info, state)
    assert np.array_equal(bits, ref_bits) and dist == ref_dist


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_exhaustive_ml_codebook_matches_loop(data):
    # word and distance, ties included: both keep the lowest best word
    _assert_ml_forms_agree(data, data.draw(st.integers(1, 8), label="n_info"))


@settings(max_examples=3, deadline=None)
@given(data=st.data())
def test_exhaustive_ml_codebook_matches_loop_12_bits(data):
    _assert_ml_forms_agree(data, 12)


def test_viterbi_corrects_single_bit_error(rng):
    # six zero tail bits terminate the trellis; a flip in the very last
    # coded pair would otherwise be genuinely ambiguous
    info = rng.integers(0, 2, 24, dtype=np.uint8)
    tailed = np.concatenate([info, np.zeros(6, dtype=np.uint8)])
    coded, _ = phy.conv_encode(tailed, 0)
    for pos in range(coded.size):
        noisy = coded.copy()
        noisy[pos] ^= 1
        assert np.array_equal(phy.viterbi_decode(noisy)[: info.size], info)


# Trellis lengths for the decoder properties: short ones (every residue
# mod 3 and mod 6), ones around multiples of 192 steps (3 x 64: where a
# decoder that works in 3-step blocks, in chunks of a power-of-two count
# of blocks, starts a new chunk), and any length up to 10k.
_STEPS = st.one_of(
    st.integers(0, 24),
    st.builds(lambda k, d: 192 * k + d, st.integers(1, 52), st.integers(-3, 5)),
    st.integers(25, 10_000),
)
_RATES = ["1/2", "2/3", "3/4", "5/6"]


def _punctured(coded, rate):
    """A mother stream with -1 wherever ``rate``'s pattern drops a bit; the
    pattern is cut at the stream's end, so any length works."""
    stream = coded.astype(np.int8)
    stream[~np.resize(np.array(oracles.PUNCTURE_KEEP[rate], dtype=bool), stream.size)] = -1
    return stream


@st.composite
def _mother_streams(draw):
    """A mother stream as the receiver hands it to the decoder."""
    kind = draw(st.sampled_from(["erasures", "zeros", "erased", "depunctured", "clean"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "depunctured":
        # noisy coded bits punctured, then re-expanded with erasure marks
        rate = draw(st.sampled_from(_RATES))
        period = len(oracles.PUNCTURE_KEEP[rate]) // 2
        n_info = period * (draw(_STEPS) // period)
        coded, _ = phy.conv_encode(rng.integers(0, 2, n_info, dtype=np.uint8), 0)
        coded ^= (rng.random(coded.size) < draw(st.floats(0, 0.5))).astype(np.uint8)
        return oracles.depuncture_reference(phy.puncture(coded, rate), rate)
    if kind == "clean":
        # a codeword as the receiver hands it over with no error, punctured
        # at any length: the decoder walks its one path of cost 0
        steps = draw(_STEPS)
        coded, _ = phy.conv_encode(rng.integers(0, 2, steps, dtype=np.uint8), 0)
        return _punctured(coded, draw(st.sampled_from(_RATES)))
    size = 2 * draw(_STEPS)
    if kind == "zeros":
        return np.zeros(size, dtype=draw(st.sampled_from([np.int8, bool])))
    if kind == "erased":
        return np.full(size, -1, dtype=np.int8)
    stream = rng.integers(0, 2, size).astype(np.int8)
    stream[rng.random(size) < draw(st.floats(0, 1))] = -1
    return stream.astype(
        draw(st.sampled_from([np.int8, np.int16, np.int64, np.float32, np.float64]))
    )


@settings(max_examples=100, deadline=None)
@given(received=_mother_streams())
def test_viterbi_matches_reference(received):
    # bit for bit, ties included: all-zero and all-erased streams are
    # nothing but ties
    want = oracles.viterbi_reference(received)
    got = phy.viterbi_decode(received)
    assert got.dtype == np.uint8
    assert np.array_equal(got, want)


@pytest.mark.parametrize("fill", [0, 1, -1, None])
def test_viterbi_matches_reference_short(fill, rng):
    for steps in range(25):
        if fill is None:
            received = rng.integers(-1, 2, 2 * steps).astype(np.int8)
        else:
            received = np.full(2 * steps, fill, dtype=np.int8)
        assert np.array_equal(phy.viterbi_decode(received), oracles.viterbi_reference(received))


@pytest.fixture
def full_decodes(monkeypatch):
    """One entry per decode that reaches the radix-8 decoder, its block
    count; a decode that walks a path of cost 0 adds none."""
    seen = []
    survivor_path = phy._survivor_path

    def spy(first, codes):
        seen.append(codes.size)
        return survivor_path(first, codes)

    monkeypatch.setattr(phy, "_survivor_path", spy)
    return seen


@pytest.mark.parametrize("head", [0, 1, 2])
@pytest.mark.parametrize("rate", _RATES)
def test_viterbi_exit_matches_reference(rate, head, rng, full_decodes):
    steps = 300 + head
    coded, _ = phy.conv_encode(rng.integers(0, 2, steps, dtype=np.uint8), 0)
    clean = _punctured(coded, rate)
    flipped = clean.copy()
    flipped[np.flatnonzero(clean >= 0)[-1]] ^= 1
    # an erased last step leaves its block two inputs of cost 0
    erased = clean.copy()
    t = head + 3 * 50 + 2
    erased[2 * t : 2 * t + 2] = -1
    routes = []
    for received in (clean, flipped, erased):
        before = len(full_decodes)
        assert np.array_equal(phy.viterbi_decode(received), oracles.viterbi_reference(received))
        routes.append(len(full_decodes) > before)
    # both outputs of a step flip with its input, so the flip leaves the
    # walk no input of cost 0 at the last block if the last step keeps both
    # bits, and the codeword of the other last input if it keeps one
    assert routes == [False, bool((clean[-2:] >= 0).all()), True]


@pytest.mark.parametrize("m,rate", ALL_MODES)
def test_noiseless_frame_decodes_by_the_zero_cost_walk(m, rate, rng, full_decodes):
    cfg = PhyConfig(modulation_order=m, coding_rate=rate)
    bits = rng.integers(0, 2, 5 * cfg.n_dbps, dtype=np.uint8)
    assert np.array_equal(phy.rx_chain(phy.tx_chain(bits, cfg).samples, cfg), bits)
    assert full_decodes == []


# The cut decoder: a stream of at least phy._CUT_MIN blocks runs as rows
# side by side (phy._cut_rows), some of which are rerun to settle them.


def _noisy_codeword(rng, steps, rate, flip):
    coded, _ = phy.conv_encode(rng.integers(0, 2, steps, dtype=np.uint8), 0)
    coded ^= (rng.random(coded.size) < flip).astype(np.uint8)
    return _punctured(coded, rate)


def _cut_blocks(rows, span, tail):
    """The block count of a stream the cut decoder lays out as ``rows``
    rows of ``span`` kept blocks, the last of which keeps ``tail``."""
    return phy._WARM_UP + (rows - 1) * span + tail


@pytest.fixture
def reruns(monkeypatch):
    """The rows of each rerun round of the cut decoder."""
    seen = []
    rerun = phy._rerun

    def spy(redo, *args):
        seen.append(redo.tolist())
        return rerun(redo, *args)

    monkeypatch.setattr(phy, "_rerun", spy)
    return seen


@pytest.mark.parametrize("flip", [0.01, 0.1, 0.5])
@pytest.mark.parametrize("rate", _RATES)
def test_cut_decoder_matches_reference_on_long_noisy_codewords(rate, flip, rng, full_decodes):
    # 30k-60k steps: rows of 64 kept blocks, and past 49k steps longer rows
    steps = int(rng.integers(30_000, 60_001))
    received = _noisy_codeword(rng, steps, rate, flip)
    assert np.array_equal(phy.viterbi_decode(received), oracles.viterbi_reference(received))
    assert full_decodes == [steps // 3]


@pytest.mark.parametrize("erased", [0.5, 0.9, 0.99])
def test_cut_decoder_matches_reference_on_heavily_erased_streams(erased, rng):
    # erased steps cost nothing, so long runs of them are ties throughout
    steps = int(rng.integers(30_000, 60_001))
    received = rng.integers(0, 2, 2 * steps).astype(np.int8)
    received[rng.random(received.size) < erased] = -1
    assert np.array_equal(phy.viterbi_decode(received), oracles.viterbi_reference(received))


@pytest.mark.parametrize(
    "blocks",
    [
        _cut_blocks(10, phy._ROW, 1),
        _cut_blocks(10, phy._ROW, 2),
        _cut_blocks(10, phy._ROW, phy._ROW - 1),
        _cut_blocks(10, phy._ROW, phy._ROW),
        _cut_blocks(phy._ROWS, phy._ROW + 6, 1),
        _cut_blocks(phy._ROWS, phy._ROW + 6, phy._ROW + 6),
    ],
    ids=["tail-1", "tail-2", "tail-63", "tail-64", "long-rows-tail-1", "long-rows-tail-70"],
)
def test_cut_decoder_last_row_runs_past_the_end(blocks, rng, monkeypatch):
    # the last row keeps from 1 block to a whole row; it runs on past the
    # stream's end over erased blocks, and its end metrics are read at
    # the end
    layouts = []
    cut_rows = phy._cut_rows

    def spy(first, codes):
        ranks, last = cut_rows(first, codes)
        layouts.append(ranks.shape[0] - codes.size)
        return ranks, last

    monkeypatch.setattr(phy, "_cut_rows", spy)
    for head in (0, 1):
        received = _noisy_codeword(rng, 3 * blocks + head, "3/4", 0.1)
        assert np.array_equal(phy.viterbi_decode(received), oracles.viterbi_reference(received))
    span = max(phy._ROW, -(-(blocks - phy._WARM_UP) // phy._ROWS))
    # blocks past the end that the last row runs over
    assert layouts == [span - (blocks - phy._WARM_UP - 1) % span - 1] * 2


@pytest.mark.parametrize("blocks", [phy._CUT_MIN - 1, phy._CUT_MIN, phy._CUT_MIN + 1])
@pytest.mark.parametrize("head", [0, 2])
def test_cut_decoder_threshold(blocks, head, rng, monkeypatch):
    cut = []
    cut_rows = phy._cut_rows

    def spy(first, codes):
        cut.append(codes.size)
        return cut_rows(first, codes)

    monkeypatch.setattr(phy, "_cut_rows", spy)
    received = _noisy_codeword(rng, 3 * blocks + head, "2/3", 0.1)
    assert np.array_equal(phy.viterbi_decode(received), oracles.viterbi_reference(received))
    assert cut == ([blocks] if blocks >= phy._CUT_MIN else [])


def test_cut_decoder_reruns_rows(rng, reruns):
    # frames the size of a sweep's float_serial cell (2160 blocks): some
    # row disagrees with its predecessor's end at its first kept block,
    # and some round reruns two consecutive rows, the second from the
    # first's end as it stood before the round
    for flip in (0.05, 0.1, 0.2, 0.3, 0.3, 0.5):
        received = _noisy_codeword(rng, 6480, "3/4", flip)
        assert np.array_equal(phy.viterbi_decode(received), oracles.viterbi_reference(received))
    assert reruns
    assert any(np.any(np.diff(rows) == 1) for rows in reruns)


def test_cut_decoder_is_exact_without_meetings(rng, reruns, monkeypatch):
    # no run ever meets another: every row is rerun to its end, and each
    # round settles one row
    monkeypatch.setattr(phy, "_first_meeting", lambda a, b: np.full(a.shape[2], len(a)))
    blocks = _cut_blocks(40, phy._ROW, 20)
    received = _noisy_codeword(rng, 3 * blocks, "1/2", 0.1)
    assert np.array_equal(phy.viterbi_decode(received), oracles.viterbi_reference(received))
    assert reruns == [list(range(i, 40)) for i in range(1, 40)]


@pytest.mark.parametrize(
    "received",
    [
        np.array([256, 0]),  # an int8 cast would read 0
        np.array([0.6, 0.0]),  # 0
        np.array([-7, 0]),  # an erasure
        np.array([2, 0], dtype=np.uint8),  # a mismatch against both bits
        np.array([np.nan, 0.0]),
        np.array(["1", "0"]),
        np.array([1 + 0j, 0]),
    ],
    ids=["256", "0.6", "-7", "2", "nan", "text", "complex"],
)
def test_viterbi_rejects_values_outside_the_alphabet(received):
    with pytest.raises(FramingError):
        phy.viterbi_decode(received)


@pytest.mark.slow
def test_viterbi_memory_stays_near_21_bytes_per_step():
    # A [sweep] n_symbols of 1,000,000 makes a 64M-step float_serial
    # frame; the one-step decoder peaked at 99 MB for this 1M-step one.
    received = np.random.default_rng(7).integers(0, 2, 2_000_000).astype(np.int8)
    phy.viterbi_decode(received[:1200])  # the cached tables are not counted
    tracemalloc.start()
    try:
        phy.viterbi_decode(received)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 40e6, f"{peak / 1e6:.1f} MB"


@pytest.mark.slow
def test_clean_viterbi_decode_keeps_no_traceback():
    # the walk of cost 0 keeps one byte per block, not the 64 of a
    # traceback; this decode peaked at 6.3 MB, the noisy one above at 27 MB
    info = np.random.default_rng(7).integers(0, 2, 1_000_000, dtype=np.uint8)
    received, _ = phy.conv_encode(info, 0)
    phy.viterbi_decode(received[:1200])  # the cached tables are not counted
    tracemalloc.start()
    try:
        decoded = phy.viterbi_decode(received)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.array_equal(decoded, info)
    assert peak <= 10e6, f"{peak / 1e6:.1f} MB"


def test_bitblock_and_frame_validation(rng):
    cfg = PhyConfig()
    with pytest.raises(ConfigError):
        phy.conv_encode(rng.integers(0, 2, 8, dtype=np.uint8), state=64)
    with pytest.raises(FramingError):
        phy.rx_chain(np.zeros(81, dtype=complex), cfg)


# Values outside {0, 1} at the bit inputs, in each dtype kind the check
# reads, and dtypes it refuses outright.
_NON_BITS = {
    "2": np.array([2, 0, 1, 0, 1, 0]),
    "5-uint8": np.array([5, 0, 1, 0, 1, 0], dtype=np.uint8),
    "-1": np.array([-1, 0, 1, 0, 1, 0], dtype=np.int8),
    "256": np.array([256, 0, 1, 0, 1, 0], dtype=np.int16),  # a uint8 cast reads 0
    "0.5": np.array([0.5, 0, 1, 0, 1, 0]),
    "nan": np.array([np.nan, 0, 1, 0, 1, 0]),
    "complex": np.array([1 + 0j, 0, 1, 0, 1, 0]),
    "text": np.array(["1", "0", "1", "0", "1", "0"]),
}
_BIT_ENTRIES = {
    "scramble": lambda b: phy.scramble(b, 0x5D),
    "conv_encode": lambda b: phy.conv_encode(b),
    "puncture": lambda b: phy.puncture(b, "3/4"),
    "interleave": lambda b: phy.interleave(np.resize(b, 288), 288, 6),
    "qam_map": lambda b: phy.qam_map(b, 64),
    "tx_chain": lambda b: phy.tx_chain(np.resize(b, 216), PhyConfig()),
}


@pytest.mark.parametrize("entry", sorted(_BIT_ENTRIES))
@pytest.mark.parametrize("bits", list(_NON_BITS.values()), ids=list(_NON_BITS))
def test_bit_inputs_reject_values_outside_0_1(entry, bits):
    with pytest.raises(FramingError):
        _BIT_ENTRIES[entry](bits)


@pytest.mark.parametrize("entry", sorted(_BIT_ENTRIES))
def test_bit_inputs_read_0_1_of_any_kind_alike(entry, rng):
    bits = rng.integers(0, 2, 288, dtype=np.uint8)
    if entry == "tx_chain":
        bits = bits[:216]
    want = _BIT_ENTRIES[entry](bits)
    for kind in (bool, np.int64, np.int8, np.float32, np.float64):
        got = _BIT_ENTRIES[entry](bits.astype(kind))
        if entry == "tx_chain":
            got, want_ = got.samples, want.samples
        elif entry == "conv_encode":
            (got, got_state), (want_, want_state) = got, want
            assert got_state == want_state
        else:
            want_ = want
        assert got.dtype == want_.dtype and np.array_equal(got, want_)


def test_lfsr_sequence_rejects_a_negative_length():
    with pytest.raises(ConfigError):
        phy.lfsr_sequence(-3, 5)
    assert phy.lfsr_sequence(0, 5).size == 0


def test_lfsr_sequence_runs_past_its_cached_periods():
    # lengths on both sides of every power-of-two count of periods
    for length in (1, 126, 127, 128, 254, 255, 508, 509, 127 * 64 + 1):
        assert np.array_equal(
            phy.lfsr_sequence(length, 0x5D),
            oracles.scramble_reference(np.zeros(length, dtype=np.uint8), 0x5D),
        )


@pytest.mark.parametrize(
    "points",
    [[np.nan], [np.inf], [-np.inf + 0j], [complex(0.1, np.nan)], [0.2, complex(np.inf, 0)]],
    ids=["nan", "inf", "-inf", "nan-imag", "inf-later"],
)
@pytest.mark.parametrize("m", [2, 4, 16, 64])
def test_qam_quantize_rejects_non_finite_values(points, m):
    with pytest.raises(FramingError):
        phy.qam_quantize(np.array(points, dtype=np.complex128), m)


@pytest.mark.parametrize("m", [0, 3, 8, 256])
def test_qam_rejects_unknown_orders(m):
    with pytest.raises(ConfigError):
        phy.qam_quantize(np.zeros(4, dtype=np.complex128), m)
    with pytest.raises(ConfigError):
        phy.qam_map(np.zeros(12, dtype=np.uint8), m)


@pytest.mark.parametrize("fill", [np.nan, np.inf])
def test_rx_chain_rejects_non_finite_samples(fill):
    with pytest.raises(FramingError):
        phy.rx_chain(np.full(80, fill, dtype=np.complex128), PhyConfig())


def test_qam_quantize_reads_strided_and_scalar_input(rng):
    x = rng.normal(size=40) + 1j * rng.normal(size=40)
    for view in (x[::2], x.reshape(4, 10)[:, 1], x[3]):
        got = phy.qam_quantize(view, 16)
        want = oracles.qam_quantize_per_axis(np.atleast_1d(view).copy(), 16)
        assert got[0].tobytes() == want[0].tobytes() and np.array_equal(got[1], want[1])


def test_cached_tables_and_streams_are_read_only():
    cfg = PhyConfig(modulation_order=16, coding_rate=Fraction(1, 2))
    phy.tx_grids(np.zeros(3 * cfg.n_dbps, dtype=np.uint8), cfg)
    tables = phy._qam_tables(16)
    cached = {
        "symbol_gather": phy._symbol_gather(cfg),
        "pilot_rows": phy._PILOT_ROWS,
        "lfsr_sequence": phy.lfsr_sequence(300, cfg.scrambler_seed),
        "encoder_past": phy._PAST,
        "qam_weights": tables.weights,
        "qam_points": tables.points,
        "qam_slot_points": tables.slot_points,
        "qam_slot_labels": tables.slot_labels,
    }
    for name, array in cached.items():
        with pytest.raises(ValueError):
            array[0] = 1
        assert not array.flags.writeable, name
