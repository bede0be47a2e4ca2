"""Independent straight-line references for the coded chain and conv2d.

Everything here is written from the published definitions with table
lookups and explicit index lists, sharing no code or structure with the
package under test.  Slow on purpose; used only as ground truth.  The
exceptions are frozen copies of earlier package code that pin the
current code: ``conv2d_reference``, the original conv2d kernel, bit for
bit; ``climb_reference``, the original certification climb, which
rates each trial swap with ``gf2.rank``; ``viterbi_reference``, the
original one-step-per-iteration Viterbi decoder with its tie-break;
``sender_reference``, the original sender with one GF(2) solve per OFDM
symbol; ``conv_encode_convolve``, ``qam_map_per_axis`` and
``qam_quantize_per_axis``, the encoder, mapper and quantizer as first
written, which work one generator stream or one constellation axis at
a time; ``tx_grids_reference``, ``awgn_reference`` and
``emulated_link_reference``, the one-frame transmit chain, the noise
add with its three temporaries and the link as one call per row; and
``blur3_reference``, the glyph blur as two ``np.apply_along_axis``
passes per image.  ``evaluate_image_link_per_image`` is image
evaluation as first written, one link call per image and the
compensator on one waveform at a time; it calls
``emulated_link_reference``, the package's models and its framing
helpers, which it does not check, and nothing of ``training`` or of the
stacked link, which it does.
``verify_against_pipeline`` is no reference: it cross-checks the GF(2)
symbol model against the package's own live chain.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from ofdmemu.config import BITS_PER_SYMBOL, CONV_G1, CONV_G2, KMOD_SQUARED, PhyConfig
from ofdmemu.errors import FramingError, SelectionError
from ofdmemu.gf2 import Unsolvable, rank
from ofdmemu.inversion import SymbolSystem, restrict_rows
from ofdmemu.link import TargetSymbols, box_edge, waveform_from_values
from ofdmemu.nn import Tensor, complex_to_wave, wave_to_complex
from ofdmemu.phy import (
    _symbol_gather,
    conv_encode,
    demodulate_frame,
    interleave,
    lfsr_sequence,
    modulate_symbols,
    puncture,
    qam_map,
    qam_quantize,
    scramble,
)

# ---------------------------------------------------------------------------
# scrambler: x^7 + x^4 + 1, seed bit i = register cell i


def scramble_reference(bits, seed):
    out = []
    s = int(seed)
    for b in bits:
        fb = ((s >> 6) & 1) ^ ((s >> 3) & 1)
        out.append(int(b) ^ fb)
        s = ((s << 1) & 0x7F) | fb
    return np.array(out, dtype=np.uint8)


# ---------------------------------------------------------------------------
# rate-1/2 convolutional encoder via a (state, bit) -> (a, b, next) table


def _conv_table():
    table = {}
    for state in range(64):
        for bit in (0, 1):
            window = [bit] + [(state >> i) & 1 for i in range(6)]
            a = window[0] ^ window[2] ^ window[3] ^ window[5] ^ window[6]  # 133
            b = window[0] ^ window[1] ^ window[2] ^ window[3] ^ window[6]  # 171
            nxt = ((state << 1) | bit) & 0x3F
            table[(state, bit)] = (a, b, nxt)
    return table


_CONV = _conv_table()


def conv_encode_reference(bits, state=0):
    out = []
    s = int(state)
    for b in bits:
        a, g, s = _CONV[(s, int(b))]
        out.extend((a, g))
    return np.array(out, dtype=np.uint8), s


# ---------------------------------------------------------------------------
# puncturing via keep-masks over one period of the mother-code output


PUNCTURE_KEEP = {
    "1/2": [1, 1],
    "2/3": [1, 1, 1, 0],
    "3/4": [1, 1, 1, 0, 0, 1],
    "5/6": [1, 1, 1, 0, 0, 1, 1, 0, 0, 1],
}


def puncture_reference(coded, rate):
    mask = PUNCTURE_KEEP[rate]
    return np.array(
        [b for i, b in enumerate(coded) if mask[i % len(mask)]], dtype=np.uint8
    )


def depuncture_reference(kept, rate):
    """Re-expand a punctured stream: -1 wherever the mask dropped a bit."""
    mask = PUNCTURE_KEEP[rate]
    assert len(kept) % sum(mask) == 0, "not a whole number of puncture periods"
    it = iter(kept)
    return np.array(
        [next(it) if keep else -1 for _ in range(len(kept) // sum(mask)) for keep in mask],
        dtype=np.int8,
    )


# ---------------------------------------------------------------------------
# two-permutation block interleaver


def interleave_reference(bits, n_cbps, n_bpsc):
    s = max(n_bpsc // 2, 1)
    first = [0] * n_cbps
    for k in range(n_cbps):
        i = (n_cbps // 16) * (k % 16) + k // 16
        first[i] = bits[k]
    out = [0] * n_cbps
    for i in range(n_cbps):
        j = s * (i // s) + (i + n_cbps - (16 * i) // n_cbps) % s
        out[j] = first[i]
    return np.array(out, dtype=np.uint8)


def deinterleave_reference(bits, n_cbps, n_bpsc):
    s = max(n_bpsc // 2, 1)
    first = [0] * n_cbps
    for j in range(n_cbps):
        i = s * (j // s) + (j + (16 * j) // n_cbps) % s
        first[i] = bits[j]
    out = [0] * n_cbps
    for i in range(n_cbps):
        k = 16 * i - (n_cbps - 1) * ((16 * i) // n_cbps)
        out[k] = first[i]
    return np.array(out, dtype=np.uint8)


# ---------------------------------------------------------------------------
# gray mapping tables straight from the published per-axis listings


_AXIS_LEVELS = {
    1: {(0,): -1, (1,): 1},
    2: {(0, 0): -3, (0, 1): -1, (1, 1): 1, (1, 0): 3},
    3: {
        (0, 0, 0): -7,
        (0, 0, 1): -5,
        (0, 1, 1): -3,
        (0, 1, 0): -1,
        (1, 1, 0): 1,
        (1, 1, 1): 3,
        (1, 0, 1): 5,
        (1, 0, 0): 7,
    },
}

_NORM = {2: 1.0, 4: np.sqrt(2.0), 16: np.sqrt(10.0), 64: np.sqrt(42.0)}


def qam_map_reference(bits, m):
    n_bpsc = {2: 1, 4: 2, 16: 4, 64: 6}[m]
    axis_bits = n_bpsc // 2 if m > 2 else 1
    table = _AXIS_LEVELS[axis_bits]
    points = []
    for i in range(0, len(bits), n_bpsc):
        group = [int(b) for b in bits[i : i + n_bpsc]]
        re = table[tuple(group[:axis_bits])]
        if m == 2:
            points.append(complex(re, 0.0))
        else:
            im = table[tuple(group[axis_bits:])]
            points.append(complex(re, im))
    return np.array(points, dtype=np.complex128) / _NORM[m]


# ---------------------------------------------------------------------------
# exhaustive maximum-likelihood decoding of short blocks


def exhaustive_ml_decode(received, n_info, state=0):
    """Best info word by Hamming distance over all 2^n_info candidates.

    Returns (info_bits, distance); ties resolve to the lowest word, so
    compare distances rather than words when checking a decoder.  Scores
    a cached codebook at once; ``exhaustive_ml_decode_loop`` is the same
    search one word at a time.
    """
    words, codebook = _ml_codebook(n_info, int(state))
    dist = np.count_nonzero(codebook != np.asarray(received), axis=1)
    best = int(np.argmin(dist))  # the first minimum is the lowest word
    return words[best].copy(), int(dist[best])


@lru_cache(maxsize=None)
def _ml_codebook(n_info, state):
    """Every n_info-bit word in ascending order, most significant bit
    first, and its code word from ``conv_encode_reference``."""
    shifts = np.arange(n_info - 1, -1, -1)
    words = ((np.arange(1 << n_info)[:, None] >> shifts) & 1).astype(np.uint8)
    codebook = np.stack([conv_encode_reference(w, state)[0] for w in words])
    words.flags.writeable = False
    codebook.flags.writeable = False
    return words, codebook


def exhaustive_ml_decode_loop(received, n_info, state=0):
    """The reference form of :func:`exhaustive_ml_decode`: encode and
    score each candidate word in turn, keeping the first best."""
    best_bits, best_dist = None, None
    for word in range(1 << n_info):
        bits = [(word >> (n_info - 1 - i)) & 1 for i in range(n_info)]
        coded, _ = conv_encode_reference(bits, state)
        dist = int(np.sum(coded != received))
        if best_dist is None or dist < best_dist:
            best_bits, best_dist = bits, dist
    return np.array(best_bits, dtype=np.uint8), best_dist


# ---------------------------------------------------------------------------
# conv2d as first written: pad the input, then one matmul per kernel tap


def conv2d_reference(x, weight, bias, g):
    """SAME, stride-1, channels-last conv2d and its three gradients.

    The pad-and-loop kernel that ``nn.autodiff.conv2d`` started from,
    kept line for line: every tap runs, padding included.  Skipping the
    taps that read only padding drops exact zeros, so the package must
    match this bit for bit.  ``g`` is the gradient arriving at the
    output; returns (out, gx, gw, gb).
    """
    kh, kw, cin, cout = weight.shape
    b, h, w, cx = x.shape
    ph, pw = kh // 2, kw // 2
    xp = np.pad(x, ((0, 0), (ph, kh - 1 - ph), (pw, kw - 1 - pw), (0, 0)))
    out_data = np.zeros((b, h, w, cout))
    for i in range(kh):
        for j in range(kw):
            out_data += xp[:, i : i + h, j : j + w, :] @ weight[i, j]
    out_data += bias

    gxp = np.zeros_like(xp)
    for i in range(kh):
        for j in range(kw):
            gxp[:, i : i + h, j : j + w, :] += g @ weight[i, j].T
    gx = gxp[:, ph : ph + h, pw : pw + w, :]
    gw = np.empty_like(weight)
    for i in range(kh):
        for j in range(kw):
            patch = xp[:, i : i + h, j : j + w, :]
            gw[i, j] = np.tensordot(patch, g, axes=([0, 1, 2], [0, 1, 2]))
    return out_data, gx, gw, g.sum(axis=(0, 1, 2))


def conv2d_direct(x, weight, g):
    """The same three results as plain per-pixel sums, no padding.

    Output pixel (y, c) of a kh x kw kernel reads input (y + i - kh//2,
    c + j - kw//2) through tap (i, j) wherever that lies inside the
    input.  Returns (out, gx, gw) without the bias.
    """
    kh, kw, _, _ = weight.shape
    b, h, w, _ = x.shape
    out = np.zeros((b, h, w, weight.shape[3]))
    gx = np.zeros(x.shape)
    gw = np.zeros(weight.shape)
    for y in range(h):
        for c in range(w):
            for i in range(kh):
                for j in range(kw):
                    yi, ci = y + i - kh // 2, c + j - kw // 2
                    if 0 <= yi < h and 0 <= ci < w:
                        out[:, y, c] += x[:, yi, ci] @ weight[i, j]
                        gx[:, yi, ci] += g[:, y, c] @ weight[i, j].T
                        gw[i, j] += x[:, yi, ci].T @ g[:, y, c]
    return out, gx, gw


# ---------------------------------------------------------------------------
# certification climb as first written: one rank per trial swap


def climb_reference(sys, chosen, target):
    """First-improvement hill climb on selection rank.  Deterministic."""
    swaps = []
    r = rank(restrict_rows(sys, tuple(chosen)))
    while r < target:
        improved = False
        for i in range(len(chosen)):
            for u in sys.cfg.data_subcarriers:
                if u in chosen:
                    continue
                trial = list(chosen)
                trial[i] = u
                r_trial = rank(restrict_rows(sys, tuple(trial)))
                if r_trial > r:
                    swaps.append((chosen[i], u))
                    chosen, r = trial, r_trial
                    improved = True
                    break
            if improved:
                break
        if not improved:
            break
    return chosen, swaps, r


# ---------------------------------------------------------------------------
# GF(2) symbol model against the live encode -> puncture -> interleave chain


def verify_against_pipeline(
    sys: SymbolSystem, probes: int, seed: int = 0
) -> int:
    """Count bit mismatches between the matrix model and the live chain.

    Each probe draws random info bits and a random encoder state, runs
    encode -> puncture -> interleave, and compares with predict().
    Returns the total number of mismatching bits (0 when the model is
    faithful).
    """
    cfg = sys.cfg
    rng = np.random.default_rng(seed)
    mismatches = 0
    for _ in range(probes):
        x = rng.integers(0, 2, sys.beta, dtype=np.uint8)
        state = int(rng.integers(0, 64))
        coded, _ = conv_encode(x, state)
        actual = interleave(puncture(coded, cfg.coding_rate), cfg.n_cbps, cfg.n_bpsc)
        mismatches += int(np.sum(actual != sys.predict(x, state)))
    return mismatches


# ---------------------------------------------------------------------------
# Viterbi decoder as first written: one add-compare-select per step


def _taps(poly):
    """Octal generator polynomial to MSB-first tap vector of length 7."""
    return np.array([(poly >> (6 - j)) & 1 for j in range(7)], dtype=np.uint8)


@lru_cache(maxsize=None)
def _trellis():
    """Predecessor and output-pattern tables for the 64-state trellis.

    For each next state n the two predecessors are n >> 1 (lower) and
    (n >> 1) | 32; the consumed input bit is n & 1.  Output patterns are
    encoded as 2*A + B.
    """
    n = np.arange(64)
    u = n & 1
    prev0 = n >> 1
    prev1 = (n >> 1) | 32
    # Pack taps so bit j of the mask weights the input from j steps back.
    g1m = int(sum(int(t) << j for j, t in enumerate(_taps(CONV_G1))))
    g2m = int(sum(int(t) << j for j, t in enumerate(_taps(CONV_G2))))

    def out_pattern(prev):
        full = (prev << 1) | u
        a = np.bitwise_count(full & g1m) & 1
        b = np.bitwise_count(full & g2m) & 1
        return (2 * a + b).astype(np.int64)

    return prev0, prev1, out_pattern(prev0), out_pattern(prev1)


def viterbi_reference(received):
    """Hard-decision Viterbi decode of the rate-1/2 mother stream.

    ``received`` may carry -1 erasure marks (zero branch cost), as
    ``depuncture_reference`` leaves them.  The encoder is assumed to start in
    state 0; the survivor ends at the best final state, ties broken
    toward the lower-numbered predecessor and final state.
    """
    received = np.asarray(received).astype(np.int8)
    if received.size % 2 != 0:
        raise FramingError("mother stream length must be even")
    steps = received.size // 2
    if steps == 0:
        return np.empty(0, dtype=np.uint8)

    r0 = received[0::2]
    r1 = received[1::2]
    # Branch cost of each of the four output patterns at every step.
    # The bool masks must widen before the add, or it collapses to OR.
    bm = np.empty((steps, 4), dtype=np.float64)
    for pat in range(4):
        a, b = pat >> 1, pat & 1
        bm[:, pat] = ((r0 >= 0) & (r0 != a)).astype(np.float64) + (
            (r1 >= 0) & (r1 != b)
        )

    prev0, prev1, pat0, pat1 = _trellis()
    metric = np.full(64, np.inf)
    metric[0] = 0.0
    backptr = np.empty((steps, 64), dtype=np.uint8)
    for t in range(steps):
        row = bm[t]
        cand0 = metric[prev0] + row[pat0]
        cand1 = metric[prev1] + row[pat1]
        take1 = cand1 < cand0
        metric = np.where(take1, cand1, cand0)
        backptr[t] = take1

    state = int(np.argmin(metric))
    bits = np.empty(steps, dtype=np.uint8)
    for t in range(steps - 1, -1, -1):
        bits[t] = state & 1
        state = int(prev1[state] if backptr[t, state] else prev0[state])
    return bits


# ---------------------------------------------------------------------------
# sender as first written: one GF(2) solve per OFDM symbol


@dataclass
class ReferencePlan:
    """What ``sender_reference`` decided for one target row."""

    scale: float
    target_count: int
    ofdm_symbols: int
    quantized: np.ndarray  # (ofdm_symbols, n_chosen) constellation-domain points
    bitstream: np.ndarray  # info bits driving the transmit chain
    incoming_states: np.ndarray  # encoder state at each symbol boundary
    clip_count: int

    @property
    def clip_rate(self):
        return self.clip_count / (2 * self.target_count)


def sender_reference(targets, setup):
    """Choose constellation points for the targets and solve for info bits.

    Targets pack row-major onto the chosen subcarriers (sorted by
    logical index) of consecutive OFDM symbols; a partial last symbol is
    padded with zero-valued targets.  The per-symbol solves run in
    sequence because each solved block fixes the encoder state entering
    the next symbol.
    """
    cfg = setup.cfg
    k = targets.count
    nch = setup.n_chosen
    n_sym = (k + nch - 1) // nch

    padded = np.zeros(n_sym * nch, dtype=np.complex128)
    padded[:k] = targets.symbols * targets.scale
    clip = float(box_edge(cfg))
    over = np.sum(np.abs(padded[:k].real) > clip) + np.sum(np.abs(padded[:k].imag) > clip)

    points, labels = qam_quantize(padded, cfg.modulation_order)
    labels = labels.reshape(n_sym, -1)
    x_blocks = np.empty((n_sym, setup.system.beta), dtype=np.uint8)
    states = np.empty(n_sym, dtype=np.int64)
    state = 0
    for s in range(n_sym):
        x = setup.solver.solve((labels[s] ^ setup.offsets[state]) & 1)
        if isinstance(x, Unsolvable):
            raise SelectionError(
                f"restricted system unexpectedly unsolvable at row {x.row}; "
                "selection was not certified"
            )
        x_blocks[s] = x
        states[s] = state
        state = SymbolSystem.outgoing_state(x)

    bitstream = scramble(x_blocks.reshape(-1), cfg.scrambler_seed)
    return ReferencePlan(
        scale=float(targets.scale),
        target_count=k,
        ofdm_symbols=n_sym,
        quantized=points.reshape(n_sym, nch),
        bitstream=bitstream,
        incoming_states=states,
        clip_count=int(over),
    )


# ---------------------------------------------------------------------------
# encoder, mapper and quantizer as first written: one stream or axis at a time


def conv_encode_convolve(bits, state=0, g1=CONV_G1, g2=CONV_G2):
    """Rate-1/2 mother encoder as two 1-D convolutions mod 2.

    ``bits`` must be a 0/1 uint8 vector.  Returns (coded, new_state) as
    ``phy.conv_encode`` does.
    """
    past = np.array([(state >> i) & 1 for i in range(5, -1, -1)], dtype=np.uint8)
    xx = np.concatenate([past, bits])
    a = np.convolve(xx, _taps(g1))[6 : 6 + bits.size] % 2
    b = np.convolve(xx, _taps(g2))[6 : 6 + bits.size] % 2
    coded = np.empty(2 * bits.size, dtype=np.uint8)
    coded[0::2] = a
    coded[1::2] = b
    tail = xx[-6:]
    new_state = 0
    for i in range(6):
        new_state |= int(tail[5 - i]) << i
    return coded, new_state


# Per-axis Gray tables indexed by the MSB-first axis bit group.
_AXIS_GRAY_LEVELS = {
    1: np.array([-1, 1], dtype=np.float64),
    2: np.array([-3, -1, 3, 1], dtype=np.float64),
    3: np.array([-7, -5, -1, -3, 7, 5, 1, 3], dtype=np.float64),
}


def _axis_tables(m):
    """(gray index -> level, level slot -> gray index, bits per axis)."""
    half = (BITS_PER_SYMBOL[m] + 1) // 2
    levels = _AXIS_GRAY_LEVELS[half]
    nlev = levels.size
    inverse = np.empty(nlev, dtype=np.int64)
    for g, lv in enumerate(levels):
        inverse[int((lv + nlev - 1) // 2)] = g
    return levels, inverse, half


def _bits_to_axis_index(bits, width):
    idx = np.zeros(bits.shape[0], dtype=np.int64)
    for i in range(width):
        idx = (idx << 1) | bits[:, i]
    return idx


def _axis_index_to_bits(idx, width):
    out = np.empty((idx.size, width), dtype=np.uint8)
    for i in range(width):
        out[:, i] = (idx >> (width - 1 - i)) & 1
    return out


def qam_map_per_axis(bits, m):
    """Gray-map a 0/1 uint8 vector's bit groups, one axis at a time."""
    nb = BITS_PER_SYMBOL[m]
    groups = bits.reshape(-1, nb)
    levels, _, half = _axis_tables(m)
    scale = 1.0 / np.sqrt(KMOD_SQUARED[m])
    i_level = levels[_bits_to_axis_index(groups[:, :half], half)]
    if m == 2:
        q_level = np.zeros_like(i_level)
    else:
        q_level = levels[_bits_to_axis_index(groups[:, half:], half)]
    return (i_level + 1j * q_level) * scale


def _quantize_axis(values, nlev):
    """Nearest odd level slot with midpoints rounded toward zero."""
    raw = (values + (nlev - 1)) / 2.0
    idx = np.floor(raw + 0.5)
    frac = raw - np.floor(raw)
    midpoint = frac == 0.5
    idx = np.where(midpoint & (values > 0), idx - 1, idx)
    return np.clip(idx, 0, nlev - 1).astype(np.int64)


def qam_quantize_per_axis(points, m):
    """Snap finite complex values to the constellation, one axis at a time.

    Returns (quantized points, Gray bit labels) as ``phy.qam_quantize``
    does.
    """
    points = np.asarray(points, dtype=np.complex128).ravel()
    levels, inverse, half = _axis_tables(m)
    nlev = levels.size
    scale = 1.0 / np.sqrt(KMOD_SQUARED[m])
    i_slot = _quantize_axis(points.real / scale, nlev)
    i_level = (2 * i_slot - (nlev - 1)).astype(np.float64)
    i_bits = _axis_index_to_bits(inverse[i_slot], half)
    if m == 2:
        q_level = np.zeros_like(i_level)
        labels = i_bits
    else:
        q_slot = _quantize_axis(points.imag / scale, nlev)
        q_level = (2 * q_slot - (nlev - 1)).astype(np.float64)
        labels = np.concatenate([i_bits, _axis_index_to_bits(inverse[q_slot], half)], axis=1)
    quantized = (i_level + 1j * q_level) * scale
    return quantized, labels.reshape(-1)


# ---------------------------------------------------------------------------
# the link as one call per row: one-frame transmit, noise add and soft read
# as first written


# pilot values by polarity bit, as int64 times complex so that -1 * -1
# keeps its -0.0 imaginary parts
_PILOT_ROWS = np.outer(
    np.array([1, -1], dtype=np.int64), np.asarray(PhyConfig.pilot_base, np.complex128)
)


def tx_grids_reference(bits, cfg):
    """One frame's (count, fft_size) grids: scramble, encode from state
    0, the per-symbol coded-bit map, QAM map, pilots."""
    n_sym = bits.size // cfg.n_dbps
    coded, _ = conv_encode(scramble(bits, cfg.scrambler_seed))
    interleaved = coded.reshape(n_sym, -1)[:, _symbol_gather(cfg)]
    grids = np.zeros((n_sym, cfg.fft_size), dtype=np.complex128)
    grids[:, cfg.data_bin_array] = qam_map(interleaved, cfg.modulation_order).reshape(n_sym, -1)
    grids[:, cfg.pilot_bin_array] = _PILOT_ROWS[lfsr_sequence(n_sym, 0x7F)]
    return grids


def awgn_reference(samples, snr_db, seed):
    """One frame plus complex AWGN at its measured power, the (n, 2)
    draw added as x + noise[:, 0] + 1j * noise[:, 1]."""
    x = np.asarray(samples, dtype=np.complex128)
    if snr_db == math.inf:
        return x.copy()
    with np.errstate(over="ignore"):
        power = float(np.mean(np.abs(x) ** 2))
    var = power * 10.0 ** (-snr_db / 10.0)
    noise = np.random.default_rng(seed).normal(0.0, math.sqrt(var / 2.0), size=(x.size, 2))
    return x + noise[:, 0] + 1j * noise[:, 1]


def _chosen_reference(samples, setup):
    """Chosen-bin values of a frame, row-major over OFDM symbols."""
    grids = demodulate_frame(np.asarray(samples).ravel(), setup.cfg)
    return grids[:, setup.chosen_bins].reshape(-1)


def _box_reference(values, cfg, scale):
    lim = box_edge(cfg) / scale
    return np.minimum(np.maximum(values.real, -lim), lim) + 1j * np.minimum(
        np.maximum(values.imag, -lim), lim
    )


def emulated_link_reference(targets, snr_db, seed, setup):
    """One row through the soft link, each step on its own frame:
    ``sender_reference``, ``tx_grids_reference`` then the unitary IFFT,
    ``awgn_reference``, and the chosen bins read in user units and
    clamped to the box.  Returns (estimates, plan, tx frame, rx frame)."""
    plan = sender_reference(targets, setup)
    tx = modulate_symbols(tx_grids_reference(plan.bitstream, setup.cfg), setup.cfg)
    rx = awgn_reference(tx, snr_db, seed)
    values = _chosen_reference(rx, setup) / plan.scale
    return _box_reference(values, setup.cfg, plan.scale)[: plan.target_count], plan, tx, rx


# ---------------------------------------------------------------------------
# glyph blur as first written: two apply_along_axis passes per image


def blur3_reference(img):
    kern = np.array([0.25, 0.5, 0.25])
    out = np.apply_along_axis(lambda r: np.convolve(r, kern, mode="same"), 1, img)
    return np.apply_along_axis(lambda c: np.convolve(c, kern, mode="same"), 0, out)


# ---------------------------------------------------------------------------
# image evaluation as first written: one link call per image, and the
# compensator on one waveform at a time


def evaluate_image_link_per_image(jscc, setup, snr_db, seed, images, compensator=None):
    """``training.evaluate_image_link`` with one reference link call per
    image, and the compensator run on each received waveform as a batch
    of one, right after its link call."""
    flat = images.reshape(len(images), -1)
    # (..., 2K) latent reals -> (..., K) symbols, (real, imaginary) pairwise
    symbols = np.ascontiguousarray(jscc.encode(Tensor(flat)).data).view(np.complex128)
    seq = np.random.SeedSequence(seed)
    est = np.empty_like(symbols)
    clip_total = 0.0
    for i, child in enumerate(seq.spawn(len(flat))):
        targets = TargetSymbols.unit_power(symbols[i], setup.cfg)
        est[i], plan, _, rx = emulated_link_reference(
            targets, snr_db, np.random.default_rng(child), setup
        )
        if compensator is not None:
            received = waveform_from_values(_chosen_reference(rx, setup) / plan.scale, setup)
            wave = complex_to_wave(received)
            corrected = wave_to_complex(compensator(Tensor(wave[None])).data[0])
            values = _chosen_reference(corrected, setup)
            est[i] = _box_reference(values, setup.cfg, plan.scale)[: plan.target_count]
        clip_total += plan.clip_rate
    recon = jscc.decode(Tensor(est.view(np.float64))).data
    return {
        "image_mse": float(np.mean((recon - flat) ** 2)),
        "symbol_mse": float(np.mean(np.abs(est - symbols) ** 2)),
        "clip_rate": clip_total / len(flat),
        "per_image_sq_err": np.mean((recon - flat) ** 2, axis=1),
        "symbol_power": float(np.mean(np.abs(symbols) ** 2)),
    }
