"""Bit-exact 802.11a-style OFDM baseband transmit and receive chains.

Transmit order: scramble, rate-1/2 convolutional encode, puncture,
block-interleave, QAM map, pilot insertion, unitary IFFT plus cyclic
prefix.  Receive order mirrors it: FFT, hard QAM demap (the channel is
unit-gain, so there is nothing to equalize), one scatter that undoes the
interleaver and marks punctured bits erased, hard-decision Viterbi
decode, descramble.  Both chains use the per-symbol map of
:func:`_symbol_gather`, as the GF(2) model in ``inversion`` does.

Both DFTs carry the unitary 1/sqrt(fft_size) scale so Parseval holds
exactly between grid and time domains.  Bits travel as uint8 arrays of
0/1; erasure-marked streams use int8 with -1 for erased positions.  Every
bit input accepts bool, integer and float arrays and raises
:class:`FramingError` on a value other than 0 or 1, checked with one
reduction; nothing is cast into range.

The fixed cost of a short frame is kept low with cached, read-only
tables: the scrambler and the pilot polarity read one LFSR stream per
seed; the encoder XORs shifted slices of [register | bits], the slices
both generators tap once for both, its register bits read from a 64-row
table; the mapper looks each label word up in the order's point table;
and the quantizer finds both axes' level slots in one pass and reads the
point and the Gray label of the joint slot from one table.

The Viterbi decoder advances the 64-state trellis three steps at a time
(radix-8 add-compare-select over cached 3-step cost blocks, after
Fettweis and Meyr, 1989) in int16 metrics, and recovers each block's
survivor once per chunk of blocks.  A long stream is cut into
overlapping rows that run side by side in one batched pass, each row
but the first warmed up from zero metrics; a row's decisions are kept
only from where its metrics are shown to be the true ones, so the cut
changes no output bit (survivors merge within a few constraint lengths,
Forney, 1973, which is what makes a short warm-up enough most of the
time).  Its output is that of the one-step
decoder bit for bit, including the tie-break: at every step the lower
predecessor wins a tie, and the lowest final state wins at the end.
What it keeps per decode is one byte per state per 3-step block, about
21 bytes per trellis step.  A stream that admits one input of cost 0
at every block, along its path of cost 0, skips all that: the decoder
walks that path, one table read per block, and keeps one byte per
block.  An error-free frame is such a stream at every rate, as each
step keeps at least one of its two coded bits and both flip with the
step's input.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .config import (
    BITS_PER_SYMBOL,
    CONV_G1,
    CONV_G2,
    KMOD_SQUARED,
    PUNCTURE_PATTERNS,
    PhyConfig,
)
from .errors import ConfigError, FramingError

__all__ = [
    "BasebandFrame",
    "lfsr_sequence",
    "scramble",
    "conv_encode",
    "puncture",
    "interleave",
    "qam_map",
    "qam_quantize",
    "modulate_symbols",
    "demodulate_frame",
    "viterbi_decode",
    "tx_chain",
    "tx_grids",
    "rx_chain",
]


@dataclass
class BasebandFrame:
    """What :func:`tx_chain` returns: complex baseband samples covering
    whole OFDM symbols, and how many symbols they cover.  Every later
    stage takes the plain sample array."""

    samples: np.ndarray
    ofdm_symbol_count: int


# ---------------------------------------------------------------------------
# T1 / R6: scrambler
# ---------------------------------------------------------------------------

def _read_only(a: np.ndarray) -> np.ndarray:
    """Freeze a cached array, so no caller can move what later calls read."""
    a.flags.writeable = False
    return a


@lru_cache(maxsize=None)
def _lfsr_stream(seed: int, periods: int) -> np.ndarray:
    """``periods`` 127-bit periods of the register output from ``seed``."""
    state = seed
    period = np.empty(127, dtype=np.uint8)
    for n in range(127):
        fb = ((state >> 6) ^ (state >> 3)) & 1
        period[n] = fb
        state = ((state << 1) | fb) & 0x7F
    return _read_only(np.tile(period, periods))


def lfsr_sequence(length: int, seed: int) -> np.ndarray:
    """Output stream of the x^7 + x^4 + 1 shift register.

    ``seed`` bit i is register cell i; the feedback (cell 6 XOR cell 3)
    is both the output bit and the new cell 0 after the shift.  The
    stream repeats every 127 bits.  It is read from a cached stream of a
    power-of-two count of periods, so the result is a read-only view.
    Seed 0x7F gives the pilot polarity sequence.
    """
    if not 1 <= seed <= 127:
        raise ConfigError(f"scrambler seed must be a nonzero 7-bit value, got {seed}")
    if length < 0:
        raise ConfigError(f"stream length must be non-negative, got {length}")
    return _lfsr_stream(seed, 1 << (max(length - 1, 0) // 127).bit_length())[:length]


def scramble(bits: np.ndarray, seed: int) -> np.ndarray:
    """XOR a 0/1 bit vector with the scrambler stream.  Self-inverse.
    Each row of a (frames, bits) stack restarts the stream.  A value
    other than 0 or 1 raises :class:`FramingError`."""
    arr = np.asarray(bits)
    flat = _as_bits(arr)
    if arr.ndim != 2:
        return flat ^ lfsr_sequence(flat.size, seed)
    if flat.size == 0:
        raise FramingError(f"a frame stack of shape {arr.shape} holds no bits")
    return flat.reshape(arr.shape) ^ lfsr_sequence(arr.shape[1], seed)


# ---------------------------------------------------------------------------
# T2 / R5: convolutional code
# ---------------------------------------------------------------------------

def _taps(poly: int) -> np.ndarray:
    """Octal generator polynomial to MSB-first tap vector of length 7."""
    return np.array([(poly >> (6 - j)) & 1 for j in range(7)], dtype=np.uint8)


# row s: the six register bits of encoder state s, oldest input first
_PAST = _read_only(((np.arange(64)[:, None] >> np.arange(5, -1, -1)) & 1).astype(np.uint8))


@lru_cache(maxsize=None)
def _tap_offsets(g1: int, g2: int) -> tuple[tuple[int, ...], tuple[tuple[int, ...], ...]]:
    """Where the inputs the generators tap for output 0 sit in [register
    | bits]: tap j (MSB first) weights the input j steps back, at 6 - j.
    Returns the offsets both generators tap, then each one's own."""
    first, second = ({6 - int(j) for j in np.flatnonzero(_taps(g))} for g in (g1, g2))
    own = (tuple(sorted(first - second)), tuple(sorted(second - first)))
    return tuple(sorted(first & second)), own


def conv_encode(
    bits: np.ndarray, state: int = 0, g1: int = CONV_G1, g2: int = CONV_G2
) -> tuple[np.ndarray, int]:
    """Rate-1/2 mother encoder, constraint length 7.

    ``state`` is the 6-bit register content carried across calls: bit i
    holds the input from i+1 steps back.  Each generator stream is the
    XOR of the shifted slices of [register | bits] that its taps select.
    Output interleaves the two streams as A0 B0 A1 B1 ...  Returns
    (coded, new_state).  A bit other than 0 or 1 raises
    :class:`FramingError`.
    """
    bits = _as_bits(bits)
    if not 0 <= state <= 63:
        raise ConfigError(f"encoder state must lie in [0, 63], got {state}")
    xx = np.concatenate([_PAST[state], bits])
    return _encode(xx, g1, g2), int(np.packbits(xx[-6:])[0]) >> 2


def _encode(xx: np.ndarray, g1: int = CONV_G1, g2: int = CONV_G2) -> np.ndarray:
    """Mother-code output of [register | bits] along the last axis, as
    A0 B0 A1 B1 ...: one row per frame of a (frames, 6 + bits) stack."""
    n = xx.shape[-1] - 6
    shared, own = _tap_offsets(g1, g2)
    # the taps both generators share are XORed once, for both streams
    common = np.zeros(xx.shape[:-1] + (n,), dtype=np.uint8)
    for k in shared:
        common ^= xx[..., k : k + n]
    coded = np.empty(xx.shape[:-1] + (n, 2), dtype=np.uint8)
    for column, offsets in enumerate(own):
        stream = coded[..., column]
        stream[...] = common
        for k in offsets:
            stream ^= xx[..., k : k + n]
    return coded.reshape(xx.shape[:-1] + (2 * n,))


# ---------------------------------------------------------------------------
# puncturing
# ---------------------------------------------------------------------------

def _pattern(rate: Fraction | str) -> np.ndarray:
    rate = Fraction(rate)
    if rate not in PUNCTURE_PATTERNS:
        raise ConfigError(f"unsupported coding rate {rate}")
    return np.asarray(PUNCTURE_PATTERNS[rate], dtype=bool)


def puncture(coded: np.ndarray, rate: Fraction | str) -> np.ndarray:
    """Drop mother-code bits according to the standard pattern for ``rate``."""
    coded = _as_bits(coded)
    pat = _pattern(rate)
    return coded[np.tile(pat, -(-coded.size // pat.size))[: coded.size]]


# ---------------------------------------------------------------------------
# T3 / R4: block interleaver
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _interleave_perm(n_cbps: int, n_bpsc: int) -> np.ndarray:
    """Final position of input bit k after the two block permutations."""
    s = max(n_bpsc // 2, 1)
    k = np.arange(n_cbps)
    i = (n_cbps // 16) * (k % 16) + k // 16
    j = s * (i // s) + (i + n_cbps - (16 * i) // n_cbps) % s
    return j


def interleave(bits: np.ndarray, n_cbps: int, n_bpsc: int) -> np.ndarray:
    """Interleave each ``n_cbps``-bit block of a whole number of blocks."""
    bits = _as_bits(bits)
    if bits.size % n_cbps != 0:
        raise FramingError(f"interleaver blocks hold {n_cbps} bits, got {bits.size} bits")
    out = np.empty((bits.size // n_cbps, n_cbps), dtype=np.uint8)
    out[:, _interleave_perm(n_cbps, n_bpsc)] = bits.reshape(-1, n_cbps)
    return out.reshape(-1)


@lru_cache(maxsize=None)
def _symbol_gather(cfg: PhyConfig) -> np.ndarray:
    """Puncturing then interleaving of one OFDM symbol as one index map.

    Entry j is the position, among the symbol's 2 * n_dbps mother bits,
    of interleaved coded bit j.  In the 802.11a layout, at every
    modulation and rate, a symbol's mother bits span whole puncture
    periods, so the map serves each symbol, and its coded bits fill
    whole interleaver rows, so no two entries are equal.
    """
    pat = _pattern(cfg.coding_rate)
    keep = np.flatnonzero(np.tile(pat, 2 * cfg.n_dbps // pat.size))
    gather = np.empty(cfg.n_cbps, dtype=np.intp)
    gather[_interleave_perm(cfg.n_cbps, cfg.n_bpsc)] = keep
    return _read_only(gather)


# ---------------------------------------------------------------------------
# T4 / R3: QAM constellation
# ---------------------------------------------------------------------------

# Per-axis Gray tables indexed by the MSB-first axis bit group.
_AXIS_LEVELS = {
    1: np.array([-1, 1], dtype=np.float64),
    2: np.array([-3, -1, 3, 1], dtype=np.float64),
    3: np.array([-7, -5, -1, -3, 7, 5, 1, 3], dtype=np.float64),
}


@dataclass(frozen=True)
class _QamTables:
    """Read-only lookup tables of one modulation order.

    ``points[w]`` is the point of label word w, the bit group read
    MSB first; ``weights`` turns a (count, bits) group stack into words.
    ``slot_points[j]`` and ``slot_labels[j]`` are the point and the
    label bits of joint level slot j = i_slot * nlev + q_slot.
    """

    nlev: int
    scale: np.float64
    weights: np.ndarray
    points: np.ndarray
    slot_points: np.ndarray
    slot_labels: np.ndarray


@lru_cache(maxsize=None)
def _qam_tables(m: int) -> _QamTables:
    """The tables of order ``m``.  The points are computed per axis with
    the first-written formula and every slot reads its point from them,
    so every lookup is bit for bit what the per-axis arithmetic gave."""
    nb = BITS_PER_SYMBOL[m]
    half = (nb + 1) // 2
    levels = _AXIS_LEVELS[half]
    nlev = levels.size
    scale = 1.0 / np.sqrt(KMOD_SQUARED[m])
    weights = (1 << np.arange(nb - 1, -1, -1)).astype(np.uint8)
    # label words split into their I and Q axis groups; BPSK's Q group is
    # empty, so its mask is 0 and the I group needs no shift
    q_bits = nb - half
    q_mask = (1 << q_bits) - 1
    words = np.arange(m)
    i_level = levels[words >> q_bits]
    q_level = np.zeros(m) if m == 2 else levels[words & q_mask]
    points = (i_level + 1j * q_level) * scale
    # slot s holds level 2s - (nlev - 1); gray[s] is its axis group
    gray = np.empty(nlev, dtype=np.int64)
    gray[((levels + nlev - 1) // 2).astype(np.int64)] = np.arange(nlev)
    i_slot, q_slot = np.divmod(np.arange(nlev * nlev), nlev)
    slot_words = (gray[i_slot] << q_bits) | (gray[q_slot] & q_mask)
    return _QamTables(
        nlev=nlev,
        scale=scale,
        weights=_read_only(weights),
        points=_read_only(points),
        slot_points=_read_only(points[slot_words]),
        slot_labels=_read_only(((slot_words[:, None] & weights) != 0).astype(np.uint8)),
    )


def _check_order(m: int) -> None:
    if m not in BITS_PER_SYMBOL:
        raise ConfigError(f"unsupported modulation order {m}")


def qam_map(bits: np.ndarray, m: int) -> np.ndarray:
    """Gray-map bit groups to unit-average-power constellation points.

    The first half of each ``log2(m)``-bit group selects the I level,
    the second half the Q level (BPSK uses the real axis only).  Each
    group is read as a label word and looked up in a cached table of
    the order's points.  An unsupported order raises
    :class:`ConfigError`; a bit other than 0 or 1, or a count that is
    not a whole number of groups, raises :class:`FramingError`.
    """
    _check_order(m)
    nb = BITS_PER_SYMBOL[m]
    bits = _as_bits(bits)
    if bits.size % nb != 0:
        raise FramingError(f"bit count {bits.size} is not a multiple of {nb}")
    return _map_groups(bits.reshape(-1, nb), m)


def _map_groups(groups: np.ndarray, m: int) -> np.ndarray:
    """The points of a (count, log2(m)) stack of checked 0/1 bit groups."""
    tables = _qam_tables(m)
    return tables.points[groups @ tables.weights]


def _quantize_axis(values: np.ndarray, nlev: int) -> np.ndarray:
    """Nearest odd level slot with midpoints rounded toward zero."""
    raw = (values + (nlev - 1)) / 2.0
    idx = np.floor(raw + 0.5)
    frac = raw - np.floor(raw)
    idx -= (frac == 0.5) & (values > 0)
    return np.minimum(np.maximum(idx, 0), nlev - 1).astype(np.int64)


def qam_quantize(points: np.ndarray, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Snap arbitrary complex values to the nearest constellation point.

    Quantization runs independently per axis, both axes in one pass over
    the values' (count, 2) float view; values beyond the outer level
    clip to it, and exact midpoints round toward the level nearer zero.
    The joint level slot then reads the point and its label from cached
    tables.  Returns (quantized points, Gray bit labels).  An
    unsupported order raises :class:`ConfigError`, a NaN or infinite
    value :class:`FramingError`.
    """
    _check_order(m)
    xy = np.ascontiguousarray(points, dtype=np.complex128).reshape(-1).view(np.float64)
    if not np.isfinite(xy).all():
        raise FramingError("values to quantize must be finite")
    tables = _qam_tables(m)
    slots = _quantize_axis(xy.reshape(-1, 2) / tables.scale, tables.nlev)
    joint = slots[:, 0] * tables.nlev + slots[:, 1]
    # np.take gathers the (joint, bits) label rows about 4x faster than
    # fancy indexing
    return tables.slot_points[joint], tables.slot_labels.take(joint, axis=0).reshape(-1)


# ---------------------------------------------------------------------------
# T6 / R1: OFDM modulation
# ---------------------------------------------------------------------------

def modulate_symbols(grids: np.ndarray, cfg: PhyConfig) -> np.ndarray:
    """Unitary IFFT plus cyclic prefix of each grid in a (count, fft_size)
    stack, as one flat sample vector."""
    grids = np.asarray(grids, dtype=np.complex128)
    if grids.shape[-1:] != (cfg.fft_size,):
        raise FramingError(f"grid must hold {cfg.fft_size} bins")
    body = np.fft.ifft(grids, axis=-1)
    body *= math.sqrt(cfg.fft_size)
    return np.concatenate([body[..., cfg.fft_size - cfg.cp_len :], body], axis=-1).reshape(-1)


def demodulate_frame(samples: np.ndarray, cfg: PhyConfig) -> np.ndarray:
    """Split a flat frame into OFDM symbols, discard each cyclic prefix
    and apply the unitary FFT: one grid per symbol."""
    samples = np.asarray(samples, dtype=np.complex128)
    spo = cfg.samples_per_ofdm
    if samples.size % spo != 0:
        raise FramingError(f"frame length {samples.size} is not a multiple of {spo}")
    grids = np.fft.fft(samples.reshape(-1, spo)[:, cfg.cp_len :], axis=-1)
    grids /= math.sqrt(cfg.fft_size)
    return grids


# ---------------------------------------------------------------------------
# R5: Viterbi decoder
# ---------------------------------------------------------------------------

# Metrics are int16.  A chunk starts with every reachable metric at most
# 12 above its minimum, which is subtracted (six steps reach any state
# from any other, at most 2 per step), and a block adds at most 6, so
# reachable metrics stay below 12 + 6 * _CHUNK = 780 < _UNREACHED, the
# start value of states that state 0 cannot reach yet.  Keyed metrics,
# 8 * metric + 8 * 6 + 7 <= 8 * (2048 + 768) + 55, stay below 2**15.
_CHUNK = 128
_UNREACHED = 2048

# The cut decoder (:func:`_cut_rows`): a stream of at least _CUT_MIN
# blocks runs as rows of at least _ROW kept blocks, at most _ROWS of them,
# each but the first after _WARM_UP blocks from zero metrics, side by side
# _LOCKSTEP blocks at a time; its metrics are kept for the first _MEET
# blocks of each row's kept run.  Keyed metrics stay below 8 * (2048 + 6)
# + 7 in a row's first chunk and below 8 * (12 + 6 * _LOCKSTEP + 6) + 7
# after it, under 2**15.
_CUT_MIN = 400
_WARM_UP = 64
_ROW = 64
_ROWS = 256
_LOCKSTEP = 32
_MEET = 64


def _output_pattern(window: np.ndarray) -> np.ndarray:
    """Encoder output 2*A + B for 7-bit windows; bit j of a window is the
    input from j steps back, bit 0 the current input."""
    # Pack taps so bit j of the mask weights the input from j steps back.
    g1m = int(sum(int(t) << j for j, t in enumerate(_taps(CONV_G1))))
    g2m = int(sum(int(t) << j for j, t in enumerate(_taps(CONV_G2))))
    return 2 * (np.bitwise_count(window & g1m) & 1) + (np.bitwise_count(window & g2m) & 1)


def _pair_costs() -> np.ndarray:
    """(9, 4) branch cost of output pattern 2*A + B for each received pair
    code 3*(r0 + 1) + (r1 + 1); an erased bit (-1) costs nothing."""
    r0 = (np.arange(9) // 3 - 1)[:, None]
    r1 = (np.arange(9) % 3 - 1)[:, None]
    pat = np.arange(4)
    return ((r0 >= 0) & (r0 != pat >> 1)).astype(np.int16) + ((r1 >= 0) & (r1 != pat & 1))


@lru_cache(maxsize=None)
def _trellis() -> tuple[list[np.ndarray], np.ndarray, list[bytes]]:
    """Radix-8 tables of the 64-state trellis, three steps per block.

    State bit i holds the input from i+1 steps back.  A block from start
    state (j << 3) | m with inputs U (first input in bit 2) ends in state
    (m << 3) | U, so end state (m, U) has the eight predecessors (j, m).
    Block code 81*p1 + 9*p2 + p3 packs the block's three pair codes.

    Returns ``costs``, where costs[code][j, m, U] is the int16 path cost
    of the block; ``keyed``, read-only, where keyed[U, j, code, m] is the
    same cost times 8 plus k, the rank of j in the tie-break order (k = j
    with its three bits reversed); and ``pred``, where pred[s][k] is the
    start state (j << 3) | (s >> 3) of end state s's predecessor of rank k.
    """
    s = np.arange(64)[:, None]
    x = (s << 3) | np.arange(8)
    pc = _pair_costs()
    step_costs = [pc[:, _output_pattern(w)] for w in (x >> 2, (x >> 1) & 127, x & 127)]
    costs = (
        step_costs[0][:, None, None] + step_costs[1][None, :, None] + step_costs[2][None, None, :]
    ).reshape(729, 8, 8, 8)
    rank = np.array([0, 4, 2, 6, 1, 5, 3, 7], dtype=np.int16)
    keyed = np.ascontiguousarray(((costs << 3) | rank[:, None, None]).transpose(3, 1, 0, 2))
    pred = ((rank << 3) | (np.arange(64)[:, None] >> 3)).astype(np.uint8)
    return list(costs), _read_only(keyed), [bytes(row) for row in pred]


_NO_WALK = 255


@lru_cache(maxsize=None)
def _zero_steps() -> list[bytes]:
    """The zero-cost walk's table, read as steps[s][code] for start state
    s = (j << 3) | m and block code ``code``.

    The entry is the end state (m << 3) | U of the one 3-step input U
    whose block costs 0, or ``_NO_WALK`` when no U or several Us cost 0;
    it is read off ``_trellis()``'s costs.
    """
    zero = np.stack(_trellis()[0]).reshape(729, 64, 8).transpose(1, 0, 2) == 0
    ends = ((np.arange(64)[:, None] & 7) << 3) | zero.argmax(axis=2)
    steps = np.where(zero.sum(axis=2) == 1, ends, _NO_WALK).astype(np.uint8)
    return [bytes(row) for row in steps]


@lru_cache(maxsize=None)
def _head_metrics(pairs: tuple[int, ...]) -> np.ndarray:
    """Metrics after the first len(pairs) < 3 steps from state 0.

    No two paths from state 0 meet before six steps, so state v < 2**r
    is reached by its own inputs alone; every other state is unreached.
    """
    r = len(pairs)
    v = np.arange(1 << r)
    pc = _pair_costs()
    out = np.full(64, _UNREACHED, dtype=np.int16)
    out[: 1 << r] = sum(pc[p, _output_pattern(v >> (r - 1 - t))] for t, p in enumerate(pairs))
    return _read_only(out)


def viterbi_decode(received: np.ndarray) -> np.ndarray:
    """Hard-decision Viterbi decode of the rate-1/2 mother stream.

    ``received`` holds 0, 1 and -1 erasure marks (zero branch cost), the
    marks :func:`rx_chain` puts on punctured positions.  A value outside
    {-1, 0, 1}, a dtype that is not bool, integer or float, or an odd length raises
    :class:`FramingError`; nothing is cast into range.  The encoder is assumed to start in
    state 0; the survivor ends at the best final state, ties broken
    toward the lower-numbered predecessor and final state.

    A frame received without error is decoded by walking its path of
    metric 0 (:func:`_zero_cost_path`): from the one head state of metric
    0, each block admits one input of cost 0.  A stream whose head or
    some block admits none or several falls through to the radix-8
    decoder (:func:`_survivor_path`).  The walk is exact.  A path from
    another head state costs at least 1.  A path that leaves a completed
    walk later does so at some block, from a state they share, where the
    walk's input was the only one of cost 0, so it costs at least 1 too.
    Metrics are non-negative integers, so the walked path is the only
    minimum: the full decode returns it, and no tie-break comes into
    play.  A clean frame keeps no traceback.

    A long noisy stream is cut into rows that run side by side, each
    row after the first from zero metrics a warm-up before its first
    kept block (:func:`_cut_rows`).  The cut is exact too.  A block's
    decisions and end metrics depend only on its code and its start
    metrics up to a common offset: the keyed minimum over the
    predecessors, 8 * (metric + cost) + rank, does not change when every
    metric is shifted by the same amount.  So a row whose metrics, less
    their minimum, equal the true ones at some block makes the true
    decisions from there on.  The true metrics at a row's first kept
    block are its predecessor's end metrics, once the predecessor is
    settled.  A row that matches them there is accepted.  One that does
    not is rerun from them, up to the first block where the rerun's
    metrics meet the row's own, after which the row's decisions and end
    metrics stand; a rerun that never meets them runs to the row's end
    and keeps its own.  Each round of reruns settles at least the first
    unsettled row, so the rounds end.
    """
    raw = np.asarray(received)
    if raw.dtype.kind not in "biuf" or not ((raw == 0) | (raw == 1) | (raw == -1)).all():
        raise FramingError("mother stream values must be 0, 1 or -1 (erased)")
    if raw.size % 2 != 0:
        raise FramingError("mother stream length must be even")
    steps = raw.size // 2
    if steps == 0:
        return np.empty(0, dtype=np.uint8)

    rx = raw.ravel().astype(np.int8)
    pairs = 3 * rx[0::2] + rx[1::2] + 4
    head = steps % 3
    b3 = pairs[head:].reshape(-1, 3).astype(np.int16)
    codes = 81 * b3[:, 0] + 9 * b3[:, 1] + b3[:, 2]
    del rx, b3

    first = _head_metrics(tuple(pairs[:head].tolist()))
    path = _zero_cost_path(first, codes)
    if path is None:
        path = _survivor_path(first, codes)
    # a state's low three bits are the last three inputs
    bits = np.unpackbits(np.frombuffer(path, dtype=np.uint8)[:, None], axis=1)
    return bits[:, 5:].ravel()[3 - head :]


def _zero_cost_path(first: np.ndarray, codes: np.ndarray) -> bytearray | None:
    """The states of the one path of metric 0, after the head steps and
    then at each block's end, or None where the walk stops.

    ``first`` holds the metrics after the head steps and ``codes`` the
    block codes.  The walk starts from the one head state of metric 0 and
    takes each block's one input of cost 0 from ``_zero_steps()``; it
    stops where there are none or several, at the head or at a block.
    Its cost is one table read per block.
    """
    zeros = np.flatnonzero(first == 0)
    if zeros.size != 1:
        return None
    state = int(zeros[0])
    table = _zero_steps()
    path = bytearray([state])
    # a memoryview hands out one code at a time, where a list would hold
    # an int object per block
    for code in memoryview(codes):
        state = table[state][code]
        if state == _NO_WALK:
            return None
        path.append(state)
    return path


def _survivor_path(first: np.ndarray, codes: np.ndarray) -> bytearray:
    """The survivor's states, after the head steps and then at each block's
    end, by radix-8 add-compare-select from the head metrics ``first``.

    The trellis advances three steps per iteration (radix 8): each end
    state keeps the best of its eight 3-step predecessors.  The first
    ``steps % 3`` steps lead from state 0 on unique paths, so they need
    no decision.  Every block's survivor must be the path the one-step
    rule keeps: that rule settles the last step first, so the survivor is
    the first minimum with the predecessors ordered by the bit the
    block's last step drops (bit 3 of its start state), then the middle
    step's (bit 4), then the first step's (bit 5).  So the decision is
    the rank k in the minimum of the keyed cost 8 * (metric + cost) + k.

    A stream of fewer than ``_CUT_MIN`` blocks runs as one row
    (:func:`_one_row`); a longer one is cut into overlapping rows that
    run side by side (:func:`_cut_rows`).  Both give the same decisions
    bit for bit.  A block's decisions and end metrics depend only on its
    code and on its start metrics up to a common offset, as the keyed
    minimum does not change when every metric is shifted by the same
    amount.  So a row whose metrics, less their minimum, equal the true
    ones at some block makes the true decisions from there on.

    Storage that grows with the stream is one byte per state per block,
    about 21 bytes per step, against 99 for the one-step decoder's cost
    and backpointer arrays.  The tables take 1.7 MB, one keyed table
    serving both loops, and the rows' working set 3.6 MB.
    """
    n_blocks = codes.size
    if n_blocks < _CUT_MIN:
        ranks, last = _one_row(first, codes)
    else:
        ranks, last = _cut_rows(first, codes)

    pred = _trellis()[2]
    state = int(np.argmin(last))
    path = bytearray()  # block end states, last block first
    back = memoryview(ranks.reshape(-1))
    for row in range((n_blocks - 1) << 6, -1, -64):
        path.append(state)
        state = pred[state][back[row | state]]
    path.append(state)  # the state after the head steps holds their inputs
    path.reverse()
    return path


def _one_row(first: np.ndarray, codes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every block's ranks, as (blocks, 64) uint8 read [block, end state],
    and the end metrics by state, from one pass over the stream.

    Each block takes two NumPy calls on (8, 8, 8) arrays.  After each
    chunk of ``_CHUNK`` blocks one vectorised pass recovers every block's
    ranks from the keyed costs that :func:`_advance` reads too.
    """
    n_blocks = codes.size
    costs, keyed, _ = _trellis()
    # metrics[b] holds the chunk's block b start, read as [j, m], which
    # is block b - 1's end, written as [m, U]; the views are made once
    # and serve every chunk
    metrics = np.empty((min(n_blocks, _CHUNK) + 1, 64), dtype=np.int16)
    metrics[0] = first
    grid = metrics.reshape(-1, 8, 8)
    starts, ends = list(grid[..., None]), list(grid[1:])
    cand = np.empty((8, 8, 8), dtype=np.int16)
    ranks = np.empty((n_blocks, 64), dtype=np.uint8)
    add, least = np.add, np.minimum.reduce
    n = 0
    for c0 in range(0, n_blocks, _CHUNK):
        if c0:
            metrics[0] = metrics[-1] - metrics[-1].min()
        chunk = codes[c0 : c0 + _CHUNK]
        for h, h_next, code in zip(starts, ends, chunk.tolist()):
            add(h, costs[code], out=cand)
            least(cand, 0, out=h_next)
        n = chunk.size
        # k sits below the metric in a keyed cost, so the minimum over
        # the predecessors is the lowest k among the equal best metrics
        keyed_paths = keyed.take(chunk, axis=2)  # [U, j, block, m]
        keyed_paths += grid[:n].transpose(1, 0, 2) << 3  # start metrics [j, block, m]
        out = ranks[c0 : c0 + n].reshape(n, 8, 8).transpose(2, 0, 1)  # [U, block, m]
        np.bitwise_and(least(keyed_paths, 1), 7, out=out, casting="unsafe")
    return ranks, metrics[n]


def _advance(metrics: np.ndarray, cols: np.ndarray, best: np.ndarray) -> None:
    """Run rows side by side through one chunk of blocks.

    ``metrics`` holds each row's keyed start metrics, 8 * metric read
    [j, row, m] for state (j << 3) | m; they are shifted to a minimum of
    0 first, and left as the chunk's end metrics.  ``cols[t]`` holds
    each row's block code at step t, and ``best[t]`` receives its keyed
    minima 8 * metric + k, read [U, row, m] for end state (m << 3) | U,
    from the keyed costs that :func:`_one_row` reads too.
    """
    metrics -= metrics.min(axis=(0, 2), keepdims=True)
    table = _trellis()[1]
    cand = np.empty((8, 8, metrics.shape[1], 8), dtype=np.int16)
    # end state (m << 3) | U starts the next block as [j, m] = [m, U]
    following = metrics.transpose(2, 1, 0)
    take, add, least, mask = np.take, np.add, np.minimum.reduce, np.bitwise_and
    for col, out in zip(cols, best):
        take(table, col, axis=2, out=cand, mode="clip")
        add(cand, metrics, out=cand)
        least(cand, 1, out=out)
        mask(out, -8, out=following)


def _cut_rows(first: np.ndarray, codes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """:func:`_one_row`'s ranks and end metrics, from rows of the stream
    that run side by side in one batched pass.

    Row 0 starts at block 0 from the head metrics and keeps every block
    it runs.  Row i > 0 starts ``_WARM_UP`` blocks before its first kept
    block k_i from zero metrics, and keeps its blocks from k_i up to the
    next row's first kept block, which is where its run ends.  All rows
    run the same length; the last one runs on past the stream's end over
    erased blocks, and its end metrics are read at the stream's end.

    A row's decisions are kept only from a block where its metrics
    provably equal the true ones, less their minimum.  Row i's true
    metrics at k_i are row i - 1's end metrics, once row i - 1 is
    settled; row 0 is settled from the start.  So:

    - row i is accepted when its metrics at k_i equal row i - 1's end
      metrics, less the minimum of each;
    - otherwise it is rerun from row i - 1's end metrics
      (:func:`_rerun`).  The rerun stops at the first block where its
      metrics equal the row's kept run's, and keeps that run's decisions
      and end metrics after it; if they never meet, it runs to the row's
      end and keeps its own.

    Each round reruns every row that disagrees with its predecessor, each
    from the predecessor's end metrics as they stand.  The first of them
    follows a settled row, so its rerun makes it settled: each round
    settles at least one row, and the loop ends.  Per-block metrics are
    kept only for the first ``_MEET`` blocks of a row's kept run, the
    window of the meeting test.
    """
    n_blocks = codes.size
    span = max(_ROW, -(-(n_blocks - _WARM_UP) // _ROWS))  # kept blocks per row
    rows = -(-(n_blocks - _WARM_UP) // span)
    run = _WARM_UP + span  # blocks each row runs
    size = rows * span + _WARM_UP
    padded = np.zeros(size, dtype=np.int16)  # code 0: three erased pairs
    padded[:n_blocks] = codes
    ranks = np.empty((size, 64), dtype=np.uint8)
    # kept[i, d]: block k_i + d of row i > 0, k_i = i * span + _WARM_UP;
    # row 0 keeps every block, and kept[0] holds its blocks from _WARM_UP
    kept = ranks[_WARM_UP:].reshape(rows, span, 64)
    lengths = np.full(rows, span)
    lengths[-1] = n_blocks - (rows - 1) * span - _WARM_UP

    metrics = np.zeros((8, rows, 8), dtype=np.int16)
    metrics[:, 0] = first.reshape(8, 8) << 3
    best = np.empty((_LOCKSTEP, 8, rows, 8), dtype=np.int16)
    meet = min(_MEET, span)
    # trail[d]: row i's keyed metrics at block k_i + d, read [U, row, m]
    trail = np.empty((meet + 1, 8, rows, 8), dtype=np.int16)
    ends = np.empty((8, rows, 8), dtype=np.int16)
    cols = np.lib.stride_tricks.as_strided(
        padded, (run, rows), (padded.strides[0], span * padded.strides[0]), writeable=False
    )
    t_last = _WARM_UP + lengths[-1] - 1  # the last row's step that reaches the end
    for t0 in range(0, run, _LOCKSTEP):
        t1 = min(run, t0 + _LOCKSTEP)
        chunk = best[: t1 - t0]
        _advance(metrics, cols[t0:t1].astype(np.intp), chunk)
        # step t leaves the metrics at block t + 1 of each row
        if t0 < _WARM_UP:
            w = min(t1, _WARM_UP) - t0
            np.bitwise_and(
                chunk[:w, :, 0].transpose(0, 2, 1), 7,
                out=ranks[t0 : t0 + w].reshape(w, 8, 8), casting="unsafe",
            )
        lo = max(t0, _WARM_UP)
        if lo < t1:
            np.bitwise_and(
                chunk[lo - t0 :].transpose(2, 0, 3, 1), 7,
                out=kept[:, lo - _WARM_UP : t1 - _WARM_UP].reshape(rows, t1 - lo, 8, 8),
                casting="unsafe",
            )
        a, b = max(t0, _WARM_UP - 1), min(t1, _WARM_UP + meet)
        if a < b:
            trail[a - _WARM_UP + 1 : b - _WARM_UP + 1] = chunk[a - t0 : b - t0]
        if t0 <= t_last < t1:
            ends[:, -1] = chunk[t_last - t0, :, -1]
    ends[:, :-1] = chunk[-1, :, :-1]

    settled = 1  # rows below it hold true decisions and end metrics
    while settled < rows:
        # agree[i]: row settled + i starts from its predecessor's end
        agree = _first_meeting(trail[:1, :, settled:], ends[None, :, settled - 1 : -1]) == 0
        lead = agree.size if agree.all() else int(agree.argmin())
        settled += lead
        if settled == rows:
            break
        _rerun(settled + np.flatnonzero(~agree[lead:]), padded, kept, trail, ends, lengths)
        settled += 1
    return ranks, (ends[:, -1].T >> 3).ravel()


def _rerun(
    redo: np.ndarray,
    codes: np.ndarray,
    kept: np.ndarray,
    trail: np.ndarray,
    ends: np.ndarray,
    lengths: np.ndarray,
) -> None:
    """Rerun rows ``redo`` of :func:`_cut_rows` side by side, each from its
    predecessor's end metrics, over its kept blocks.

    A row stops at the first block where its metrics meet those its kept
    run holds in ``trail``, or else at its end, where its end metrics go
    to ``ends``.  Its ranks go to ``kept`` and its metrics to ``trail``
    as it runs.  Past a meeting, the rerun's decisions and metrics are
    the kept run's, so the chunk it meets in may write them again.
    """
    span = kept.shape[1]
    meet = trail.shape[0] - 1
    start = ends[:, redo - 1]
    trail[0][:, redo] = start
    metrics = np.ascontiguousarray(start.transpose(2, 1, 0)) & -8
    first = redo * span + _WARM_UP
    d0 = 0
    while redo.size:
        d1 = min(d0 + _LOCKSTEP, span)
        best = np.empty((d1 - d0, 8, redo.size, 8), dtype=np.int16)
        _advance(metrics, codes[first + np.arange(d0, d1)[:, None]].astype(np.intp), best)
        kept[redo, d0:d1] = (best & 7).transpose(2, 0, 3, 1).reshape(redo.size, d1 - d0, 64)
        met = np.zeros(redo.size, dtype=bool)
        if d0 < meet:
            m1 = min(d1, meet)
            met = _first_meeting(best[: m1 - d0], trail[d0 + 1 : m1 + 1, :, redo]) < m1 - d0
            trail[d0 + 1 : m1 + 1, :, redo] = best[: m1 - d0]
        done = lengths[redo] <= d1
        if done.any():
            at = np.flatnonzero(done)
            ends[:, redo[at]] = best[lengths[redo[at]] - 1 - d0, :, at].transpose(1, 0, 2)
        go = ~(met | done)
        redo, first, metrics = redo[go], first[go], metrics[:, go]
        d0 = d1


def _first_meeting(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Per row, the first block at which two runs' metrics agree less
    their minimum, or the block count where they never do; ``a`` and
    ``b`` hold keyed metrics read [block, U, row, m]."""
    gap = (a >> 3) - (b >> 3)
    same = (gap == gap[:, :1, :, :1]).all(axis=(1, 3))
    return np.where(same.any(axis=0), same.argmax(axis=0), len(same))


# ---------------------------------------------------------------------------
# full chains
# ---------------------------------------------------------------------------

# The pilot values of a symbol by its polarity bit p, read-only.  Symbol s
# has polarity 1 - 2*p[s], p the all-ones scrambler stream; the complex
# product keeps the -0.0 imaginary parts of -1 * -1.
_PILOT_ROWS = _read_only(
    np.outer(np.array([1, -1], dtype=np.int64), np.asarray(PhyConfig.pilot_base, np.complex128))
)


def tx_chain(bits: np.ndarray, cfg: PhyConfig) -> BasebandFrame:
    """Information bits to a baseband frame of whole OFDM symbols.  A
    (frames, bits) stack gives a (frames, samples) stack, and the count
    is that of all frames."""
    grids = tx_grids(bits, cfg)
    samples = modulate_symbols(grids, cfg)
    if grids.ndim == 3:
        return BasebandFrame(samples.reshape(grids.shape[0], -1), grids.shape[0] * grids.shape[1])
    return BasebandFrame(samples, grids.shape[0])


def tx_grids(bits: np.ndarray, cfg: PhyConfig) -> np.ndarray:
    """Transmit chain up to the frequency domain: one fft_size grid per
    OFDM symbol, data and pilots placed, as a (count, fft_size) stack.

    A (frames, bits) stack gives a (frames, count, fft_size) stack: the
    scrambler, the encoder (from state 0) and the pilot polarity restart
    with each frame, so every row is what its own call gives.
    """
    # the scrambler checks the bits and restarts its stream on each row
    scrambled = scramble(bits, cfg.scrambler_seed)
    stacked = scrambled.ndim == 2
    n_frames, width = scrambled.shape if stacked else (1, scrambled.size)
    if width == 0 or width % cfg.n_dbps != 0:
        raise FramingError(
            f"packet length {width} is not a positive multiple of {cfg.n_dbps} bits"
        )
    n_sym = width // cfg.n_dbps
    xx = np.zeros((n_frames, 6 + width), dtype=np.uint8)
    xx[:, 6:] = scrambled
    del scrambled  # the encoder reads its copy in xx
    # take gathers the columns about 2x faster than fancy indexing
    interleaved = _encode(xx).reshape(n_frames * n_sym, -1).take(_symbol_gather(cfg), axis=1)
    grids = np.zeros((n_frames, n_sym, cfg.fft_size), dtype=np.complex128)
    # the coded bits are the checked bits' parities, so they map unchecked
    groups = interleaved.reshape(-1, cfg.n_bpsc)
    grids[:, :, cfg.data_bin_array] = _map_groups(groups, cfg.modulation_order).reshape(
        n_frames, n_sym, -1
    )
    grids[:, :, cfg.pilot_bin_array] = _PILOT_ROWS[lfsr_sequence(n_sym, 0x7F)]
    return grids if stacked else grids[0]


def rx_chain(samples: np.ndarray, cfg: PhyConfig) -> np.ndarray:
    """Baseband samples back to information bits.  A NaN or infinite
    sample raises :class:`FramingError` before the FFT spreads it."""
    samples = np.asarray(samples, dtype=np.complex128)
    if not np.isfinite(samples).all():
        raise FramingError("samples must be finite")
    grids = demodulate_frame(samples, cfg)
    _, hard = qam_quantize(grids[:, cfg.data_bin_array], cfg.modulation_order)
    mother = np.full((grids.shape[0], 2 * cfg.n_dbps), -1, dtype=np.int8)
    mother[:, _symbol_gather(cfg)] = hard.reshape(-1, cfg.n_cbps)
    decoded = viterbi_decode(mother)
    return scramble(decoded, cfg.scrambler_seed)


def _as_bits(bits: np.ndarray) -> np.ndarray:
    """``bits`` as a flat uint8 array, checked with one reduction: a
    value other than 0 or 1, or a dtype that is not bool, integer or
    float, raises :class:`FramingError`; nothing is cast into range."""
    arr = np.asarray(bits).ravel()
    kind = arr.dtype.kind
    if kind == "b":
        return arr.view(np.uint8)
    if kind == "u":
        ok = arr.max(initial=0) <= 1
    elif kind == "i":
        # negative values read as unsigned are large
        ok = arr.view(arr.dtype.str.replace("i", "u")).max(initial=0) <= 1
    elif kind == "f":
        ok = ((arr == 0) | (arr == 1)).all()
    else:
        ok = False
    if not ok:
        raise FramingError("bits must be 0 or 1")
    return arr if arr.dtype == np.uint8 else arr.astype(np.uint8)
