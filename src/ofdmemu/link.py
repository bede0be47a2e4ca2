"""Analog-value transport over the digital OFDM chain.

The sender takes complex-valued target symbols, quantizes them onto
constellation points of chosen data subcarriers, and solves the per-
symbol GF(2) system backwards through interleaver, puncturer, encoder
and scrambler for an info bit stream whose transmitted waveform carries
exactly those points.  Subcarriers outside the selection ("dummies")
carry whatever the solved bits imply and are ignored at the receiver.

Value domains: user-domain targets are nominally unit average power;
multiplying by the plan's ``scale`` moves them into constellation
coordinates where quantization and clipping happen.  The default scale
puts +-3 per-axis standard deviations of a unit-power Gaussian at the
outer constellation level.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .config import KMOD_SQUARED, MIN_SNR_DB, PhyConfig
from .errors import ConfigError, FramingError, SelectionError
from .gf2 import Gf2Solver
from .inversion import (
    SymbolSystem,
    build_symbol_system,
    certify_subset,
    default_subset,
    restrict_offsets,
    restrict_rows,
)
from .phy import (
    demodulate_frame,
    modulate_symbols,
    qam_quantize,
    rx_chain,
    scramble,
    tx_chain,
    tx_grids,
)

__all__ = [
    "TargetSymbols",
    "EmulationPlan",
    "EmulationSetup",
    "LinkRecord",
    "box_scale",
    "box_edge",
    "sender_invert",
    "reference_waveform",
    "output_waveforms",
    "clean_waveforms",
    "targets_from_waveform",
    "check_snr",
    "noise_variance",
    "axis_noise",
    "finite_mean_power",
    "awgn",
    "receiver_recover_soft",
    "receiver_recover_hard",
    "extract_estimates",
    "emulated_link",
    "ideal_analog_link",
    "float_serialization_link",
]


@lru_cache(maxsize=None)
def box_edge(cfg: PhyConfig) -> float:
    """Outer constellation level per axis, in normalized amplitude."""
    nlev = 1 << ((cfg.n_bpsc + 1) // 2)
    return (nlev - 1) / math.sqrt(KMOD_SQUARED[cfg.modulation_order])


def box_scale(cfg: PhyConfig) -> float:
    """Scale putting +-3 per-axis sigma of unit-power symbols at the box edge."""
    return box_edge(cfg) * math.sqrt(2.0) / 3.0


@dataclass
class TargetSymbols:
    """Complex values to transport, plus the user-to-constellation scale.

    ``symbols`` is one (k,) row, or a (rows, k) stack whose rows are each
    their own frame; ``count`` is their total.  ``scale`` is a positive
    finite real or, for a stack, a (rows,) array of them.  Anything else,
    ragged or empty rows and non-finite symbols raise FramingError.
    """

    symbols: np.ndarray
    scale: float | np.ndarray

    def __post_init__(self) -> None:
        try:
            symbols = self.symbols = np.asarray(self.symbols, dtype=np.complex128)
        except (TypeError, ValueError):  # ragged rows, or not numbers
            raise FramingError("target symbols must be numbers in rows of one length") from None
        if symbols.ndim not in (1, 2) or symbols.size == 0:
            raise FramingError(f"target symbols must not be empty or over 2-D, got {symbols.shape}")
        if not np.all(np.isfinite(symbols)):
            raise FramingError("target symbols must be finite")
        scale = self.scale
        if isinstance(scale, np.ndarray) and scale.dtype.kind in "iuf" and symbols.ndim == 2:
            self.scale = scale.astype(np.float64)
            ok = scale.shape == symbols.shape[:1] and np.all((scale > 0) & (scale < math.inf))
        else:
            ok = isinstance(scale, numbers.Real) and 0 < scale <= sys.float_info.max
        if not ok:
            raise FramingError(f"scale must be positive and finite, or one per row, got {scale!r}")

    @classmethod
    def unit_power(cls, symbols: np.ndarray, cfg: PhyConfig) -> "TargetSymbols":
        return cls(symbols, box_scale(cfg))

    @property
    def count(self) -> int:
        return int(self.symbols.size)


class EmulationSetup:
    """Cached per-configuration state for the inverse sender.

    Holds the certified subcarrier selection, the factored restricted
    GF(2) system, the state-offset table and its solutions, so a sweep
    pays the certification and factorization cost once.  The selection
    starts from the capacity-sized default subset of the configuration;
    one whose restricted system is not full row rank raises
    SelectionError.  ``certify_subset`` serves that subset's selection
    from its stored table, so this check is what verifies it.
    """

    _cache: dict = {}

    def __init__(
        self,
        cfg: PhyConfig,
        system: SymbolSystem,
        chosen: tuple[int, ...],
        swaps: list[tuple[int, int]],
    ):
        self.cfg = cfg
        self.system = system
        self.chosen = chosen
        self.swaps = swaps
        self.solver = Gf2Solver(restrict_rows(system, chosen))
        if self.solver.rank < self.solver.rows:
            raise SelectionError(
                f"selection reaches rank {self.solver.rank} of {self.solver.rows}; "
                "it was not certified"
            )
        self.offsets = restrict_offsets(system, chosen)
        # solutions for the 64 state offsets alone, and the state each
        # leaves behind; sender_invert adds them to the labels' solutions
        self.offset_solutions = self.solver.solve_many(self.offsets)
        self.offset_exits = SymbolSystem.outgoing_state(self.offset_solutions).tolist()
        self.chosen_bins = np.asarray(chosen, dtype=np.intp)

    @property
    def n_chosen(self) -> int:
        return len(self.chosen)

    @classmethod
    def build(cls, cfg: PhyConfig) -> "EmulationSetup":
        """The setup for ``cfg``, built once and then served from the cache."""
        hit = cls._cache.get(cfg)
        if hit is not None:
            return hit
        system = build_symbol_system(cfg)
        certified, swaps = certify_subset(system, default_subset(cfg))
        setup = cls(cfg, system, certified, swaps)
        cls._cache[cfg] = setup
        return setup


@dataclass
class EmulationPlan:
    """Everything the sender decided for a target stack, one row per
    frame.  The counts are the stack's totals."""

    scale: np.ndarray  # (rows, 1) user-to-constellation scale of each row
    target_count: int
    ofdm_symbols: int
    quantized: np.ndarray  # (rows, symbols, n_chosen) constellation-domain points
    bitstream: np.ndarray  # (rows, bits) info bits, which tx_chain takes whole
    incoming_states: np.ndarray  # (rows, symbols) encoder state at each symbol boundary
    clip_counts: np.ndarray  # (rows,) I and Q components beyond the box edge

    @property
    def rows(self) -> int:
        return len(self.scale)

    @property
    def clip_count(self) -> int:
        return int(self.clip_counts.sum())

    @property
    def clip_rate(self) -> float:
        """Share of the targets' I and Q components beyond the box edge."""
        return self.clip_count / (2 * self.target_count)


def _stack_symbols(targets) -> np.ndarray:
    """The (rows, k) symbols of one TargetSymbols; FramingError for anything else."""
    if not isinstance(targets, TargetSymbols):
        raise FramingError(f"targets must be one TargetSymbols, got {type(targets).__name__}")
    symbols = targets.symbols
    return symbols if symbols.ndim == 2 else symbols[None]


def sender_invert(targets: TargetSymbols, setup: EmulationSetup) -> EmulationPlan:
    """Choose constellation points for the targets and solve for info bits.

    Every row of the targets is its own frame, with its own scale and
    its state chain from 0, and all rows are scaled, quantized and
    solved together.  Targets pack row-major onto the chosen subcarriers
    (sorted by logical index) of consecutive OFDM symbols; a partial
    last symbol is padded with zero-valued targets.  Each solved block
    fixes the encoder state entering the next symbol, but the solve is
    linear in its target, so all symbols' labels solve in one batch and
    only the state chain runs symbol by symbol.  Returns one
    :class:`EmulationPlan`; anything but a TargetSymbols raises
    FramingError.
    """
    symbols = _stack_symbols(targets)
    cfg = setup.cfg
    n_rows, k = symbols.shape
    nch = setup.n_chosen
    n_sym = (k + nch - 1) // nch

    scale = targets.scale  # as a (rows, 1) column; a list costs less than a broadcast
    scale = scale[:, None] if isinstance(scale, np.ndarray) else np.array([[scale]] * n_rows, float)
    padded = np.zeros((n_rows, n_sym * nch), dtype=np.complex128)
    padded[:, :k] = symbols * scale
    # I and Q components beyond the box, read from the float view (the
    # zero padding never is), without an axis reduction for one row
    over = np.abs(padded.view(np.float64)) > box_edge(cfg)
    clips = np.count_nonzero(over, axis=1) if n_rows > 1 else np.array([np.count_nonzero(over)])
    del over  # not held through the solve, where large calls peak

    points, labels = qam_quantize(padded, cfg.modulation_order)
    # Superposition over GF(2): the solution for labels ^ offsets[state]
    # is the labels' solution ^ offset_solutions[state], and so is the
    # state it leaves.  Only the 6-bit state chain runs per symbol, from
    # state 0 in each row.
    x_blocks = setup.solver.solve_many(labels.reshape(n_rows * n_sym, -1))
    offset_exits = setup.offset_exits
    chain = []
    for exits in SymbolSystem.outgoing_state(x_blocks).reshape(n_rows, n_sym).tolist():
        state = 0
        for e in exits:
            chain.append(state)
            state = e ^ offset_exits[state]
    states = np.asarray(chain, dtype=np.int64)
    x_blocks ^= setup.offset_solutions[states]

    return EmulationPlan(
        scale=scale,
        target_count=n_rows * k,
        ofdm_symbols=n_rows * n_sym,
        quantized=points.reshape(n_rows, n_sym, nch),
        bitstream=scramble(x_blocks.reshape(n_rows, -1), cfg.scrambler_seed),
        incoming_states=states.reshape(n_rows, n_sym),
        clip_counts=clips,
    )


def reference_waveform(targets: TargetSymbols, setup: EmulationSetup) -> np.ndarray:
    """The ideal user-domain waveforms of the targets' rows, as (rows,
    samples): continuous targets on the chosen bins, everything else
    (pilots, dummies, nulls) silent.  A (k,) row is a stack of one."""
    symbols = _stack_symbols(targets)
    vals = np.pad(symbols, ((0, 0), (0, -symbols.shape[1] % setup.n_chosen)))
    return waveform_from_values(vals, setup).reshape(len(symbols), -1)


def waveform_from_values(values: np.ndarray, setup: EmulationSetup) -> np.ndarray:
    """Frame arbitrary per-bin values (row-major over symbols) as a waveform."""
    values = np.asarray(values, dtype=np.complex128).ravel()
    nch = setup.n_chosen
    if values.size % nch != 0:
        raise FramingError(f"value count {values.size} is not a multiple of {nch}")
    grids = np.zeros((values.size // nch, setup.cfg.fft_size), dtype=np.complex128)
    grids[:, setup.chosen_bins] = values.reshape(-1, nch)
    return modulate_symbols(grids, setup.cfg)


def _chosen_values(waveform: np.ndarray, setup: EmulationSetup) -> np.ndarray:
    """Chosen-bin values of a waveform, row-major over OFDM symbols."""
    grids = demodulate_frame(np.asarray(waveform, dtype=np.complex128).ravel(), setup.cfg)
    return grids.take(setup.chosen_bins, axis=1).reshape(-1)


def targets_from_waveform(waveform: np.ndarray, setup: EmulationSetup) -> TargetSymbols:
    """Project a per-sample waveform onto the chosen subcarriers.

    Each OFDM symbol's worth of samples is windowed to its body (the
    part the IFFT can actually synthesize; cyclic-prefix positions are
    overwritten on air anyway) and read on the chosen bins.  The scale
    follows the +-3 sigma box policy using the measured per-axis spread
    of the projected values.  A (rows, samples) stack gives a stack,
    each row scaled by its own spread.
    """
    waveform = np.asarray(waveform, dtype=np.complex128)
    spo = setup.cfg.samples_per_ofdm
    if waveform.ndim not in (1, 2) or waveform.size == 0 or waveform.shape[-1] % spo:
        raise FramingError(f"waveforms must be rows of whole OFDM symbols, got {waveform.shape}")
    vals = _chosen_values(waveform, setup).reshape(*waveform.shape[:-1], -1)
    spread = np.std(np.concatenate([vals.real, vals.imag], axis=-1), axis=-1)
    scale = box_edge(setup.cfg) / (3.0 * np.where(spread > 0, spread, 1.0))
    return TargetSymbols(vals, scale if vals.ndim == 2 else float(scale))


# ---------------------------------------------------------------------------
# channel
# ---------------------------------------------------------------------------

def check_snr(snr_db: float) -> None:
    """Reject an SNR that is not a real scalar, and one whose noise
    variance is NaN or overflows: NaN and anything below ``MIN_SNR_DB``.
    +inf means no noise."""
    if not isinstance(snr_db, numbers.Real):
        raise ConfigError(f"snr_db must be a real number, got {type(snr_db).__name__}")
    if not snr_db >= MIN_SNR_DB:
        raise ConfigError(f"snr_db must be at least {MIN_SNR_DB:g} dB, got {snr_db}")


def noise_variance(snr_db: float) -> float:
    """Complex noise variance per unit signal power, 10^(-snr/10); 0 at
    +inf.  Raises ConfigError where ``check_snr`` does."""
    check_snr(snr_db)
    return 0.0 if snr_db == math.inf else 10.0 ** (-snr_db / 10.0)


def axis_noise(rng: np.random.Generator, var: float, shape) -> np.ndarray:
    """Real Gaussian draws carrying complex variance ``var`` split evenly
    over the I and Q axes."""
    return rng.normal(0.0, math.sqrt(var / 2.0), size=shape)


def finite_mean_power(x: np.ndarray, error: str) -> float:
    """Mean |x|^2 of a non-empty complex array, computed without an
    overflow warning; FramingError(error) where it is NaN or overflows."""
    with np.errstate(over="ignore"):
        # np.mean's own arithmetic, the float64 sum over the count,
        # without its wrapper's cost, which shows on short frames
        power = float((np.abs(x) ** 2).sum() / x.size)
    if not math.isfinite(power):
        raise FramingError(error)
    return power


def _add_noise(
    x: np.ndarray, snr_db: float, seed: int | np.random.Generator, power: float | None
) -> np.ndarray:
    """x plus complex AWGN of variance power * noise_variance(snr_db);
    ``power`` None measures it from x, at every SNR, and raises
    FramingError when x is empty or that power is not finite.  +inf SNR
    copies x and draws nothing."""
    base = noise_variance(snr_db)
    if power is None:
        if x.size == 0:
            raise FramingError("frame must hold at least one sample")
        power = finite_mean_power(x, "frame power must be finite")
    if snr_db == math.inf:
        return x.copy()
    noise = axis_noise(np.random.default_rng(seed), power * base, (x.size, 2))
    # the (n, 2) draw read as n complex values: the draws are never -0.0,
    # so this adds what x + noise[:, 0] + 1j * noise[:, 1] adds, and the
    # sum is made in the draw's own buffer
    out = noise.view(np.complex128).reshape(x.shape)
    out += x
    return out


def awgn(samples: np.ndarray, snr_db: float, seed: int | np.random.Generator) -> np.ndarray:
    """Additive white Gaussian noise at a measured-signal-power SNR.

    ``snr_db = inf`` returns a copy of the input; NaN or -inf raise
    ConfigError.  An empty frame, or one whose mean power is NaN or
    overflows (a NaN or infinite sample, say), raises FramingError.  The
    draw is deterministic in the seed.
    """
    return _add_noise(np.asarray(samples, dtype=np.complex128), snr_db, seed, power=None)


# ---------------------------------------------------------------------------
# receivers
# ---------------------------------------------------------------------------

def _clip_to_box(values: np.ndarray, cfg: PhyConfig, scale: np.ndarray) -> np.ndarray:
    """Clamp constellation-domain content to the box, in user units."""
    lim = box_edge(cfg) / scale
    return np.minimum(np.maximum(values.real, -lim), lim) + 1j * np.minimum(
        np.maximum(values.imag, -lim), lim
    )


def _plan_frames(samples: np.ndarray, plan: EmulationPlan, setup: EmulationSetup):
    """The frames of the plan's rows as (rows, samples); FramingError
    unless they hold the plan's OFDM symbols."""
    samples = np.asarray(samples, dtype=np.complex128)
    n_sym = samples.size / setup.cfg.samples_per_ofdm
    if n_sym != plan.ofdm_symbols:
        raise FramingError(
            f"frames hold {n_sym:g} OFDM symbols, the plan expects {plan.ofdm_symbols}"
        )
    return samples.reshape(plan.rows, -1)


def _row_values(samples: np.ndarray, plan: EmulationPlan, setup: EmulationSetup):
    """The chosen-bin values of the plan's frames, as (rows, k) targets'
    worth."""
    vals = _chosen_values(_plan_frames(samples, plan, setup), setup)
    return vals.reshape(plan.rows, -1)[:, : plan.target_count // plan.rows]


def receiver_recover_soft(samples: np.ndarray, plan: EmulationPlan, setup: EmulationSetup):
    """Read chosen bins directly, skipping the digital decode path.

    Estimates are the unscaled bin values clamped per axis to the
    constellation box (the sender provably transmitted in-box points, so
    anything outside is noise).  The (rows, samples) frames of a plan
    give (rows, k) estimates.
    """
    return _clip_to_box(_row_values(samples, plan, setup) / plan.scale, setup.cfg, plan.scale)


def receiver_recover_hard(samples: np.ndarray, plan: EmulationPlan, setup: EmulationSetup):
    """Full digital decode, then replay the transmit mapping.

    Runs each frame's complete receive chain to info bits, re-applies
    scramble, encode, puncture, interleave and QAM mapping, and reads the
    chosen subcarriers of the rebuilt grids.  Noiseless, this lands
    exactly on the planned quantized points; past the code's cliff it
    collapses.  The (rows, samples) frames of a plan give (rows, k)
    estimates.
    """
    cfg = setup.cfg
    bits = np.stack([rx_chain(frame, cfg) for frame in _plan_frames(samples, plan, setup)])
    vals = tx_grids(bits, cfg)[:, :, setup.chosen_bins].reshape(plan.rows, -1)
    return vals[:, : plan.target_count // plan.rows] / plan.scale


def extract_estimates(waveform: np.ndarray, plan: EmulationPlan, setup: EmulationSetup):
    """Chosen-bin estimates from (possibly compensated) user-domain
    waveforms: the (rows, samples) waveforms of a plan give (rows, k)
    estimates.  Waveforms that do not hold the plan's OFDM symbols raise
    FramingError."""
    return _clip_to_box(_row_values(waveform, plan, setup), setup.cfg, plan.scale)


# ---------------------------------------------------------------------------
# end-to-end links
# ---------------------------------------------------------------------------

@dataclass
class LinkRecord:
    """One emulated_link call: its targets, their plan, and the
    (rows, samples) frames sent and received.

    The waveforms learning reads are derived from the record by
    :func:`output_waveforms` and :func:`clean_waveforms`, so a caller pays
    only for the ones it reads.
    """

    targets: TargetSymbols
    plan: EmulationPlan
    setup: EmulationSetup
    tx_frame: np.ndarray
    rx_frame: np.ndarray  # tx_frame plus the channel's noise
    snr_db: np.ndarray  # (rows,) the SNR of each row


def _reframe(frames: np.ndarray, record: LinkRecord) -> np.ndarray:
    """Each frame's raw chosen-bin values in its row's user units,
    re-framed, as one (rows, samples) stack."""
    rows = record.plan.rows
    values = _chosen_values(frames, record.setup).reshape(rows, -1) / record.plan.scale
    return waveform_from_values(values, record.setup).reshape(rows, -1)


def output_waveforms(record: LinkRecord) -> np.ndarray:
    """The raw (unclipped) chosen-bin values of the record's ``rx_frame``
    re-framed in user units, pilots and dummies silenced: what the
    compensator and the proxy see.  One (rows, samples) stack, from one
    demodulate and one modulate."""
    return _reframe(record.rx_frame, record)


def clean_waveforms(record: LinkRecord) -> np.ndarray:
    """The same read of the record's noiseless ``tx_frame``, which
    separates stochastic noise from the deterministic link distortion."""
    return _reframe(record.tx_frame, record)


def _per_row(values, n: int, what: str) -> list:
    """A stack's per-row SNRs or seeds as a list; FramingError unless
    ``values`` is a sequence of ``n``."""
    try:
        values = list(values)
    except TypeError:
        raise FramingError(f"a stack of {n} rows needs a sequence of {n} {what}") from None
    if len(values) != n:
        raise FramingError(f"a stack of {n} rows needs {n} {what}, got {len(values)}")
    return values


def emulated_link(
    targets: TargetSymbols,
    snr_db,
    seed,
    setup: EmulationSetup,
    mode: str = "soft",
):
    """Transport targets through invert -> transmit -> AWGN -> recover.

    A (rows, k) TargetSymbols is sent in one call: ``snr_db`` and
    ``seed`` are sequences with one entry per row, each seed an int or a
    ``Generator``.  Returns the soft or hard receiver's (rows, k)
    estimates and one record of the whole stack, from which the
    reference, received and noiseless waveforms derive; each row is byte
    for byte what a stack of that row alone gives.  Anything but a
    TargetSymbols, or an SNR or seed sequence of another length, raises
    FramingError, and an SNR in any row that is not a real number, or is
    NaN or -inf, ConfigError, before any row is sent.  A (k,) row with a
    scalar SNR and seed is sent as a stack of one: the call returns (k,)
    estimates and that stack's record.
    """
    if mode not in ("soft", "hard"):
        raise SelectionError(f"mode must be 'soft' or 'hard', got {mode!r}")
    n_rows = len(_stack_symbols(targets))
    bare = targets.symbols.ndim == 1
    if bare:
        snr_db, seed = [snr_db], [seed]
    snrs = _per_row(snr_db, n_rows, "SNRs")
    seeds = _per_row(seed, n_rows, "seeds")
    for snr in snrs:
        check_snr(snr)
    plan = sender_invert(targets, setup)
    tx = tx_chain(plan.bitstream, setup.cfg).samples
    rx = np.empty_like(tx)
    for noisy, frame, snr, s in zip(rx, tx, snrs, seeds):
        noisy[:] = awgn(frame, snr, s)
    recover = receiver_recover_soft if mode == "soft" else receiver_recover_hard
    est = recover(rx, plan, setup)
    record = LinkRecord(targets, plan, setup, tx, rx, np.array(snrs, dtype=np.float64))
    return (est[0] if bare else est), record


def ideal_analog_link(
    symbols: np.ndarray, snr_db: float, seed: int | np.random.Generator
) -> np.ndarray:
    """Reference analog channel: symbols plus AWGN at the nominal SNR.

    Noise variance is 10^(-snr/10) per complex symbol under the
    unit-average-power convention, independent of the empirical power.
    """
    return _add_noise(np.asarray(symbols, dtype=np.complex128).ravel(), snr_db, seed, power=1.0)


_FLOAT_BOUND = 1e3


def float_serialization_link(
    values: np.ndarray, snr_db: float, seed: int, cfg: PhyConfig
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Digital baseline: float32 bit patterns through the coded chain.

    Values are serialized to float32, transmitted as bits, decoded, and
    reassembled.  Non-finite reassembly results become 0 (NaN) or +-1e3
    (infinities); finite blowups clamp to the same bound, so a single
    flipped exponent bit cannot unboundedly distort metrics.
    Returns (values, sent bits, decoded bits).
    """
    values = np.asarray(values, dtype=np.float64).ravel()
    if values.size == 0:
        raise FramingError("value vector must not be empty")
    raw = values.astype(np.float32).tobytes()
    bits = np.unpackbits(np.frombuffer(raw, dtype=np.uint8), bitorder="little")
    pad = (-bits.size) % cfg.n_dbps
    payload = np.concatenate([bits, np.zeros(pad, dtype=np.uint8)])
    noisy = awgn(tx_chain(payload, cfg).samples, snr_db, seed)
    decoded = rx_chain(noisy, cfg)
    got = decoded[: bits.size]
    out32 = np.packbits(got, bitorder="little").tobytes()
    # random bit patterns can form signaling NaNs, which the widening
    # cast flags; the values are replaced right after anyway
    with np.errstate(invalid="ignore"):
        out = np.frombuffer(out32, dtype=np.float32).astype(np.float64)
    out = np.nan_to_num(out, nan=0.0, posinf=_FLOAT_BOUND, neginf=-_FLOAT_BOUND)
    return np.clip(out, -_FLOAT_BOUND, _FLOAT_BOUND), bits, got
