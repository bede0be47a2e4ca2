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
from dataclasses import dataclass

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


def box_edge(cfg: PhyConfig) -> float:
    """Outer constellation level per axis, in normalized amplitude."""
    nlev = 1 << ((cfg.n_bpsc + 1) // 2)
    return (nlev - 1) / math.sqrt(KMOD_SQUARED[cfg.modulation_order])


def box_scale(cfg: PhyConfig) -> float:
    """Scale putting +-3 per-axis sigma of unit-power symbols at the box edge."""
    return box_edge(cfg) * math.sqrt(2.0) / 3.0


@dataclass
class TargetSymbols:
    """Complex values to transport, plus the user-to-constellation scale."""

    symbols: np.ndarray
    scale: float

    def __post_init__(self) -> None:
        self.symbols = np.asarray(self.symbols, dtype=np.complex128).ravel()
        if self.symbols.size == 0:
            raise FramingError("target symbol vector must not be empty")
        if not np.all(np.isfinite(self.symbols)):
            raise FramingError("target symbols must be finite")
        if not (self.scale > 0 and np.isfinite(self.scale)):
            raise FramingError(f"scale must be positive and finite, got {self.scale}")

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
    """Everything the sender decided for one target batch."""

    scale: float
    target_count: int
    ofdm_symbols: int
    quantized: np.ndarray  # (ofdm_symbols, n_chosen) constellation-domain points
    bitstream: np.ndarray  # info bits driving tx_chain
    incoming_states: np.ndarray  # encoder state at each symbol boundary
    clip_count: int

    @property
    def clip_rate(self) -> float:
        """Share of the target's I and Q components beyond the box edge."""
        return self.clip_count / (2 * self.target_count)


def sender_invert(targets: TargetSymbols, setup: EmulationSetup) -> EmulationPlan:
    """Choose constellation points for the targets and solve for info bits.

    Targets pack row-major onto the chosen subcarriers (sorted by
    logical index) of consecutive OFDM symbols; a partial last symbol is
    padded with zero-valued targets.  Each solved block fixes the
    encoder state entering the next symbol, but the solve is linear in
    its target, so all symbols' labels solve in one batch and only the
    state chain runs symbol by symbol.
    """
    cfg = setup.cfg
    k = targets.count
    nch = setup.n_chosen
    n_sym = (k + nch - 1) // nch

    padded = np.zeros(n_sym * nch, dtype=np.complex128)
    padded[:k] = targets.symbols * targets.scale
    # I and Q components beyond the box, read from the (k, 2) float view
    over = np.count_nonzero(np.abs(padded[:k].view(np.float64)) > box_edge(cfg))

    points, labels = qam_quantize(padded, cfg.modulation_order)
    # Superposition over GF(2): the solution for labels ^ offsets[state]
    # is the labels' solution ^ offset_solutions[state], and so is the
    # state it leaves.  Only the 6-bit state chain runs per symbol.
    x_blocks = setup.solver.solve_many(labels.reshape(n_sym, -1))
    offset_exits = setup.offset_exits
    chain = []
    state = 0
    for e in SymbolSystem.outgoing_state(x_blocks).tolist():
        chain.append(state)
        state = e ^ offset_exits[state]
    states = np.asarray(chain, dtype=np.int64)
    x_blocks ^= setup.offset_solutions[states]

    bitstream = scramble(x_blocks.reshape(-1), cfg.scrambler_seed)
    return EmulationPlan(
        scale=float(targets.scale),
        target_count=k,
        ofdm_symbols=n_sym,
        quantized=points.reshape(n_sym, nch),
        bitstream=bitstream,
        incoming_states=states,
        clip_count=int(over),
    )


def reference_waveform(targets: TargetSymbols, setup: EmulationSetup) -> np.ndarray:
    """The ideal user-domain waveform: continuous targets on the chosen
    bins, everything else (pilots, dummies, nulls) silent."""
    nch = setup.n_chosen
    vals = np.zeros(-(-targets.count // nch) * nch, dtype=np.complex128)
    vals[: targets.count] = targets.symbols
    return waveform_from_values(vals, setup)


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
    return grids[:, setup.chosen_bins].reshape(-1)


def targets_from_waveform(waveform: np.ndarray, setup: EmulationSetup) -> TargetSymbols:
    """Project a per-sample waveform onto the chosen subcarriers.

    Each OFDM symbol's worth of samples is windowed to its body (the
    part the IFFT can actually synthesize; cyclic-prefix positions are
    overwritten on air anyway) and read on the chosen bins.  The scale
    follows the +-3 sigma box policy using the measured per-axis spread
    of the projected values.
    """
    vals = _chosen_values(waveform, setup)
    if vals.size == 0:
        raise FramingError("waveform must hold at least one OFDM symbol")
    spread = float(np.std(np.concatenate([vals.real, vals.imag])))
    if spread <= 0:
        spread = 1.0
    return TargetSymbols(vals, box_edge(setup.cfg) / (3.0 * spread))


# ---------------------------------------------------------------------------
# channel
# ---------------------------------------------------------------------------

def check_snr(snr_db: float) -> None:
    """Reject SNRs whose noise variance is NaN or overflows: NaN and
    anything below ``MIN_SNR_DB``.  +inf means no noise."""
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
    """Mean |x|^2 of a non-empty array, computed without an overflow
    warning; FramingError(error) where it is NaN or overflows."""
    with np.errstate(over="ignore"):
        power = float(np.mean(np.abs(x) ** 2))
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
    return x + noise[:, 0] + 1j * noise[:, 1]


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

def _clip_to_box(values: np.ndarray, cfg: PhyConfig, scale: float) -> np.ndarray:
    """Clamp constellation-domain content to the box, in user units."""
    lim = box_edge(cfg) / scale
    return np.minimum(np.maximum(values.real, -lim), lim) + 1j * np.minimum(
        np.maximum(values.imag, -lim), lim
    )


def receiver_recover_soft(
    samples: np.ndarray,
    plan: EmulationPlan,
    setup: EmulationSetup,
) -> np.ndarray:
    """Read chosen bins directly, skipping the digital decode path.

    Estimates are the unscaled bin values clamped per axis to the
    constellation box (the sender provably transmitted in-box points, so
    anything outside is noise).
    """
    vals = _chosen_values(samples, setup) / plan.scale
    n_sym = vals.size // setup.n_chosen
    if n_sym != plan.ofdm_symbols:
        raise FramingError(f"frame holds {n_sym} OFDM symbols, plan expects {plan.ofdm_symbols}")
    return _clip_to_box(vals, setup.cfg, plan.scale)[: plan.target_count]


def receiver_recover_hard(
    samples: np.ndarray,
    plan: EmulationPlan,
    setup: EmulationSetup,
) -> np.ndarray:
    """Full digital decode, then replay the transmit mapping.

    Runs the complete receive chain to info bits, re-applies scramble,
    encode, puncture, interleave and QAM mapping, and reads the chosen
    subcarriers of the rebuilt grid.  Noiseless, this lands exactly on
    the planned quantized points; past the code's cliff it collapses.
    """
    cfg = setup.cfg
    grids = tx_grids(rx_chain(samples, cfg), cfg)
    vals = grids[:, setup.chosen_bins].reshape(-1) / plan.scale
    return vals[: plan.target_count]


def extract_estimates(
    waveform: np.ndarray, plan: EmulationPlan, setup: EmulationSetup
) -> np.ndarray:
    """Chosen-bin estimates from a (possibly compensated) user-domain waveform."""
    vals = _chosen_values(waveform, setup)
    return _clip_to_box(vals, setup.cfg, plan.scale)[: plan.target_count]


# ---------------------------------------------------------------------------
# end-to-end links
# ---------------------------------------------------------------------------

@dataclass
class LinkRecord:
    """One transmission through the emulated link.

    The waveforms learning reads are derived on demand, so a caller pays
    only for the ones it reads.
    """

    targets: TargetSymbols
    plan: EmulationPlan
    setup: EmulationSetup
    tx_frame: np.ndarray
    rx_frame: np.ndarray  # tx_frame plus the channel's noise
    snr_db: float

    @property
    def clip_rate(self) -> float:
        return self.plan.clip_rate

    @property
    def reference(self) -> np.ndarray:
        """The ideal waveform the proxy maps from."""
        return reference_waveform(self.targets, self.setup)

    @property
    def output_waveform(self) -> np.ndarray:
        """The raw (unclipped) chosen-bin values of ``rx_frame`` re-framed
        in user units, pilots and dummies silenced: what the compensator
        and the proxy see."""
        return self._reframe(self.rx_frame)

    @property
    def clean_waveform(self) -> np.ndarray:
        """The same read of the noiseless ``tx_frame``, which separates
        stochastic noise from the deterministic link distortion."""
        return self._reframe(self.tx_frame)

    def _reframe(self, samples: np.ndarray) -> np.ndarray:
        values = _chosen_values(samples, self.setup) / self.plan.scale
        return waveform_from_values(values, self.setup)


def emulated_link(
    targets: TargetSymbols,
    snr_db: float,
    seed: int,
    setup: EmulationSetup,
    mode: str = "soft",
) -> tuple[np.ndarray, LinkRecord]:
    """Transport targets through invert -> transmit -> AWGN -> recover.

    Returns the soft or hard receiver's estimates and the transmission's
    record, from which the reference, received and noiseless waveforms
    derive.
    """
    if mode not in ("soft", "hard"):
        raise SelectionError(f"mode must be 'soft' or 'hard', got {mode!r}")
    plan = sender_invert(targets, setup)
    tx = tx_chain(plan.bitstream, setup.cfg).samples
    rx = awgn(tx, snr_db, seed)
    recover = receiver_recover_soft if mode == "soft" else receiver_recover_hard
    return recover(rx, plan, setup), LinkRecord(targets, plan, setup, tx, rx, float(snr_db))


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
