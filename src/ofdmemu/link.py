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
    "PlanStack",
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


@dataclass
class PlanStack:
    """What the sender decided for each row of a target stack.

    ``plans`` holds one plan per row, and ``bitstreams`` their bitstreams
    as one (rows, bits) array, which :func:`tx_chain` takes whole; each
    plan's ``bitstream`` is its row.  The counts are the stack's totals.
    """

    plans: list[EmulationPlan]
    bitstreams: np.ndarray
    target_count: int
    ofdm_symbols: int
    clip_count: int


def _target_rows(targets) -> list[TargetSymbols]:
    """A target stack as a list of rows.  FramingError unless it holds
    at least one row, every row is a TargetSymbols, and all have one
    length."""
    rows = list(targets)
    if not rows:
        raise FramingError("a target stack must hold at least one row")
    for t in rows:
        if not isinstance(t, TargetSymbols):
            raise FramingError(f"a target stack holds TargetSymbols rows, got {type(t).__name__}")
        if t.count != rows[0].count:
            raise FramingError(
                f"target rows must have one length, got {rows[0].count} and {t.count}"
            )
    return rows


def sender_invert(targets, setup: EmulationSetup) -> EmulationPlan | PlanStack:
    """Choose constellation points for the targets and solve for info bits.

    Targets pack row-major onto the chosen subcarriers (sorted by
    logical index) of consecutive OFDM symbols; a partial last symbol is
    padded with zero-valued targets.  Each solved block fixes the
    encoder state entering the next symbol, but the solve is linear in
    its target, so all symbols' labels solve in one batch and only the
    state chain runs symbol by symbol.

    A sequence of equal-length TargetSymbols is a stack: every row is
    its own frame, with its own scale and its state chain from 0, all
    rows quantize and solve together, and the result is a
    :class:`PlanStack`.  An empty stack or rows of unequal length raise
    FramingError.
    """
    if isinstance(targets, TargetSymbols):
        return _invert([targets], setup)[0][0]
    rows = _target_rows(targets)
    plans, bitstreams = _invert(rows, setup)
    return PlanStack(
        plans,
        bitstreams,
        target_count=len(rows) * rows[0].count,
        ofdm_symbols=len(rows) * plans[0].ofdm_symbols,
        clip_count=sum(p.clip_count for p in plans),
    )


def _invert(
    rows: list[TargetSymbols], setup: EmulationSetup
) -> tuple[list[EmulationPlan], np.ndarray]:
    """The plan of each row, and their bitstreams as one (rows, bits) array."""
    cfg = setup.cfg
    n_rows, k = len(rows), rows[0].count
    nch = setup.n_chosen
    n_sym = (k + nch - 1) // nch

    edge = box_edge(cfg)
    padded = np.zeros((n_rows, n_sym * nch), dtype=np.complex128)
    over = []
    for row, t in zip(padded, rows):
        row[:k] = t.symbols * t.scale
        # I and Q components beyond the box, read from the (k, 2) float view
        over.append(int(np.count_nonzero(np.abs(row[:k].view(np.float64)) > edge)))

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

    bitstreams = scramble(x_blocks.reshape(n_rows, -1), cfg.scrambler_seed)
    per_row = zip(
        rows, points.reshape(n_rows, n_sym, nch), bitstreams, states.reshape(n_rows, n_sym), over
    )
    # EmulationPlan's fields in order: scale, target_count, ofdm_symbols,
    # quantized, bitstream, incoming_states, clip_count
    plans = [EmulationPlan(float(t.scale), k, n_sym, q, b, s, c) for t, q, b, s, c in per_row]
    return plans, bitstreams


def reference_waveform(targets, setup: EmulationSetup) -> np.ndarray:
    """The ideal user-domain waveform: continuous targets on the chosen
    bins, everything else (pilots, dummies, nulls) silent.  A sequence
    of equal-length TargetSymbols gives a (rows, samples) stack."""
    one = isinstance(targets, TargetSymbols)
    rows = [targets] if one else _target_rows(targets)
    k = rows[0].count
    nch = setup.n_chosen
    vals = np.zeros((len(rows), -(-k // nch) * nch), dtype=np.complex128)
    for row, t in zip(vals, rows):
        row[:k] = t.symbols
    waves = waveform_from_values(vals, setup).reshape(len(rows), -1)
    return waves[0] if one else waves


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
    # so this adds what x + noise[:, 0] + 1j * noise[:, 1] adds
    return x + noise.view(np.complex128).ravel()


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


def _row_values(samples: np.ndarray, plans: list[EmulationPlan], setup: EmulationSetup):
    """The chosen-bin values of one frame per plan, as (rows, k) targets'
    worth; FramingError unless the frames hold the plans' OFDM symbols."""
    vals = _chosen_values(samples, setup)
    n_sym = vals.size // setup.n_chosen
    expected = len(plans) * plans[0].ofdm_symbols
    if n_sym != expected:
        raise FramingError(f"frame holds {n_sym} OFDM symbols, plans expect {expected}")
    return vals.reshape(len(plans), -1)[:, : plans[0].target_count]


def _plan_rows(plan) -> tuple[list[EmulationPlan], float | np.ndarray]:
    """One plan, or a sequence of plans, one per row of a frame stack,
    as a list, with their scale: one float where all rows share it,
    else a (rows, 1) column."""
    if isinstance(plan, EmulationPlan):
        return [plan], plan.scale
    plans = list(plan)
    scales = {p.scale for p in plans}
    return plans, scales.pop() if len(scales) == 1 else np.array([[p.scale] for p in plans])


def receiver_recover_soft(samples: np.ndarray, plan, setup: EmulationSetup) -> np.ndarray:
    """Read chosen bins directly, skipping the digital decode path.

    Estimates are the unscaled bin values clamped per axis to the
    constellation box (the sender provably transmitted in-box points, so
    anything outside is noise).  A (rows, samples) stack of frames with
    a sequence of equal-length plans, one per row, gives (rows, k)
    estimates.
    """
    plans, scale = _plan_rows(plan)
    est = _clip_to_box(_row_values(samples, plans, setup) / scale, setup.cfg, scale)
    return est[0] if isinstance(plan, EmulationPlan) else est


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


def extract_estimates(waveform: np.ndarray, plan, setup: EmulationSetup) -> np.ndarray:
    """Chosen-bin estimates from a (possibly compensated) user-domain
    waveform.  A (rows, samples) stack with a sequence of equal-length
    plans, one per row, gives (rows, k) estimates.  A waveform that does
    not hold the plans' OFDM symbols raises FramingError."""
    plans, scale = _plan_rows(plan)
    est = _clip_to_box(_row_values(waveform, plans, setup), setup.cfg, scale)
    return est[0] if isinstance(plan, EmulationPlan) else est


# ---------------------------------------------------------------------------
# end-to-end links
# ---------------------------------------------------------------------------

@dataclass
class LinkRecord:
    """One transmission through the emulated link.

    The waveforms learning reads are derived from a list of records by
    :func:`output_waveforms` and :func:`clean_waveforms`, so a caller pays
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


def _reframe(frames: list[np.ndarray], plans: list[EmulationPlan], setup: EmulationSetup):
    """Each frame's raw chosen-bin values in its plan's user units,
    re-framed, as one (rows, samples) stack."""
    _, scale = _plan_rows(plans)
    values = _chosen_values(np.stack(frames), setup).reshape(len(plans), -1) / scale
    return waveform_from_values(values, setup).reshape(len(plans), -1)


def output_waveforms(records: list[LinkRecord]) -> np.ndarray:
    """The raw (unclipped) chosen-bin values of each record's ``rx_frame``
    re-framed in user units, pilots and dummies silenced: what the
    compensator and the proxy see.  One (rows, samples) stack, from one
    demodulate and one modulate; the records share a setup and a length."""
    return _reframe([r.rx_frame for r in records], [r.plan for r in records], records[0].setup)


def clean_waveforms(records: list[LinkRecord]) -> np.ndarray:
    """The same read of each record's noiseless ``tx_frame``, which
    separates stochastic noise from the deterministic link distortion,
    stacked as :func:`output_waveforms`."""
    return _reframe([r.tx_frame for r in records], [r.plan for r in records], records[0].setup)


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
    targets,
    snr_db,
    seed,
    setup: EmulationSetup,
    mode: str = "soft",
):
    """Transport targets through invert -> transmit -> AWGN -> recover.

    Returns the soft or hard receiver's estimates and the transmission's
    record, from which the reference, received and noiseless waveforms
    derive.  ``seed`` is an int or a ``Generator``.

    A sequence of equal-length TargetSymbols is a stack, sent in one
    call: ``snr_db`` and ``seed`` are then sequences with one entry per
    row, and the call returns (rows, k) estimates and one record per
    row, each byte for byte what a call with that row alone returns.
    An empty stack, rows of unequal length, or an SNR or seed sequence
    of another length raise FramingError, and a NaN or -inf SNR in any
    row ConfigError, before any row is sent.
    """
    if mode not in ("soft", "hard"):
        raise SelectionError(f"mode must be 'soft' or 'hard', got {mode!r}")
    if isinstance(targets, TargetSymbols):
        # a short call is mostly fixed cost, so one row takes each
        # stage's one-frame form and builds no per-row lists
        plan = sender_invert(targets, setup)
        tx = tx_chain(plan.bitstream, setup.cfg).samples
        rx = awgn(tx, snr_db, seed)
        recover = receiver_recover_soft if mode == "soft" else receiver_recover_hard
        return recover(rx, plan, setup), LinkRecord(targets, plan, setup, tx, rx, float(snr_db))
    rows = _target_rows(targets)
    snrs = _per_row(snr_db, len(rows), "SNRs")
    seeds = _per_row(seed, len(rows), "seeds")
    for snr in snrs:
        check_snr(snr)
    stack = sender_invert(rows, setup)
    tx = tx_chain(stack.bitstreams, setup.cfg).samples
    rx = np.stack([awgn(frame, snr, s) for frame, snr, s in zip(tx, snrs, seeds)])
    if mode == "soft":
        est = receiver_recover_soft(rx, stack.plans, setup)
    else:
        est = np.stack([receiver_recover_hard(f, p, setup) for f, p in zip(rx, stack.plans)])
    records = [
        LinkRecord(t, p, setup, sent, noisy, float(snr))
        for t, p, sent, noisy, snr in zip(rows, stack.plans, tx, rx, snrs)
    ]
    return est, records


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
