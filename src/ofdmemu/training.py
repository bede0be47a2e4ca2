"""Three-stage training: compensator warm-up, link surrogate fit, and
alternating end-to-end optimization of the image codec.

Stage 1 teaches the compensator the link's deterministic distortion on
temporally-structured waveforms.  Stage 2 fits the differentiable proxy
to measured link records and calibrates its injected noise to what the
link actually delivers.  Stage 3 alternates between (A) training codec
and compensator through the frozen proxy and (B) refreshing the proxy
on fresh real-link records from the current encoder.

All stages derive their randomness from one master seed and are exactly
reproducible.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from .config import (
    MAX_BATCH,
    MAX_CALL_OFDM_SYMBOLS,
    MAX_CYCLES,
    MAX_EPOCHS,
    MAX_IMAGES,
    MAX_OFDM_SYMBOLS,
    MAX_WAVEFORMS,
    check_count,
    check_seed,
)
from .errors import ConfigError, TrainingError
from .link import (
    EmulationSetup,
    LinkRecord,
    TargetSymbols,
    _chosen_values,
    axis_noise,
    clean_waveforms,
    emulated_link,
    extract_estimates,
    noise_variance,
    output_waveforms,
    reference_waveform,
    targets_from_waveform,
)
from .nn import (
    CompensatorModel,
    PeriodSpec,
    ProxyModel,
    SGDMomentum,
    Tensor,
    ToyJsccModel,
    complex_to_wave,
    wave_to_complex,
)
from .sources import gaussian_symbols, glyph_images, longest_chosen_run, smooth_waveform

__all__ = [
    "TrainConfig",
    "Curriculum",
    "StageResult",
    "collect_link_records",
    "collect_stage2_records",
    "stage1_train_compensator",
    "stage2_train_proxy",
    "stage3_alternate",
    "train_jscc_ideal",
    "evaluate_image_link",
]

# fixed child indices into the master SeedSequence, so each consumer
# gets an independent stream no matter which stages run
(
    _S1_DATA,
    _S1_INIT,
    _S1_SHUFFLE,
    _S2_DATA,
    _S2_INIT,
    _S2_SHUFFLE,
    _S3_INIT,
    _S3_LOOP,
    _S3_REFRESH,
    _ZS_INIT,
    _ZS_LOOP,
) = range(11)


# TrainConfig's counts and their upper bounds, checked at construction so
# that no oversized stage is ever allocated
_COUNT_LIMITS = {
    "batch_size": MAX_BATCH,
    "image_batch_size": MAX_BATCH,
    "stage1_epochs": MAX_EPOCHS,
    "stage1_waveforms": MAX_WAVEFORMS,
    "stage1_val_waveforms": MAX_WAVEFORMS,
    "stage1_ofdm_symbols": MAX_OFDM_SYMBOLS,
    "stage2_epochs": MAX_EPOCHS,
    "stage2_records": MAX_WAVEFORMS,
    "stage2_ofdm_symbols": MAX_OFDM_SYMBOLS,
    "stage3_max_cycles": MAX_CYCLES,
    "stage3_phase_a_epochs": MAX_EPOCHS,
    "stage3_images": MAX_IMAGES,
    "refresh_batch_count": MAX_BATCH,
    "stage3_refresh_epochs": MAX_EPOCHS,
}


# the (rows, OFDM symbols per row) of each stage's one link call
_LINK_CALLS = (
    ("stage1_waveforms", "stage1_ofdm_symbols"),
    ("stage1_val_waveforms", "stage1_ofdm_symbols"),
    ("stage2_records", "stage2_ofdm_symbols"),
)


# stage 2 holds out a quarter of its records, at least 2, and fits the rest
_MIN_STAGE2_RECORDS = 8

# waveform samples per compensator call in evaluate_image_link: 64 images
# of 80 samples, whose 40x2 source fold runs (8064, 8) @ (8, 8) tap
# matmuls.  Past about 16,000 rows OpenBLAS splits such a matmul over two
# threads, and on a 2-CPU box each call then costs about 8 ms
_COMPENSATE_SAMPLES = 5120


@dataclass
class TrainConfig:
    """The master seed and the counts of all three stages; defaults are
    desk-scale.

    The step sizes, the momentum, the weight ``gamma`` of stage 3's
    waveform-fidelity term, stage 3's stopping tolerance and the two
    stage SNRs are class constants, not fields.
    """

    step_comp: ClassVar[float] = 0.1
    step_proxy: ClassVar[float] = 0.05
    step_jscc: ClassVar[float] = 0.05
    momentum: ClassVar[float] = 0.9
    gamma: ClassVar[float] = 0.5
    tolerance: ClassVar[float] = 1e-3
    stage1_snr_db: ClassVar[float] = math.inf  # noiseless
    stage2_snr_db: ClassVar[float] = 15.0
    master_seed: int = 0
    batch_size: int = 12
    image_batch_size: int = 32
    # stage 1
    stage1_epochs: int = 50
    stage1_waveforms: int = 48
    stage1_val_waveforms: int = 16
    stage1_ofdm_symbols: int = 4
    # stage 2
    stage2_epochs: int = 30
    stage2_records: int = 64
    stage2_ofdm_symbols: int = 4
    # stage 3
    stage3_max_cycles: int = 4
    stage3_phase_a_epochs: int = 60
    stage3_images: int = 256
    refresh_batch_count: int = 24
    stage3_refresh_epochs: int = 8

    def __post_init__(self):
        for name, limit in _COUNT_LIMITS.items():
            check_count(name, getattr(self, name), limit)
        for rows, per_row in _LINK_CALLS:
            n_sym = getattr(self, rows) * getattr(self, per_row)
            check_count(f"{rows} x {per_row}", n_sym, MAX_CALL_OFDM_SYMBOLS)
        if self.refresh_batch_count < 2:
            raise ConfigError("refresh_batch_count must be at least 2: one record is held out")
        if self.stage2_records < _MIN_STAGE2_RECORDS:
            raise ConfigError(
                f"stage2_records must be at least {_MIN_STAGE2_RECORDS}: "
                "a quarter of them is held out"
            )
        check_seed(self.master_seed)

    def child_rng(self, index: int) -> np.random.Generator:
        # the same stream as SeedSequence(master_seed).spawn(n)[index]
        return np.random.default_rng(np.random.SeedSequence(self.master_seed, spawn_key=(index,)))


class Curriculum:
    """Training SNRs, drawn uniformly from ``SNR_RANGE`` per batch."""

    SNR_RANGE = (5.0, 25.0)

    def sample(self, rng: np.random.Generator) -> float:
        lo, hi = self.SNR_RANGE
        return float(rng.uniform(lo, hi))


@dataclass
class StageResult:
    model: object
    loss_trace: list
    metrics: dict = field(default_factory=dict)


def _mse(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.mean((np.asarray(a) - np.asarray(b)) ** 2))


def _sgd_epochs(
    opt: SGDMomentum, batch_loss, n: int, batch_size: int, epochs: int,
    rng: np.random.Generator, stage: str, trace: list,
):
    """Shuffled minibatch SGD over ``n`` items, the loop of every stage.

    Per epoch, draws a permutation from ``rng`` and steps ``opt`` on
    ``batch_loss(indices)`` for each batch of it, then yields the epoch's
    batch losses.  A non-finite batch loss raises ``TrainingError`` with
    ``trace`` attached.
    """
    for _ in range(epochs):
        perm = rng.permutation(n)
        losses = []
        for lo in range(0, n, batch_size):
            loss = batch_loss(perm[lo : lo + batch_size])
            opt.zero_grad()
            loss.backward()
            opt.apply()
            value = loss.item()
            if not math.isfinite(value):
                raise TrainingError(f"{stage}: loss went non-finite ({value})", trace)
            losses.append(value)
        yield losses


# ---------------------------------------------------------------------------
# stage 1
# ---------------------------------------------------------------------------

def _stage1_pairs(
    setup: EmulationSetup, train_cfg: TrainConfig, count: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Distorted/clean waveform pairs from one link call on smooth sources."""
    cfg = setup.cfg
    carrier, _ = longest_chosen_run(setup)
    n = train_cfg.stage1_ofdm_symbols * cfg.samples_per_ofdm
    waves = np.empty((count, n), dtype=np.complex128)
    seeds = []
    for wave in waves:
        wave[:] = smooth_waveform(n, rng, carrier, cfg.fft_size, bandwidth_bins=4.0)
        seeds.append(int(rng.integers(2**63)))
    targets = targets_from_waveform(waves, setup)
    _, record = emulated_link(targets, [train_cfg.stage1_snr_db] * count, seeds, setup)
    return complex_to_wave(output_waveforms(record)), complex_to_wave(waves)


def stage1_train_compensator(
    setup: EmulationSetup, train_cfg: TrainConfig, model: CompensatorModel | None = None
) -> StageResult:
    """Fit the compensator to the link's deterministic distortion.

    The (distorted, clean) pairs come from the real link on smooth
    waveforms at ``TrainConfig.stage1_snr_db``, without noise.
    """
    data_rng = train_cfg.child_rng(_S1_DATA)
    xs, ys = _stage1_pairs(setup, train_cfg, train_cfg.stage1_waveforms, data_rng)
    vx, vy = _stage1_pairs(setup, train_cfg, train_cfg.stage1_val_waveforms, data_rng)
    if model is None:
        spec = PeriodSpec.from_config(setup.cfg, setup.n_chosen)
        model = CompensatorModel(spec, train_cfg.child_rng(_S1_INIT))

    def batch_loss(idx):
        return (model(Tensor(xs[idx])) - Tensor(ys[idx])).square().mean()

    opt = SGDMomentum(model.parameters(), train_cfg.step_comp, train_cfg.momentum)
    trace: list[float] = []
    epochs = _sgd_epochs(
        opt, batch_loss, len(xs), train_cfg.batch_size, train_cfg.stage1_epochs,
        train_cfg.child_rng(_S1_SHUFFLE), "stage1", trace,
    )
    for losses in epochs:
        trace.append(float(np.mean(losses)))

    base = _mse(vx, vy)  # untrained residual model is the identity
    after = _mse(model(Tensor(vx)).data, vy)
    return StageResult(
        model=model,
        loss_trace=trace,
        metrics={
            "val_mse_uncompensated": base,
            "val_mse_compensated": after,
            "improvement": (base - after) / base if base > 0 else 0.0,
        },
    )


# ---------------------------------------------------------------------------
# stage 2
# ---------------------------------------------------------------------------

def collect_link_records(
    setup: EmulationSetup,
    count: int,
    snr_db: float,
    rng: np.random.Generator,
    n_ofdm: int,
) -> LinkRecord:
    """The soft-mode link record of ``count`` rows of Gaussian targets,
    ``n_ofdm`` OFDM symbols each, for proxy training, from one link call."""
    symbols = np.empty((count, n_ofdm * setup.n_chosen), dtype=np.complex128)
    seeds = []
    for row in symbols:
        row[:] = gaussian_symbols(row.size, rng)
        seeds.append(int(rng.integers(2**63)))
    targets = TargetSymbols.unit_power(symbols, setup.cfg)
    return emulated_link(targets, [snr_db] * count, seeds, setup)[1]


def collect_stage2_records(setup: EmulationSetup, train_cfg: TrainConfig) -> LinkRecord:
    """The stage-2 link record ``train_cfg`` configures, from its own seed."""
    return collect_link_records(
        setup, train_cfg.stage2_records, train_cfg.stage2_snr_db,
        train_cfg.child_rng(_S2_DATA), n_ofdm=train_cfg.stage2_ofdm_symbols,
    )


def _calibrate_noise(
    refs: np.ndarray, outs: np.ndarray, cleans: np.ndarray, nominals: np.ndarray
) -> tuple[float, float, float]:
    """Fit (gain, floor) of the proxy noise law to measured rows, given
    their reference, output and clean waveforms and nominal noise
    variances.

    floor: mean squared deterministic distortion (clean replay vs
    reference).  gain: measured stochastic variance regressed against
    the nominal 10^(-snr/10) law.  Also returns the mean measured
    stochastic variance for reporting.
    """
    floor = float(np.mean(np.mean(np.abs(cleans - refs) ** 2, axis=1)))
    variances = np.mean(np.abs(outs - cleans) ** 2, axis=1)
    denom = float(np.sum(nominals**2))
    gain = float(np.sum(variances * nominals) / denom) if denom > 0 else 0.0
    return gain, floor, float(np.mean(variances))


def _proxy_fit(
    proxy: ProxyModel, opt: SGDMomentum, refs: np.ndarray, outs: np.ndarray, n_held: int,
    batch_size: int, epochs: int, rng: np.random.Generator, stage: str, trace: list,
):
    """Fit the proxy's deterministic part to all but the last ``n_held``
    records, which are held out, given their reference and output stacks.

    Returns the ``_sgd_epochs`` generator of the fit, which runs as it is
    consumed, and a function giving the held-out complex per-sample MSE.
    """
    xs = complex_to_wave(refs)
    ys = complex_to_wave(outs)

    def batch_loss(idx):
        # deterministic fit: noise off, noisy targets average out
        pred = proxy(Tensor(xs[idx]), inject_noise=False)
        return (pred - Tensor(ys[idx])).square().mean()

    def held_out_mse() -> float:
        pred = proxy(Tensor(xs[-n_held:]), inject_noise=False).data
        # complex per-sample MSE = 2x the per-real-component MSE
        return 2.0 * _mse(pred, ys[-n_held:])

    fit = _sgd_epochs(opt, batch_loss, len(refs) - n_held, batch_size, epochs, rng, stage, trace)
    return fit, held_out_mse


def stage2_train_proxy(
    record: LinkRecord,
    train_cfg: TrainConfig,
    model: ProxyModel | None = None,
) -> StageResult:
    """Fit the proxy's deterministic part to a link record's rows and
    calibrate its noise injection."""
    n = record.plan.rows
    if n < _MIN_STAGE2_RECORDS:
        raise TrainingError(
            f"need at least {_MIN_STAGE2_RECORDS} records for a train/held-out split, got {n}"
        )
    n_held = max(2, n // 4)
    if model is None:
        model = ProxyModel(train_cfg.child_rng(_S2_INIT))
    refs, outs = reference_waveform(record.targets, record.setup), output_waveforms(record)
    measured = (
        refs, outs, clean_waveforms(record),
        np.array([noise_variance(snr) for snr in record.snr_db.tolist()]),
    )
    train, held = slice(-n_held), slice(-n_held, None)
    gain, floor, sigma_sq = _calibrate_noise(*(a[train] for a in measured))
    model.noise_gain = gain
    model.noise_floor = floor

    opt = SGDMomentum(model.parameters(), train_cfg.step_proxy, train_cfg.momentum)
    trace: list[float] = []
    epochs, held_out_mse = _proxy_fit(
        model, opt, refs, outs, n_held, train_cfg.batch_size, train_cfg.stage2_epochs,
        train_cfg.child_rng(_S2_SHUFFLE), "stage2", trace,
    )
    for losses in epochs:
        trace.append(float(np.mean(losses)))

    held_mse = held_out_mse()
    _, held_floor, held_sigma_sq = _calibrate_noise(*(a[held] for a in measured))
    bound = 2.0 * held_sigma_sq + held_floor
    return StageResult(
        model=model,
        loss_trace=trace,
        metrics={
            "noise_gain": gain,
            "noise_floor": floor,
            "sigma_sq": sigma_sq,
            "held_out_mse": held_mse,
            "held_out_bound": bound,
            "held_out_sigma_sq": held_sigma_sq,
            "held_out_floor": held_floor,
            "within_bound": held_mse <= bound,
        },
    )


# ---------------------------------------------------------------------------
# stage 3
# ---------------------------------------------------------------------------

class _SymbolFraming:
    """Constant linear maps between latent reals and reference waveforms.

    Built by passing basis rows through the link's own framing and unit
    waves through its own chosen-bin read, so the in-graph matrices agree
    with the real link by construction.  Latent layout: reals (2K,) with
    even indices real parts, odd indices imaginary parts.  Wave layout:
    (N_s, 2).
    """

    def __init__(self, setup: EmulationSetup, pairs: int):
        # row 2k carries 1 on pair k and row 2k + 1 carries 1j
        basis = TargetSymbols(np.kron(np.eye(pairs), [[1.0], [1.0j]]), 1.0)
        waves = reference_waveform(basis, setup)
        self.n_samples = waves.shape[1]
        self.frame_matrix = np.ascontiguousarray(waves.view(np.float64).T)

        # row 2j carries 1 at sample j and row 2j + 1 carries 1j
        units = np.kron(np.eye(self.n_samples), [[1.0], [1.0j]])
        vals = _chosen_values(units, setup).reshape(2 * self.n_samples, -1)[:, :pairs]
        self.extract_matrix = np.ascontiguousarray(vals.view(np.float64).T)

    def frame(self, latent: Tensor) -> Tensor:
        """(B, 2K) latent -> (B, N_s, 2) reference waveform."""
        flat = latent @ Tensor(self.frame_matrix.T)
        return flat.reshape(flat.shape[0], self.n_samples, 2)

    def extract(self, wave: Tensor) -> Tensor:
        """(B, N_s, 2) waveform -> (B, 2K) latent estimates."""
        flat = wave.reshape(wave.shape[0], 2 * self.n_samples)
        return flat @ Tensor(self.extract_matrix.T)


def _latent_to_symbols(latent: np.ndarray) -> np.ndarray:
    """(..., 2K) latent reals -> (..., K) symbols, (real, imaginary) pairwise."""
    return np.ascontiguousarray(latent).view(np.complex128)


def stage3_alternate(
    jscc: ToyJsccModel,
    comp: CompensatorModel,
    proxy: ProxyModel,
    setup: EmulationSetup,
    train_cfg: TrainConfig,
    curriculum: Curriculum | None = None,
) -> StageResult:
    """Alternate codec/compensator training through the frozen proxy
    (phase A) with proxy refresh on fresh real-link records (phase B).

    Phase A turns off ``requires_grad`` on the proxy's parameters, and
    turns it back on however the phase ends: gradients reach the proxy's
    input, but no backward forms the proxy's own, which phase B would
    discard before its first step.

    Stops when the relative joint-loss improvement over one full cycle
    drops below the tolerance, or after the cycle cap.  A joint loss
    exceeding 10x its initial value aborts with the trace attached.
    """
    if curriculum is None:
        curriculum = Curriculum()
    framing = _SymbolFraming(setup, jscc.latent_pairs)
    loop_rng = train_cfg.child_rng(_S3_LOOP)
    refresh_rng = train_cfg.child_rng(_S3_REFRESH)
    images = glyph_images(train_cfg.stage3_images, train_cfg.child_rng(_S3_INIT))
    flat_images = images.reshape(len(images), -1)

    ab_params = jscc.parameters() + comp.parameters()
    opt_a = SGDMomentum(ab_params, train_cfg.step_jscc, train_cfg.momentum)
    opt_b = SGDMomentum(proxy.parameters(), train_cfg.step_proxy, train_cfg.momentum)

    def joint_loss(imgs: np.ndarray, snr_db: float, seed) -> Tensor:
        z = jscc.encode(Tensor(imgs))
        ref = framing.frame(z)
        sim = proxy(ref, snr_db=snr_db, seed=seed)
        corrected = comp(sim)
        recon = jscc.decode(framing.extract(corrected))
        loss = (recon - Tensor(imgs)).square().mean()
        return loss + train_cfg.gamma * ((corrected - ref).square().mean())

    # fixed probe for the stopping rule: mid-curriculum SNR, frozen seed
    probe_imgs = flat_images[: train_cfg.image_batch_size]
    probe_snr = sum(curriculum.SNR_RANGE) / 2.0

    def probe() -> float:
        return joint_loss(probe_imgs, probe_snr, seed=0xC0FFEE).item()

    def phase_a_loss(idx):
        snr = curriculum.sample(loop_rng)
        seed = int(loop_rng.integers(2**63))
        return joint_loss(flat_images[idx], snr, seed)

    trace: list[tuple[int, str, float]] = []
    initial = probe()
    trace.append((0, "probe", initial))
    previous = initial

    for cycle in range(1, train_cfg.stage3_max_cycles + 1):
        # phase A: codec + compensator through the frozen proxy
        epochs = _sgd_epochs(
            opt_a, phase_a_loss, len(flat_images), train_cfg.image_batch_size,
            train_cfg.stage3_phase_a_epochs, loop_rng, "stage3/phaseA", trace,
        )
        for p in opt_b.params:
            p.requires_grad = False
        try:
            for losses in epochs:
                trace.append((cycle, "A", losses[-1]))
        finally:
            for p in opt_b.params:
                p.requires_grad = True

        # phase B: fresh records from the current encoder, sent in one
        # link call, then the proxy refresh
        symbols = np.empty((train_cfg.refresh_batch_count, jscc.latent_pairs), np.complex128)
        snrs, seeds = [], []
        for row in symbols:
            pick = refresh_rng.integers(len(flat_images))
            row[:] = _latent_to_symbols(jscc.encode(Tensor(flat_images[pick : pick + 1])).data[0])
            snrs.append(curriculum.sample(refresh_rng))
            seeds.append(int(refresh_rng.integers(2**63)))
        _, fresh = emulated_link(TargetSymbols.unit_power(symbols, setup.cfg), snrs, seeds, setup)
        epochs, held_out_mse = _proxy_fit(
            proxy, opt_b, reference_waveform(fresh.targets, setup), output_waveforms(fresh),
            max(1, len(symbols) // 4), train_cfg.batch_size, train_cfg.stage3_refresh_epochs,
            refresh_rng, "stage3/phaseB", trace,
        )
        pre_refresh = held_out_mse()
        last_epoch = list(epochs)[-1]
        post_refresh = held_out_mse()
        trace.append((cycle, "B", last_epoch[-1]))

        current = probe()
        trace.append((cycle, "probe", current))
        if current > 10.0 * initial:
            raise TrainingError(
                f"stage3 diverged: joint loss {current:.4g} > 10x initial {initial:.4g}",
                trace,
            )
        improvement = (previous - current) / previous if previous > 0 else 0.0
        previous = current
        if improvement < train_cfg.tolerance and cycle >= 2:
            break

    return StageResult(
        model=(jscc, comp, proxy),
        loss_trace=trace,
        metrics={
            "initial_joint_loss": initial,
            "final_joint_loss": previous,
            "cycles": cycle,
            "refresh_fidelity_pre": pre_refresh,
            "refresh_fidelity_post": post_refresh,
        },
    )


# ---------------------------------------------------------------------------
# ideal-analog training and deployment evaluation
# ---------------------------------------------------------------------------

def train_jscc_ideal(
    train_cfg: TrainConfig,
    curriculum: Curriculum | None = None,
    jscc: ToyJsccModel | None = None,
) -> StageResult:
    """Train the toy codec assuming a perfect analog channel.

    This produces the zero-shot baseline: symbol-level AWGN at the
    nominal SNR law, no link in the loop.
    """
    if curriculum is None:
        curriculum = Curriculum()
    if jscc is None:
        jscc = ToyJsccModel(train_cfg.child_rng(_ZS_INIT))
    loop_rng = train_cfg.child_rng(_ZS_LOOP)
    images = glyph_images(train_cfg.stage3_images, train_cfg.child_rng(_S3_INIT))
    flat_images = images.reshape(len(images), -1)

    def batch_loss(idx):
        snr = curriculum.sample(loop_rng)
        z = jscc.encode(Tensor(flat_images[idx]))
        noise = axis_noise(loop_rng, noise_variance(snr), z.shape)
        recon = jscc.decode(z + Tensor(noise))
        return (recon - Tensor(flat_images[idx])).square().mean()

    opt = SGDMomentum(jscc.parameters(), train_cfg.step_jscc, train_cfg.momentum)
    trace: list[float] = []
    epochs = _sgd_epochs(
        opt, batch_loss, len(flat_images), train_cfg.image_batch_size,
        train_cfg.stage3_max_cycles * train_cfg.stage3_phase_a_epochs, loop_rng,
        "ideal-analog", trace,
    )
    for losses in epochs:
        trace.append(losses[-1])
    return StageResult(model=jscc, loss_trace=trace)


def evaluate_image_link(
    jscc: ToyJsccModel,
    setup: EmulationSetup,
    snr_db: float,
    seed: int,
    images: np.ndarray,
    compensator: CompensatorModel | None = None,
) -> dict:
    """Image and symbol MSE through the real (soft) emulated link.

    Each image rides its own one-body transmission, matching how the
    compensator and codec see waveforms during training.  Per-image noise
    seeds derive from ``seed`` so runs stay reproducible.  A compensator,
    if given, corrects the received waveforms before the estimates are
    read.  Every image sends ``latent_pairs`` symbols, so the images go
    through the link as one stack, and the compensator corrects their
    (B, N_s, 2) waveform stack in slices of at most ``_COMPENSATE_SAMPLES``
    samples.  Rows never mix, so the slicing changes no byte.
    """
    flat = images.reshape(len(images), -1)
    # (B, 2K) latents at unit average power, as (B, K) symbols
    symbols = _latent_to_symbols(jscc.encode(Tensor(flat)).data)
    targets = TargetSymbols.unit_power(symbols, setup.cfg)
    rngs = [np.random.default_rng(child) for child in np.random.SeedSequence(seed).spawn(len(flat))]
    est, record = emulated_link(targets, [snr_db] * len(flat), rngs, setup)
    if compensator is not None:
        waves = complex_to_wave(output_waveforms(record))
        step = max(1, _COMPENSATE_SAMPLES // waves.shape[1])
        corrected = np.concatenate(
            [compensator(Tensor(waves[lo : lo + step])).data for lo in range(0, len(waves), step)]
        )
        est = extract_estimates(wave_to_complex(corrected), record.plan, setup)
    # each image's clip rate, added in image order
    clip_total = sum((record.plan.clip_counts / (2 * symbols.shape[1])).tolist())
    recon = jscc.decode(Tensor(est.view(np.float64))).data  # estimates as (B, 2K) reals
    per_image = np.mean((recon - flat) ** 2, axis=1)
    return {
        "image_mse": _mse(recon, flat),
        "symbol_mse": float(np.mean(np.abs(est - symbols) ** 2)),
        "clip_rate": clip_total / len(flat),
        "per_image_sq_err": per_image,
        "symbol_power": float(np.mean(np.abs(symbols) ** 2)),
    }


@dataclass
class PipelineResult:
    """Everything the harness needs after a full training run."""

    compensator: CompensatorModel
    proxy: ProxyModel
    jscc: ToyJsccModel
    zero_shot_jscc: ToyJsccModel
    stage1: StageResult
    stage2: StageResult
    stage3: StageResult
    zero_shot: StageResult


def run_training_pipeline(setup: EmulationSetup, train_cfg: TrainConfig) -> PipelineResult:
    """Run all three stages plus the zero-shot baseline, one master seed.

    The codec that enters stage 3 starts from the zero-shot weights (a
    codec trained on the ideal analog channel, never on the link), so
    stage 3 is pure link adaptation.
    """
    stage1 = stage1_train_compensator(setup, train_cfg)
    stage2 = stage2_train_proxy(collect_stage2_records(setup, train_cfg), train_cfg)
    zero_shot = train_jscc_ideal(train_cfg)
    jscc = copy.deepcopy(zero_shot.model)
    stage3 = stage3_alternate(jscc, stage1.model, stage2.model, setup, train_cfg)
    return PipelineResult(
        compensator=stage1.model,
        proxy=stage2.model,
        jscc=jscc,
        zero_shot_jscc=zero_shot.model,
        stage1=stage1,
        stage2=stage2,
        stage3=stage3,
        zero_shot=zero_shot,
    )
