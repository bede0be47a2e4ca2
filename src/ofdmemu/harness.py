"""Experiment runner: SNR sweeps over the four transport systems, metric
tables, conformance self-test, and plot-data emission.

Every sweep cell derives its seed as master_seed XOR cell_index, so cells
are order-independent and individually reproducible.  The self-test
checks the coded chain against straight-line reference implementations
written out longhand here, pinned to the standard polynomials, so a
broken production chain cannot vouch for itself.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .config import (
    BITS_PER_SYMBOL, MAX_FLOAT_SERIAL_SYMBOLS, MAX_IMAGES, MAX_SYMBOLS, PhyConfig, check_count,
    check_seed,
)
from .errors import ConfigError, OfdmEmuError
from .gf2 import Gf2Solver, Unsolvable
from .inversion import build_symbol_system, restrict_rows
from .link import (
    EmulationSetup,
    TargetSymbols,
    box_edge,
    check_snr,
    emulated_link,
    float_serialization_link,
    ideal_analog_link,
)
from .phy import qam_quantize, rx_chain
from .sources import glyph_images

SYSTEM_IDS = ("ideal_analog", "emulated", "float_serial", "zero_shot")
DEFAULT_SNR_LIST = tuple(float(s) for s in range(-5, 40, 5))


class CheckpointMissing(ConfigError):
    """A sweep system needs a trained model that has not been provided."""


@dataclass(frozen=True)
class ExperimentSpec:
    """One sweep campaign: which systems, which SNRs, how much data."""

    cfg: PhyConfig = field(default_factory=PhyConfig)
    snr_list: tuple[float, ...] = DEFAULT_SNR_LIST
    n_symbols: int = 10_000
    n_images: int = 256
    systems: tuple[str, ...] = SYSTEM_IDS
    master_seed: int = 0

    def __post_init__(self) -> None:
        if not self.snr_list:
            raise ConfigError("snr_list must not be empty")
        snrs = tuple(float(s) for s in self.snr_list)
        for snr in snrs:
            check_snr(snr)
        if list(snrs) != sorted(snrs):
            raise ConfigError("snr_list must be sorted ascending")
        object.__setattr__(self, "snr_list", snrs)
        check_count("n_symbols", self.n_symbols, MAX_SYMBOLS)
        check_count("n_images", self.n_images, MAX_IMAGES)
        check_seed(self.master_seed)
        if not self.systems:
            raise ConfigError("systems must not be empty")
        unknown = set(self.systems) - set(SYSTEM_IDS)
        if unknown:
            raise ConfigError(f"unknown systems {sorted(unknown)}; valid: {SYSTEM_IDS}")
        if "float_serial" in self.systems:
            check_count("n_symbols with float_serial", self.n_symbols, MAX_FLOAT_SERIAL_SYMBOLS)


@dataclass(frozen=True)
class MetricRow:
    """One (system, SNR) sweep cell.

    ``image_mse`` and ``ber`` stay None for systems where they have no
    meaning.  ``mse_stderr`` feeds the plot-data series and is not a CSV
    column.
    """

    system: str
    snr_db: float
    symbol_mse: float
    image_mse: float | None
    evm_percent: float
    ber: float | None
    n: int
    seed: int
    mse_stderr: float = 0.0

    def __post_init__(self) -> None:
        for name in ("symbol_mse", "image_mse", "evm_percent", "ber", "mse_stderr"):
            v = getattr(self, name)
            if v is None:
                continue
            if not np.isfinite(v) or v < 0:
                raise OfdmEmuError(f"metric {name}={v} must be finite and non-negative")


CSV_COLUMNS = ("system", "snr_db", "symbol_mse", "image_mse", "evm_percent", "ber", "n", "seed")


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return format(value, ".12g")
    return str(value)


def csv_text(rows: list[MetricRow]) -> str:
    """The stable 8-column schema; None renders as an empty field."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for row in rows:
        writer.writerow([_fmt(getattr(row, c)) for c in CSV_COLUMNS])
    return buf.getvalue()


def write_csv(rows: list[MetricRow], path: str | Path) -> None:
    Path(path).write_text(csv_text(rows), newline="")


def gaussian_targets(n: int, rng: np.random.Generator) -> np.ndarray:
    """Unit-power complex Gaussian targets for sweep cells and ``emulate``.

    Draws all real parts, then all imaginary parts.
    ``sources.gaussian_symbols`` interleaves the two draws instead, so the
    same seed gives different symbols; the pinned sweep bytes follow this
    order.
    """
    return (rng.standard_normal(n) + 1j * rng.standard_normal(n)) / np.sqrt(2.0)


def evm_percent(err_power: float, ref_power: float) -> float:
    """RMS error over RMS reference, in percent; finite when the reference power is 0."""
    return float(np.sqrt(err_power / max(ref_power, 1e-300)) * 100.0)


def _metric_row(
    system: str,
    snr: float,
    seed: int,
    n: int,
    errors: np.ndarray,
    symbol_mse: float,
    symbol_power: float,
    ber: float | None = None,
    image_mse: float | None = None,
) -> MetricRow:
    """``errors`` holds the per-item squared errors behind the stderr."""
    return MetricRow(
        system=system,
        snr_db=snr,
        symbol_mse=symbol_mse,
        image_mse=image_mse,
        evm_percent=evm_percent(symbol_mse, symbol_power),
        ber=ber,
        n=n,
        seed=seed,
        mse_stderr=float(errors.std() / np.sqrt(errors.size)),
    )


def _cell_symbols(
    system: str, spec: ExperimentSpec, setup: EmulationSetup | None, snr: float, seed: int
) -> MetricRow:
    """One cell of a symbol-level system: ideal_analog, emulated or float_serial."""
    rng = np.random.default_rng(seed)
    sym = gaussian_targets(spec.n_symbols, rng)
    ber = None
    if system == "ideal_analog":
        est = ideal_analog_link(sym, snr, rng)
    elif system == "emulated":
        est, rec = emulated_link(TargetSymbols.unit_power(sym, spec.cfg), snr, seed, setup)
        ber = float(np.mean(rx_chain(rec.rx_frame, spec.cfg) != rec.plan.bitstream))
    else:
        out, bits, got = float_serialization_link(sym.view(np.float64), snr, seed, spec.cfg)
        est = out.view(np.complex128)
        ber = float(np.mean(bits != got))
    sq = np.abs(est - sym) ** 2
    return _metric_row(
        system, snr, seed, spec.n_symbols, sq, float(sq.mean()), np.mean(np.abs(sym) ** 2), ber
    )


def _cell_zero_shot(
    spec: ExperimentSpec, setup: EmulationSetup, snr: float, seed: int, jscc
) -> MetricRow:
    from .training import evaluate_image_link

    rng = np.random.default_rng(seed)
    images = glyph_images(spec.n_images, rng)
    result = evaluate_image_link(jscc, setup, snr, seed, images)
    return _metric_row(
        "zero_shot",
        snr,
        seed,
        spec.n_images,
        result["per_image_sq_err"],
        result["symbol_mse"],
        result["symbol_power"],
        image_mse=result["image_mse"],
    )


def run_sweep(
    spec: ExperimentSpec,
    setup: EmulationSetup | None = None,
    models: dict | None = None,
) -> list[MetricRow]:
    """One MetricRow per (system, snr) cell, in spec order.

    ``models`` must supply ``zero_shot`` (a trained codec) when that
    system is requested.  Cell seeds are master_seed XOR cell_index, so
    any single cell can be reproduced in isolation.
    """
    models = models or {}
    if "zero_shot" in spec.systems and "zero_shot" not in models:
        raise CheckpointMissing(
            "the zero_shot system needs a trained codec checkpoint; "
            "run the train-e2e subcommand first and pass its output directory"
        )
    needs_setup = {"emulated", "zero_shot"} & set(spec.systems)
    if setup is None and needs_setup:
        setup = EmulationSetup.build(spec.cfg)
    rows = []
    for sys_i, system in enumerate(spec.systems):
        for snr_j, snr in enumerate(spec.snr_list):
            cell = sys_i * len(spec.snr_list) + snr_j
            seed = spec.master_seed ^ cell
            if system == "zero_shot":
                rows.append(_cell_zero_shot(spec, setup, snr, seed, models["zero_shot"]))
            else:
                rows.append(_cell_symbols(system, spec, setup, snr, seed))
    return rows


def emit_plotdata(rows: list[MetricRow], out_dir: str | Path) -> list[Path]:
    """One whitespace series file per system plus a combined CSV.

    Series lines are (snr, mse, stderr) where mse is the system's
    headline metric: image MSE when present, symbol MSE otherwise.
    Output bytes depend only on the rows.
    """
    if not rows:
        raise OfdmEmuError("empty metric table")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []
    systems = []
    for row in rows:
        if row.system not in systems:
            systems.append(row.system)
    for system in systems:
        lines = []
        for row in rows:
            if row.system != system:
                continue
            mse = row.image_mse if row.image_mse is not None else row.symbol_mse
            lines.append(f"{_fmt(row.snr_db)} {_fmt(mse)} {_fmt(row.mse_stderr)}")
        path = out / f"{system}.dat"
        path.write_text("\n".join(lines) + "\n")
        written.append(path)
    combined = out / "combined.csv"
    write_csv(rows, combined)
    written.append(combined)
    return written


# ---------------------------------------------------------------------------
# Self-test: straight-line reference implementations, written out longhand
# and pinned to the standard constants.  They deliberately share no code
# with the production chain.


def _ref_scramble(bits, seed):
    st = [(seed >> i) & 1 for i in range(7)]  # st[i] = register cell i
    out = []
    for b in bits:
        fb = st[6] ^ st[3]  # x^7 and x^4 taps
        out.append(int(b) ^ fb)
        st = [fb] + st[:6]
    return out


# first 16 outputs of the all-ones-seed register, the published pattern
_SCRAMBLER_KNOWN_PREFIX = (0, 0, 0, 0, 1, 1, 1, 0, 1, 1, 1, 1, 0, 0, 1, 0)


def _ref_conv_encode(bits, state=0):
    # state bit i = input from i+1 steps back; G1=0o133, G2=0o171
    reg = [(state >> i) & 1 for i in range(6)]
    out = []
    for b in bits:
        window = [int(b)] + reg
        a = window[0] ^ window[2] ^ window[3] ^ window[5] ^ window[6]
        g = window[0] ^ window[1] ^ window[2] ^ window[3] ^ window[6]
        out.extend([a, g])
        reg = window[:6]
    return out


def _ref_puncture(coded, rate):
    if rate == "1/2":
        return list(coded)
    kept = []
    if rate == "2/3":
        # of each 4 coded bits keep a1 g1 a2
        for i in range(0, len(coded), 4):
            kept.extend(coded[i : i + 3])
    elif rate == "3/4":
        # of each 6 keep a1 g1 a2 g3
        for i in range(0, len(coded), 6):
            block = coded[i : i + 6]
            kept.extend([block[0], block[1], block[2], block[5]])
    elif rate == "5/6":
        # of each 10 keep a1 g1 a2 g3 a4 g5
        for i in range(0, len(coded), 10):
            block = coded[i : i + 10]
            kept.extend([block[0], block[1], block[2], block[5], block[6], block[9]])
    else:
        raise ValueError(rate)
    return kept


def _ref_interleave(bits, n_cbps, n_bpsc):
    s = max(n_bpsc // 2, 1)
    out = [0] * n_cbps
    for k in range(n_cbps):
        i = (n_cbps // 16) * (k % 16) + (k // 16)
        j = s * (i // s) + (i + n_cbps - (16 * i) // n_cbps) % s
        out[j] = bits[k]
    return out


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str


@dataclass
class SelfTestReport:
    checks: list[CheckResult]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def render(self) -> str:
        lines = []
        for c in self.checks:
            lines.append(f"[{'PASS' if c.passed else 'FAIL'}] {c.name}: {c.detail}")
        lines.append(
            f"{sum(c.passed for c in self.checks)}/{len(self.checks)} checks passed"
        )
        return "\n".join(lines)


def selftest(cfg: PhyConfig | None = None, quick: bool = False) -> SelfTestReport:
    """Conformance and sanity checks against the longhand references.

    The coded-chain checks pin the standard generator polynomials on the
    reference side, so they fail loudly when the production encoder
    drifts from them.
    """
    from . import phy
    from .nn import Dense, Tensor, grad_check

    cfg = cfg or PhyConfig()
    rng = np.random.default_rng(2024)
    checks: list[CheckResult] = []
    vectors = 20 if quick else 200

    # scrambler against the longhand LFSR, plus the published stream prefix
    bad = 0
    for _ in range(vectors):
        seed = int(rng.integers(1, 128))
        bits = rng.integers(0, 2, 96, dtype=np.uint8)
        ours = phy.scramble(bits, seed)
        ref = np.array(_ref_scramble(bits, seed), dtype=np.uint8)
        bad += int(np.sum(ours != ref))
    prefix = tuple(phy.lfsr_sequence(16, 0x7F))
    prefix_ok = prefix == _SCRAMBLER_KNOWN_PREFIX
    checks.append(
        CheckResult(
            "scrambler",
            bad == 0 and prefix_ok,
            f"{vectors} vectors, {bad} mismatched bits, "
            f"known prefix {'ok' if prefix_ok else 'WRONG'}",
        )
    )

    # convolutional encoder: production chain against the longhand one
    bad = 0
    for _ in range(vectors):
        bits = rng.integers(0, 2, 48, dtype=np.uint8)
        state = int(rng.integers(0, 64))
        ours, _ = phy.conv_encode(bits, state)
        ref = np.array(_ref_conv_encode(bits, state), dtype=np.uint8)
        bad += int(np.sum(ours != ref))
    checks.append(
        CheckResult(
            "conv_encoder",
            bad == 0,
            f"{vectors} vectors vs pinned 0o133/0o171, {bad} mismatched bits",
        )
    )

    # puncturer, every supported rate
    bad = 0
    for rate in ("1/2", "2/3", "3/4", "5/6"):
        for _ in range(vectors // 4):
            coded = rng.integers(0, 2, 120, dtype=np.uint8)
            ours = phy.puncture(coded, rate)
            ref = np.array(_ref_puncture(list(coded), rate), dtype=np.uint8)
            bad += int(ours.size != ref.size) or int(np.sum(ours != ref))
    checks.append(CheckResult("puncturer", bad == 0, f"all rates, {bad} mismatches"))

    # interleaver, every supported modulation width
    bad = 0
    for n_bpsc in BITS_PER_SYMBOL.values():
        n_cbps = 48 * n_bpsc
        for _ in range(vectors // 4):
            bits = rng.integers(0, 2, n_cbps, dtype=np.uint8)
            ours = phy.interleave(bits, n_cbps, n_bpsc)
            ref = np.array(_ref_interleave(list(bits), n_cbps, n_bpsc), dtype=np.uint8)
            bad += int(np.sum(ours != ref))
    checks.append(CheckResult("interleaver", bad == 0, f"all widths, {bad} mismatches"))

    # GF(2) probe: the matrix model built from cfg must reproduce the
    # *canonical* straight-line chain (scramble happens upstream of the
    # per-symbol system, so the probe covers encode+puncture+interleave)
    sys_model = build_symbol_system(cfg)
    probes = 10 if quick else 50
    bad = 0
    rate_name = f"{cfg.coding_rate.numerator}/{cfg.coding_rate.denominator}"
    for _ in range(probes):
        x = rng.integers(0, 2, sys_model.beta, dtype=np.uint8)
        state = int(rng.integers(0, 64))
        predicted = sys_model.predict(x, state)
        coded = _ref_conv_encode(list(x), state)
        reference = np.array(
            _ref_interleave(_ref_puncture(coded, rate_name), cfg.n_cbps, cfg.n_bpsc),
            dtype=np.uint8,
        )
        bad += int(np.sum(predicted != reference))
    checks.append(
        CheckResult(
            "gf2_probe",
            bad == 0,
            f"{probes} probes vs canonical chain, {bad} mismatched bits",
        )
    )

    # noiseless digital loopback at the configured mode
    n_bits = cfg.n_dbps * (2 if quick else 20)
    payload = rng.integers(0, 2, n_bits, dtype=np.uint8)
    frame = phy.tx_chain(payload, cfg)
    decoded = phy.rx_chain(frame.samples, cfg)
    ber = float(np.mean(decoded != payload))
    checks.append(CheckResult("loopback", ber == 0.0, f"{n_bits} bits, ber={ber}"))

    # quantization bound: per-axis error at most half a level step
    pts = rng.uniform(-box_edge(cfg), box_edge(cfg), (500, 2))
    z = pts[:, 0] + 1j * pts[:, 1]
    q, _ = qam_quantize(z, cfg.modulation_order)
    half_step = cfg.k_mod
    worst = float(max(np.abs(q.real - z.real).max(), np.abs(q.imag - z.imag).max()))
    checks.append(
        CheckResult(
            "quantization_bound",
            worst <= half_step + 1e-12,
            f"max axis error {worst:.6f} <= {half_step:.6f}",
        )
    )

    # solver sanity: solve a random reachable target and re-multiply
    from .inversion import default_subset

    chosen = default_subset(cfg)
    solver = Gf2Solver(restrict_rows(sys_model, chosen))
    x_true = rng.integers(0, 2, sys_model.beta, dtype=np.uint8)
    y = (solver.matrix @ x_true) & 1
    x_hat = solver.solve(y)
    ok = not isinstance(x_hat, Unsolvable) and np.array_equal((solver.matrix @ x_hat) & 1, y)
    checks.append(CheckResult("gf2_solver", ok, "solve + re-multiply on a random target"))

    # gradient check on a small composite network
    g = np.random.default_rng(7)
    dense1, dense2 = Dense(6, 5, g), Dense(5, 3, g)
    x0 = Tensor(g.standard_normal((4, 6)))

    def loss():
        return dense2(dense1(x0).tanh()).square().mean()

    report = grad_check(loss, list(dense1.named_parameters()) + list(dense2.named_parameters()))
    checks.append(
        CheckResult(
            "grad_check",
            report.passed(1e-4),
            f"max rel err {report.max_rel_error:.3e} (tol 1e-4)",
        )
    )

    return SelfTestReport(checks)
