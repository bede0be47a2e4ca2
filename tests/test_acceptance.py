"""Release gate: one test per acceptance criterion, each printing a
pass/fail line in the terminal summary.

Criteria are checked at their stated tolerances and time budgets; the
detail strings carry the measured numbers so a red line is diagnosable
from the log alone.
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

import oracles
from ofdmemu import phy
from ofdmemu.config import PhyConfig
from ofdmemu.gf2 import Gf2Solver, Unsolvable
from ofdmemu.harness import DEFAULT_SNR_LIST, ExperimentSpec, csv_text, emit_plotdata, run_sweep
from ofdmemu.inversion import build_symbol_system, restrict_rows
from ofdmemu.link import EmulationSetup, TargetSymbols, box_edge, sender_invert
from ofdmemu.nn.autodiff import Tensor
from ofdmemu.nn.gradcheck import grad_check
from ofdmemu.nn.layers import Conv2d, Dense
from ofdmemu.nn.models import CompensatorModel, PeriodSpec, ProxyModel, ToyJsccModel
from ofdmemu.sources import glyph_images
from ofdmemu.training import (
    TrainConfig,
    _SymbolFraming,
    evaluate_image_link,
    run_training_pipeline,
)

ALL_MODULATIONS = (2, 4, 16, 64)
ALL_RATES = (Fraction(1, 2), Fraction(2, 3), Fraction(3, 4), Fraction(5, 6))


def all_configs():
    return [
        PhyConfig(modulation_order=m, coding_rate=r)
        for m in ALL_MODULATIONS
        for r in ALL_RATES
    ]


def spearman(xs, ys):
    """Rank correlation without ties handling (inputs are distinct)."""
    rx = np.argsort(np.argsort(xs))
    ry = np.argsort(np.argsort(ys))
    rx = rx - rx.mean()
    ry = ry - ry.mean()
    return float(np.sum(rx * ry) / np.sqrt(np.sum(rx**2) * np.sum(ry**2)))


# ---------------------------------------------------------------------------
# criterion 1: digital chain conformance and loopback
# ---------------------------------------------------------------------------

def test_criterion_1_phy_conformance(record_criterion):
    t0 = time.perf_counter()
    rng = np.random.default_rng(0xC1)
    vectors = 1000

    scr_bad = 0
    for _ in range(vectors):
        bits = rng.integers(0, 2, int(rng.integers(64, 257)), dtype=np.uint8)
        seed = int(rng.integers(1, 128))
        scr_bad += int(
            not np.array_equal(phy.scramble(bits, seed), oracles.scramble_reference(bits, seed))
        )

    punc_bad = 0
    rate_names = ["1/2", "2/3", "3/4", "5/6"]
    for _ in range(vectors):
        coded = rng.integers(0, 2, 2 * int(rng.integers(20, 200)), dtype=np.uint8)
        rate = rate_names[int(rng.integers(4))]
        punc_bad += int(
            not np.array_equal(
                phy.puncture(coded, Fraction(rate)), oracles.puncture_reference(coded, rate)
            )
        )

    inter_bad = 0
    widths = [(48, 1), (96, 2), (192, 4), (288, 6)]
    for _ in range(vectors):
        n_cbps, n_bpsc = widths[int(rng.integers(4))]
        bits = rng.integers(0, 2, n_cbps, dtype=np.uint8)
        inter_bad += int(
            not np.array_equal(
                phy.interleave(bits, n_cbps, n_bpsc),
                oracles.interleave_reference(bits, n_cbps, n_bpsc),
            )
        )

    loop_bad = []
    for cfg in all_configs():
        payload = rng.integers(0, 2, 3 * cfg.n_dbps, dtype=np.uint8)
        decoded = phy.rx_chain(phy.tx_chain(payload, cfg).samples, cfg)
        errors = int(np.sum(decoded != payload))
        if errors:
            loop_bad.append((cfg.modulation_order, str(cfg.coding_rate), errors))

    elapsed = time.perf_counter() - t0
    ok = scr_bad == punc_bad == inter_bad == 0 and not loop_bad and elapsed < 30.0
    detail = (
        f"oracle mismatches scramble={scr_bad}/{vectors} puncture={punc_bad}/{vectors} "
        f"interleave={inter_bad}/{vectors}, loopback errors={loop_bad or 0} "
        f"over {len(all_configs())} configs, {elapsed:.1f}s (budget 30s)"
    )
    record_criterion(1, "digital chain conformance", ok, detail)
    assert ok, detail


# ---------------------------------------------------------------------------
# criterion 2: linear model fidelity, rank, solver, certificates, speed
# ---------------------------------------------------------------------------

def test_criterion_2_gf2_model(record_criterion, default_setup):
    t0 = time.perf_counter()
    rng = np.random.default_rng(0xC2)

    probe_bad = []
    rank_bad = []
    for cfg in all_configs():
        sys_model = build_symbol_system(cfg)
        mism = oracles.verify_against_pipeline(
            sys_model, probes=1000, seed=int(rng.integers(2**32))
        )
        if mism:
            probe_bad.append((cfg.modulation_order, str(cfg.coding_rate), mism))
        setup = EmulationSetup.build(cfg)
        want = setup.n_chosen * cfg.n_bpsc
        if setup.solver.rank != want:
            rank_bad.append((cfg.modulation_order, str(cfg.coding_rate), setup.solver.rank, want))

    solve_bad = 0
    solver = default_setup.solver
    for _ in range(500):
        y = rng.integers(0, 2, solver.rows, dtype=np.uint8)
        x = solver.solve(y)
        if isinstance(x, Unsolvable) or not np.array_equal((solver.matrix @ x) & 1, y):
            solve_bad += 1

    # over-sized selection: more constrained rows than info bits
    over_cfg = PhyConfig(modulation_order=64, coding_rate=Fraction(1, 2))
    over_sys = build_symbol_system(over_cfg)
    over_rows = restrict_rows(over_sys, over_cfg.data_subcarriers[:30])
    over_solver = Gf2Solver(over_rows)
    unsolvable = 0
    certified = 0
    for _ in range(50):
        y = rng.integers(0, 2, over_rows.shape[0], dtype=np.uint8)
        res = over_solver.solve(y)
        if isinstance(res, Unsolvable):
            unsolvable += 1
            certified += int(over_solver.certify_unsolvable(res, y))

    sq_solver = Gf2Solver(rng.integers(0, 2, (216, 216), dtype=np.uint8))
    targets = [rng.integers(0, 2, 216, dtype=np.uint8) for _ in range(2000)]
    for t in targets[:200]:
        sq_solver.solve(t)
    n_timed = 10_000
    ts = time.perf_counter()
    for i in range(n_timed):
        sq_solver.solve(targets[i % len(targets)])
    rate = n_timed / (time.perf_counter() - ts)

    elapsed = time.perf_counter() - t0
    ok = (
        not probe_bad
        and not rank_bad
        and solve_bad == 0
        and unsolvable >= 1
        and certified == unsolvable
        and rate >= 10_000
    )
    detail = (
        f"pipeline probes 16x1000 mismatches={probe_bad or 0}, full-rank at capacity "
        f"{16 - len(rank_bad)}/16, 500 solves re-multiplied ({solve_bad} bad), "
        f"over-sized: {unsolvable}/50 unsolvable with {certified} certificates, "
        f"{rate:.0f} solves/s at 216x216 (floor 10000), {elapsed:.1f}s"
    )
    record_criterion(2, "bit-pipeline linear model", ok, detail)
    assert ok, detail


# ---------------------------------------------------------------------------
# criterion 3: quantization error statistics
# ---------------------------------------------------------------------------

def test_criterion_3_quantization(record_criterion, default_setup):
    t0 = time.perf_counter()
    cfg = default_setup.cfg
    assert cfg.modulation_order == 64
    rng = np.random.default_rng(0xC3)
    n = 100_000
    edge = box_edge(cfg)
    syms = rng.uniform(-edge, edge, n) + 1j * rng.uniform(-edge, edge, n)
    plan = sender_invert(TargetSymbols(syms, 1.0), default_setup)
    err = plan.quantized.reshape(-1)[:n] - syms
    half_step = 1.0 / math.sqrt(42.0)
    max_axis = max(float(np.max(np.abs(err.real))), float(np.max(np.abs(err.imag))))
    rms = float(np.sqrt(np.mean(np.abs(err) ** 2)))
    expect = math.sqrt(2.0) * (2.0 / math.sqrt(42.0)) / math.sqrt(12.0)
    rel = abs(rms - expect) / expect
    elapsed = time.perf_counter() - t0
    ok = max_axis <= half_step + 1e-12 and rel <= 0.05 and elapsed < 60.0
    detail = (
        f"{n} symbols: max per-axis error {max_axis:.6f} (bound {half_step:.6f}), "
        f"rms {rms:.6f} vs {expect:.6f} ({100 * rel:.2f}% off, limit 5%), "
        f"{elapsed:.1f}s (budget 60s)"
    )
    record_criterion(3, "uniform-target quantization statistics", ok, detail)
    assert ok, detail


# ---------------------------------------------------------------------------
# criterion 4: SNR sweep behavior of the three symbol transports
# ---------------------------------------------------------------------------

@pytest.mark.slow
def test_criterion_4_snr_sweep(record_criterion, default_setup):
    t0 = time.perf_counter()
    spec = ExperimentSpec(
        snr_list=DEFAULT_SNR_LIST,
        n_symbols=10_000,
        systems=("ideal_analog", "emulated", "float_serial"),
        master_seed=0xC4,
    )
    rows = run_sweep(spec, setup=default_setup)
    by_system = {
        s: [r for r in rows if r.system == s] for s in spec.systems
    }
    snrs = np.asarray(spec.snr_list)

    emu = np.asarray([r.symbol_mse for r in by_system["emulated"]])
    rho = spearman(snrs, emu)
    ratios = emu[:-1] / emu[1:]
    max_ratio = float(np.max(ratios))

    flt = np.asarray([r.symbol_mse for r in by_system["float_serial"]])
    flt_drop = float(np.max(flt[:-1] / flt[1:]))

    ideal10 = next(r.symbol_mse for r in by_system["ideal_analog"] if r.snr_db == 10.0)
    ideal_rel = abs(ideal10 - 0.1) / 0.1

    elapsed = time.perf_counter() - t0
    ok = (
        rho == -1.0
        and max_ratio < 3.0
        and flt_drop > 10.0
        and ideal_rel <= 0.02
        and elapsed < 300.0
    )
    detail = (
        f"emulated spearman {rho:+.3f} (need -1), max per-5dB ratio {max_ratio:.2f} "
        f"(<3), float cliff {flt_drop:.3g}x (>10x), ideal 10 dB mse {ideal10:.5f} "
        f"(0.1 within 2%), {elapsed:.0f}s (budget 300s)"
    )
    record_criterion(4, "three-system SNR sweep", ok, detail)
    assert ok, detail


# ---------------------------------------------------------------------------
# criterion 5: decoder optimality and single-error correction
# ---------------------------------------------------------------------------

def test_criterion_5_decoder_optimality(record_criterion):
    rng = np.random.default_rng(0xC5)
    blocks = 200
    metric_bad = 0
    for _ in range(blocks):
        received = rng.integers(0, 2, 24, dtype=np.uint8)
        decoded = phy.viterbi_decode(received)
        recoded, _ = phy.conv_encode(decoded, 0, phy.CONV_G1, phy.CONV_G2)
        vit_dist = int(np.sum(recoded != received))
        _, ml_dist = oracles.exhaustive_ml_decode(received, 12)
        metric_bad += int(vit_dist != ml_dist)

    # six zero tail bits terminate the trellis so every single flipped
    # coded bit, including in the final pair, is uniquely correctable
    flip_bad = 0
    flips = 0
    for _ in range(blocks):
        info = rng.integers(0, 2, 12, dtype=np.uint8)
        tailed = np.concatenate([info, np.zeros(6, dtype=np.uint8)])
        coded, _ = phy.conv_encode(tailed, 0, phy.CONV_G1, phy.CONV_G2)
        for pos in range(coded.size):
            noisy = coded.copy()
            noisy[pos] ^= 1
            got = phy.viterbi_decode(noisy)[: info.size]
            flips += 1
            flip_bad += int(not np.array_equal(got, info))

    ok = metric_bad == 0 and flip_bad == 0
    detail = (
        f"viterbi metric == exhaustive-ML metric on {blocks - metric_bad}/{blocks} "
        f"random 12-bit blocks; {flips - flip_bad}/{flips} single-coded-bit flips "
        f"corrected at rate 1/2"
    )
    record_criterion(5, "ML decoding and error correction", ok, detail)
    assert ok, detail


# ---------------------------------------------------------------------------
# criterion 6: gradient checks for every layer and composed model
# ---------------------------------------------------------------------------

def test_criterion_6_gradients(record_criterion, default_setup):
    rng = np.random.default_rng(0xC6)
    tol = 1e-4
    results = []

    def run(name, loss_fn, params, samples=4):
        report = grad_check(loss_fn, params, samples_per_param=samples)
        results.append((name, report.max_rel_error))
        return report

    dense = Dense(6, 4, rng)
    xd = Tensor(rng.normal(size=(3, 6)), requires_grad=True)
    run(
        "dense",
        lambda: dense(xd).square().mean(),
        dense.named_parameters() + [("input", xd)],
    )

    conv = Conv2d(2, 3, (3, 3), rng)
    xc = Tensor(rng.normal(size=(2, 5, 5, 2)), requires_grad=True)
    run(
        "conv2d",
        lambda: conv(xc).square().mean(),
        conv.named_parameters() + [("input", xc)],
    )

    comp = CompensatorModel(PeriodSpec(20, 3), rng, channels=3, depth=2, kernel=(3, 5))
    wave = Tensor(rng.normal(size=(2, 40, 2)), requires_grad=True)
    target = rng.normal(size=(2, 40, 2))
    run(
        "compensator",
        lambda: (comp(wave) - Tensor(target)).square().mean(),
        comp.named_parameters() + [("input", wave)],
    )

    proxy = ProxyModel(rng, channels=3, depth=2, kernel_width=5)
    pw = Tensor(rng.normal(size=(2, 30, 2)), requires_grad=True)
    run(
        "proxy (noise off)",
        lambda: proxy(pw, inject_noise=False).square().mean(),
        proxy.named_parameters() + [("input", pw)],
    )
    run(
        "proxy (seeded noise)",
        lambda: proxy(pw, snr_db=10.0, seed=0xBEEF).square().mean(),
        proxy.named_parameters() + [("input", pw)],
    )

    jscc = ToyJsccModel(rng, latent_pairs=24, hidden=32)
    imgs = rng.uniform(0, 1, size=(2, jscc.pixels))
    run(
        "toy codec",
        lambda: (jscc.decode(jscc.encode(Tensor(imgs))) - Tensor(imgs)).square().mean(),
        jscc.named_parameters(),
    )

    framing = _SymbolFraming(default_setup, jscc.latent_pairs)
    comp_full = CompensatorModel(
        PeriodSpec.from_config(default_setup.cfg, default_setup.n_chosen),
        rng,
        channels=3,
        depth=2,
        kernel=(3, 5),
    )
    proxy2 = ProxyModel(np.random.default_rng(0xC6 + 1), channels=3, depth=2, kernel_width=5)
    for gamma in (0.0, 0.5, 1.0):

        def joint_loss(g=gamma):
            z = jscc.encode(Tensor(imgs))
            ref = framing.frame(z)
            sim = proxy2(ref, snr_db=15.0, seed=0xF00D)
            corrected = comp_full(sim)
            recon = jscc.decode(framing.extract(corrected))
            loss = (recon - Tensor(imgs)).square().mean()
            if g > 0:
                loss = loss + g * (corrected - ref).square().mean()
            return loss

        params = (
            jscc.named_parameters()
            + comp_full.named_parameters()
            + proxy2.named_parameters()
        )
        run(f"joint loss gamma={gamma}", joint_loss, params, samples=3)

    worst_name, worst = max(results, key=lambda kv: kv[1])
    ok = worst < tol
    detail = (
        f"{len(results)} graphs checked at rel tol {tol:g}; worst {worst:.3g} "
        f"({worst_name})"
    )
    record_criterion(6, "gradient checks", ok, detail)
    assert ok, detail


# ---------------------------------------------------------------------------
# criteria 7 and 8 share one trained pipeline
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def trained_pipeline(default_setup):
    t0 = time.perf_counter()
    result = run_training_pipeline(default_setup, TrainConfig(master_seed=42))
    return result, time.perf_counter() - t0


@pytest.mark.slow
def test_criterion_7_training_pipeline(record_criterion, default_setup, trained_pipeline):
    result, train_time = trained_pipeline
    t0 = time.perf_counter()
    imp = result.stage1.metrics["improvement"]
    within = result.stage2.metrics["within_bound"]
    held = result.stage2.metrics["held_out_mse"]
    bound = result.stage2.metrics["held_out_bound"]

    images = glyph_images(128, np.random.default_rng(2026))
    points = []
    wins = True
    for i, snr in enumerate((5.0, 15.0, 25.0)):
        seed = 9000 + i
        adapted = evaluate_image_link(
            result.jscc, default_setup, snr, seed, images, compensator=result.compensator
        )["image_mse"]
        zshot_comp = evaluate_image_link(
            result.zero_shot_jscc, default_setup, snr, seed, images,
            compensator=result.compensator,
        )["image_mse"]
        zshot = evaluate_image_link(
            result.zero_shot_jscc, default_setup, snr, seed, images
        )["image_mse"]
        wins = wins and adapted < zshot_comp and adapted < zshot
        points.append(f"{snr:g}dB {adapted:.4f}<[{zshot_comp:.4f},{zshot:.4f}]")
    elapsed = train_time + (time.perf_counter() - t0)

    ok = imp >= 0.20 and within and wins and elapsed < 600.0
    detail = (
        f"stage1 {100 * imp:.1f}% (need 20%), stage2 held-out {held:.4f} <= "
        f"bound {bound:.4f} ({within}), adapted vs [zero-shot + adapted compensator, zero-shot]: "
        f"{'; '.join(points)}, {elapsed:.0f}s (budget 600s)"
    )
    record_criterion(7, "three-stage training", ok, detail)
    assert ok, detail


@pytest.mark.slow  # needs the criterion-7 pipeline
def test_criterion_8_reproducibility(record_criterion, default_setup, trained_pipeline, tmp_path):
    result, _ = trained_pipeline
    spec = ExperimentSpec(
        snr_list=(0.0, 10.0, 20.0),
        n_symbols=2000,
        n_images=16,
        master_seed=77,
    )
    models = {"zero_shot": result.zero_shot_jscc}
    rows_a = run_sweep(spec, default_setup, models)
    rows_b = run_sweep(spec, default_setup, models)
    text_a, text_b = csv_text(rows_a), csv_text(rows_b)

    dir_a, dir_b = tmp_path / "a", tmp_path / "b"
    files_a = emit_plotdata(rows_a, dir_a)
    files_b = emit_plotdata(rows_b, dir_b)
    bytes_equal = all(
        fa.read_bytes() == fb.read_bytes() for fa, fb in zip(files_a, files_b)
    )

    ok = text_a == text_b and bytes_equal and len(rows_a) == 12
    detail = (
        f"two sweeps, master seed {spec.master_seed}: csv identical={text_a == text_b}, "
        f"{len(files_a)} plot-data files byte-identical={bytes_equal}"
    )
    record_criterion(8, "seeded reproducibility", ok, detail)
    assert ok, detail
