import math
from fractions import Fraction

import numpy as np
import pytest

from ofdmemu import training
from ofdmemu.config import PhyConfig
from ofdmemu.errors import ConfigError, TrainingError
from ofdmemu.link import EmulationSetup, TargetSymbols, _chosen_values, reference_waveform
from ofdmemu.nn import Tensor
from ofdmemu.nn.models import (
    CompensatorModel,
    PeriodSpec,
    ProxyModel,
    ToyJsccModel,
    complex_to_wave,
    wave_to_complex,
)
from ofdmemu.sources import glyph_images
from ofdmemu.training import (
    Curriculum,
    TrainConfig,
    _SymbolFraming,
    collect_link_records,
    evaluate_image_link,
    stage1_train_compensator,
    stage2_train_proxy,
    stage3_alternate,
    train_jscc_ideal,
)


def quick_cfg(**overrides):
    base = dict(
        master_seed=7,
        batch_size=4,
        image_batch_size=8,
        stage1_epochs=3,
        stage1_waveforms=8,
        stage1_val_waveforms=4,
        stage1_ofdm_symbols=2,
        stage2_epochs=3,
        stage2_records=8,
        stage2_ofdm_symbols=2,
        stage3_max_cycles=1,
        stage3_phase_a_epochs=1,
        stage3_images=16,
        refresh_batch_count=4,
        stage3_refresh_epochs=1,
    )
    base.update(overrides)
    return TrainConfig(**base)


def test_train_config_validation():
    with pytest.raises(ConfigError):
        TrainConfig(gamma=-0.1)
    with pytest.raises(ConfigError):
        TrainConfig(gamma=1.5)
    with pytest.raises(ConfigError):
        TrainConfig(stage1_epochs=0)
    with pytest.raises(ConfigError):
        TrainConfig(tolerance=0.0)
    with pytest.raises(ConfigError):
        TrainConfig(master_seed=-1)
    # a 10^12-record stage is refused at construction, before any draw
    with pytest.raises(ConfigError, match="stage2_records must be in 1.."):
        TrainConfig(stage2_records=10**12)
    # phase B holds one refresh record out, so one record leaves it nothing to fit
    with pytest.raises(ConfigError, match="refresh_batch_count must be at least 2"):
        TrainConfig(refresh_batch_count=1)
    # an SNR this low would overflow the stage's noise variance
    for key in ("stage1_snr_db", "stage2_snr_db"):
        with pytest.raises(ConfigError, match="snr_db must be at least"):
            TrainConfig(**{key: -1e308})
    # a step size that is not finite and above 0, a momentum outside [0, 1)
    # or a NaN tolerance would train to nonsense, or fail only after training
    for key, value in [
        *((k, v) for k in ("step_comp", "step_proxy", "step_jscc", "tolerance")
          for v in (-0.5, 0.0, math.nan, math.inf)),
        ("momentum", -0.1), ("momentum", 1.0), ("momentum", math.nan),
    ]:
        with pytest.raises(ConfigError, match=key):
            TrainConfig(**{key: value})
    TrainConfig(gamma=0.0)
    TrainConfig(gamma=1.0)
    TrainConfig(momentum=0.0)


def test_child_rng_deterministic():
    cfg = TrainConfig(master_seed=5)
    a = cfg.child_rng(3).integers(0, 2**31, 8)
    b = cfg.child_rng(3).integers(0, 2**31, 8)
    c = cfg.child_rng(4).integers(0, 2**31, 8)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_curriculum_sampling(rng):
    uni = Curriculum()
    draws = [uni.sample(rng) for _ in range(100)]
    assert all(5.0 <= d <= 25.0 for d in draws)
    assert max(draws) - min(draws) > 5.0


def test_collect_link_records(default_setup):
    cfg = quick_cfg()
    recs = collect_link_records(
        default_setup, 4, 15.0, cfg.child_rng(0), n_ofdm=2
    )
    assert len(recs) == 4
    for r in recs:
        assert r.snr_db == 15.0
        assert r.reference.size == 2 * default_setup.cfg.samples_per_ofdm
        assert r.clean_waveform.shape == r.output_waveform.shape == r.reference.shape


def synthetic_pairs(monkeypatch, xs, ys):
    """Stage 1 trains on the first ``stage1_waveforms`` of (xs, ys) and
    validates on the first ``stage1_val_waveforms``, not on link pairs."""
    monkeypatch.setattr(
        training, "_stage1_pairs", lambda setup, cfg, count, rng: (xs[:count], ys[:count])
    )


def test_stage1_learns_synthetic_gain_error(default_setup, rng, monkeypatch):
    # the "link" here just scales amplitude by 0.7; the compensator
    # must learn to undo it
    ys = rng.normal(size=(8, 160, 2)) * 0.3
    synthetic_pairs(monkeypatch, 0.7 * ys, ys)
    cfg = quick_cfg(stage1_epochs=40)
    result = stage1_train_compensator(default_setup, cfg)
    m = result.metrics
    assert m["val_mse_uncompensated"] > 0
    assert m["val_mse_compensated"] < m["val_mse_uncompensated"]
    assert m["improvement"] > 0.3
    assert len(result.loss_trace) == 40
    assert all(math.isfinite(v) for v in result.loss_trace)


def test_stage2_fits_and_calibrates(default_setup):
    cfg = quick_cfg()
    recs = collect_link_records(
        default_setup, cfg.stage2_records, cfg.stage2_snr_db, cfg.child_rng(0), n_ofdm=2
    )
    result = stage2_train_proxy(recs, cfg)
    m = result.metrics
    for key in (
        "noise_gain",
        "noise_floor",
        "sigma_sq",
        "held_out_mse",
        "held_out_bound",
        "within_bound",
    ):
        assert key in m
    assert m["noise_gain"] > 0
    assert m["noise_floor"] >= 0
    assert result.model.noise_gain == m["noise_gain"]
    assert result.model.noise_floor == m["noise_floor"]


def test_stage2_needs_enough_records(default_setup):
    cfg = quick_cfg()
    recs = collect_link_records(default_setup, 4, 15.0, cfg.child_rng(0), n_ofdm=2)
    with pytest.raises(TrainingError):
        stage2_train_proxy(recs, cfg)


def test_train_jscc_ideal_smoke():
    cfg = quick_cfg()
    result = train_jscc_ideal(cfg)
    assert isinstance(result.model, ToyJsccModel)
    assert all(math.isfinite(v) for v in result.loss_trace)


def small_stage3_models(cfg, setup):
    """(codec, compensator, proxy) for stage 3, with small networks."""
    jscc = ToyJsccModel(cfg.child_rng(0))
    comp = CompensatorModel(
        PeriodSpec.from_config(setup.cfg, setup.n_chosen),
        cfg.child_rng(1),
        channels=4,
        depth=2,
    )
    proxy = ProxyModel(cfg.child_rng(2), channels=4, depth=2)
    return jscc, comp, proxy


def test_stage3_smoke(default_setup):
    cfg = quick_cfg()
    result = stage3_alternate(*small_stage3_models(cfg, default_setup), default_setup, cfg)
    m = result.metrics
    assert m["cycles"] == 1
    assert math.isfinite(m["initial_joint_loss"])
    assert math.isfinite(m["final_joint_loss"])
    assert math.isfinite(m["refresh_fidelity_post"])
    phases = {p for _, p, _ in result.loss_trace}
    assert {"probe", "A", "B"} <= phases


@pytest.mark.parametrize("stage", ["stage1", "stage2", "ideal-analog", "stage3/phaseA"])
def test_non_finite_loss_raises_with_trace(stage, default_setup, monkeypatch):
    # one batch per epoch and a huge step: the first epoch's loss is
    # finite, its step overflows the weights, and the next loss is not
    cfg = quick_cfg(
        batch_size=8,
        image_batch_size=16,
        stage3_phase_a_epochs=3,
        step_comp=1e200,
        step_proxy=1e200,
        step_jscc=1e200,
    )
    ys = np.random.default_rng(1).normal(size=(8, 160, 2)) * 0.3
    synthetic_pairs(monkeypatch, 0.7 * ys, ys)
    runs = {
        "stage1": lambda: stage1_train_compensator(default_setup, cfg),
        "stage2": lambda: stage2_train_proxy(
            collect_link_records(default_setup, 8, 15.0, cfg.child_rng(0), n_ofdm=2), cfg
        ),
        "ideal-analog": lambda: train_jscc_ideal(cfg),
        "stage3/phaseA": lambda: stage3_alternate(
            *small_stage3_models(cfg, default_setup), default_setup, cfg
        ),
    }
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(TrainingError, match=f"^{stage}: loss went non-finite") as info:
            runs[stage]()
    # the trace holds what came before the failing batch: the first epoch
    # (after stage 3's initial probe)
    trace = info.value.trace
    if stage == "stage3/phaseA":
        assert [(c, p) for c, p, _ in trace] == [(0, "probe"), (1, "A")]
        trace = [v for _, _, v in trace]
    else:
        assert len(trace) == 1
    assert all(math.isfinite(v) for v in trace)


def test_evaluate_image_link_deterministic(default_setup):
    cfg = quick_cfg()
    jscc = ToyJsccModel(cfg.child_rng(0))
    images = glyph_images(4, cfg.child_rng(3))
    a = evaluate_image_link(jscc, default_setup, 15.0, 99, images)
    b = evaluate_image_link(jscc, default_setup, 15.0, 99, images)
    c = evaluate_image_link(jscc, default_setup, 15.0, 100, images)
    assert a["image_mse"] == b["image_mse"]
    assert a["image_mse"] != c["image_mse"]
    assert a["per_image_sq_err"].shape == (4,)
    assert a["image_mse"] == pytest.approx(float(np.mean(a["per_image_sq_err"])))
    assert 0.0 <= a["clip_rate"] <= 1.0
    assert a["symbol_power"] == pytest.approx(1.0, rel=0.2)


def test_evaluate_image_link_identity_compensator(default_setup):
    # an untrained compensator is the identity, so correcting the received
    # waveforms with it must not move the estimates
    cfg = quick_cfg()
    jscc = ToyJsccModel(cfg.child_rng(0))
    images = glyph_images(4, cfg.child_rng(3))
    spec = PeriodSpec.from_config(default_setup.cfg, default_setup.n_chosen)
    comp = CompensatorModel(spec, cfg.child_rng(1))
    plain = evaluate_image_link(jscc, default_setup, 15.0, 4, images)
    compensated = evaluate_image_link(jscc, default_setup, 15.0, 4, images, compensator=comp)
    assert compensated["symbol_mse"] == pytest.approx(plain["symbol_mse"], abs=1e-9)
    assert np.allclose(compensated["per_image_sq_err"], plain["per_image_sq_err"], atol=1e-9)
    assert compensated["clip_rate"] == plain["clip_rate"]


@pytest.mark.parametrize(
    "rate,m", [(Fraction(3, 4), 64), (Fraction(1, 2), 4)], ids=["64qam-r34", "qpsk-r12"]
)
def test_symbol_framing_matches_the_link(rate, m):
    # stage 3's matrices frame latents and read waveforms as the real link
    # does, for latents that fill one OFDM symbol and that spill into a second
    setup = EmulationSetup.build(PhyConfig(modulation_order=m, coding_rate=rate))
    rng = np.random.default_rng(4)
    for pairs in (setup.n_chosen, setup.n_chosen + 1):
        framing = _SymbolFraming(setup, pairs)
        latent = rng.normal(size=(3, 2 * pairs))
        framed = framing.frame(Tensor(latent)).data
        for row, z in zip(framed, latent.view(np.complex128)):
            want = complex_to_wave(reference_waveform(TargetSymbols(z, 1.0), setup))
            assert np.allclose(row, want, rtol=0, atol=1e-12)
        waves = rng.normal(size=(3, framing.n_samples, 2))
        read = framing.extract(Tensor(waves)).data
        for row, wave in zip(read, waves):
            want = _chosen_values(wave_to_complex(wave), setup)[:pairs]
            assert np.allclose(row, want.view(np.float64), rtol=0, atol=1e-12)
