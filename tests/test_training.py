import math
from dataclasses import fields
from fractions import Fraction

import numpy as np
import pytest

import oracles
from ofdmemu import training
from ofdmemu.config import PhyConfig
from ofdmemu.errors import ConfigError, TrainingError
from ofdmemu.link import (
    EmulationSetup,
    TargetSymbols,
    _chosen_values,
    clean_waveforms,
    output_waveforms,
    reference_waveform,
)
from ofdmemu.nn import Tensor, autodiff, layers
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
    run_training_pipeline,
    stage1_train_compensator,
    stage2_train_proxy,
    stage3_alternate,
    train_jscc_ideal,
)
from test_golden import TINY_TRAIN


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
        TrainConfig(stage1_epochs=0)
    with pytest.raises(ConfigError):
        TrainConfig(master_seed=-1)
    # a 10^12-record stage is refused at construction, before any draw
    with pytest.raises(ConfigError, match="stage2_records must be in 1.."):
        TrainConfig(stage2_records=10**12)
    # phase B holds one refresh record out, so one record leaves it nothing to fit
    with pytest.raises(ConfigError, match="refresh_batch_count must be at least 2"):
        TrainConfig(refresh_batch_count=1)
    # stage 2 holds a quarter of its records out, at least 2, and fits the rest
    with pytest.raises(ConfigError, match="stage2_records must be at least 8"):
        TrainConfig(stage2_records=7)
    TrainConfig(stage2_records=8)


def test_train_config_holds_the_seed_and_the_counts():
    # the step sizes, momentum, gamma, tolerance and stage SNRs are
    # constants that every run shares, readable on an instance
    assert [f.name for f in fields(TrainConfig)] == ["master_seed", *training._COUNT_LIMITS]
    cfg = TrainConfig()
    assert (cfg.step_comp, cfg.step_proxy, cfg.step_jscc, cfg.momentum) == (0.1, 0.05, 0.05, 0.9)
    assert (cfg.gamma, cfg.tolerance) == (0.5, 1e-3)
    assert (cfg.stage1_snr_db, cfg.stage2_snr_db) == (math.inf, 15.0)


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
    assert all(r.snr_db == 15.0 for r in recs)
    refs = reference_waveform([r.targets for r in recs], default_setup)
    assert refs.shape == (4, 2 * default_setup.cfg.samples_per_ofdm)
    assert clean_waveforms(recs).shape == output_waveforms(recs).shape == refs.shape


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


def test_stage3_phase_a_forms_no_proxy_gradients(default_setup, monkeypatch):
    cfg = quick_cfg()
    jscc, comp, proxy = small_stage3_models(cfg, default_setup)
    seen = {}
    proxy_fit = training._proxy_fit

    def spy(*args):
        # phase B starts here, right after phase A's last step
        seen["proxy"] = [p.grad for p in proxy.parameters()]
        seen["trained"] = [p.grad for p in jscc.parameters() + comp.parameters()]
        seen["trainable"] = [p.requires_grad for p in proxy.parameters()]
        return proxy_fit(*args)

    monkeypatch.setattr(training, "_proxy_fit", spy)
    stage3_alternate(jscc, comp, proxy, default_setup, cfg)
    assert all(g is None for g in seen["proxy"])
    assert all(g is not None and np.any(g) for g in seen["trained"])
    assert all(seen["trainable"])


@pytest.mark.parametrize("stage", ["stage1", "stage2", "ideal-analog", "stage3/phaseA"])
def test_non_finite_loss_raises_with_trace(stage, default_setup, monkeypatch):
    # one batch per epoch and a huge step: the first epoch's loss is
    # finite, its step overflows the weights, and the next loss is not
    cfg = quick_cfg(batch_size=8, image_batch_size=16, stage3_phase_a_epochs=3)
    for step in ("step_comp", "step_proxy", "step_jscc"):
        monkeypatch.setattr(TrainConfig, step, 1e200)
    ys = np.random.default_rng(1).normal(size=(8, 160, 2)) * 0.3
    synthetic_pairs(monkeypatch, 0.7 * ys, ys)
    stage3_models = small_stage3_models(cfg, default_setup)
    runs = {
        "stage1": lambda: stage1_train_compensator(default_setup, cfg),
        "stage2": lambda: stage2_train_proxy(
            collect_link_records(default_setup, 8, 15.0, cfg.child_rng(0), n_ofdm=2), cfg
        ),
        "ideal-analog": lambda: train_jscc_ideal(cfg),
        "stage3/phaseA": lambda: stage3_alternate(*stage3_models, default_setup, cfg),
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
        # phase A froze the proxy and gave it back trainable
        assert all(p.requires_grad for p in stage3_models[2].parameters())
    else:
        assert len(trace) == 1
    assert all(math.isfinite(v) for v in trace)


def _reference_conv2d(x, weight, bias):
    """conv2d as a Tensor op over the pad-and-loop oracle kernel."""
    out_shape = x.shape[:3] + weight.shape[3:]
    out = oracles.conv2d_reference(x.data, weight.data, bias.data, np.zeros(out_shape))[0]

    def backward(g):
        grads = oracles.conv2d_reference(x.data, weight.data, bias.data, g)[1:]
        for t, grad in zip((x, weight, bias), grads):
            if t.requires_grad:
                t._accum(grad)

    return Tensor._node(out, (x, weight, bias), backward)


def _pipeline_bytes(setup):
    """The bytes of a TINY_TRAIN run: the four models, then the reprs of
    the loss traces and the stage metrics."""
    r = run_training_pipeline(setup, TINY_TRAIN)
    models = (r.compensator, r.proxy, r.jscc, r.zero_shot_jscc)
    stages = (r.stage1, r.stage2, r.stage3, r.zero_shot)
    return (
        [m.state_vector().tobytes() for m in models],
        [repr(s.loss_trace) for s in stages],
        [repr(s.metrics) for s in stages],
    )


def test_training_pipeline_bit_identical_with_reference_conv2d(default_setup, monkeypatch):
    # the training hash as a test: any conv rewrite must train to the same
    # bytes as the kernel it started from, on whatever machine runs it
    got = _pipeline_bytes(default_setup)
    monkeypatch.setattr(layers, "conv2d", _reference_conv2d)
    monkeypatch.setattr(autodiff, "conv2d", _reference_conv2d)
    want = _pipeline_bytes(default_setup)
    for name, a, e in zip(("state vectors", "loss traces", "stage metrics"), got, want):
        assert a == e, name


def test_pipeline_adapts_a_copy_of_the_zero_shot_codec(default_setup):
    # the zero-shot codec is the ideal-channel stage's own model, and stage 3
    # trains a copy of it, so the two codecs differ
    r = run_training_pipeline(default_setup, TINY_TRAIN)
    assert r.zero_shot_jscc is r.zero_shot.model
    assert not np.array_equal(r.jscc.state_vector(), r.zero_shot_jscc.state_vector())


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


def _random_compensator(setup, rng):
    """A compensator whose every weight is drawn, so no row passes through."""
    spec = PeriodSpec.from_config(setup.cfg, setup.n_chosen)
    comp = CompensatorModel(spec, rng)
    for p in comp.parameters():
        p.data[...] = rng.normal(scale=0.2, size=p.data.shape)
    return comp


@pytest.mark.parametrize("n_images", [1, 3, 16])
def test_evaluate_image_link_batched_equals_per_image(default_setup, n_images):
    # one compensator call on the stack gives every image the bytes of a
    # batch of one; a drawn compensator changes each row differently, so
    # rows swapped inside the batch would show
    cfg = quick_cfg()
    jscc = ToyJsccModel(cfg.child_rng(0))
    comp = _random_compensator(default_setup, cfg.child_rng(1))
    images = glyph_images(n_images, cfg.child_rng(3))
    got = evaluate_image_link(jscc, default_setup, 15.0, 5, images, compensator=comp)
    want = oracles.evaluate_image_link_per_image(
        jscc, default_setup, 15.0, 5, images, compensator=comp
    )
    assert got.keys() == want.keys()
    for key, value in want.items():
        assert np.asarray(got[key]).tobytes() == np.asarray(value).tobytes(), key


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
