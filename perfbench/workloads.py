"""The three benchmark workloads: emulate, sweep and train.

Each workload builds its state once (``setup``, timed as ``setup_s``),
then runs passes of a fixed amount of work.  ``inputs(i)`` generates the
inputs of pass ``i`` from the workload seed, outside the timed region;
``run`` makes the timed calls into ofdmemu and calls ``tick`` after each
step (a link call, a sweep cell, a training stage), where the benchmark
measures core speed (see ``refspeed.py``); ``check`` verifies the
outputs, again outside the timed region, and returns a digest of them so
a traced replay can be compared byte for byte with the untraced run.

Only public ofdmemu functions are called, always through their module
(``link.emulated_link``, not a name imported here), so that a traced run
sees the wrapped bindings.
"""

from __future__ import annotations

import copy
import hashlib
import json
import math
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

import numpy as np

from ofdmemu import harness, link, phy, sources, training
from ofdmemu.config import PhyConfig
from ofdmemu.nn import CompensatorModel, PeriodSpec, ProxyModel, ToyJsccModel

HERE = Path(__file__).resolve().parent
SNRS = tuple(harness.DEFAULT_SNR_LIST) + (math.inf,)
SWEEP_SYSTEMS = ("ideal_analog", "emulated", "float_serial")
# sweep master seeds with a pinned CSV digest; pass i of a run with
# workload seed n uses master seed (n + i) % PINNED_SWEEP_SEEDS
PINNED_SWEEP_SEEDS = 64
SHORT_OFDM = 4  # 4 OFDM symbols x 36 chosen subcarriers = 144 targets
QUANT_TOL = 1e-9  # measured deviation of the sent points is ~4e-16

SIZES = {
    "full": {
        "probe_calls": 300,
        "emulate": {"long_targets": 10_000, "long_calls": 2, "short_calls": 32},
        "sweep": {"n_symbols": 100},
        "train": {
            "config": dict(
                stage1_epochs=4, stage1_waveforms=12, stage1_val_waveforms=8,
                stage2_epochs=4, stage2_records=16,
                stage3_max_cycles=2, stage3_phase_a_epochs=2, stage3_images=16,
                refresh_batch_count=8, stage3_refresh_epochs=2,
            ),
            "eval_images": 16,
            "eval_snrs": (5.0, 15.0, 25.0),
        },
    },
    "tiny": {
        "probe_calls": 20,
        "emulate": {"long_targets": 500, "long_calls": 2, "short_calls": 4},
        "sweep": {"n_symbols": 20},
        "train": {
            "config": dict(
                batch_size=4, image_batch_size=8,
                stage1_epochs=2, stage1_waveforms=8, stage1_val_waveforms=4,
                stage1_ofdm_symbols=2, stage2_epochs=1, stage2_records=8,
                stage2_ofdm_symbols=2, stage3_max_cycles=2, stage3_phase_a_epochs=1,
                stage3_images=8, refresh_batch_count=4, stage3_refresh_epochs=1,
            ),
            "eval_images": 4,
            "eval_snrs": (15.0,),
        },
    },
}


def no_tick() -> None:
    """The ``tick`` of a run whose steps are not timed one by one."""


def failure_text(exc: BaseException) -> str:
    return "".join(traceback.format_exception_only(type(exc), exc)).strip()


def _sha(*chunks) -> str:
    h = hashlib.sha256()
    for c in chunks:
        h.update(c if isinstance(c, bytes) else np.ascontiguousarray(c).tobytes())
    return h.hexdigest()


class LinkCalls:
    """Short and long emulated_link calls on the default PHY."""

    def __init__(self, setup: link.EmulationSetup):
        self.setup = setup
        self.cfg = setup.cfg
        self.carrier, _ = sources.longest_chosen_run(setup)

    def targets(self, kind: str, count: int, rng: np.random.Generator) -> link.TargetSymbols:
        if kind == "gaussian":
            return link.TargetSymbols.unit_power(sources.gaussian_symbols(count, rng), self.cfg)
        n_ofdm = -(-count // self.setup.n_chosen)
        wave = sources.smooth_waveform(
            n_ofdm * self.cfg.samples_per_ofdm, rng, self.carrier, self.cfg.fft_size,
            bandwidth_bins=4.0,
        )
        t = link.targets_from_waveform(wave, self.setup)
        return link.TargetSymbols(t.symbols[:count], t.scale)

    def plan(self, sizes: list[int], rng: np.random.Generator, first: int) -> list[tuple]:
        """(targets, snr, noise seed) per call; kinds and SNRs cycle by call index."""
        calls = []
        for j, count in enumerate(sizes):
            k = first + j
            kind = ("gaussian", "smooth")[k % 2]
            calls.append((self.targets(kind, count, rng), SNRS[k % len(SNRS)],
                          int(rng.integers(2**63))))
        return calls

    def run(self, calls: list[tuple], tick=no_tick) -> list:
        """Per call: (seconds, estimates, record) or (seconds, exception)."""
        out = []
        for targets, snr, seed in calls:
            t0 = time.perf_counter()
            try:
                est, rec = link.emulated_link(targets, snr, seed, self.setup, mode="soft")
            except Exception as exc:  # counted as a failed operation
                out.append((time.perf_counter() - t0, exc))
            else:
                out.append((time.perf_counter() - t0, est, rec))
            tick()
        return out

    def check(self, calls: list[tuple], results: list) -> tuple[str, list[str]]:
        """The chosen bins of the noiseless sent frame must equal
        ``qam_quantize`` of the scaled targets, and estimates be finite."""
        failures = []
        h = hashlib.sha256()
        for (targets, snr, _), res in zip(calls, results):
            if len(res) == 2:
                failures.append(failure_text(res[1]))
                continue
            _, est, rec = res
            h.update(np.ascontiguousarray(est).tobytes())
            k = targets.count
            grids = phy.demodulate_frame(rec.tx_frame, self.cfg)
            sent = grids[:, self.setup.chosen_bins].reshape(-1)[:k]
            want, _ = phy.qam_quantize(targets.symbols * targets.scale, self.cfg.modulation_order)
            dev = float(np.max(np.abs(sent - want)))
            if not dev <= QUANT_TOL:
                failures.append(f"{k} targets at {snr} dB: sent points deviate by {dev:.3g}")
            elif est.shape != (k,) or not np.all(np.isfinite(est)):
                failures.append(f"{k} targets at {snr} dB: estimates not {k} finite values")
        return h.hexdigest(), failures


class Workload:
    """Common set-up and the short-call latency probe."""

    name = ""

    def __init__(self, seed: int, size: str, digests: Path | None = None):
        self.seed = seed
        self.size = SIZES[size]
        self.params = self.size[self.name]
        self.digests = digests

    def setup(self) -> None:
        self.emu = link.EmulationSetup.build(PhyConfig())
        self.calls = LinkCalls(self.emu)

    def probe_plan(self, part: int = 0, parts: int = 1) -> list[tuple]:
        """This worker's share of the short-call probe: 144-target calls,
        the size training records, stage-3 refresh and evaluation send."""
        rng = np.random.default_rng((self.seed, 0xB0, part))
        size = SHORT_OFDM * self.emu.n_chosen
        return self.calls.plan([size] * (self.size["probe_calls"] // parts), rng, 0)

    def targets_per_pass(self, inp) -> int:
        raise NotImplementedError

    def health(self, out) -> dict:
        return {}


class Emulate(Workload):
    """A round of soft-mode link calls: long (sweep-cell) and short batches."""

    name = "emulate"

    def inputs(self, i: int):
        rng = np.random.default_rng((self.seed, i))
        p = self.params
        short = SHORT_OFDM * self.emu.n_chosen
        sizes = [p["long_targets"]] * p["long_calls"] + [short] * p["short_calls"]
        return self.calls.plan(sizes, rng, i)

    def ops(self, inp) -> int:
        return len(inp)

    def run(self, inp, span=None, tick=no_tick):
        return self.calls.run(inp, tick)

    def check(self, inp, out) -> tuple[str, list[str]]:
        return self.calls.check(inp, out)

    def targets_per_pass(self, inp) -> int:
        return sum(t.count for t, _, _ in inp)


class Sweep(Workload):
    """``run_sweep`` over the three non-learned systems on the default SNR
    list, one call per cell."""

    name = "sweep"

    def setup(self) -> None:
        super().setup()
        self.csv_path = HERE / "results" / f"sweep-{self.seed}.csv"
        self.csv_path.parent.mkdir(parents=True, exist_ok=True)
        path = self.digests or HERE / "digests.json"
        self.pins = json.loads(path.read_text()) if path.exists() else {}

    def inputs(self, i: int):
        return harness.ExperimentSpec(
            snr_list=harness.DEFAULT_SNR_LIST,
            n_symbols=self.params["n_symbols"],
            systems=SWEEP_SYSTEMS,
            master_seed=(self.seed + i) % PINNED_SWEEP_SEEDS,
        )

    def ops(self, inp) -> int:
        return 1

    def run(self, spec, span=None, tick=no_tick):
        # one run_sweep call per cell, so that each cell is a timed step.
        # A one-cell spec gets cell index 0, so master seed = the full
        # sweep's cell seed reproduces that cell's row exactly (the CSV
        # digest is the one pinned for the full sweep).
        span = span or (lambda name: nullcontext())
        rows = []
        n_snr = len(spec.snr_list)
        for si, system in enumerate(spec.systems):
            for j, snr in enumerate(spec.snr_list):
                cell = harness.ExperimentSpec(
                    snr_list=(snr,), n_symbols=spec.n_symbols, systems=(system,),
                    master_seed=spec.master_seed ^ (si * n_snr + j),
                )
                with span(f"harness.cell.{system}"):
                    rows += harness.run_sweep(cell, self.emu)
                tick()
        return rows

    def digest(self, rows) -> str:
        """SHA-256 of the sweep CSV, as ``write_csv`` writes it."""
        harness.write_csv(rows, self.csv_path)
        return _sha(self.csv_path.read_bytes())

    def check(self, spec, rows) -> tuple[str, list[str]]:
        failures = []
        digest = self.digest(rows)
        pin = self.pins.get("sha256", {}).get(str(spec.master_seed))
        if self.pins.get("n_symbols") != spec.n_symbols:
            failures.append(f"no digest table for {spec.n_symbols} symbols per cell")
        elif digest != pin:
            failures.append(f"sweep.csv sha256 {digest} != pinned {pin} (seed {spec.master_seed})")
        # criterion-4 sanity: the float cliff, and the ideal link at 10 dB
        # within 2% of 0.1, on 100k symbols where 2% is over 6 sigma
        flt = np.asarray([r.symbol_mse for r in rows if r.system == "float_serial"])
        with np.errstate(divide="ignore", invalid="ignore"):
            drop = float(np.max(flt[:-1] / flt[1:]))
        if not drop > 10.0:
            failures.append(f"no float cliff: largest per-step MSE drop {drop:.3g}x")
        ideal = harness.run_sweep(harness.ExperimentSpec(
            snr_list=(10.0,), n_symbols=100_000, systems=("ideal_analog",),
            master_seed=spec.master_seed,
        ))[0].symbol_mse
        if not abs(ideal - 0.1) <= 0.002:
            failures.append(f"ideal analog MSE at 10 dB is {ideal:.5f}, not within 2% of 0.1")
        return digest, failures

    def targets_per_pass(self, spec) -> int:
        return spec.n_symbols * len(spec.systems) * len(spec.snr_list)


class Train(Workload):
    """The steps of ``run_training_pipeline`` one by one, then evaluation."""

    name = "train"

    def setup(self) -> None:
        super().setup()
        self.train_cfg = training.TrainConfig(master_seed=self.seed, **self.params["config"])
        self.curriculum = training.Curriculum()
        spec = PeriodSpec.from_config(self.emu.cfg, self.emu.n_chosen)
        self.models = (
            CompensatorModel(spec, np.random.default_rng((self.seed, 1))),
            ProxyModel(np.random.default_rng((self.seed, 2))),
            ToyJsccModel(np.random.default_rng((self.seed, 3))),
        )

    def inputs(self, i: int):
        # every pass trains from the same untouched models and seed, so
        # every pass must produce the same bytes
        images = sources.glyph_images(
            self.params["eval_images"], np.random.default_rng((self.seed, 4))
        )
        return copy.deepcopy(self.models), images

    def ops(self, inp) -> int:
        return 1

    def run(self, inp, span=None, tick=no_tick):
        span = span or (lambda name: nullcontext())
        (comp, proxy, jscc), images = inp
        cfg, setup = self.train_cfg, self.emu
        with span("training.stage1"):
            s1 = training.stage1_train_compensator(setup, cfg, model=comp)
        tick()
        with span("training.collect_records"):
            records = training.collect_link_records(
                setup, cfg.stage2_records, cfg.stage2_snr_db,
                np.random.default_rng((self.seed, 5)), n_ofdm=cfg.stage2_ofdm_symbols,
            )
        tick()
        with span("training.stage2"):
            s2 = training.stage2_train_proxy(records, cfg, model=proxy)
        tick()
        with span("training.ideal"):
            zs = training.train_jscc_ideal(cfg, self.curriculum, jscc=jscc)
        tick()
        adapted = copy.deepcopy(zs.model)
        with span("training.stage3"):
            s3 = training.stage3_alternate(
                adapted, s1.model, s2.model, setup, cfg, self.curriculum
            )
        tick()
        evals = []
        for i, snr in enumerate(self.params["eval_snrs"]):
            with span("training.eval"):
                evals.append(training.evaluate_image_link(
                    adapted, setup, snr, self.seed + i, images, compensator=s1.model
                ))
            tick()
        return s1, s2, zs, s3, evals

    def check(self, inp, out) -> tuple[str, list[str]]:
        s1, s2, zs, s3, evals = out
        failures = []
        losses = s1.loss_trace + s2.loss_trace + zs.loss_trace + [v for _, _, v in s3.loss_trace]
        if not all(math.isfinite(v) for v in losses):
            failures.append("a training loss is not finite")
        if not s1.metrics["improvement"] > 0:
            failures.append(f"stage-1 improvement {s1.metrics['improvement']:.4g} is not above 0")
        if not s2.metrics["within_bound"]:
            failures.append("stage-2 held-out MSE is not within its bound")
        # learned outputs are checked against bounds, not bytes: kernel
        # rewrites may reorder sums
        for e in evals:
            if not 0.0 <= e["image_mse"] <= 1.0:
                failures.append(f"evaluation image MSE {e['image_mse']} outside [0, 1]")
        jscc, comp, proxy = s3.model
        digest = _sha(
            jscc.state_vector(), comp.state_vector(), proxy.state_vector(),
            np.asarray([e["image_mse"] for e in evals]),
        )
        self.first_digest = getattr(self, "first_digest", digest)
        if digest != self.first_digest:
            failures.append("a pass produced other bytes than the first pass of the same seed")
        return digest, failures

    def targets_per_pass(self, inp) -> int:
        """Target values one pass sends through ``emulated_link``."""
        cfg, nch = self.train_cfg, self.emu.n_chosen
        pairs = self.models[2].latent_pairs
        return (
            (cfg.stage1_waveforms + cfg.stage1_val_waveforms) * cfg.stage1_ofdm_symbols * nch
            + cfg.stage2_records * cfg.stage2_ofdm_symbols * nch
            + cfg.stage3_max_cycles * cfg.refresh_batch_count * pairs
            + len(self.params["eval_snrs"]) * self.params["eval_images"] * pairs
        )

    def health(self, out) -> dict:
        s1, s2, _, s3, _ = out
        return {
            "training.stage1_improvement": s1.metrics["improvement"],
            "training.stage2_noise_gain": s2.metrics["noise_gain"],
            "training.stage3_final_joint_loss": s3.metrics["final_joint_loss"],
        }


WORKLOADS = {w.name: w for w in (Emulate, Sweep, Train)}
