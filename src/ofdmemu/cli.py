"""Command-line front end.

Subcommands: selftest, tx, rx, emulate, sweep, train-comp, train-proxy,
train-e2e.  Every subcommand accepts --config <file>, --seed <n> (any
non-negative integer), and --out <dir>.  Exit codes: 0 success, 1
invariant failure, 2 bad configuration or usage.
"""

from __future__ import annotations

import argparse
import dataclasses
import io
import os
import sys
from pathlib import Path

import numpy as np

from .config import (
    MAX_FRAME_SAMPLES,
    MAX_SYMBOLS,
    PhyConfig,
    check_count,
    check_seed,
    parse_config_file,
    section_values,
    split_list,
)
from .errors import ConfigError, OfdmEmuError
from .framefile import (
    read_frame,
    read_input,
    read_model_into,
    save_checkpoint,
    write_frame,
    write_loss_trace,
)
from .harness import (
    CheckpointMissing,
    ExperimentSpec,
    emit_plotdata,
    evm_percent,
    gaussian_targets,
    run_sweep,
    selftest,
    write_csv,
)
from .link import EmulationSetup, TargetSymbols, check_snr, emulated_link, finite_mean_power
from .phy import rx_chain, tx_chain

DEFAULT_OUT = "ofdmemu_out"


def _load_config(args) -> tuple[dict, PhyConfig]:
    """The config file's sections, read once, and the PHY they describe."""
    # an empty --config names no file; it is an error, not "no config"
    sections = parse_config_file(args.config) if args.config is not None else {}
    return sections, PhyConfig.from_sections(sections)


# [sweep] key -> parser of its raw text
_SWEEP_KEYS = {
    "snr_list": lambda raw: tuple(float(t) for t in split_list(raw)),
    "n_symbols": int,
    "n_images": int,
    "systems": lambda raw: tuple(split_list(raw)),
}


def _training_inputs(args):
    """A training command's TrainConfig, PHY config and emulation set-up."""
    from .training import TrainConfig

    sections, cfg = _load_config(args)
    # every [train] value is an int: the seed or a count
    parsers = {f.name: int for f in dataclasses.fields(TrainConfig)}
    kwargs = section_values("train", sections.get("train", {}), parsers)
    if args.seed is not None:
        kwargs["master_seed"] = args.seed
    return TrainConfig(**kwargs), cfg, EmulationSetup.build(cfg)


def _experiment_spec(args, sections: dict, cfg: PhyConfig) -> ExperimentSpec:
    kwargs = section_values("sweep", sections.get("sweep", {}), _SWEEP_KEYS)
    # an empty --systems names no systems; it is an error, not "all systems"
    if args.systems is not None:
        kwargs["systems"] = tuple(split_list(args.systems))
    if args.seed is not None:
        kwargs["master_seed"] = args.seed
    return ExperimentSpec(cfg=cfg, **kwargs)


def _out_dir(args) -> Path:
    out = Path(args.out or DEFAULT_OUT)
    out.mkdir(parents=True, exist_ok=True)  # main reports an OSError
    return out


def cmd_selftest(args) -> int:
    _, cfg = _load_config(args)
    report = selftest(cfg, quick=args.quick)
    print(report.render())
    if args.out:
        out = _out_dir(args)
        (out / "selftest.txt").write_text(report.render() + "\n")
    return 0 if report.passed else 1


def cmd_tx(args) -> int:
    _, cfg = _load_config(args)
    # the largest payload whose frame holds at most MAX_FRAME_SAMPLES samples
    limit = MAX_FRAME_SAMPLES // cfg.samples_per_ofdm * cfg.n_dbps // 8
    data = np.frombuffer(read_input(args.infile, limit), dtype=np.uint8)
    bits = np.unpackbits(data, bitorder="little")
    pad = (-bits.size) % cfg.n_dbps
    payload = np.concatenate([bits, np.zeros(pad, dtype=np.uint8)])
    frame = tx_chain(payload, cfg)
    out = _out_dir(args)
    write_frame(out / "waveform.bin", frame.samples)
    print(
        f"transmitted {bits.size} payload bits ({pad} pad) as "
        f"{frame.samples.size} samples -> {out / 'waveform.bin'}"
    )
    return 0


def cmd_rx(args) -> int:
    _, cfg = _load_config(args)
    decoded = rx_chain(read_frame(args.infile, MAX_FRAME_SAMPLES), cfg)
    out = _out_dir(args)
    (out / "decoded.bin").write_bytes(np.packbits(decoded, bitorder="little").tobytes())
    print(f"decoded {decoded.size} bits -> {out / 'decoded.bin'}")
    return 0


def cmd_emulate(args) -> int:
    check_snr(args.snr)
    check_count("--symbols", args.symbols, MAX_SYMBOLS)
    _, cfg = _load_config(args)
    seed = args.seed if args.seed is not None else 0
    if args.infile:
        symbols = read_frame(args.infile, MAX_SYMBOLS)
    else:
        symbols = gaussian_targets(args.symbols, np.random.default_rng(seed))
    targets = TargetSymbols.unit_power(symbols, cfg)  # rejects an empty vector
    power = finite_mean_power(symbols, "the targets' mean power overflows")
    setup = EmulationSetup.build(cfg)
    estimates, record = emulated_link(targets, args.snr, seed, setup, mode=args.mode)
    # the record's noisy frame and plan would stay live through the writes
    tx_frame, clip_rate = record.tx_frame, record.plan.clip_rate
    del record
    mse = finite_mean_power(estimates - symbols, "the symbol mse overflows")
    # EVM is relative to the target power, so zero targets have none
    evm = f"{evm_percent(mse, power):.2f}%" if power > 0 else "n/a"
    out = _out_dir(args)
    write_frame(out / "estimates.bin", estimates)
    write_frame(out / "tx_waveform.bin", tx_frame)
    print(
        f"{symbols.size} targets at {args.snr:g} dB ({args.mode}): "
        f"symbol mse {mse:.6g}, evm {evm}, clip rate {clip_rate:.4g}"
    )
    return 0


def _load_zero_shot(models_dir: str | None):
    from .nn import ToyJsccModel

    if models_dir is None:
        raise CheckpointMissing(
            "sweep includes the zero_shot system but no --models directory was "
            "given; run `ofdmemu train-e2e --out <dir>` first and pass that "
            "directory via --models"
        )
    path = Path(models_dir) / "zero_shot.model"
    if not path.exists():
        raise CheckpointMissing(
            f"{path} not found; run `ofdmemu train-e2e --out {models_dir}` "
            "to produce it"
        )
    jscc = ToyJsccModel(np.random.default_rng(0))
    read_model_into(path, jscc)
    return jscc


def cmd_sweep(args) -> int:
    sections, cfg = _load_config(args)
    spec = _experiment_spec(args, sections, cfg)
    models = {}
    if "zero_shot" in spec.systems:
        models["zero_shot"] = _load_zero_shot(args.models)
    rows = run_sweep(spec, models=models)
    out = _out_dir(args)
    write_csv(rows, out / "sweep.csv")
    emit_plotdata(rows, out / "plotdata")
    print(f"{len(rows)} sweep cells -> {out / 'sweep.csv'} and {out / 'plotdata'}/")
    return 0


def _save_training(args, tc, cfg: PhyConfig, models: dict, traces: dict) -> Path:
    """Models, loss traces (``<stage>_trace.csv``) and a manifest of the
    PHY fingerprint and every ``[train]`` value, the master seed among them."""
    out = _out_dir(args)
    manifest = {"phy_fingerprint": cfg.fingerprint()}
    for f in dataclasses.fields(tc):
        manifest[f"train_{f.name}"] = getattr(tc, f.name)
    save_checkpoint(out, models, manifest)
    for stage, trace in traces.items():
        write_loss_trace(out / f"{stage}_trace.csv", trace)
    return out


def cmd_train_comp(args) -> int:
    from .training import stage1_train_compensator

    tc, cfg, setup = _training_inputs(args)
    result = stage1_train_compensator(setup, tc)
    out = _save_training(
        args, tc, cfg, {"compensator": result.model}, {"stage1": result.loss_trace}
    )
    print(
        f"stage-1 validation mse {result.metrics['val_mse_uncompensated']:.5f} -> "
        f"{result.metrics['val_mse_compensated']:.5f} "
        f"({100 * result.metrics['improvement']:.1f}% better) -> {out}"
    )
    return 0


def cmd_train_proxy(args) -> int:
    from .training import collect_stage2_records, stage2_train_proxy

    tc, cfg, setup = _training_inputs(args)
    result = stage2_train_proxy(collect_stage2_records(setup, tc), tc)
    out = _save_training(args, tc, cfg, {"proxy": result.model}, {"stage2": result.loss_trace})
    print(
        f"stage-2 held-out mse {result.metrics['held_out_mse']:.5f} "
        f"(bound {result.metrics['held_out_bound']:.5f}) -> {out}"
    )
    return 0


def cmd_train_e2e(args) -> int:
    from .training import run_training_pipeline

    tc, cfg, setup = _training_inputs(args)
    result = run_training_pipeline(setup, tc)
    models = {
        "compensator": result.compensator,
        "proxy": result.proxy,
        "jscc": result.jscc,
        "zero_shot": result.zero_shot_jscc,
    }
    traces = {s: getattr(result, s).loss_trace for s in ("stage1", "stage2", "stage3", "zero_shot")}
    out = _save_training(args, tc, cfg, models, traces)
    print(
        f"stage-1 improvement {100 * result.stage1.metrics['improvement']:.1f}%, "
        f"stage-2 held-out {result.stage2.metrics['held_out_mse']:.5f}, "
        f"stage-3 cycles {result.stage3.metrics['cycles']} -> {out}"
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ofdmemu",
        description="OFDM link emulation: waveform-level transport experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="plain-text key=value config file")
        p.add_argument("--seed", type=int, default=None, help="master seed override")
        p.add_argument("--out", help="output directory")

    p = sub.add_parser("selftest", help="conformance and sanity checks")
    common(p)
    p.add_argument("--quick", action="store_true", help="fewer vectors per check")
    p.set_defaults(func=cmd_selftest)

    p = sub.add_parser("tx", help="payload bits to a waveform frame file")
    common(p)
    p.add_argument("--in", dest="infile", required=True, help="payload byte file")
    p.set_defaults(func=cmd_tx)

    p = sub.add_parser("rx", help="waveform frame file to decoded payload bits")
    common(p)
    p.add_argument("--in", dest="infile", required=True, help="waveform frame file")
    p.set_defaults(func=cmd_rx)

    p = sub.add_parser("emulate", help="transport target symbols over the link")
    common(p)
    p.add_argument("--in", dest="infile", help="frame file of complex targets")
    p.add_argument(
        "--symbols", type=int, default=1000, help=f"generated target count, 1..{MAX_SYMBOLS}"
    )
    p.add_argument("--snr", type=float, default=15.0)
    p.add_argument("--mode", choices=("soft", "hard"), default="soft")
    p.set_defaults(func=cmd_emulate)

    p = sub.add_parser("sweep", help="SNR sweep over the transport systems")
    common(p)
    p.add_argument("--systems", help="comma list, e.g. ideal_analog,emulated")
    p.add_argument("--models", help="checkpoint directory from train-e2e")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("train-comp", help="stage 1: compensator warm-up")
    common(p)
    p.set_defaults(func=cmd_train_comp)

    p = sub.add_parser("train-proxy", help="stage 2: link surrogate fit")
    common(p)
    p.set_defaults(func=cmd_train_proxy)

    p = sub.add_parser("train-e2e", help="full three-stage pipeline plus baseline")
    common(p)
    p.set_defaults(func=cmd_train_e2e)

    return parser


# every flag that names a file or directory, and its argparse dest
_PATH_FLAGS = (("--config", "config"), ("--out", "out"), ("--in", "infile"), ("--models", "models"))


def main(argv=None) -> int:
    # Paths from argv may hold undecodable bytes (as surrogates) that a
    # strict UTF-8 stdout cannot print; show them escaped, as stderr does.
    if isinstance(sys.stdout, io.TextIOWrapper):
        sys.stdout.reconfigure(errors="backslashreplace")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.seed is not None:
            check_seed(args.seed)
        # no path holds a NUL byte; the OS would refuse it mid-command
        for flag, dest in _PATH_FLAGS:
            if "\x00" in (getattr(args, dest, None) or ""):
                raise ConfigError(f"{flag} holds a NUL byte, which no path can")
        # an out path on or below a file fails before any work; selftest writes only to --out
        out = Path(args.out or DEFAULT_OUT)
        part = next((p for p in (out, *out.parents) if os.path.exists(p)), out)
        if (args.out or args.func is not cmd_selftest) and not os.path.isdir(part):
            raise ConfigError(f"cannot use {out} as the output directory: {part} is a file")
        return args.func(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except OfdmEmuError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        # every reader raises OfdmEmuError, so this is --out or a write into it
        name = exc.filename if exc.filename is not None else "an output"
        print(f"configuration error: cannot write {name}: {exc.strerror}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
