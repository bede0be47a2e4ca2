import dataclasses
import io
import json
import os
import subprocess
import sys
import threading
import warnings
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ofdmemu
from ofdmemu import harness
from ofdmemu.cli import main
from ofdmemu.config import (
    MAX_CONFIG_BYTES,
    MAX_FRAME_SAMPLES,
    MAX_SYMBOLS,
    PhyConfig,
    parse_config_file,
)
from ofdmemu.framefile import (
    FRAME_MAGIC,
    FRAME_VERSION,
    read_frame,
    write_frame,
    write_model,
)
from ofdmemu.link import EmulationSetup
from ofdmemu.nn import CompensatorModel, PeriodSpec, ToyJsccModel
from ofdmemu.phy import tx_chain
from ofdmemu.training import TrainConfig

TINY_TRAIN = """
[train]
batch_size = 4
image_batch_size = 8
stage1_epochs = 2
stage1_waveforms = 8
stage1_val_waveforms = 4
stage1_ofdm_symbols = 2
stage2_epochs = 2
stage2_records = 8
stage2_ofdm_symbols = 2
stage3_max_cycles = 1
stage3_phase_a_epochs = 1
stage3_images = 16
refresh_batch_count = 4
stage3_refresh_epochs = 1
"""


def test_selftest_quick(capsys):
    rc = main(["selftest", "--quick"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "[PASS]" in out
    assert "[FAIL]" not in out


def test_selftest_fails_on_corrupt_config(corrupted_encoder, capsys):
    rc = main(["selftest", "--quick"])
    assert rc == 1
    assert "[FAIL]" in capsys.readouterr().out


def test_tx_rx_roundtrip(tmp_path, capsys, rng):
    payload = tmp_path / "payload.bin"
    data = rng.integers(0, 256, 100, dtype=np.uint8).tobytes()
    payload.write_bytes(data)
    rc = main(["tx", "--in", str(payload), "--out", str(tmp_path / "txout")])
    assert rc == 0
    rc = main(
        ["rx", "--in", str(tmp_path / "txout" / "waveform.bin"), "--out", str(tmp_path / "rxout")]
    )
    assert rc == 0
    decoded = (tmp_path / "rxout" / "decoded.bin").read_bytes()
    assert decoded[: len(data)] == data
    # a stray trailing byte is a framing error, not a crash
    wave = tmp_path / "txout" / "waveform.bin"
    wave.write_bytes(wave.read_bytes() + b"\0")
    rc = main(["rx", "--in", str(wave), "--out", str(tmp_path / "rxout")])
    assert rc == 1
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_rx_non_finite_frame_exits_1(tmp_path, capsys, bad):
    # one sample inside an OFDM symbol body; the quantizer cannot place it
    samples = tx_chain(np.zeros(PhyConfig().n_dbps, dtype=np.uint8), PhyConfig()).samples
    samples[40] = bad
    write_frame(tmp_path / "bad.bin", samples)
    rc = main(["rx", "--in", str(tmp_path / "bad.bin"), "--out", str(tmp_path / "o")])
    assert rc == 1
    assert "non-finite" in capsys.readouterr().err


def test_rx_partial_ofdm_symbol_exits_1(tmp_path, capsys):
    # a well-formed file of 81 samples: one 80-sample OFDM symbol and one more
    write_frame(tmp_path / "partial.bin", np.zeros(81, dtype=complex))
    rc = main(["rx", "--in", str(tmp_path / "partial.bin"), "--out", str(tmp_path / "o")])
    assert rc == 1
    assert "not a multiple of 80" in capsys.readouterr().err


def test_emulate_generated_targets(tmp_path, capsys):
    rc = main(
        ["emulate", "--symbols", "50", "--snr", "25", "--seed", "3", "--out", str(tmp_path)]
    )
    out = capsys.readouterr().out
    assert rc == 0
    assert "symbol mse" in out
    assert read_frame(tmp_path / "estimates.bin", MAX_SYMBOLS).size == 50
    assert (tmp_path / "tx_waveform.bin").exists()


def test_emulate_target_file(tmp_path, capsys, rng):
    z = (rng.normal(size=30) + 1j * rng.normal(size=30)) / np.sqrt(2)
    write_frame(tmp_path / "targets.bin", z)
    rc = main(
        [
            "emulate",
            "--in",
            str(tmp_path / "targets.bin"),
            "--snr",
            "30",
            "--out",
            str(tmp_path / "o"),
        ]
    )
    assert rc == 0
    assert read_frame(tmp_path / "o" / "estimates.bin", MAX_SYMBOLS).size == 30


def test_sweep_writes_outputs(tmp_path, capsys):
    cfgfile = tmp_path / "sweep.cfg"
    cfgfile.write_text(
        "[sweep]\nsnr_list = 0 10\nn_symbols = 200\nsystems = ideal_analog float_serial\n"
    )
    rc = main(["sweep", "--config", str(cfgfile), "--out", str(tmp_path / "out")])
    assert rc == 0
    csv_lines = (tmp_path / "out" / "sweep.csv").read_text().strip().splitlines()
    assert csv_lines[0].startswith("system,snr_db")
    assert len(csv_lines) == 5
    assert (tmp_path / "out" / "plotdata" / "ideal_analog.dat").exists()
    assert (tmp_path / "out" / "plotdata" / "combined.csv").exists()


def test_sweep_zero_shot_without_models_exits_2(tmp_path, capsys):
    rc = main(["sweep", "--systems", "zero_shot", "--out", str(tmp_path)])
    assert rc == 2
    assert "train-e2e" in capsys.readouterr().err


def _nan_zero_shot(models_dir):
    """A zero_shot.model whose last decoder bias is NaN."""
    jscc = ToyJsccModel(np.random.default_rng(0))
    state = jscc.state_vector()
    state[-1] = np.nan
    jscc.load_state_vector(state)
    models_dir.mkdir()
    write_model(models_dir / "zero_shot.model", jscc)


def test_sweep_with_a_nan_model_exits_1_before_any_cell(tmp_path, capsys, monkeypatch):
    _nan_zero_shot(tmp_path / "models")

    def unreachable(*args):
        raise AssertionError("a sweep cell ran")

    monkeypatch.setattr(harness, "_cell_symbols", unreachable)
    out = tmp_path / "out"
    argv = ["sweep", "--systems", "ideal_analog,zero_shot", "--out", str(out)]
    rc = main(argv + ["--models", str(tmp_path / "models")])
    assert rc == 1
    assert "zero_shot.model holds a non-finite parameter" in capsys.readouterr().err
    assert not out.exists()


def _compensator_model(path):
    """A compensator's parameters, saved where a zero_shot codec belongs."""
    path.parent.mkdir()
    write_model(path, CompensatorModel(PeriodSpec(80, 2), np.random.default_rng(0)))


@pytest.mark.parametrize(
    "argv,name,write,message",
    [
        (["rx", "--in", "nanframe.bin"], "nanframe.bin",
         lambda p: write_frame(p, np.full(80, np.nan)), "frame holds a non-finite sample"),
        (["emulate", "--in", "short.bin"], "short.bin",
         lambda p: p.write_bytes(b"OFRM"), "4 bytes, shorter than the 16-byte header"),
        (["sweep", "--systems", "zero_shot", "--models", "models"], "models/zero_shot.model",
         _compensator_model, "does not match model"),
    ],
    ids=["rx-non-finite-frame", "emulate-short-frame", "sweep-compensator-as-zero-shot"],
)
def test_reader_errors_name_the_file(tmp_path, capsys, monkeypatch, argv, name, write, message):
    monkeypatch.chdir(tmp_path)
    write(tmp_path / name)
    rc = main([*argv, "--out", "out"])
    assert rc == 1
    err = capsys.readouterr().err
    assert f"error: {name}: " in err and message in err
    assert not (tmp_path / "out").exists()


# The steps run in order in one fresh interpreter: (argv, module
# prefixes that must not be loaded after it).  The link commands never
# load the training stack or nn; the selftest's grad check loads nn.
_LAZY_IMPORT_STEPS = [
    (["tx", "--in", "payload.bin", "--out", "out"], ["ofdmemu.training", "ofdmemu.nn"]),
    (["rx", "--in", "out/waveform.bin", "--out", "out"], ["ofdmemu.training", "ofdmemu.nn"]),
    (["emulate", "--symbols", "10", "--out", "out"], ["ofdmemu.training", "ofdmemu.nn"]),
    (
        ["sweep", "--config", "sweep.cfg", "--systems", "ideal_analog,emulated,float_serial",
         "--out", "out"],
        ["ofdmemu.training", "ofdmemu.nn"],
    ),
    (["selftest", "--quick"], ["ofdmemu.training"]),
]
_LAZY_IMPORT_PROBE = """
import json, sys
from ofdmemu.cli import main
for argv, banned in json.loads(sys.argv[1]):
    assert main(argv) == 0, argv
    loaded = [m for m in sys.modules if m.startswith(tuple(banned))]
    assert not loaded, (argv, loaded)
"""


def test_only_training_commands_load_the_training_stack(tmp_path):
    (tmp_path / "payload.bin").write_bytes(bytes(range(40)))
    (tmp_path / "sweep.cfg").write_text("[sweep]\nsnr_list = 10\nn_symbols = 2\n")
    src = os.path.dirname(os.path.dirname(ofdmemu.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    run = subprocess.run(
        [sys.executable, "-c", _LAZY_IMPORT_PROBE, json.dumps(_LAZY_IMPORT_STEPS)],
        cwd=tmp_path, env=env, capture_output=True, text=True,
    )
    assert run.returncode == 0, run.stderr


def test_bad_train_key_exits_2(tmp_path, capsys):
    # unknown keys and unparsable values in every section are config errors
    cases = [
        (["train-comp"], "[train]\nwarp_speed = 9\n"),
        (["train-comp"], "[phy]\nmodulaton = qpsk\n"),
        (["train-comp"], "modulaton = qpsk\n"),
        (["sweep"], "[sweep]\nsymbols_per_point = 100\n"),
        (["sweep"], "[sweep]\nn_symbols = many\n"),
        (["sweep"], "[sweep]\nsnr_list = 0 nan\n"),
        # the code is fixed, so a polynomial is an unknown key
        (["selftest", "--quick"], "[phy]\nconv_g1 = 0o135\n"),
        # the subcarrier layout is the standard's, so layout keys are unknown keys
        (["selftest", "--quick"], "[phy]\ndata_subcarriers = 1 2 3\npilot_base = 1 1 1 1\n"),
        # a misspelled section header would drop its keys: QPSK would run 64-QAM
        (["selftest", "--quick"], "[phyy]\nmodulation = qpsk\n"),
        # a float_serial cell this long would hold ~1.4 GB of Viterbi traceback
        (["sweep"], "[sweep]\nn_symbols = 1000000\nsystems = float_serial\n"),
        # SNRs whose noise variance would overflow
        (["sweep"], "[sweep]\nsnr_list = -1e308\nsystems = ideal_analog\n"),
        (["train-comp"], "[train]\nstage1_snr_db = -1e308\n"),
        (["train-proxy"], "[train]\nstage2_snr_db = -1e308\n"),
    ]
    cfgfile = tmp_path / "bad.cfg"
    for command, text in cases:
        cfgfile.write_text(text)
        rc = main([*command, "--config", str(cfgfile), "--out", str(tmp_path / "o")])
        assert rc == 2, text
        assert "configuration error" in capsys.readouterr().err


@pytest.mark.parametrize("snr", ["nan", "-inf", "-1e308"])
def test_emulate_bad_snr_exits_2(tmp_path, capsys, snr):
    rc = main(["emulate", "--symbols", "10", f"--snr={snr}", "--out", str(tmp_path)])
    assert rc == 2
    assert "snr" in capsys.readouterr().err


@pytest.mark.parametrize("count", ["-1", "0"])
def test_emulate_bad_symbols_exits_2(tmp_path, capsys, count):
    rc = main(["emulate", f"--symbols={count}", "--out", str(tmp_path)])
    assert rc == 2
    assert "--symbols" in capsys.readouterr().err


def test_emulate_huge_symbols_exits_2_before_allocating(tmp_path, capsys):
    # 10^11 targets would be a 1.6 TB draw; the bound rejects the count first
    rc = main(["emulate", "--symbols", "100000000000", "--out", str(tmp_path)])
    assert rc == 2
    assert "--symbols must be in 1..1000000" in capsys.readouterr().err


def _forbid_reads(monkeypatch):
    def unreachable(path, *args, **kwargs):
        raise AssertionError("opened an oversized input file")

    monkeypatch.setattr("pathlib.Path.open", unreachable)


def test_emulate_huge_target_file_exits_2_before_reading(tmp_path, capsys, monkeypatch):
    # a valid header promising one target too many; the sparse body uses no disk
    path = tmp_path / "huge.bin"
    count = MAX_SYMBOLS + 1
    path.write_bytes(FRAME_MAGIC + FRAME_VERSION.to_bytes(4, "little") + count.to_bytes(8, "little"))
    os.truncate(path, 16 + 16 * count)
    _forbid_reads(monkeypatch)
    rc = main(["emulate", "--in", str(path), "--out", str(tmp_path / "o")])
    assert rc == 2
    assert f"at most {16 + 16 * MAX_SYMBOLS}" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["tx", "rx"])
def test_huge_tx_rx_input_exits_2_before_reading(tmp_path, capsys, monkeypatch, command):
    cfg = PhyConfig()
    # one byte past the largest payload, or the largest frame, the bound allows
    limit = {
        "tx": MAX_FRAME_SAMPLES // cfg.samples_per_ofdm * cfg.n_dbps // 8,
        "rx": 16 + 16 * MAX_FRAME_SAMPLES,
    }[command]
    path = tmp_path / "huge.bin"
    path.write_bytes(b"")
    os.truncate(path, limit + 1)
    _forbid_reads(monkeypatch)
    rc = main([command, "--in", str(path), "--out", str(tmp_path / "o")])
    assert rc == 2
    assert f"at most {limit}" in capsys.readouterr().err


def test_tx_pipe_past_the_bound_exits_2(tmp_path, capsys):
    # a pipe has no size to check before the read, so the read itself stops
    cfg = PhyConfig()
    limit = MAX_FRAME_SAMPLES // cfg.samples_per_ofdm * cfg.n_dbps // 8
    pipe = tmp_path / "pipe"
    os.mkfifo(pipe)
    writer = threading.Thread(target=pipe.write_bytes, args=(bytes(limit + 1),), daemon=True)
    writer.start()
    rc = main(["tx", "--in", str(pipe), "--out", str(tmp_path / "o")])
    writer.join(timeout=10)
    assert rc == 2
    assert f"more than {limit} bytes" in capsys.readouterr().err


def test_model_pipe_read_stops_past_the_model_exits_1(tmp_path, capsys, fed_fifo):
    # a model file that keeps writing used to be read until memory ran out
    (tmp_path / "models").mkdir()
    path = tmp_path / "models" / "zero_shot.model"
    taken = fed_fifo(path, 2**20)
    limit = 32 + 8 * ToyJsccModel(np.random.default_rng(0)).parameter_count()
    argv = ["sweep", "--systems", "zero_shot", "--models", str(tmp_path / "models")]
    rc = main(argv + ["--out", str(tmp_path / "o")])
    assert rc == 1
    assert f"{path} has more than {limit} bytes" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()
    # the reader closed the pipe one byte past the bound: the rest of the
    # megabyte had nowhere to go
    assert taken() < 2**20


def test_config_pipe_past_the_bound_exits_2(tmp_path, capsys, fed_fifo):
    path = tmp_path / "pipe.cfg"
    taken = fed_fifo(path, 4 * MAX_CONFIG_BYTES)
    rc = main(["selftest", "--quick", "--config", str(path), "--out", str(tmp_path / "o")])
    assert rc == 2
    assert f"{path} has more than {MAX_CONFIG_BYTES} bytes" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()
    assert taken() < 4 * MAX_CONFIG_BYTES


def test_emulate_zero_targets_warns_nothing(tmp_path, capsys):
    write_frame(tmp_path / "zeros.bin", np.zeros(5, dtype=complex))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(["emulate", "--in", str(tmp_path / "zeros.bin"), "--out", str(tmp_path / "o")])
    assert rc == 0
    # EVM is relative to the target power, which is zero here
    assert "evm n/a" in capsys.readouterr().out


def test_emulate_header_only_frame_exits_1_without_warnings(tmp_path, capsys):
    # a valid frame file of 0 samples: rejected before its power is read
    write_frame(tmp_path / "none.bin", np.zeros(0, dtype=complex))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(["emulate", "--in", str(tmp_path / "none.bin"), "--out", str(tmp_path / "o")])
    assert rc == 1
    assert "must not be empty" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_emulate_overflowing_targets_exit_1_before_the_link(tmp_path, capsys, monkeypatch):
    # finite targets whose power overflows; the link must not run
    write_frame(tmp_path / "huge.bin", np.array([1e300 + 1e300j, 1 + 1j, -1e200j]))

    def unreachable(*args, **kwargs):
        raise AssertionError("the link ran")

    monkeypatch.setattr("ofdmemu.cli.emulated_link", unreachable)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(["emulate", "--in", str(tmp_path / "huge.bin"), "--out", str(tmp_path / "o")])
    assert rc == 1
    assert "mean power overflows" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("key", ["n_symbols", "n_images"])
def test_sweep_huge_counts_exit_2(tmp_path, capsys, key):
    cfgfile = tmp_path / "huge.cfg"
    cfgfile.write_text(f"[sweep]\nsnr_list = 10\n{key} = 100000000000\n")
    rc = main(["sweep", "--config", str(cfgfile), "--out", str(tmp_path / "o")])
    assert rc == 2
    assert f"{key} must be in 1.." in capsys.readouterr().err


@pytest.mark.parametrize(
    "key",
    ["stage1_epochs", "stage1_waveforms", "stage1_ofdm_symbols", "stage2_records",
     "stage3_images", "batch_size", "stage3_max_cycles"],
)
def test_train_huge_counts_exit_2_before_building(tmp_path, capsys, monkeypatch, key):
    # the bound must refuse the count before the set-up or any stage runs
    assert train_e2e_without_setup(tmp_path, monkeypatch, f"{key} = 10000000000") == 2
    assert f"{key} must be in 1.." in capsys.readouterr().err


def test_train_huge_link_call_exits_2_before_building(tmp_path, capsys, monkeypatch):
    # every count is in range, but stage 2's one link call would send
    # 10^9 OFDM symbols
    rc = train_e2e_without_setup(
        tmp_path, monkeypatch, "stage2_records = 100000\nstage2_ofdm_symbols = 10000"
    )
    assert rc == 2
    assert "stage2_records x stage2_ofdm_symbols must be in 1..100000" in capsys.readouterr().err


def train_e2e_without_setup(tmp_path, monkeypatch, train_lines):
    """The exit code of train-e2e with these ``[train]`` lines, failing
    if the run gets as far as building the set-up."""

    class Unreachable:
        @staticmethod
        def build(*args, **kwargs):
            raise AssertionError("set-up built for an oversized training run")

    monkeypatch.setattr("ofdmemu.cli.EmulationSetup", Unreachable)
    cfgfile = tmp_path / "huge.cfg"
    cfgfile.write_text(f"[train]\n{train_lines}\n")
    return main(["train-e2e", "--config", str(cfgfile), "--out", str(tmp_path / "o")])


@pytest.mark.parametrize("command", ["tx", "rx", "emulate"])
def test_missing_input_file_exits_1(tmp_path, capsys, command):
    missing = tmp_path / "missing.bin"
    rc = main([command, "--in", str(missing), "--out", str(tmp_path / "o")])
    assert rc == 1
    assert str(missing) in capsys.readouterr().err


@pytest.mark.parametrize(
    "command", [["emulate", "--symbols", "10"], ["train-comp"]], ids=["emulate", "train-comp"]
)
def test_negative_seed_exits_2(tmp_path, capsys, command):
    rc = main([*command, "--seed", "-1", "--out", str(tmp_path)])
    assert rc == 2
    assert "seed" in capsys.readouterr().err


def test_non_utf8_config_exits_2(tmp_path, capsys):
    cfgfile = tmp_path / "bin.cfg"
    cfgfile.write_bytes(b"\xff\xfem\x00o\x00d\x00")
    rc = main(["selftest", "--quick", "--config", str(cfgfile)])
    assert rc == 2
    assert "configuration error" in capsys.readouterr().err


def test_sweep_without_systems_exits_2_and_writes_nothing(tmp_path, capsys):
    cfgfile = tmp_path / "none.cfg"
    cfgfile.write_text("[sweep]\nsnr_list = 10\nsystems =\n")
    rc = main(["sweep", "--config", str(cfgfile), "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "systems must not be empty" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_bad_phy_value_exits_2(tmp_path, capsys):
    cfgfile = tmp_path / "bad.cfg"
    cfgfile.write_text("coding_rate = 4/5\n")
    rc = main(["emulate", "--config", str(cfgfile), "--out", str(tmp_path / "o")])
    assert rc == 2


# the [train] settings that are constants, each with its value
_TRAIN_CONSTANTS = [
    ("step_comp", "0.1"), ("step_proxy", "0.05"), ("step_jscc", "0.05"), ("momentum", "0.9"),
    ("gamma", "0.5"), ("tolerance", "1e-3"), ("stage1_snr_db", "inf"), ("stage2_snr_db", "15"),
]


@pytest.mark.parametrize(
    "command,text,message",
    [
        # the FFT size and cyclic prefix are the standard's, not settings
        (["emulate", "--symbols", "10"], "[phy]\nfft_size = 128\n", "unknown [phy] key 'fft_size'"),
        (["emulate", "--symbols", "10"], "[phy]\ncp_len = 8\n", "unknown [phy] key 'cp_len'"),
        # so is the subcarrier layout; 24 custom BPSK bins, not whole
        # 16-bit interleaver rows, used to run with wrong bits
        (
            ["emulate", "--symbols", "50", "--snr", "40"],
            "[phy]\nsubcarrier_map = custom\n"
            f"data_subcarriers = {' '.join(map(str, range(1, 25)))}\n"
            "pilot_subcarriers = 40 41 42 43\nmodulation = bpsk\ncoding_rate = 1/2\n",
            "unknown [phy] key 'subcarrier_map'",
        ),
        (
            ["emulate", "--symbols", "10"],
            f"[phy]\ndata_subcarriers = {' '.join(map(str, PhyConfig().data_subcarriers))}\n",
            "unknown [phy] key 'data_subcarriers'",
        ),
        (
            ["emulate", "--symbols", "10"],
            "[phy]\npilot_subcarriers = 43 57 7 21\n",
            "unknown [phy] key 'pilot_subcarriers'",
        ),
        (["emulate", "--symbols", "10"], "[phy]\npilot_base = 1 1 1 -1\n",
         "unknown [phy] key 'pilot_base'"),
        # and so is the scrambler seed: the inversion solves for the bits
        # at the encoder input, so the seed never reached an emulated waveform
        (["emulate", "--symbols", "10"], "[phy]\nscrambler_seed = 93\n",
         "unknown [phy] key 'scrambler_seed'"),
        # the step sizes, momentum, gamma, tolerance and stage SNRs are
        # constants; a negative step used to train and save the model
        (
            ["train-comp"],
            "[train]\nstep_comp = -0.5\nstage1_epochs = 2\nstage1_waveforms = 4\n"
            "stage1_val_waveforms = 2\nbatch_size = 2\n",
            "unknown [train] key 'step_comp'",
        ),
        *(
            (["train-comp"], f"[train]\n{key} = {value}\n", f"unknown [train] key '{key}'")
            for key, value in _TRAIN_CONSTANTS[1:]
        ),
        # stage 2 holds a quarter of its records out; too few used to fail
        # with exit 1, train-e2e only after stage 1 had trained
        *(
            (
                [command],
                "[train]\nstage2_records = 7\nstage1_epochs = 1\nstage1_waveforms = 4\n"
                "stage1_val_waveforms = 2\nbatch_size = 2\n",
                "stage2_records must be at least 8",
            )
            for command in ("train-proxy", "train-e2e")
        ),
        # a repeated system used to run its cells twice into one series
        (
            ["sweep"],
            "[sweep]\nsnr_list = 0 10\nn_symbols = 20\nsystems = emulated emulated\n",
            "systems must not repeat",
        ),
        (
            ["sweep", "--systems", "emulated,emulated"],
            "[sweep]\nsnr_list = 0 10\nn_symbols = 20\n",
            "systems must not repeat",
        ),
        # an empty --systems used to mean all four systems
        (["sweep", "--systems", ""], "[sweep]\nsnr_list = 10\n", "systems must not be empty"),
        # a repeated SNR used to write two rows and two plot points at one x
        (
            ["sweep"],
            "[sweep]\nsnr_list = 5, 5\nsystems = ideal_analog\n",
            "snr_list must not repeat: '5.0'",
        ),
    ],
    ids=[
        "fft_size", "cp_len", "subcarrier_map", "data_subcarriers", "pilot_subcarriers",
        "pilot_base", "scrambler_seed", *(key for key, _ in _TRAIN_CONSTANTS),
        "stage2_records-train-proxy",
        "stage2_records-train-e2e", "systems-repeated", "systems-repeated-flag",
        "systems-empty-flag", "snr-repeated",
    ],
)
def test_config_error_names_key_and_writes_nothing(tmp_path, capsys, command, text, message):
    cfgfile = tmp_path / "bad.cfg"
    cfgfile.write_text(text)
    rc = main([*command, "--config", str(cfgfile), "--out", str(tmp_path / "o")])
    assert rc == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


_LONG = 500_000


# one case per place that quotes config text in an error, each with the
# text that used to be echoed whole: 500 KB, or where a longer text
# fails earlier, the most that reaches the place
@pytest.mark.parametrize(
    "command,text,message",
    [
        (["emulate"], "x" * _LONG + "\n", "expected 'key = value'"),
        (["emulate"], "\0" * (MAX_CONFIG_BYTES - 1) + "\n", "expected 'key = value'"),
        (["emulate"], "[" + "x" * _LONG + "]\n", "unknown section"),
        (["emulate"], "[phy]\n" + "k" * _LONG + " = 1\n", "unknown [phy] key"),
        (["emulate"], "modulation = " + "x" * _LONG + "\n", "unknown modulation"),
        (["emulate"], "modulation = " + "1" * 4000 + "\n", "unknown modulation"),
        (["emulate"], "coding_rate = " + "x" * _LONG + "\n", "bad coding rate"),
        (["emulate"], "coding_rate = " + "0" * _LONG + "1e999999\n", "unsupported coding rate"),
        (["emulate"], "coding_rate = " + "0" * 4000 + ".3\n", "unsupported coding rate"),
        (["train-comp"], "[train]\nbatch_size = " + "x" * _LONG + "\n", "bad value for [train]"),
        (["sweep"], "[sweep]\nn_symbols = " + "x" * _LONG + "\n", "bad value for [sweep]"),
    ],
    ids=[
        "line", "nul-line", "section", "key", "modulation-word", "modulation-number",
        "rate-word", "rate-exponent", "rate-unsupported", "train-value", "sweep-value",
    ],
)
def test_config_error_quotes_a_bounded_excerpt(tmp_path, capsys, command, text, message):
    cfgfile = tmp_path / "long.cfg"
    cfgfile.write_text(text)
    rc = main([*command, "--config", str(cfgfile), "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert rc == 2
    assert message in err and "characters)" in err
    assert len(err) < 1024
    assert not (tmp_path / "o").exists()


# system names that used to be echoed whole, from the flag and from the
# file; 40,000 names also took 17 s to check for repeats
_MANY = [f"x{i}" for i in range(20_000)] * 2


@pytest.mark.parametrize(
    "argv,text,message",
    [
        (["--systems", "x" * _LONG], "", "unknown systems"),
        (["--systems", ",".join(["x" * _LONG] * 2)], "", "systems must not repeat"),
        (["--systems", ",".join(_MANY)], "", "systems must not repeat"),
        ([], "[sweep]\nsystems = " + "x" * _LONG + "\n", "unknown systems"),
        ([], "[sweep]\nsystems = " + " ".join(_MANY) + "\n", "systems must not repeat"),
    ],
    ids=["flag-unknown", "flag-repeated", "flag-many", "file-unknown", "file-many"],
)
def test_system_name_error_quotes_a_bounded_excerpt(tmp_path, capsys, argv, text, message):
    cfgfile = tmp_path / "sweep.cfg"
    cfgfile.write_text(text)
    rc = main(["sweep", *argv, "--config", str(cfgfile), "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert rc == 2
    assert message in err and "characters)" in err
    assert len(err) < 1024
    assert not (tmp_path / "o").exists()


def assert_manifest_records_config(out):
    """The manifest holds the PHY fingerprint and every [train] value of a
    TINY_TRAIN run at seed 3, the seed once, as ``train_master_seed``."""
    lines = (out / "checkpoint.txt").read_text().splitlines()
    keys = {line.split("=", 1)[0] for line in lines}
    assert {f"train_{f.name}" for f in dataclasses.fields(TrainConfig)} <= keys
    assert "master_seed" not in keys
    for line in ("train_master_seed=3", "train_stage1_epochs=2",
                 f"phy_fingerprint={PhyConfig().fingerprint()}"):
        assert line in lines


def test_train_comp_writes_checkpoint(tmp_path, capsys):
    cfgfile = tmp_path / "train.cfg"
    cfgfile.write_text(TINY_TRAIN)
    out = tmp_path / "ckpt"
    rc = main(["train-comp", "--config", str(cfgfile), "--seed", "3", "--out", str(out)])
    assert rc == 0
    assert (out / "compensator.model").exists()
    assert (out / "stage1_trace.csv").exists()
    assert "stage-1" in capsys.readouterr().out
    assert_manifest_records_config(out)


def test_train_proxy_writes_checkpoint(tmp_path, capsys):
    cfgfile = tmp_path / "train.cfg"
    cfgfile.write_text(TINY_TRAIN)
    out = tmp_path / "ckpt"
    rc = main(["train-proxy", "--config", str(cfgfile), "--seed", "3", "--out", str(out)])
    assert rc == 0
    assert (out / "proxy.model").exists()
    assert (out / "stage2_trace.csv").exists()
    assert "held-out" in capsys.readouterr().out
    assert_manifest_records_config(out)


@pytest.mark.slow
def test_train_e2e_then_zero_shot_sweep(tmp_path, capsys):
    cfgfile = tmp_path / "train.cfg"
    cfgfile.write_text(TINY_TRAIN + "\n[sweep]\nsnr_list = 15\nn_images = 4\n")
    ckpt = tmp_path / "ckpt"
    rc = main(["train-e2e", "--config", str(cfgfile), "--seed", "3", "--out", str(ckpt)])
    assert rc == 0
    for name in ("compensator", "proxy", "jscc", "zero_shot"):
        assert (ckpt / f"{name}.model").exists()
    for name in ("stage1", "stage2", "stage3", "zero_shot"):
        assert (ckpt / f"{name}_trace.csv").exists()
    capsys.readouterr()

    rc = main(
        [
            "sweep",
            "--config",
            str(cfgfile),
            "--systems",
            "zero_shot",
            "--models",
            str(ckpt),
            "--out",
            str(tmp_path / "sweepout"),
        ]
    )
    assert rc == 0
    lines = (tmp_path / "sweepout" / "sweep.csv").read_text().strip().splitlines()
    assert len(lines) == 2
    assert lines[1].startswith("zero_shot,15,")


@pytest.mark.parametrize("command", [["selftest", "--quick"], ["sweep"], ["train-e2e"]])
def test_empty_config_path_exits_2(tmp_path, capsys, command):
    # an empty path must not fall back to the defaults (a full-size sweep
    # or training run)
    rc = main([*command, "--config", "", "--out", str(tmp_path)])
    assert rc == 2
    assert "configuration error" in capsys.readouterr().err


# each writing command, its arguments, and the steps of its work; "IN"
# stands for an input file
_OUT_WORK = {
    "selftest": (["--quick"], ["ofdmemu.cli.selftest"]),
    "tx": (["--in", "IN"], ["ofdmemu.cli.read_input", "ofdmemu.cli.tx_chain"]),
    "rx": (["--in", "IN"], ["ofdmemu.cli.read_frame", "ofdmemu.cli.rx_chain"]),
    "emulate": ([], ["ofdmemu.cli.gaussian_targets", "ofdmemu.cli.emulated_link"]),
    "sweep": (["--systems", "emulated"], ["ofdmemu.cli.run_sweep"]),
    "train-comp": ([], ["ofdmemu.training.stage1_train_compensator"]),
    "train-proxy": ([], ["ofdmemu.training.collect_stage2_records"]),
    "train-e2e": ([], ["ofdmemu.training.run_training_pipeline"]),
}


def test_out_path_that_is_a_file_exits_2(tmp_path, capsys, monkeypatch):
    # a file where the output directory would go is refused before any
    # set-up or work, and nothing is created
    def unreachable(*args, **kwargs):
        raise AssertionError("the command started its work")

    monkeypatch.setattr(EmulationSetup, "build", unreachable)
    for steps in _OUT_WORK.values():
        for step in steps[1]:
            monkeypatch.setattr(step, unreachable)
    taken = tmp_path / "taken"
    taken.write_bytes(b"\x01\x02")
    for command, (args, _) in _OUT_WORK.items():
        args = [str(taken) if a == "IN" else a for a in args]
        for out in (taken, taken / "below"):
            rc = main([command, *args, "--out", str(out)])
            assert rc == 2, command
            assert "output directory" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [taken]


@pytest.mark.parametrize(
    "command,args,blocked,make,reason",
    [
        ("sweep", ["--systems", "ideal_analog"], "plotdata", "file", "File exists"),
        ("tx", ["--in", "IN"], "waveform.bin", "dir", "Is a directory"),
        ("train-comp", ["--config", "CFG"], "compensator.model", "dir", "Is a directory"),
    ],
    ids=["sweep-plotdata-file", "tx-waveform-dir", "train-comp-model-dir"],
)
def test_blocked_output_inside_out_exits_2(tmp_path, capsys, command, args, blocked, make, reason):
    # an output that cannot be written inside a usable --out is one line
    # naming the path and the OS reason, not a traceback
    payload, cfgfile = tmp_path / "payload.bin", tmp_path / "train.cfg"
    payload.write_bytes(b"\x01\x02")
    cfgfile.write_text(TINY_TRAIN)
    args = [{"IN": str(payload), "CFG": str(cfgfile)}.get(a, a) for a in args]
    out = tmp_path / "o"
    out.mkdir()
    path = out / blocked
    if make == "file":
        path.write_bytes(b"")
    else:
        path.mkdir()
    rc = main([command, *args, "--seed", "3", "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == 2
    assert err == f"configuration error: cannot write {path}: {reason}\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["rx", "--in", "a\x00b"],
        ["tx", "--in", "a\x00b"],
        ["emulate", "--in", "a\x00b"],
        ["selftest", "--quick", "--config", "a\x00b"],
        ["emulate", "--symbols", "5", "--out", "a\x00b"],
        ["sweep", "--systems", "zero_shot", "--models", "a\x00b"],
    ],
    ids=["rx-in", "tx-in", "emulate-in", "selftest-config", "emulate-out", "sweep-models"],
)
def test_nul_byte_in_a_path_exits_2(argv, tmp_path, capsys, monkeypatch):
    # no path can hold a NUL byte: refused before any set-up or work,
    # naming the flag, and nothing is created
    def unreachable(*args, **kwargs):
        raise AssertionError("the command started its work")

    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(EmulationSetup, "build", unreachable)
    for steps in _OUT_WORK.values():
        for step in steps[1]:
            monkeypatch.setattr(step, unreachable)
    monkeypatch.setattr("ofdmemu.cli.parse_config_file", unreachable)
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert len(err.encode()) < 1024
    assert f"{argv[-2]} holds a NUL byte" in err
    assert list(tmp_path.iterdir()) == []


def test_non_utf8_out_path_prints_on_a_strict_utf8_stdout(tmp_path):
    # argv carries undecodable bytes as surrogates; echoing the path back
    # must not raise UnicodeEncodeError
    payload = tmp_path / "payload.bin"
    payload.write_bytes(b"\x01\x02")
    out = tmp_path / (_NON_UTF8 + "-out")
    assert _exit_code(["tx", "--in", str(payload), "--out", str(out)], tmp_path) == 0
    assert (out / "waveform.bin").exists()


# ---------------------------------------------------------------------------
# CLI-wide property: any argv ends in exit 0, 1 or 2, never a traceback


def _setting(text, **values):
    """Config ``text`` with the lines of the given keys set to new values
    (a key may be given once per section)."""
    kept = [line for line in text.splitlines() if line.split("=")[0].strip() not in values]
    return "\n".join(kept + [f"{key} = {value}" for key, value in values.items()]) + "\n"


TINY_SWEEP = "[sweep]\nsnr_list = 10\nn_symbols = 2\nn_images = 1\n"
# TINY_TRAIN cut further: a drawn train command runs often
TINIER_TRAIN = _setting(
    TINY_TRAIN, stage1_epochs=1, stage1_waveforms=4, stage1_val_waveforms=1,
    stage1_ofdm_symbols=1, stage2_epochs=1, stage2_ofdm_symbols=1, stage3_images=8,
    refresh_batch_count=2,
)

# Every config a drawn sweep or train command can read is tiny or
# rejected: with no --config they would run the default-size sweep or
# training.
_CONFIG_TEXTS = {
    "phy_bpsk.cfg": "modulation = bpsk\ncoding_rate = 1/2\n",
    "bad_phy.cfg": "coding_rate = 4/5\n",
    "empty.cfg": "",
    "sweep.cfg": TINY_SWEEP + "systems = ideal_analog emulated float_serial\n",
    "sweep_zero.cfg": _setting(TINY_SWEEP, n_symbols=0),
    "sweep_nan.cfg": _setting(TINY_SWEEP, snr_list="nan"),
    "sweep_huge.cfg": _setting(TINY_SWEEP, n_images=100000000000),
    "sweep_key.cfg": TINY_SWEEP + "bogus = 1\n",
    "train.cfg": TINIER_TRAIN + TINY_SWEEP,
    "train_key.cfg": TINIER_TRAIN + "warp_speed = 9\n",
    "train_negative.cfg": _setting(TINIER_TRAIN, stage1_epochs=-1),
    "train_huge.cfg": _setting(TINIER_TRAIN, stage3_images=10000000000),
    "train_nan.cfg": _setting(TINIER_TRAIN, stage2_epochs="nan"),
}
# names of undecodable bytes, as argv carries them on POSIX
_NON_UTF8 = os.fsdecode(b"\xff\xfe")
# Every option pool is (plain values, hostile values).  None leaves the
# option out.
_PATHS_IN_HOSTILE = ["empty", "header_only", "nan_frame", "dir", "non_utf8", "missing", "missing_non_utf8", ""]
_PATHS_IN = {
    "tx": (["payload", "junk", "frame", "targets"], [None] + _PATHS_IN_HOSTILE),
    "rx": (["frame"], ["payload", "junk", "targets", None] + _PATHS_IN_HOSTILE),
    "emulate": ([None, "targets", "frame"], ["payload", "junk"] + _PATHS_IN_HOSTILE),
}
_PATHS_OUT = ([None, "fresh", "dir"], ["", "payload", "under_file", "fresh_non_utf8"])
_CONFIGS_SMALL = ([None, "phy_bpsk.cfg", "empty.cfg"],
                  ["bad_phy.cfg", "binary.cfg", "payload", "missing", "dir", ""])
_CONFIGS_SWEEP = (["sweep.cfg"], ["sweep_zero.cfg", "sweep_nan.cfg", "sweep_huge.cfg",
                                  "sweep_key.cfg", "binary.cfg", "missing", "dir", ""])
_CONFIGS_TRAIN = (["train.cfg"], ["train_key.cfg", "train_negative.cfg", "train_huge.cfg",
                                  "train_nan.cfg", "binary.cfg", "missing", "dir", ""])
_SEEDS = ([None, "0", "3"], ["-1", "nan", "", "1e3", "18446744073709551616", _NON_UTF8])
# emulate's own options; a missing --symbols means 1000 targets
_EMULATE = {
    "--symbols": ([None, "1", "5"], ["0", "-1", "nan", "", "1000001", "100000000000"]),
    "--snr": ([None, "15", "0", "-5", "inf", "1e308"], ["nan", "-inf", "-1e308", "abc", ""]),
    "--mode": ([None, "soft", "hard"], ["bogus", ""]),
}
_SWEEP = {
    "--systems": ([None, "ideal_analog", "emulated", "float_serial", "zero_shot",
                   "ideal_analog,zero_shot"], ["", ",", "bogus"]),
    "--models": ([None, "models"], ["missing", "nan_models", "payload", "dir", ""]),
}
# words after the options: none, or a usage error (an unknown flag, a
# stray word, or -h)
_TAIL = ([[]], [["--bogus"], ["stray"], ["-h"]])


@pytest.fixture(scope="module")
def cli_files(tmp_path_factory):
    """Inputs for the drawn command lines, and warm set-ups for both PHYs."""
    root = tmp_path_factory.mktemp("cli")
    rng = np.random.default_rng(8)
    payload = rng.integers(0, 256, 30, dtype=np.uint8).tobytes()
    files = {"root": root}
    for name, data in (("payload", payload), ("empty", b""), ("junk", payload[:7]),
                       ("non_utf8", payload), ("binary.cfg", b"\xff\xfem\x00o\x00d\x00")):
        path = root / (_NON_UTF8 + ".bin" if name == "non_utf8" else name)
        path.write_bytes(data)
        files[name] = path
    for name, text in _CONFIG_TEXTS.items():
        files[name] = root / name
        files[name].write_text(text)
    bits = np.unpackbits(np.frombuffer(payload, dtype=np.uint8))[: PhyConfig().n_dbps]
    files["frame"] = root / "frame.bin"
    samples = tx_chain(bits, PhyConfig()).samples
    write_frame(files["frame"], samples)
    samples[40] = np.nan  # inside the first OFDM symbol's body
    files["nan_frame"] = root / "nan_frame.bin"
    write_frame(files["nan_frame"], samples)
    files["header_only"] = root / "header_only.bin"
    write_frame(files["header_only"], np.zeros(0))
    files["targets"] = root / "targets.bin"
    write_frame(files["targets"], rng.normal(size=5) + 1j * rng.normal(size=5))
    files["dir"] = root / "dir"
    files["dir"].mkdir()
    files["missing"] = root / "missing.bin"
    files["missing_non_utf8"] = root / (_NON_UTF8 + "-missing")
    files["fresh"] = root / "out"
    files["fresh_non_utf8"] = root / (_NON_UTF8 + "-out")
    files["under_file"] = files["payload"] / "out"
    files["models"] = root / "models"
    files["nan_models"] = root / "nan_models"
    _nan_zero_shot(files["nan_models"])
    EmulationSetup.build(PhyConfig())
    EmulationSetup.build(PhyConfig.from_sections(parse_config_file(files["phy_bpsk.cfg"])))
    with redirect_stdout(io.StringIO()):
        rc = main(["train-e2e", "--config", str(files["train.cfg"]), "--out", str(files["models"])])
    assert rc == 0
    return files


_COMMANDS = ["selftest", "tx", "rx", "emulate", "sweep", "train-comp", "train-proxy", "train-e2e"]
_PATH_FLAGS = ("--config", "--out", "--in", "--models")


def _slots(command):
    """(flag, pool) for each option of ``command``; a None flag is the tail."""
    configs = {"sweep": _CONFIGS_SWEEP}.get(command, _CONFIGS_SMALL)
    if command.startswith("train"):
        configs = _CONFIGS_TRAIN
    slots = [("--config", configs), ("--seed", _SEEDS), ("--out", _PATHS_OUT)]
    if command in _PATHS_IN:
        slots.append(("--in", _PATHS_IN[command]))
    slots += {"emulate": _EMULATE, "sweep": _SWEEP}.get(command, {}).items()
    return slots + [(None, _TAIL)]


# (command, slot index, hostile value) for every hostile value of every
# command, plus (command, None, None): all plain
_FOCUSED = [(c, i, v) for c in _COMMANDS for i, (_, (_, hostile)) in enumerate(_slots(c))
            for v in hostile] + [(c, None, None) for c in _COMMANDS]


@st.composite
def _argvs(draw, files):
    # Three draws in four are focused: one hostile value at most, drawn
    # evenly over all of them, so the other options pass their checks and
    # the work behind them runs.  The rest mix hostile values freely.
    mixed = draw(st.integers(0, 3)) == 0
    if mixed:
        command, target = draw(st.sampled_from(_COMMANDS)), None
    else:
        command, target, hostile_value = draw(st.sampled_from(_FOCUSED))
    argv = [command] + (["--quick"] if command == "selftest" else [])
    for i, (flag, (plain, hostile)) in enumerate(_slots(command)):
        if i == target:
            value = hostile_value
        else:
            value = draw(st.sampled_from(plain + hostile if mixed else plain))
        if flag in _PATH_FLAGS and value is not None:
            value = "" if value == "" else str(files[value])
        if flag is None:
            argv += value
        # argparse takes a separate value such as "-1e308" for a flag, so a
        # mixed draw also joins values to their flags, and a focused one
        # always does: its hostile value then reaches the program
        elif value is not None and (not mixed or draw(st.booleans())):
            argv += [f"{flag}={value}"]
        elif value is not None:
            argv += [flag, value]
    return argv


def _exit_code(argv, cwd):
    """Run main like the console script would, on a strict UTF-8 stdout."""
    stdout = io.TextIOWrapper(io.BytesIO(), encoding="utf-8", errors="strict")
    stderr = io.TextIOWrapper(io.BytesIO(), encoding="utf-8", errors="backslashreplace")
    old = os.getcwd()
    os.chdir(cwd)
    try:
        with redirect_stdout(stdout), redirect_stderr(stderr):
            try:
                return main(argv)
            except SystemExit as exc:  # argparse's usage errors and -h
                return exc.code
    finally:
        os.chdir(old)


@settings(max_examples=1000, deadline=None)
@given(data=st.data())
def test_cli_exits_cleanly_on_any_argv(cli_files, data):
    argv = data.draw(_argvs(cli_files), label="argv")
    assert _exit_code(argv, cli_files["root"]) in (0, 1, 2)
