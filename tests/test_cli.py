import numpy as np
import pytest

from ofdmemu.cli import main
from ofdmemu.framefile import read_frame, write_frame

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


def test_emulate_generated_targets(tmp_path, capsys):
    rc = main(
        ["emulate", "--symbols", "50", "--snr", "25", "--seed", "3", "--out", str(tmp_path)]
    )
    out = capsys.readouterr().out
    assert rc == 0
    assert "symbol mse" in out
    assert read_frame(tmp_path / "estimates.bin").size == 50
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
    assert read_frame(tmp_path / "o" / "estimates.bin").size == 30


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
        # layout keys without the custom map would be silently ignored
        (["selftest", "--quick"], "[phy]\ndata_subcarriers = 1 2 3\npilot_base = 1 1 1 1\n"),
    ]
    cfgfile = tmp_path / "bad.cfg"
    for command, text in cases:
        cfgfile.write_text(text)
        rc = main([*command, "--config", str(cfgfile), "--out", str(tmp_path / "o")])
        assert rc == 2, text
        assert "configuration error" in capsys.readouterr().err


@pytest.mark.parametrize("snr", ["nan", "-inf"])
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
    class Unreachable:
        @staticmethod
        def build(*args, **kwargs):
            raise AssertionError("set-up built for an oversized training count")

    monkeypatch.setattr("ofdmemu.cli.EmulationSetup", Unreachable)
    cfgfile = tmp_path / "huge.cfg"
    cfgfile.write_text(f"[train]\n{key} = 10000000000\n")
    rc = main(["train-e2e", "--config", str(cfgfile), "--out", str(tmp_path / "o")])
    assert rc == 2
    assert f"{key} must be in 1.." in capsys.readouterr().err


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


def test_bad_phy_value_exits_2(tmp_path, capsys):
    cfgfile = tmp_path / "bad.cfg"
    cfgfile.write_text("fft_size = 60\n")
    rc = main(["emulate", "--config", str(cfgfile), "--out", str(tmp_path / "o")])
    assert rc == 2


def test_train_comp_writes_checkpoint(tmp_path, capsys):
    cfgfile = tmp_path / "train.cfg"
    cfgfile.write_text(TINY_TRAIN)
    out = tmp_path / "ckpt"
    rc = main(["train-comp", "--config", str(cfgfile), "--seed", "3", "--out", str(out)])
    assert rc == 0
    assert (out / "compensator.model").exists()
    assert (out / "stage1_trace.csv").exists()
    assert "stage-1" in capsys.readouterr().out
    manifest = (out / "checkpoint.txt").read_text()
    assert "master_seed=3" in manifest


def test_train_proxy_writes_checkpoint(tmp_path, capsys):
    cfgfile = tmp_path / "train.cfg"
    cfgfile.write_text(TINY_TRAIN)
    out = tmp_path / "ckpt"
    rc = main(["train-proxy", "--config", str(cfgfile), "--seed", "3", "--out", str(out)])
    assert rc == 0
    assert (out / "proxy.model").exists()
    assert (out / "stage2_trace.csv").exists()
    assert "held-out" in capsys.readouterr().out


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
