import numpy as np
import pytest

from ofdmemu.config import MAX_FLOAT_SERIAL_SYMBOLS
from ofdmemu.errors import ConfigError, OfdmEmuError
from ofdmemu.harness import (
    CSV_COLUMNS,
    DEFAULT_SNR_LIST,
    SYSTEM_IDS,
    CheckpointMissing,
    ExperimentSpec,
    MetricRow,
    csv_text,
    emit_plotdata,
    run_sweep,
    selftest,
    write_csv,
)


def small_spec(**overrides):
    base = dict(
        snr_list=(0.0, 10.0),
        n_symbols=300,
        n_images=4,
        systems=("ideal_analog", "emulated", "float_serial"),
        master_seed=5,
    )
    base.update(overrides)
    return ExperimentSpec(**base)


def test_default_snr_grid():
    assert DEFAULT_SNR_LIST == tuple(float(s) for s in range(-5, 40, 5))


def test_spec_validation():
    for bad in ((), (10.0, 0.0), (10.0, 10.0), (-0.0, 0.0)):
        with pytest.raises(ConfigError):
            ExperimentSpec(snr_list=bad)
    for bad in (float("nan"), float("-inf")):
        with pytest.raises(ConfigError):
            ExperimentSpec(snr_list=(0.0, bad))
    with pytest.raises(ConfigError):
        ExperimentSpec(n_symbols=0)
    with pytest.raises(ConfigError):
        ExperimentSpec(systems=("emulated", "quantum"))
    with pytest.raises(ConfigError):
        ExperimentSpec(master_seed=-1)
    # float_serial alone decodes one frame of 64 trellis steps per symbol
    big = MAX_FLOAT_SERIAL_SYMBOLS + 1
    with pytest.raises(ConfigError, match="n_symbols with float_serial"):
        ExperimentSpec(n_symbols=big, systems=("ideal_analog", "float_serial"))
    ExperimentSpec(n_symbols=big, systems=("ideal_analog", "emulated"))


def test_metric_row_validation():
    MetricRow("emulated", 5.0, 0.1, None, 30.0, None, 100, 1)
    with pytest.raises(OfdmEmuError):
        MetricRow("emulated", 5.0, -0.1, None, 30.0, None, 100, 1)
    with pytest.raises(OfdmEmuError):
        MetricRow("emulated", 5.0, float("nan"), None, 30.0, None, 100, 1)


def test_csv_schema_and_none_rendering(tmp_path):
    rows = [
        MetricRow("ideal_analog", 0.0, 1.0, None, 100.0, None, 10, 3),
        MetricRow("zero_shot", 5.0, 0.5, 0.02, 70.0, None, 10, 4),
    ]
    text = csv_text(rows)
    lines = text.strip().splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert lines[1] == "ideal_analog,0,1,,100,,10,3"
    p = tmp_path / "out.csv"
    write_csv(rows, p)
    assert p.read_text() == text


def test_run_sweep_shape_and_determinism(default_setup):
    spec = small_spec()
    rows = run_sweep(spec, setup=default_setup)
    assert len(rows) == 6
    assert [r.system for r in rows[:2]] == ["ideal_analog", "ideal_analog"]
    assert all(r.snr_db in (0.0, 10.0) for r in rows)
    # cell seeds follow master ^ cell_index
    assert [r.seed for r in rows] == [5 ^ c for c in range(6)]
    again = run_sweep(spec, setup=default_setup)
    assert csv_text(rows) == csv_text(again)


def test_run_sweep_emulated_tracks_snr(default_setup):
    spec = small_spec(systems=("emulated",), snr_list=(0.0, 20.0))
    rows = run_sweep(spec, setup=default_setup)
    assert rows[0].symbol_mse > rows[1].symbol_mse
    assert rows[0].ber is not None and rows[1].ber is not None


def test_run_sweep_zero_shot_needs_model(default_setup):
    spec = small_spec(systems=SYSTEM_IDS)
    with pytest.raises(CheckpointMissing):
        run_sweep(spec, setup=default_setup)


def test_emit_plotdata(tmp_path, default_setup):
    spec = small_spec(systems=("ideal_analog", "float_serial"))
    rows = run_sweep(spec, setup=default_setup)
    written = emit_plotdata(rows, tmp_path)
    names = {p.name for p in written}
    assert names == {"ideal_analog.dat", "float_serial.dat", "combined.csv"}
    dat = (tmp_path / "ideal_analog.dat").read_text().strip().splitlines()
    assert len(dat) == 2
    snr, mse, err = dat[0].split()
    assert float(snr) == 0.0
    assert float(mse) > 0
    assert float(err) >= 0
    # byte-stable on re-emit
    before = {p.name: p.read_bytes() for p in written}
    for p in emit_plotdata(rows, tmp_path):
        assert p.read_bytes() == before[p.name]
    with pytest.raises(OfdmEmuError):
        emit_plotdata([], tmp_path)


def test_selftest_passes_on_clean_config():
    report = selftest(quick=True)
    assert report.passed
    text = report.render()
    assert "[PASS]" in text
    assert "[FAIL]" not in text


def test_selftest_catches_corrupted_encoder(corrupted_encoder):
    report = selftest(quick=True)
    assert not report.passed
    failed = {c.name for c in report.checks if not c.passed}
    assert "conv_encoder" in failed


def test_selftest_catches_a_corrupted_coded_bit_map(corrupted_symbol_map):
    # at the default rate, 3/4, the loopback and the GF(2) probe run an
    # intact map; only the check over all 16 pairs reaches rate 2/3
    report = selftest(quick=True)
    failed = {c.name for c in report.checks if not c.passed}
    assert failed == {"coded_bit_map"}
