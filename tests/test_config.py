import time
from dataclasses import fields
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ofdmemu.config import (
    MAX_CONFIG_BYTES,
    PhyConfig,
    bin_to_logical,
    parse_config_file,
    parse_modulation,
    parse_rate,
)
from ofdmemu.errors import ConfigError


def test_default_sizes():
    cfg = PhyConfig()
    assert cfg.fft_size == 64 and cfg.cp_len == 16
    assert cfg.n_data == 48 and len(cfg.pilot_subcarriers) == 4
    assert cfg.n_bpsc == 6 and cfg.n_cbps == 288 and cfg.n_dbps == 216
    assert cfg.samples_per_ofdm == 80


@pytest.mark.parametrize(
    "m,rate,n_dbps",
    [
        (2, Fraction(1, 2), 24),
        (4, Fraction(3, 4), 72),
        (16, Fraction(2, 3), 128),
        (64, Fraction(5, 6), 240),
    ],
)
def test_bit_budgets(m, rate, n_dbps):
    cfg = PhyConfig(modulation_order=m, coding_rate=rate)
    assert cfg.n_dbps == n_dbps
    assert cfg.n_cbps == 48 * cfg.n_bpsc


def test_bin_arrays_are_read_only():
    # a write would move where every later tx_grids and rx_chain on the
    # config puts its data or pilots
    cfg = PhyConfig()
    for array in (cfg.data_bin_array, cfg.pilot_bin_array):
        with pytest.raises(ValueError):
            array[0] = 7
    assert cfg.data_bin_array.tolist() == list(cfg.data_subcarriers)


def test_equal_configs_hash_alike():
    a = PhyConfig(modulation_order=16, coding_rate=Fraction(2, 3))
    b = PhyConfig(modulation_order=16, coding_rate=Fraction(2, 3))
    assert a == b and hash(a) == hash(b) and {a: 1}[b] == 1
    assert a != PhyConfig(modulation_order=16, coding_rate=Fraction(3, 4))
    assert a.n_dbps == 128 and a.n_dbps == b.n_dbps


def test_default_subcarrier_layout():
    # the 802.11a layout is a constant of the class, in ascending logical order
    data = PhyConfig.data_subcarriers
    pilots = PhyConfig.pilot_subcarriers
    assert len(data) == 48 and len(pilots) == 4
    assert [bin_to_logical(b) for b in pilots] == [-21, -7, 7, 21]
    assert [bin_to_logical(b) for b in data] == [
        k for k in range(-26, 27) if k not in (0, -21, -7, 7, 21)
    ]
    assert PhyConfig.pilot_base == (1, 1, 1, -1)
    assert [f.name for f in fields(PhyConfig)] == ["modulation_order", "coding_rate"]


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(modulation_order=8),
        dict(coding_rate=Fraction(4, 5)),
    ],
)
def test_invalid_fields_rejected(kwargs):
    with pytest.raises(ConfigError):
        PhyConfig(**kwargs)


def test_parse_helpers():
    assert parse_modulation("qpsk") == 4
    assert parse_modulation("64") == 64
    assert parse_rate("3/4") == Fraction(3, 4)
    with pytest.raises(ConfigError):
        parse_modulation("octopus")
    with pytest.raises(ConfigError):
        parse_rate("7/8")


@pytest.mark.parametrize(
    "text,rate",
    [
        ("3/4", Fraction(3, 4)),
        ("0.75", Fraction(3, 4)),
        ("75e-2", Fraction(3, 4)),
        ("6/8", Fraction(3, 4)),
        (" 2/3 ", Fraction(2, 3)),
        ("5E-1", Fraction(1, 2)),
        # exponents as large as the exponent bound lets through
        ("0.000075e4", Fraction(3, 4)),
        ("5000000e-7", Fraction(1, 2)),
    ],
)
def test_parse_rate_spellings(text, rate):
    assert parse_rate(text) == rate


@pytest.mark.parametrize("text", ["1e1000000", "75e-1000000", "1e" + "9" * 5000])
def test_parse_rate_rejects_huge_exponent_quickly(text):
    t0 = time.perf_counter()
    with pytest.raises(ConfigError):
        parse_rate(text)
    assert time.perf_counter() - t0 < 0.01


def test_config_file_roundtrip(tmp_path):
    path = tmp_path / "link.cfg"
    path.write_text(
        """
# comment line
[phy]
modulation = 16qam   ; trailing comment
coding_rate = 2/3
"""
    )
    cfg = PhyConfig.from_sections(parse_config_file(path))
    assert cfg.modulation_order == 16
    assert cfg.coding_rate == Fraction(2, 3)


def test_config_file_sections_and_errors(tmp_path):
    path = tmp_path / "multi.cfg"
    path.write_text("top = 1\n[phy]\nmodulation = qpsk\n[sweep]\nn_symbols = 50\n")
    sections = parse_config_file(path)
    assert sections[""]["top"] == "1"
    assert sections["sweep"]["n_symbols"] == "50"

    bad = tmp_path / "bad.cfg"
    bad.write_text("this line has no equals\n")
    with pytest.raises(ConfigError):
        parse_config_file(bad)
    with pytest.raises(ConfigError):
        parse_config_file(tmp_path / "missing.cfg")
    bad.write_text("[phy]\nfft_size = 64\n[phyy]  # typo\nmodulation = qpsk\n")
    with pytest.raises(ConfigError, match=r"bad.cfg:3: unknown section '\[phyy\]'"):
        parse_config_file(bad)


def test_config_file_past_the_bound_refused_before_reading(tmp_path, monkeypatch):
    big = tmp_path / "big.cfg"
    with big.open("wb") as fh:
        fh.truncate(MAX_CONFIG_BYTES + 1)  # sparse: no block is written

    def unreachable(*args, **kwargs):
        raise AssertionError("the file was opened")

    monkeypatch.setattr(Path, "open", unreachable)
    with pytest.raises(ConfigError) as info:
        parse_config_file(big)
    assert str(info.value) == (
        f"{big} has {MAX_CONFIG_BYTES + 1} bytes; at most {MAX_CONFIG_BYTES} are allowed"
    )


def test_fingerprint_tracks_fields():
    a = PhyConfig()
    b = PhyConfig(modulation_order=16)
    assert a.fingerprint() == PhyConfig().fingerprint()
    assert a.fingerprint() != b.fingerprint()


# A config file of arbitrary bytes: a config or a ConfigError, never
# anything else.  Besides raw bytes, draw lines of known keys with random
# values so the parse gets past the file format.

_KEYS = (
    "fft_size", "cp_len", "modulation", "coding_rate", "scrambler_seed",
    "subcarrier_map", "data_subcarriers", "pilot_subcarriers", "pilot_base", "bogus",
)
_VALUES = st.one_of(
    st.text(max_size=12),
    st.sampled_from(["64", "qpsk", "3/4", "1/0", "custom", "standard", "1 2 3", "-7", "93"]),
)
_LINES = st.one_of(
    st.tuples(st.sampled_from(_KEYS), _VALUES).map(lambda kv: f"{kv[0]} = {kv[1]}"),
    st.sampled_from(["[phy]", "[sweep]", "# note", ""]),
    st.text(max_size=20),
)
_CONFIG_TEXT = st.lists(_LINES, max_size=8).map(lambda lines: "\n".join(lines).encode())


@settings(
    max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(
    st.one_of(
        st.binary(max_size=120),
        _CONFIG_TEXT,
        st.tuples(st.binary(min_size=1, max_size=8), _CONFIG_TEXT).map(lambda p: p[0] + p[1]),
    )
)
def test_from_file_raises_only_config_error(tmp_path, blob):
    path = tmp_path / "fuzz.cfg"
    path.write_bytes(blob)
    try:
        PhyConfig.from_sections(parse_config_file(path))
    except ConfigError:
        pass
