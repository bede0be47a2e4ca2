"""Baseband configuration for the 802.11a-style OFDM transceiver.

The layout follows the 20 MHz 802.11a profile: 64-point FFT, 16-sample
cyclic prefix, 52 active subcarriers of which 4 carry pilots (logical
indices -21, -7, +7, +21) and 48 carry data.  Only the data portion of a
packet is modeled here: no preamble, SIGNAL field, tail or pad bits, so
the scrambler and convolutional encoder run continuously across all OFDM
symbols of a packet and reset only at packet start.

Logical subcarrier index k (negative below DC) maps to FFT bin k mod
fft_size; DC and the outer guard bins stay null.
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass, field, fields
from fractions import Fraction
from functools import cached_property
from pathlib import Path

import numpy as np

from .errors import ConfigError

# Generator polynomials of the rate-1/2 mother code (octal, constraint length 7).
CONV_G1 = 0o133
CONV_G2 = 0o171

# Bits removed from the rate-1/2 mother stream to reach higher rates.
# Patterns run over consecutive (A_i, B_i) output pairs; 1 = keep.
PUNCTURE_PATTERNS: dict[Fraction, tuple[int, ...]] = {
    Fraction(1, 2): (1, 1),
    Fraction(2, 3): (1, 1, 1, 0),
    Fraction(3, 4): (1, 1, 1, 0, 0, 1),
    Fraction(5, 6): (1, 1, 1, 0, 0, 1, 1, 0, 0, 1),
}

SUPPORTED_MODULATIONS = (2, 4, 16, 64)

# Coded bits per subcarrier for each modulation order.
BITS_PER_SYMBOL = {2: 1, 4: 2, 16: 4, 64: 6}

# Per-modulation amplitude normalization (unit average constellation power).
KMOD_SQUARED = {2: 1, 4: 2, 16: 10, 64: 42}

MODULATION_NAMES = {
    "bpsk": 2,
    "qpsk": 4,
    "16qam": 16,
    "64qam": 64,
}

_LOGICAL_ACTIVE = tuple(k for k in range(-26, 27) if k != 0)
_LOGICAL_PILOTS = (-21, -7, 7, 21)
_LOGICAL_DATA = tuple(k for k in _LOGICAL_ACTIVE if k not in _LOGICAL_PILOTS)

# Pilot amplitudes for logical bins (-21, -7, +7, +21), before the
# per-symbol polarity sign (the scrambler stream from the all-ones state,
# see phy.tx_grids).
PILOT_BASE = (1, 1, 1, -1)


def check_seed(seed: int) -> None:
    """Reject master seeds numpy cannot seed a generator with."""
    if seed < 0:
        raise ConfigError(f"seed must be a non-negative integer, got {seed}")


# upper bounds on per-run workload counts, checked when the count is read
# so that no oversized draw is ever allocated
MAX_SYMBOLS = 1_000_000  # targets per `emulate` run or sweep cell
# samples per `tx` or `rx` frame: `rx` peaks near 130 bytes per sample
MAX_FRAME_SAMPLES = 2**21
# targets per float_serial sweep cell: its one frame's Viterbi traceback
# holds about 21 bytes for each of the cell's 64 trellis steps per target
MAX_FLOAT_SERIAL_SYMBOLS = 100_000
MAX_IMAGES = 100_000  # images per zero_shot sweep cell or training run
MAX_EPOCHS = 100_000  # epochs per training stage or phase
MAX_WAVEFORMS = 100_000  # training waveforms or link records per stage
MAX_OFDM_SYMBOLS = 10_000  # OFDM symbols per training waveform or record
MAX_BATCH = 100_000  # batch sizes and link-refresh batches per cycle
MAX_CYCLES = 1_000  # stage-3 refresh cycles
# FFT points per OFDM symbol: every per-symbol array grows with it, and
# `emulate --symbols 100000` peaks near 125 MB at 256 points
MAX_FFT_SIZE = 256
# the lowest channel SNR, where the noise power is 10^30 times the signal's;
# far lower, the noise variance 10^(-snr/10) overflows a float
MIN_SNR_DB = -300.0


def check_count(name: str, count: int, limit: int) -> None:
    """Reject a workload count outside 1..limit."""
    if not 1 <= count <= limit:
        raise ConfigError(f"{name} must be in 1..{limit}, got {count}")


def logical_to_bin(k: int, fft_size: int = 64) -> int:
    """Map a logical subcarrier index (negative below DC) to its FFT bin."""
    return k % fft_size

def default_pilot_bins(fft_size: int = 64) -> tuple[int, ...]:
    return tuple(logical_to_bin(k, fft_size) for k in _LOGICAL_PILOTS)


def default_data_bins(fft_size: int = 64) -> tuple[int, ...]:
    """The 48 standard data bins, in ascending logical order."""
    return tuple(logical_to_bin(k, fft_size) for k in _LOGICAL_DATA)


def bin_to_logical(b: int, fft_size: int = 64) -> int:
    """Inverse of :func:`logical_to_bin` for the standard 64-bin layout."""
    return b if b <= fft_size // 2 else b - fft_size


@dataclass(frozen=True)
class PhyConfig:
    """Static description of one transceiver configuration.

    ``data_subcarriers`` and ``pilot_subcarriers`` hold FFT bin indices;
    the order of ``data_subcarriers`` fixes the order in which coded bits
    fill the grid.  The convolutional code is always the standard one
    (``CONV_G1``/``CONV_G2``).
    """

    fft_size: int = 64
    cp_len: int = 16
    modulation_order: int = 64
    coding_rate: Fraction = Fraction(3, 4)
    scrambler_seed: int = 0b1011101
    data_subcarriers: tuple[int, ...] = field(default_factory=default_data_bins)
    pilot_subcarriers: tuple[int, ...] = field(default_factory=default_pilot_bins)
    pilot_base: tuple[int, ...] = PILOT_BASE

    def __post_init__(self) -> None:
        if not 0 < self.fft_size <= MAX_FFT_SIZE or self.fft_size & (self.fft_size - 1):
            raise ConfigError(
                f"fft_size must be a power of two in 1..{MAX_FFT_SIZE}, got {self.fft_size}"
            )
        if not 0 <= self.cp_len <= self.fft_size:
            raise ConfigError(f"cp_len must lie in [0, fft_size], got {self.cp_len}")
        if self.modulation_order not in SUPPORTED_MODULATIONS:
            raise ConfigError(
                f"modulation_order must be one of {SUPPORTED_MODULATIONS}, got {self.modulation_order}"
            )
        rate = Fraction(self.coding_rate)
        object.__setattr__(self, "coding_rate", rate)
        if rate not in PUNCTURE_PATTERNS:
            raise ConfigError(f"coding_rate must be one of {sorted(PUNCTURE_PATTERNS)}, got {rate}")
        if not 1 <= self.scrambler_seed <= 127:
            raise ConfigError(
                f"scrambler_seed must be a nonzero 7-bit value, got {self.scrambler_seed}"
            )
        for name in ("data_subcarriers", "pilot_subcarriers"):
            bins = getattr(self, name)
            object.__setattr__(self, name, tuple(int(b) for b in bins))
        data = self.data_subcarriers
        pilots = self.pilot_subcarriers
        allbins = data + pilots
        if len(set(allbins)) != len(allbins):
            raise ConfigError("data and pilot subcarrier sets must be disjoint and duplicate-free")
        for b in allbins:
            if not 0 <= b < self.fft_size:
                raise ConfigError(f"subcarrier bin {b} outside [0, {self.fft_size})")
        if 0 in allbins:
            raise ConfigError("DC bin must stay null")
        if len(pilots) != len(self.pilot_base):
            raise ConfigError("pilot_base length must match pilot_subcarriers")
        # Coded/info bits per OFDM symbol must come out integral, and the
        # puncture pattern must align with the per-symbol block boundary so
        # every OFDM symbol sees the same puncture phase.
        n_dbps = rate * len(data) * BITS_PER_SYMBOL[self.modulation_order]
        if n_dbps.denominator != 1:
            raise ConfigError(
                f"coding_rate * data_count * bits_per_subcarrier = {n_dbps} is not an integer"
            )
        period = len(PUNCTURE_PATTERNS[rate])
        if (2 * int(n_dbps)) % period != 0:
            raise ConfigError("puncture pattern does not align with the OFDM symbol boundary")
        # the interleaver is a permutation only on a whole number of rows
        # of 16 s-bit groups, s = max(n_bpsc // 2, 1)
        row = 16 * max(self.n_bpsc // 2, 1)
        if self.n_cbps % row != 0:
            raise ConfigError(
                f"interleaver needs a multiple of {row} coded bits per symbol, got {self.n_cbps}"
            )

    # -- derived sizes ---------------------------------------------------

    @property
    def n_data(self) -> int:
        """Data subcarriers per OFDM symbol (48 in the standard layout)."""
        return len(self.data_subcarriers)

    @property
    def n_bpsc(self) -> int:
        """Coded bits per subcarrier."""
        return BITS_PER_SYMBOL[self.modulation_order]

    @property
    def n_cbps(self) -> int:
        """Coded bits per OFDM symbol."""
        return self.n_data * self.n_bpsc

    @cached_property
    def n_dbps(self) -> int:
        """Information bits per OFDM symbol."""
        return int(self.coding_rate * self.n_cbps)

    @property
    def samples_per_ofdm(self) -> int:
        return self.fft_size + self.cp_len

    @property
    def k_mod(self) -> float:
        """Amplitude scale of the constellation (1/sqrt of KMOD_SQUARED)."""
        return 1.0 / float(np.sqrt(KMOD_SQUARED[self.modulation_order]))

    @cached_property
    def data_bin_array(self) -> np.ndarray:
        """``data_subcarriers`` as a read-only index array."""
        return _index_array(self.data_subcarriers)

    @cached_property
    def pilot_bin_array(self) -> np.ndarray:
        """``pilot_subcarriers`` as a read-only index array."""
        return _index_array(self.pilot_subcarriers)

    def __hash__(self) -> int:
        return self._field_hash

    @cached_property
    def _field_hash(self) -> int:
        # hashed once: per-config caches hash their key on every lookup,
        # and hashing the bin tuples afresh costs microseconds
        return hash(tuple(getattr(self, f.name) for f in fields(self)))

    def fingerprint(self) -> str:
        """Stable hex digest identifying this configuration."""
        desc = (
            f"fft={self.fft_size};cp={self.cp_len};m={self.modulation_order};"
            f"r={self.coding_rate};seed={self.scrambler_seed};"
            f"data={','.join(map(str, self.data_subcarriers))};"
            f"pilots={','.join(map(str, self.pilot_subcarriers))};"
            f"base={','.join(map(str, self.pilot_base))};"
            f"g1={CONV_G1:o};g2={CONV_G2:o}"
        )
        return hashlib.sha256(desc.encode()).hexdigest()[:16]

    # -- config file loading --------------------------------------------

    @classmethod
    def from_sections(cls, sections: dict[str, dict[str, str]]) -> "PhyConfig":
        """The PHY of parsed config sections: keys before any header, then [phy]."""
        phy = {**sections.get("", {}), **sections.get("phy", {})}
        kv = section_values("phy", phy, _PHY_PARSERS)
        smap = kv.pop("subcarrier_map", "standard")
        layout = sorted(_LAYOUT_KEYS & set(kv))
        if smap not in ("standard", "custom"):
            raise ConfigError(f"subcarrier_map must be 'standard' or 'custom', got {smap!r}")
        if smap == "standard" and layout:
            raise ConfigError(f"{layout[0]} needs subcarrier_map = custom")
        if smap == "custom" and not {"data_subcarriers", "pilot_subcarriers"} <= set(kv):
            raise ConfigError(
                "subcarrier_map = custom needs data_subcarriers and pilot_subcarriers"
            )
        if "modulation" in kv:
            kv["modulation_order"] = kv.pop("modulation")
        return cls(**kv)


def _index_array(bins: tuple[int, ...]) -> np.ndarray:
    index = np.asarray(bins, dtype=np.intp)
    index.flags.writeable = False
    return index


# keys that only a custom subcarrier map reads
_LAYOUT_KEYS = {"data_subcarriers", "pilot_subcarriers", "pilot_base"}


def split_list(text: str) -> list[str]:
    """The items of a comma- or space-separated config value."""
    return text.replace(",", " ").split()


def section_values(section: str, values: dict[str, str], parsers: dict) -> dict:
    """Parse one config section's raw values by key, rejecting unknown
    keys and values their parser refuses with ValueError."""
    parsed = {}
    for key, raw in values.items():
        if key not in parsers:
            raise ConfigError(f"unknown [{section}] key {key!r}")
        try:
            parsed[key] = parsers[key](raw)
        except ValueError:
            raise ConfigError(f"bad value for [{section}] {key}: {raw!r}") from None
    return parsed


def parse_modulation(text: str) -> int:
    t = str(text).strip().lower()
    if t in MODULATION_NAMES:
        return MODULATION_NAMES[t]
    try:
        m = int(t)
    except ValueError:
        raise ConfigError(f"unknown modulation {text!r}") from None
    if m not in SUPPORTED_MODULATIONS:
        raise ConfigError(f"unknown modulation {text!r}")
    return m


# the exponent of a decimal spelling, in Fraction's grammar
_RATE_EXPONENT = re.compile(r"[eE]([-+]?[\d_]+)\Z")


def parse_rate(text: str) -> Fraction:
    """A supported coding rate from text such as ``3/4``, ``0.75`` or ``75e-2``.

    A decimal naming a rate between 1/2 and 1 has an exponent no larger
    in magnitude than its own length, so a larger one is rejected before
    ``Fraction`` spends unbounded time building ``10**exponent``.
    """
    s = str(text).strip()
    try:
        exp = _RATE_EXPONENT.search(s)
        if exp and abs(int(exp[1])) > len(s):
            raise ConfigError(f"unsupported coding rate {text!r}")
        r = Fraction(s)
    except (ValueError, ZeroDivisionError):
        raise ConfigError(f"bad coding rate {text!r}") from None
    if r not in PUNCTURE_PATTERNS:
        raise ConfigError(f"unsupported coding rate {text!r}")
    return r


def _int_list(text: str) -> tuple[int, ...]:
    return tuple(int(t) for t in split_list(text))


# [phy] key -> parser of its raw text
_PHY_PARSERS = {
    "fft_size": int,
    "cp_len": int,
    "modulation": parse_modulation,
    "coding_rate": parse_rate,
    "scrambler_seed": int,
    "subcarrier_map": str.lower,
    "data_subcarriers": _int_list,
    "pilot_subcarriers": _int_list,
    "pilot_base": _int_list,
}


# the [section] headers a config file may use
CONFIG_SECTIONS = ("phy", "train", "sweep")


def parse_config_file(path: str | Path) -> dict[str, dict[str, str]]:
    """Parse a plain text ``key = value`` file with optional [section] headers.

    Keys before any header land in the "" section.  A header must name
    one of ``CONFIG_SECTIONS``, so a misspelled one cannot drop its keys.
    '#' and ';' start comments.  Returns {section: {key: value}} with
    lower-cased keys.
    """
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc.strerror}") from None
    except UnicodeDecodeError:
        raise ConfigError(f"config file {path} is not UTF-8 text") from None
    sections: dict[str, dict[str, str]] = {"": {}}
    current = ""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].split(";", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1].strip().lower()
            if current not in CONFIG_SECTIONS:
                raise ConfigError(
                    f"{path}:{lineno}: unknown section {line!r}; "
                    f"valid: {', '.join(CONFIG_SECTIONS)}"
                )
            sections.setdefault(current, {})
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        sections[current][key.strip().lower()] = value.strip()
    return sections
