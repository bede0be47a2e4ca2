"""Baseband configuration for the 802.11a-style OFDM transceiver.

The layout follows the 20 MHz 802.11a profile: 64-point FFT, 16-sample
cyclic prefix, 52 active subcarriers of which 4 carry pilots (logical
indices -21, -7, +7, +21) and 48 carry data.  Only the data portion of a
packet is modeled here: no preamble, SIGNAL field, tail or pad bits, so
the scrambler and convolutional encoder run continuously across all OFDM
symbols of a packet and reset only at packet start.

The numerology, the subcarrier layout and the scrambler seed are the
standard's and are not configurable: the FFT size, the cyclic prefix,
the data and pilot bins and the scrambler's initial state are constants
of ``PhyConfig``, not fields.  Logical subcarrier index k (negative
below DC) maps to FFT bin k mod 64; DC and the outer guard bins stay
null.
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass, fields
from fractions import Fraction
from functools import cached_property
from pathlib import Path
from typing import ClassVar

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

# Coded bits per subcarrier for each modulation order.
BITS_PER_SYMBOL = {2: 1, 4: 2, 16: 4, 64: 6}

SUPPORTED_MODULATIONS = tuple(BITS_PER_SYMBOL)

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
# OFDM symbols per training link call: what a full refresh batch or image
# evaluation sends, one 24-pair latent per OFDM symbol
MAX_CALL_OFDM_SYMBOLS = 100_000
MAX_BATCH = 100_000  # batch sizes and link-refresh batches per cycle
MAX_CYCLES = 1_000  # stage-3 refresh cycles
MAX_CONFIG_BYTES = 2**20  # bytes per config file; real ones hold a few hundred
MAX_QUOTE_CHARS = 60  # characters of config text an error message quotes
# the lowest channel SNR, where the noise power is 10^30 times the signal's;
# far lower, the noise variance 10^(-snr/10) overflows a float
MIN_SNR_DB = -300.0


def check_count(name: str, count: int, limit: int) -> None:
    """Reject a workload count outside 1..limit."""
    if not 1 <= count <= limit:
        raise ConfigError(f"{name} must be in 1..{limit}, got {count}")


def _quote(text) -> str:
    """The repr of config text for an error message, cut to its first
    ``MAX_QUOTE_CHARS`` characters with its full length stated."""
    text = str(text)
    cut = f"... ({len(text)} characters)" if len(text) > MAX_QUOTE_CHARS else ""
    return f"{text[:MAX_QUOTE_CHARS]!r}{cut}"


def read_bounded(path: str | Path, limit: int) -> bytes:
    """The bytes of a file, a ConfigError naming it if it has more than
    ``limit``.  A regular file's size is checked before the read; a pipe
    or device has none, so its read stops one byte past the limit.
    OSError propagates, for the caller to name the kind of file."""
    if (size := Path(path).stat().st_size) > limit:
        raise ConfigError(f"{path} has {size} bytes; at most {limit} are allowed")
    with Path(path).open("rb") as fh:
        data = fh.read(limit + 1)
    if len(data) > limit:
        raise ConfigError(f"{path} has more than {limit} bytes")
    return data


def bin_to_logical(b: int) -> int:
    """The logical subcarrier index (negative below DC) of an FFT bin."""
    return b if b <= PhyConfig.fft_size // 2 else b - PhyConfig.fft_size


def _index_array(bins: tuple[int, ...]) -> np.ndarray:
    index = np.asarray(bins, dtype=np.intp)
    index.flags.writeable = False
    return index


@dataclass(frozen=True)
class PhyConfig:
    """Static description of one transceiver configuration.

    Only the modulation and coding rate are settings, so a PhyConfig is
    one of 16 codes.  The convolutional code (``CONV_G1``/``CONV_G2``),
    the scrambler's initial state, the numerology and the subcarrier
    layout are the standard's and are class constants:
    ``data_subcarriers`` and ``pilot_subcarriers`` hold the FFT bins of
    the 48 data and 4 pilot subcarriers in ascending logical order, and
    the order of ``data_subcarriers`` fixes the order in which coded bits
    fill the grid.  ``pilot_base`` holds the pilot amplitudes before the
    per-symbol polarity sign (the scrambler stream from the all-ones
    state, see phy.tx_grids).
    """

    fft_size: ClassVar[int] = 64
    cp_len: ClassVar[int] = 16
    data_subcarriers: ClassVar[tuple[int, ...]] = tuple(np.mod(_LOGICAL_DATA, fft_size).tolist())
    pilot_subcarriers: ClassVar[tuple[int, ...]] = tuple(
        np.mod(_LOGICAL_PILOTS, fft_size).tolist()
    )
    pilot_base: ClassVar[tuple[int, ...]] = (1, 1, 1, -1)
    # initial state of the data scrambler; the inversion solves for the
    # bits at the encoder input, so it does not enter the emulated waveform
    scrambler_seed: ClassVar[int] = 0b1011101
    # data subcarriers per OFDM symbol
    n_data: ClassVar[int] = len(data_subcarriers)
    # the bin tuples as read-only index arrays
    data_bin_array: ClassVar[np.ndarray] = _index_array(data_subcarriers)
    pilot_bin_array: ClassVar[np.ndarray] = _index_array(pilot_subcarriers)
    modulation_order: int = 64
    coding_rate: Fraction = Fraction(3, 4)

    def __post_init__(self) -> None:
        if self.modulation_order not in SUPPORTED_MODULATIONS:
            raise ConfigError(
                f"modulation_order must be one of {SUPPORTED_MODULATIONS}, got {self.modulation_order}"
            )
        rate = Fraction(self.coding_rate)
        object.__setattr__(self, "coding_rate", rate)
        if rate not in PUNCTURE_PATTERNS:
            raise ConfigError(f"coding_rate must be one of {sorted(PUNCTURE_PATTERNS)}, got {rate}")

    # -- derived sizes ---------------------------------------------------

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

    def __hash__(self) -> int:
        return self._field_hash

    @cached_property
    def _field_hash(self) -> int:
        # hashed once: per-config caches hash their key on every lookup,
        # and the Fraction makes a fresh hash of the fields cost several
        # times the cached read
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
        """The PHY of parsed config sections' [phy] keys."""
        kv = section_values("phy", sections.get("phy", {}), _PHY_PARSERS)
        if "modulation" in kv:
            kv["modulation_order"] = kv.pop("modulation")
        return cls(**kv)


def split_list(text: str) -> list[str]:
    """The items of a comma- or space-separated config value."""
    return text.replace(",", " ").split()


def section_values(section: str, values: dict[str, str], parsers: dict) -> dict:
    """Parse one config section's raw values by key, rejecting unknown
    keys and values their parser refuses with ValueError."""
    parsed = {}
    for key, raw in values.items():
        if key not in parsers:
            raise ConfigError(f"unknown [{section}] key {_quote(key)}")
        try:
            parsed[key] = parsers[key](raw)
        except ValueError:
            raise ConfigError(f"bad value for [{section}] {key}: {_quote(raw)}") from None
    return parsed


def parse_modulation(text: str) -> int:
    t = str(text).strip().lower()
    try:
        m = MODULATION_NAMES[t] if t in MODULATION_NAMES else int(t)
    except ValueError:
        m = None
    if m not in SUPPORTED_MODULATIONS:
        raise ConfigError(f"unknown modulation {_quote(text)}")
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
        r = None if exp and abs(int(exp[1])) > len(s) else Fraction(s)
    except (ValueError, ZeroDivisionError):
        raise ConfigError(f"bad coding rate {_quote(text)}") from None
    if r not in PUNCTURE_PATTERNS:
        raise ConfigError(f"unsupported coding rate {_quote(text)}")
    return r


# [phy] key -> parser of its raw text
_PHY_PARSERS = {
    "modulation": parse_modulation,
    "coding_rate": parse_rate,
}


# the [section] headers a config file may use
CONFIG_SECTIONS = ("phy", "train", "sweep")


def parse_config_file(path: str | Path) -> dict[str, dict[str, str]]:
    """Parse a plain text ``key = value`` file with optional [section] headers.

    Keys before any header are [phy] keys.  A header must name one of
    ``CONFIG_SECTIONS``, so a misspelled one cannot drop its keys, and a
    key given twice in a section is refused, so neither value drops the
    other.  '#' and ';' start comments.  Returns {section: {key: value}}
    with lower-cased keys.  A file of more than ``MAX_CONFIG_BYTES`` is refused.
    """
    try:
        text = read_bounded(path, MAX_CONFIG_BYTES).decode("utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc.strerror}") from None
    except UnicodeDecodeError:
        raise ConfigError(f"config file {path} is not UTF-8 text") from None
    sections: dict[str, dict[str, str]] = {"phy": {}}
    current = "phy"
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].split(";", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1].strip().lower()
            if current not in CONFIG_SECTIONS:
                raise ConfigError(
                    f"{path}:{lineno}: unknown section {_quote(line)}; "
                    f"valid: {', '.join(CONFIG_SECTIONS)}"
                )
            sections.setdefault(current, {})
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {_quote(raw)}")
        key, _, value = line.partition("=")
        key = key.strip().lower()
        if key in sections[current]:
            raise ConfigError(f"{path}:{lineno}: [{current}] key {_quote(key)} given twice")
        sections[current][key] = value.strip()
    return sections
