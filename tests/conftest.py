from fractions import Fraction

import numpy as np
import pytest

from ofdmemu import inversion, phy
from ofdmemu.config import PhyConfig
from ofdmemu.link import EmulationSetup

# one line per acceptance criterion, printed after the run summary
ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture
def record_criterion():
    def record(number: int, name: str, passed: bool, detail: str) -> None:
        tag = "PASS" if passed else "FAIL"
        ACCEPTANCE_LINES.append(f"[{tag}] criterion {number} ({name}): {detail}")

    return record


@pytest.fixture(scope="session")
def default_cfg():
    return PhyConfig()


@pytest.fixture(scope="session")
def default_setup(default_cfg):
    return EmulationSetup.build(default_cfg)


@pytest.fixture
def corrupted_encoder(monkeypatch):
    """Swap the production encoder for one with a wrong first polynomial."""
    real = phy.conv_encode

    def wrong_g1(bits, state=0, g1=phy.CONV_G1, g2=phy.CONV_G2):
        return real(bits, state, 0o135, g2)

    monkeypatch.setattr(phy, "conv_encode", wrong_g1)


@pytest.fixture
def corrupted_symbol_map(monkeypatch):
    """Swap two entries of the coded-bit map at rate 2/3, for the chain and
    the GF(2) model alike, so transmit and receive still agree."""
    real = phy._symbol_gather

    def swapped(cfg):
        gather = real(cfg)
        if cfg.coding_rate == Fraction(2, 3):
            gather = gather.copy()
            gather[[0, 1]] = gather[[1, 0]]
        return gather

    monkeypatch.setattr(phy, "_symbol_gather", swapped)
    monkeypatch.setattr(inversion, "_symbol_gather", swapped)


@pytest.fixture
def rng():
    # function-scoped so consumption in one test cannot affect another
    return np.random.default_rng(12345)
