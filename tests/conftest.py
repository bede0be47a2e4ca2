import numpy as np
import pytest

from ofdmemu import phy
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
def rng():
    # function-scoped so consumption in one test cannot affect another
    return np.random.default_rng(12345)
