import numpy as np
import pytest

from criteria import CRITERION_LINES
from cpasim.cli import fig3_preset, fig4_preset


def pytest_terminal_summary(terminalreporter):
    if not CRITERION_LINES:
        return
    terminalreporter.section("acceptance criteria")
    for number, outcome, detail in sorted(CRITERION_LINES):
        terminalreporter.write_line(f"criterion {number}: {outcome} - {detail}")


@pytest.fixture(scope="session")
def fig3_params():
    """All six bistability demo configurations keyed by (tag, delta_tls)."""
    out = {}
    for tag in ("fig3a", "fig3b", "fig3c"):
        for dtls in (4.5, 1.5):
            out[(tag, dtls)] = fig3_preset(tag, dtls)
    return out


@pytest.fixture(scope="session")
def fig4_params():
    return fig4_preset()


@pytest.fixture
def rng():
    return np.random.default_rng(20260821)
