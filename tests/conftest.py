"""Shared fixtures and the acceptance-criteria summary hook.

Tests marked ``@pytest.mark.criterion(n, "label")`` are acceptance
gates; the terminal summary prints one PASS/FAIL line per criterion
number, aggregating when several tests back one criterion.
"""

import numpy as np
import pytest

from fprom import Grid
from fprom.analytic import gaussian_density

_results: dict[int, tuple[str, bool]] = {}


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "criterion(num, label): marks a test as an acceptance criterion gate",
    )


@pytest.hookimpl(wrapper=True)
def pytest_runtest_makereport(item, call):
    report = yield
    if report.when == "call":
        marker = item.get_closest_marker("criterion")
        if marker is not None:
            num, label = marker.args
            previous = _results.get(num)
            ok = report.passed and (previous is None or previous[1])
            _results[num] = (label, ok)
    return report


def pytest_terminal_summary(terminalreporter):
    if not _results:
        return
    terminalreporter.section("acceptance criteria")
    for num in sorted(_results):
        label, ok = _results[num]
        verdict = "PASS" if ok else "FAIL"
        terminalreporter.write_line(f"criterion {num:2d} [{verdict}] {label}")


@pytest.fixture
def unit_gaussian():
    grid = Grid(x_min=-8.0, x_max=8.0, n_points=257)
    return gaussian_density(grid, 0.0, 1.0, 0.0)


@pytest.fixture
def rng():
    return np.random.Generator(np.random.Philox(key=[2024, 0]))
