"""Shared fixtures: model spaces and safe random sampling for probes."""

import numpy as np
import pytest

import barylab as bl
from barylab.families import gaussian_quantile_grid
from barylab.sweeps import separated

# one line per acceptance criterion, echoed in the terminal summary so the
# PASS/FAIL lines survive output capturing
ACCEPTANCE_LINES: list = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)

SPACE_FACTORIES = {
    "euclidean": lambda: bl.Euclidean(3),
    "sphere": lambda: bl.Sphere(2),
    "hyperbolic": lambda: bl.Hyperboloid(2),
    "quantile": lambda: bl.QuantileSpace(16),
    "gaussian": lambda: bl.BuresWasserstein(3),
}

# the curvature bound each space is probed against
TRUE_KAPPA = {
    "euclidean": 0.0,
    "sphere": 1.0,
    "hyperbolic": -1.0,
    "quantile": 0.0,
    "gaussian": 0.0,
}


def make_space(tag):
    return SPACE_FACTORIES[tag]()


def random_quantile_point(space, rng):
    """Random Gaussian quantile curve, for diagnostics on the quantile space."""
    return gaussian_quantile_grid(space, rng.normal(), rng.uniform(0.5, 1.5))


def probe_point(space, rng):
    """A random point suitable for comparison probes."""
    if space.tag == "quantile":
        return random_quantile_point(space, rng)
    return space.random_point(rng)


def separated_points(space, rng, count, min_sep=0.05):
    """Random points pairwise separated, clear of sphere cut-locus margins."""
    while True:
        pts = [probe_point(space, rng) for _ in range(count)]
        if separated(space, pts, min_sep):
            return pts


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture(params=sorted(SPACE_FACTORIES))
def any_space(request):
    return make_space(request.param)
