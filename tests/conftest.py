"""Shared fixtures: model spaces, safe random sampling for probes, and the
Monte Carlo oracle of the families' exact moments."""

import math

import numpy as np
import pytest

import barylab as bl
from barylab.families import _unit_rule
from barylab.sweeps import separated

from oracles import gaussian_quantile_grid

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


_ENSEMBLE = {"kind": "gaussian_ensemble", "alpha": 0.5, "beta": 2.0}

# families whose constructors reject their parameters with ValueError or
# NotPositiveDefinite rather than BadFamilyParams
BAD_FAMILIES = {
    "mean-dim": {"kind": "euclidean_gaussian", "dim": 3, "mean": [0, 0]},
    "cap-anchor-dim": {"kind": "sphere_cap", "radius": 0.3, "anchor": [1, 0]},
    "off-sheet": {"kind": "hyperbolic_gaussian", "scale": 0.5, "anchor": [2, 0, 0]},
    "euclidean-dim0": {"kind": "euclidean_gaussian", "dim": 0},
    "cap-dim0": {"kind": "sphere_cap", "radius": 0.3, "dim": 0},
    "hyperbolic-dim0": {"kind": "hyperbolic_gaussian", "scale": 0.5, "dim": 0},
    "ensemble-dim0": dict(_ENSEMBLE, dim=0),
    "cov-shape": dict(_ENSEMBLE, dim=3, base_cov=[[1, 0], [0, 1]]),
    "cov-not-spd": dict(_ENSEMBLE, dim=2, base_cov=[[1, 0], [0, -1]]),
    # 15 from the origin the tangent basis rounds far from orthonormal
    **{
        f"far-anchor-{dim}d": {
            "kind": "hyperbolic_gaussian", "scale": 0.5, "dim": dim,
            "anchor": [math.cosh(15.0)] + [math.sinh(15.0) / math.sqrt(dim)] * dim,
        }
        for dim in (2, 3)
    },
}


def make_space(tag):
    return SPACE_FACTORIES[tag]()


def gaussian(mean, cov) -> np.ndarray:
    """The Bures-Wasserstein point N(mean, cov): its (d+1, d) row [mean; cov]."""
    return np.concatenate((np.asarray(mean, float)[None], np.asarray(cov, float)))


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


def separated_stacks(space, rng, configs, count, min_sep=0.05):
    """``configs`` configurations of ``separated_points`` as ``count`` stacks of
    shape (configs,) + point_shape: the point arguments of one stacked probe
    call.  Each round draws the configurations still needed and checks them
    with one ``separated`` call; the ones it keeps, in order, are those a loop
    of ``separated_points`` calls keeps, from the same draws."""
    kept = []
    while len(kept) < configs:
        drawn = np.stack([
            space.stack([probe_point(space, rng) for _ in range(count)])
            for _ in range(configs - len(kept))
        ])
        kept += [config for config, ok in zip(drawn, separated(space, drawn, min_sep)) if ok]
    return list(np.swapaxes(np.stack(kept), 0, 1))


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def fresh_rule():
    """The families' quadrature rule rebuilt inside the test, and again by its
    next caller."""
    _unit_rule.cache_clear()
    yield
    _unit_rule.cache_clear()


@pytest.fixture(params=sorted(SPACE_FACTORIES))
def any_space(request):
    return make_space(request.param)


def anchor_moment(family, rng, draws: int, transform=None) -> tuple[float, float]:
    """Monte Carlo mean of ``transform(d^2(x, anchor))`` over ``draws`` family
    draws (of ``d^2`` itself without a transform), with its standard error:
    the oracle for the exact ``sigma2`` and ``subgaussian_moment``.

    Draws come in blocks of 200 000, so memory stays bounded and the sums
    accumulate in the same order for every caller.
    """
    total = 0.0
    total_sq = 0.0
    done = 0
    while done < draws:
        block = min(200_000, draws - done)
        vals = family.sqdist_anchor(rng, block)
        if transform is not None:
            vals = transform(vals)
        total += float(vals.sum())
        total_sq += float(vals @ vals)
        done += block
    mean = total / draws
    var = max(total_sq / draws - mean**2, 0.0)
    return mean, math.sqrt(var / draws)
