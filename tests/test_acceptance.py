"""Acceptance suite: one criterion per test, printed as a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Monte Carlo criteria are seed-pinned; statistical tolerances are
three standard errors unless the criterion states otherwise.
"""

import math
import time

import numpy as np
import pytest
from scipy.stats import binom, chi2

import barylab as bl
from barylab.barycenter import barycenter
from barylab.comparison import angle_monotonicity_probe, cone_distance, quadruple_defect
from barylab.families import (
    EuclideanGaussian,
    GaussianEnsemble,
    HyperbolicGaussian,
    SphereCap,
)
from barylab import ratelab
from barylab.ratelab import run_rate_experiment, run_tail_experiment
from barylab.reporting import write_rates_csv

import conftest
from conftest import TRUE_KAPPA, make_space, probe_point, separated_stacks
from oracles import gaussian_quantile_grid, mean_log_sqnorm
from test_barycenter import random_distribution

SOLVER_TOL = 1e-10


def report(criterion: str, passed: bool, detail: str):
    line = f"ACCEPTANCE {criterion}: {'PASS' if passed else 'FAIL'} - {detail}"
    print(f"\n{line}")
    conftest.ACCEPTANCE_LINES.append(line)
    assert passed, f"{criterion}: {detail}"


def offset_point(space, base, rng, lo=0.05, hi=1.5):
    """A random point at controlled distance from ``base``."""
    for _ in range(60):
        v = space.random_tangent(base, rng)
        v *= rng.uniform(lo, hi) / space.tangent_norm(base, v)
        try:
            return space.exp(base, v)
        except bl.errors.OutOfDomain:
            hi = max(lo, 0.7 * hi)  # gaussian/quantile exp domains are bounded
    raise RuntimeError("could not sample an offset point")


# -- shared experiment fixtures --------------------------------------------------


@pytest.fixture(scope="module")
def hyperbolic_config():
    return bl.RateExperimentConfig(
        family=HyperbolicGaussian(0.5),
        theorem="negcurv",
        n_grid=(16, 64, 256, 1024),
        trials=2000,
        master_seed=2024_02,
    )


@pytest.fixture(scope="module")
def hyperbolic_run(hyperbolic_config):
    start = time.perf_counter()
    curve = run_rate_experiment(hyperbolic_config)
    return curve, time.perf_counter() - start


@pytest.fixture(scope="module")
def solved_instances():
    """20 random weighted distributions per space with converged barycenters."""
    rng = np.random.default_rng(555)
    out = {}
    for tag in sorted(TRUE_KAPPA):
        space = make_space(tag)
        items = []
        for _ in range(20):
            dist = random_distribution(space, rng, n=int(rng.integers(4, 12)))
            result = barycenter(dist, bl.SolverOptions(tol=SOLVER_TOL))
            assert result.converged
            items.append((dist, result))
        out[tag] = items
    return out


# -- criteria -----------------------------------------------------------------


def test_criterion_01_euclidean_identity():
    config = bl.RateExperimentConfig(
        family=EuclideanGaussian(dim=3, sd=1.0),
        theorem="negcurv",
        n_grid=(10, 100, 1000),
        trials=2000,
        master_seed=2024_01,
    )
    start = time.perf_counter()
    curve = run_rate_experiment(config)
    elapsed = time.perf_counter() - start
    identity_ok = all(
        abs(p.mean_sq_dist - p.sigma2 / p.n) <= 3.0 * p.stderr for p in curve.points
    )
    slope_ok = abs(curve.slope - (-1.0)) <= 0.05
    time_ok = elapsed <= 30.0
    report(
        "1 (euclidean identity)",
        identity_ok and slope_ok and time_ok,
        f"max |mean - sigma2/n|/stderr = "
        f"{max(abs(p.mean_sq_dist - p.sigma2 / p.n) / p.stderr for p in curve.points):.2f}, "
        f"slope = {curve.slope:.4f}, elapsed = {elapsed:.1f}s",
    )


def test_criterion_02_nonpositive_curvature_bound(hyperbolic_run):
    curve, elapsed = hyperbolic_run
    ratios_ok = all(p.ratio <= 1.0 + 3.0 * p.stderr / p.bound for p in curve.points)
    slope_ok = abs(curve.slope - (-1.0)) <= 0.1
    time_ok = elapsed <= 300.0
    report(
        "2 (nonpositive curvature rate)",
        ratios_ok and slope_ok and time_ok,
        f"max ratio = {max(p.ratio for p in curve.points):.4f}, "
        f"slope = {curve.slope:.4f}, elapsed = {elapsed:.1f}s",
    )


def test_criterion_03_master_theorem_on_sphere():
    family = SphereCap(0.3)
    config = bl.RateExperimentConfig(
        family=family,
        theorem="master_extendible",
        n_grid=(16, 64, 256, 1024),
        trials=2000,
        master_seed=2024_03,
    )
    start = time.perf_counter()
    curve = run_rate_experiment(config)
    elapsed = time.perf_counter() - start
    # the constant must come out of the library computation, not an assumption
    ext = family.support_extendibility()
    k_computed = bl.extendibility_kmin(ext.lambda_in, ext.lambda_out)
    k_ok = k_computed > 0 and curve.k_used == k_computed
    ratios_ok = all(p.ratio <= 1.0 + 3.0 * p.stderr / p.bound for p in curve.points)
    time_ok = elapsed <= 300.0
    report(
        "3 (master theorem, sphere cap)",
        k_ok and ratios_ok and time_ok,
        f"k_min = {k_computed:.4f} (from lambda = ({ext.lambda_in:.3f}, "
        f"{ext.lambda_out:.3f})), max ratio = {max(p.ratio for p in curve.points):.4f}, "
        f"elapsed = {elapsed:.1f}s",
    )


def test_criterion_04_wasserstein_corollary():
    config = bl.RateExperimentConfig(
        family=GaussianEnsemble(0.8, 1.6, dim=3),
        theorem="wasserstein",
        n_grid=(16, 64, 256),
        trials=1000,
        master_seed=2024_04,
    )
    start = time.perf_counter()
    curve = run_rate_experiment(config)
    ratios_ok = all(p.ratio <= 1.0 + 3.0 * p.stderr / p.bound for p in curve.points)
    k_ok = curve.k_used == pytest.approx(0.2)

    # cross-check: D=1 ensemble barycenters against the quantile-space rule
    rng = np.random.default_rng(99)
    ensemble_1d = GaussianEnsemble(0.8, 1.6, dim=1)
    qspace = bl.QuantileSpace(10_000)
    cross_ok = True
    worst_gap = 0.0
    for _ in range(5):
        pts = ensemble_1d.sample(rng, 12)
        bures = bl.bures_fixed_point(
            bl.DiscreteDistribution(ensemble_1d.space, pts)
        )
        grids = [
            gaussian_quantile_grid(
                qspace, float(p[0, 0]), math.sqrt(float(p[1, 0]))
            )
            for p in pts
        ]
        qmean = barycenter(bl.DiscreteDistribution(qspace, grids)).point
        bures_grid = gaussian_quantile_grid(
            qspace, float(bures.point[0, 0]), math.sqrt(float(bures.point[1, 0]))
        )
        gap = qspace.distance(qmean, bures_grid)
        worst_gap = max(worst_gap, gap)
        cross_ok = cross_ok and gap <= 1e-3
    elapsed = time.perf_counter() - start
    time_ok = elapsed <= 600.0
    report(
        "4 (wasserstein corollary)",
        ratios_ok and k_ok and cross_ok and time_ok,
        f"max ratio = {max(p.ratio for p in curve.points):.4f}, 1-D cross-check gap = "
        f"{worst_gap:.2e}, elapsed = {elapsed:.1f}s",
    )


def test_criterion_05_variance_equality(solved_instances):
    rng = np.random.default_rng(77)
    start = time.perf_counter()
    worst_excess = -math.inf
    cases = 0
    for tag, items in solved_instances.items():
        space = make_space(tag)
        for dist, result in items:
            # the targets are drawn first, then evaluated in one stacked call
            bs = space.stack([offset_point(space, result.point, rng) for _ in range(100)])
            d = np.sqrt(space.sqdist_batch(bs, space.stack([result.point]))[:, 0])
            bs, d = bs[d > 1e-8], d[d > 1e-8]
            residuals = bl.variance_equality_residual(space, dist, result.point, bs)
            allowed = np.maximum(1e-8, 10.0 * SOLVER_TOL * d)
            worst_excess = max(worst_excess, float(np.max(residuals - allowed, initial=-math.inf)))
            cases += len(d)
    elapsed = time.perf_counter() - start
    report(
        "5 (variance equality)",
        worst_excess <= 0.0 and elapsed <= 60.0 and cases >= 5 * 20 * 90,
        f"{cases} cases over 5 spaces, worst residual excess = {worst_excess:.2e}, "
        f"elapsed = {elapsed:.1f}s",
    )


def test_criterion_06_hugging_sign_and_bound():
    rng = np.random.default_rng(606)
    sign_ok = True
    for tag, lo, hi in (
        ("euclidean", 1.0 - 1e-9, 1.0 + 1e-9),
        ("sphere", -math.inf, 1.0 + 1e-9),
        ("quantile", -math.inf, 1.0 + 1e-9),
        ("gaussian", -math.inf, 1.0 + 1e-9),
        ("hyperbolic", 1.0 - 1e-9, math.inf),
    ):
        space = make_space(tag)
        # every case is drawn first, then evaluated in one stacked call
        k = bl.hugging_value(space, *separated_stacks(space, rng, 1000, 3, min_sep=0.02))
        sign_ok = sign_ok and bool(np.all((lo <= k) & (k <= hi)))

    bound_ok = True
    worst_margin = math.inf
    cap = SphereCap(0.3)
    ext = cap.support_extendibility()
    k_min_cap = bl.extendibility_kmin(ext.lambda_in, ext.lambda_out)
    draws = [
        (cap.sample(rng, 1)[0], offset_point(cap.space, cap.anchor, rng, lo=0.05, hi=2.5))
        for _ in range(1000)
    ]
    xs, bs = (cap.space.stack(points) for points in zip(*draws))
    k = bl.hugging_value(cap.space, cap.anchor, bs, xs)
    worst_margin = min(worst_margin, float(np.min(k - k_min_cap)))
    bound_ok = bound_ok and bool(np.all(k >= k_min_cap - 1e-7))
    ensemble = GaussianEnsemble(0.8, 1.6, dim=3)
    space = ensemble.space
    ext = ensemble.support_extendibility()
    k_min_ens = bl.extendibility_kmin(ext.lambda_in, ext.lambda_out)
    draws = [
        (ensemble.sample(rng, 1)[0],
         ensemble.sample(rng, 1)[0] if i % 2 else space.random_point(rng))
        for i in range(1000)
    ]
    xs, bs = (space.stack(points) for points in zip(*draws))
    apart = np.sqrt(space.sqdist_batch(bs, space.stack([ensemble.anchor]))[:, 0]) > 1e-9
    k = bl.hugging_value(space, ensemble.anchor, bs[apart], xs[apart])
    worst_margin = min(worst_margin, float(np.min(k - k_min_ens)))
    bound_ok = bound_ok and bool(np.all(k >= k_min_ens - 1e-7))
    report(
        "6 (hugging signs and extension bound)",
        sign_ok and bound_ok,
        f"signs over 5x1000 triples ok = {sign_ok}, k_min margins >= "
        f"{worst_margin:.4f} (caps: {k_min_cap:.4f}, ensemble: {k_min_ens:.4f})",
    )


def test_criterion_07_comparison_geometry_suite():
    rng = np.random.default_rng(707)
    start = time.perf_counter()
    worst_defect = math.inf
    worst_mono = 0.0
    cone_ok = True
    for tag in sorted(TRUE_KAPPA):
        space = make_space(tag)
        kappa = TRUE_KAPPA[tag]
        # each probe's configurations are drawn first, then evaluated in one
        # stacked call
        quadruples = separated_stacks(space, rng, 1000, 4, min_sep=0.03)
        worst_defect = min(worst_defect, float(np.min(quadruple_defect(space, *quadruples, kappa))))
        triples = separated_stacks(space, rng, 100, 3, min_sep=0.03)
        probe = angle_monotonicity_probe(space, *triples, kappa, [0.25, 0.5, 0.75, 1.0])
        worst_mono = max(worst_mono, float(np.max(probe.max_violation)))
        sign = -1.0 if space.curv_upper <= 0 else 1.0
        p, x, y = separated_stacks(space, rng, 1000, 3, min_sep=0.03)
        gap = cone_distance(space, p, x, y) - np.sqrt(space.sqdist_batch(x, y[:, None])[:, 0])
        cone_ok = cone_ok and bool(np.all(sign * gap >= -1e-9))
    elapsed = time.perf_counter() - start
    report(
        "7 (comparison geometry suite)",
        worst_defect >= -1e-9 and worst_mono <= 1e-9 and cone_ok and elapsed <= 60.0,
        f"min quadruple defect = {worst_defect:.2e}, max monotonicity violation = "
        f"{worst_mono:.2e}, cone direction ok = {cone_ok}, elapsed = {elapsed:.1f}s",
    )


def test_criterion_08_exponential_barycenter_residual(solved_instances):
    rng = np.random.default_rng(808)
    max_at_optimum = 0.0
    min_anywhere = math.inf
    for tag, items in solved_instances.items():
        space = make_space(tag)
        for dist, result in items:
            max_at_optimum = max(max_at_optimum, mean_log_sqnorm(space, dist, result.point))
        dist = items[0][0]
        checked = 0
        while checked < 100:
            b = probe_point(space, rng)
            if space.tag == "sphere":
                b = offset_point(space, items[0][1].point, rng, lo=0.1, hi=1.2)
            try:
                value = mean_log_sqnorm(space, dist, b)
            except bl.errors.CutLocus:  # pragma: no cover - safeguarded by sampler
                continue
            min_anywhere = min(min_anywhere, value)
            checked += 1
    at_optimum_ok = max_at_optimum <= SOLVER_TOL**2 * (1.0 + 1e-3)
    anywhere_ok = min_anywhere >= -1e-9
    report(
        "8 (exponential barycenter residual)",
        at_optimum_ok and anywhere_ok,
        f"max residual at optima = {max_at_optimum:.2e} (tol^2 = {SOLVER_TOL**2:.0e}), "
        f"min residual anywhere = {min_anywhere:.2e}",
    )


def test_criterion_09_tail_bound(monkeypatch):
    """The theorem's bound on the exceedance rate, and the rate against the
    exact law.  With sd = 1 the Euclidean barycenter is the sample mean, so
    n d^2 is chi-square on 3 degrees of freedom and the count of trials with
    n d^2 above its upper delta quantile is Binomial(trials, delta)."""
    config = bl.RateExperimentConfig(
        family=EuclideanGaussian(dim=3, sd=1.0),
        theorem="tail",
        n_grid=(100, 400),
        trials=10_000,
        master_seed=2024_09,
    )
    tables = []
    trial_table = ratelab._trial_table

    def keeping(config, b_star):
        table, discarded = trial_table(config, b_star)
        tables.append(table)
        return table, discarded

    monkeypatch.setattr(ratelab, "_trial_table", keeping)
    deltas = (0.05, 0.2)
    start = time.perf_counter()
    bound_ok = True
    oracle_ok = True
    details = []
    for res in run_tail_experiment(config, deltas, varsigma2=3.0):
        stderr = math.sqrt(
            res.empirical_exceedance * (1 - res.empirical_exceedance) / res.trials
        )
        bound_ok = bound_ok and (
            res.empirical_exceedance
            <= res.bound_probability + 3.0 * stderr
        )
        exact = float(chi2.sf(res.n * res.threshold, df=3))  # sd = 1
        oracle_stderr = math.sqrt(
            max(exact * (1 - exact), res.empirical_exceedance) / res.trials
        )
        oracle_ok = oracle_ok and (
            abs(res.empirical_exceedance - exact) <= 2.0 * oracle_stderr + 1e-12
        )
        details.append(
            f"(delta={res.delta}, n={res.n}): exceed={res.empirical_exceedance:.4g} "
            f"bound={res.bound_probability:.4g} oracle={exact:.2e}"
        )
    elapsed = time.perf_counter() - start
    # the oracle above compares 0 exceedances with probabilities near 1e-94;
    # the exact law of n d^2 gives a check with power
    (table,) = tables
    law_ok = True
    for delta in deltas:
        cut = chi2.isf(delta, 3)
        lo, hi = binom.interval(1.0 - 2e-6, config.trials, delta)
        for n, sq in zip(config.n_grid, table):
            count = int(np.count_nonzero(n * sq > cut))
            law_ok = law_ok and lo <= count <= hi
            details.append(
                f"(delta={delta}, n={n}): {count} of {config.trials} above "
                f"chi2_3 quantile, interval [{lo:.0f}, {hi:.0f}]"
            )
    report(
        "9 (tail bound)",
        bound_ok and oracle_ok and law_ok and elapsed <= 300.0,
        "; ".join(details) + f"; elapsed = {elapsed:.1f}s",
    )


def test_criterion_10_determinism(hyperbolic_run, hyperbolic_config, tmp_path):
    curve_first, _ = hyperbolic_run
    curve_again = run_rate_experiment(hyperbolic_config)
    first, again = tmp_path / "first.csv", tmp_path / "again.csv"
    write_rates_csv(first, curve_first)
    write_rates_csv(again, curve_again)
    identical = first.read_bytes() == again.read_bytes()
    report(
        "10 (determinism)",
        identical,
        f"repeated criterion-2 CSV byte-identical = {identical} "
        f"({len(first.read_bytes())} bytes)",
    )
