"""Monte Carlo harness: slopes, determinism, gates, bounds, tails."""

import dataclasses
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import chi2

import barylab as bl
from barylab import cli, ratelab
from barylab.barycenter import barycenter_batch
from barylab.errors import (
    CoincidentPoints,
    DiscardRateExceeded,
    HypothesisViolated,
)
from barylab.families import (
    EuclideanGaussian,
    GaussianEnsemble,
    HyperbolicGaussian,
    FAMILY_KINDS,
    SphereCap,
)
from barylab.ratelab import (
    HuggingProfile,
    RateCurve,
    RatePoint,
    SubgaussianCheck,
    TailExperimentResult,
    estimate_hugging_profile,
    rate_violations,
    run_rate_experiment,
    run_tail_experiment,
    subgaussian_proxy_check,
    tail_violations,
)

from test_config import MISSING_PREMISE, PREMISE_FAMILIES


class PointMass(EuclideanGaussian):
    """Every draw is the anchor itself."""

    def sample_batch(self, rng, count):
        return np.tile(self.anchor, (count, 1))


def make_curve(ns, means):
    points = tuple(
        RatePoint(n, 100, m, 0.01 * m, 1.0, 1.0 / n, m * n) for n, m in zip(ns, means)
    )
    return RateCurve(points, float("nan"), 1.0, 1.0, "negcurv", "euclidean", 0)


class TestStreams:
    def test_labels_are_distinct(self):
        """Every seeded stream of the package comes from ``ratelab._stream``
        under one label of its registry, and no two labels share a value."""
        labels = {
            name: value for name, value in vars(ratelab).items()
            if name[:1] == "_" and name[1:].isupper() and type(value) is int
        }
        assert {"_VERIFY", "_TRIAL", "_PROFILE", "_HUGGING", "_CURVATURE"} <= set(labels)
        assert len(set(labels.values())) == len(labels)
        assert 2 not in labels.values()  # the retired Monte Carlo sigma^2 stream
        package = Path(ratelab.__file__).parent
        builders = [p.name for p in package.rglob("*.py") if "SeedSequence" in p.read_text()]
        assert builders == ["ratelab.py"]

    @pytest.mark.parametrize("seed", [1, 7919])
    @pytest.mark.parametrize("name, label", [("_HUGGING", 11), ("_CURVATURE", 12)])
    def test_sweep_streams_keep_their_seeds(self, seed, name, label):
        """The sweeps' streams draw what their former hand-built generators drew."""
        old = np.random.default_rng(np.random.SeedSequence([seed, label]))
        new = ratelab._stream(seed, getattr(ratelab, name))
        assert np.array_equal(new.standard_normal(64), old.standard_normal(64))
        assert np.array_equal(new.integers(0, 2**62, 8), old.integers(0, 2**62, 8))


class TestSlopeFit:
    """The least-squares log-log fit behind ``RateCurve.slope``."""

    def test_exact_inverse_n(self):
        ns = [10, 100, 1000]
        slope = ratelab._loglog_slope(ns, [2.0 / n for n in ns])
        assert slope == pytest.approx(-1.0, abs=1e-12)

    def test_exact_inverse_sqrt(self):
        ns = [16, 64, 256, 1024]
        slope = ratelab._loglog_slope(ns, [3.0 / math.sqrt(n) for n in ns])
        assert slope == pytest.approx(-0.5, abs=1e-12)

    def test_zero_means_are_left_out(self):
        """A zero mean has no logarithm: the fit takes the positive means,
        and gives no slope when fewer than three are left."""
        ns = [4, 16, 64, 256]
        slope = ratelab._loglog_slope(ns, [0.0] + [2.0 / n for n in ns[1:]])
        assert slope == pytest.approx(-1.0, abs=1e-12)
        assert ratelab._loglog_slope(ns, [0.0, 0.0, 0.5, 0.25]) is None


def euclid_config(**kw):
    defaults = dict(
        family=EuclideanGaussian(dim=3, sd=1.0),
        theorem="negcurv",
        n_grid=(4, 16, 64),
        trials=200,
        master_seed=42,
        verify_draws=20_000,
    )
    defaults.update(kw)
    return bl.RateExperimentConfig(**defaults)


class TestRateExperiment:
    def test_euclidean_identity_within_stderr(self):
        curve = run_rate_experiment(euclid_config())
        for p in curve.points:
            assert abs(p.mean_sq_dist - p.sigma2 / p.n) <= 3.0 * p.stderr
        assert not rate_violations(curve)
        assert curve.k_used == 1.0
        assert -1.2 <= curve.slope <= -0.8

    def test_mean_sq_dist_decreases_in_n(self):
        curve = run_rate_experiment(euclid_config())
        for a, b in zip(curve.points, curve.points[1:]):
            assert b.mean_sq_dist < a.mean_sq_dist + 3.0 * (a.stderr + b.stderr)

    def test_determinism_bitwise(self):
        a = run_rate_experiment(euclid_config())
        b = run_rate_experiment(euclid_config())
        assert a == b

    def test_two_point_grid_compares_equal(self):
        config = euclid_config(n_grid=(4, 16), trials=50)
        a = run_rate_experiment(config)
        assert a.slope is None  # a slope fit needs three grid points
        assert a == run_rate_experiment(config)

    def test_point_mass_has_no_slope(self):
        """Every trial of a point mass lands on its anchor, so every mean is 0
        and the curve has no slope, with no warning on the way."""
        curve = run_rate_experiment(euclid_config(family=PointMass(dim=3), trials=20))
        assert [p.mean_sq_dist for p in curve.points] == [0.0, 0.0, 0.0]
        assert curve.slope is None
        assert not rate_violations(curve, strict=True)

    def test_seed_changes_results(self):
        a = run_rate_experiment(euclid_config())
        b = run_rate_experiment(euclid_config(master_seed=43))
        assert a != b

    def test_threads_do_not_change_results(self, tmp_path):
        """``--threads`` is accepted and leaves the CSV bytes unchanged."""
        configs = {
            "euclidean": {"family": {"kind": "euclidean_gaussian", "dim": 3}},
            # the descent path: warm start, backtracking, redraws
            "hyperbolic": {"family": {"kind": "hyperbolic_gaussian", "scale": 0.5}},
        }
        for name, family in configs.items():
            path = tmp_path / f"{name}.json"
            config = dict(
                family, experiment="rates", theorem="negcurv", n_grid=[4, 16, 64],
                trials=20, master_seed=3, verify_draws=20_000,
            )
            path.write_text(json.dumps(config), encoding="utf-8")
            outputs = []
            for threads in ("1", "2"):
                out = tmp_path / f"{name}-{threads}"
                assert cli.main(["rates", "--config", str(path), "--out", str(out),
                                 "--threads", threads]) == 0
                outputs.append((out / "rates.csv").read_bytes())
            assert outputs[0] == outputs[1]

    def test_blas_threads_do_not_change_results(self, tmp_path):
        """A fresh CLI process writes the same CSV bytes with one and with two
        OpenBLAS threads, on the Bures path (the most BLAS and LAPACK calls)
        and on the descent path."""
        root = Path(__file__).resolve().parents[1]
        configs = {
            "gaussian": {
                "family": {"kind": "gaussian_ensemble", "dim": 3, "alpha": 0.8, "beta": 1.6},
                "theorem": "wasserstein",
            },
            "hyperbolic": {
                "family": {"kind": "hyperbolic_gaussian", "scale": 0.5}, "theorem": "negcurv",
            },
        }
        for name, family in configs.items():
            path = tmp_path / f"{name}.json"
            config = dict(
                family, experiment="rates", n_grid=[4, 16, 64], trials=20, master_seed=3,
                verify_draws=20_000,
            )
            path.write_text(json.dumps(config), encoding="utf-8")
            outputs = []
            for threads in ("1", "2"):
                out = tmp_path / f"{name}-{threads}"
                env = {
                    **os.environ, "PYTHONPATH": str(root / "src"),
                    "PYTHONDONTWRITEBYTECODE": "1", "OPENBLAS_NUM_THREADS": threads,
                }
                done = subprocess.run(
                    [sys.executable, "-m", "barylab.cli", "rates", "--config", str(path),
                     "--out", str(out)],
                    cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
                )
                assert done.returncode == 0, done.stderr
                outputs.append((out / "rates.csv").read_bytes())
            assert outputs[0] == outputs[1], name

    def test_hyperbolic_bound_holds(self):
        config = bl.RateExperimentConfig(
            family=HyperbolicGaussian(0.5),
            theorem="negcurv",
            n_grid=(4, 16),
            trials=150,
            master_seed=3,
            verify_draws=20_000,
        )
        curve = run_rate_experiment(config)
        for p in curve.points:
            assert p.ratio <= 1.0 + 3.0 * p.stderr / p.bound

    def test_sphere_master_bound_holds(self):
        config = bl.RateExperimentConfig(
            family=SphereCap(0.3),
            theorem="master_extendible",
            n_grid=(4, 16),
            trials=100,
            master_seed=3,
            verify_draws=20_000,
        )
        curve = run_rate_experiment(config)
        lam = (math.pi / 0.3 - 1.0) / 2.0
        assert curve.k_used == pytest.approx(lam / (1 + lam) - 1 / lam, abs=1e-12)
        for p in curve.points:
            assert p.ratio <= 1.0

    def test_wasserstein_bound_holds(self):
        config = bl.RateExperimentConfig(
            family=GaussianEnsemble(0.8, 1.6, dim=2),
            theorem="wasserstein",
            n_grid=(4, 8),
            trials=60,
            master_seed=3,
            verify_draws=10_000,
        )
        curve = run_rate_experiment(config)
        assert curve.k_used == pytest.approx(0.2)
        for p in curve.points:
            assert p.ratio <= 1.0

    def test_sigma2_is_exact_and_draws_nothing(self, monkeypatch):
        """The bound's sigma^2 is the family's closed form: the Monte Carlo
        squared distances are never drawn."""

        def spy(self, rng, count):
            raise AssertionError("sqdist_anchor called by a rate run")

        monkeypatch.setattr(EuclideanGaussian, "sqdist_anchor", spy)
        curve = run_rate_experiment(euclid_config(trials=20))
        assert curve.sigma2 == 3.0
        assert all(p.sigma2 == 3.0 and p.bound == 3.0 / p.n for p in curve.points)


class TestHypothesisGates:
    def test_wasserstein_needs_positive_k(self):
        config = bl.RateExperimentConfig(
            family=GaussianEnsemble(0.5, 1.6, dim=2),
            theorem="wasserstein",
            n_grid=(4,),
            trials=5,
            master_seed=1,
        )
        with pytest.raises(HypothesisViolated):
            run_rate_experiment(config)

    @pytest.mark.parametrize(
        "theorem, kind",
        [
            ("negcurv", "sphere_cap"),
            ("negcurv", "gaussian_ensemble"),
            ("master_extendible", "hyperbolic_gaussian"),
            ("wasserstein", "euclidean_gaussian"),
            ("wasserstein", "sphere_cap"),
            ("wasserstein", "hyperbolic_gaussian"),
            ("tail", "hyperbolic_gaussian"),
        ],
    )
    def test_refused_premise_raises_before_any_draw(self, monkeypatch, theorem, kind):
        """A library run of a pair whose premise fails raises the violation
        that the config check reports, before the anchor is verified: the
        rate pairs through run_rate_experiment, the tail pair through
        run_tail_experiment."""

        def spy(config):
            raise AssertionError("the anchor was verified")

        monkeypatch.setattr(ratelab, "population_barycenter", spy)
        family = FAMILY_KINDS[kind](**PREMISE_FAMILIES[kind])
        config = bl.RateExperimentConfig(
            family=family, theorem=theorem, n_grid=(4,), trials=5, master_seed=1
        )
        with pytest.raises(HypothesisViolated) as err:
            if theorem == "tail":
                run_tail_experiment(config, [0.2], varsigma2=3.0)
            else:
                run_rate_experiment(config)
        assert str(err.value) == (
            f"theorem {theorem!r} is incompatible with family {kind!r}: "
            f"it needs {MISSING_PREMISE[theorem]}"
        )

    def test_discard_rate_gate(self):
        config = bl.RateExperimentConfig(
            family=SphereCap(0.3),
            theorem="master_extendible",
            n_grid=(8,),
            trials=5,
            master_seed=1,
            solver=bl.SolverOptions(max_iters=1, tol=1e-16),
            verify_draws=10_000,
        )
        with pytest.raises(DiscardRateExceeded):
            run_rate_experiment(config)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            euclid_config(n_grid=(16, 4))
        with pytest.raises(ValueError):
            euclid_config(n_grid=(1, 4))
        with pytest.raises(ValueError):
            euclid_config(trials=0)
        with pytest.raises(ValueError):
            euclid_config(theorem="banana")
        with pytest.raises(ValueError, match="verify_draws"):
            euclid_config(verify_draws=0)

    def test_negative_master_seed_rejected(self):
        with pytest.raises(ValueError, match="master_seed"):
            euclid_config(master_seed=-1)
        assert euclid_config(master_seed=0).master_seed == 0


def tail_row(exceedance, bound):
    """A tail result whose exceedance and bound are the given ones."""
    return TailExperimentResult(
        delta=0.1, n=16, trials=100, threshold=1.0, empirical_exceedance=exceedance,
        bound_probability=bound, c1_used=1.0, c2_used=1.0, varsigma2=1.0,
        pk_estimate=1.0, pk_used=0.9, kmin_estimate=1.0, discarded=0,
    )


class TestViolationDetection:
    def test_flags_ratio_above_one(self):
        ns = [10, 100, 1000]
        curve = make_curve(ns, [2.0 / n for n in ns])  # ratio = 2 everywhere
        assert len(rate_violations(curve)) == 3
        good = make_curve(ns, [0.5 / n for n in ns])
        assert not rate_violations(good)

    def test_strict_mode_has_no_slack(self):
        point = RatePoint(10, 100, 1.005e-1, 5e-3, 1.0, 1.0 / 10, 1.005)
        curve = RateCurve((point,), float("nan"), 1.0, 1.0, "negcurv", "euclidean", 0)
        assert not rate_violations(curve, strict=False)
        assert rate_violations(curve, strict=True)

    # 100 trials: an exceedance of 0.25 has stderr 0.0433, one of 0.2 has 0.04
    def test_flags_exceedance_above_three_stderr(self):
        (message,) = tail_violations([tail_row(0.25, 0.1)])
        assert message.startswith("delta=0.1, n=16: exceedance 0.25 above bound 0.1 + ")

    def test_strict_mode_flags_any_exceedance(self):
        rows = [tail_row(0.2, 0.1)]  # within bound + 3 stderr = 0.22
        assert not tail_violations(rows)
        assert tail_violations(rows, strict=True) == [
            "delta=0.1, n=16: exceedance 0.2 above bound 0.1 + 0"
        ]

    @pytest.mark.parametrize("strict", [False, True])
    def test_nothing_flagged_at_or_below_the_bound(self, strict):
        rows = [tail_row(0.1, 0.1), tail_row(0.05, 0.1), tail_row(0.0, 0.0), tail_row(1.0, 1.0)]
        assert not tail_violations(rows, strict=strict)


class TestSubgaussian:
    def test_near_point_mass_passes(self):
        config = euclid_config(family=EuclideanGaussian(dim=3, sd=1e-9))
        check = subgaussian_proxy_check(config, varsigma2=1.0)
        assert check.passed
        assert check.estimate == pytest.approx(1.0, abs=1e-9)

    def test_bounded_family_with_diameter_proxy_passes(self):
        family = SphereCap(0.3)
        config = bl.RateExperimentConfig(
            family=family, theorem="tail", n_grid=(4,), trials=1, master_seed=9
        )
        varsigma2 = 0.3**2 / (2.0 * math.log(2.0))
        check = subgaussian_proxy_check(config, varsigma2)
        assert check.passed

    def test_heavy_proxy_fails(self):
        config = euclid_config()
        check = subgaussian_proxy_check(config, varsigma2=1.2)
        assert not check.passed

    def test_exact_moment_draws_nothing(self, monkeypatch):
        """The gate reads the family's law: (2/3)^(-3/2) for sd 1, dim 3 and
        varsigma2 3, whatever the seed, and no draw is made."""

        def no_draws(*args):
            raise AssertionError("the subgaussian gate drew samples")

        monkeypatch.setattr(EuclideanGaussian, "sqdist_anchor", no_draws)
        monkeypatch.setattr(EuclideanGaussian, "sample_batch", no_draws)
        for seed in (1, 7919):
            check = subgaussian_proxy_check(euclid_config(master_seed=seed), varsigma2=3.0)
            assert check.estimate == pytest.approx(1.8371173070873836, rel=1e-15)
            assert check.passed

    def test_infinite_moment_fails_the_tail_run(self):
        """s^2 >= varsigma2: the moment diverges and the gate fails typed."""
        check = subgaussian_proxy_check(tail_config(trials=10), varsigma2=1.0)
        assert check.estimate == math.inf and not check.passed
        with pytest.raises(HypothesisViolated, match="inf"):
            run_tail_experiment(tail_config(trials=10), [0.2], varsigma2=1.0)


TABLE_FAMILIES = {
    "euclidean": EuclideanGaussian(dim=3),
    "sphere": SphereCap(0.7),
    "hyperbolic": HyperbolicGaussian(1.5),
    "gaussian": GaussianEnsemble(0.8, 1.6, dim=2),
    # the benchmark's ensemble: its 3x3 roots take the closed form
    "gaussian3": GaussianEnsemble(0.8, 1.6, dim=3),
}


def table_config(kind, **kw):
    return bl.RateExperimentConfig(
        family=TABLE_FAMILIES[kind], theorem="tail", n_grid=(2, 3, 16, 100), trials=30,
        master_seed=5, **kw,
    )


def per_trial_table(config):
    """The trial table and redraw count of the ``_one_trial`` loop."""
    anchor = config.family.anchor
    rows = [
        [ratelab._one_trial(config, anchor, n_index, trial) for trial in range(config.trials)]
        for n_index in range(len(config.n_grid))
    ]
    table = np.array([[sq for sq, _ in row] for row in rows])
    return table, sum(redraw for row in rows for _, redraw in row)


class TestTrialTable:
    @pytest.mark.parametrize("kind", sorted(TABLE_FAMILIES))
    def test_equals_the_per_trial_loop(self, kind):
        config = table_config(kind)
        table, redraws = ratelab._trial_table(config, config.family.anchor)
        expected, expected_redraws = per_trial_table(config)
        assert np.array_equal(table, expected)  # bit for bit
        assert redraws == expected_redraws

    @pytest.mark.parametrize(
        "kind, max_iters", [("sphere", 6), ("gaussian", 5), ("gaussian3", 5)]
    )
    def test_redraws_equal_the_per_trial_loop(self, kind, max_iters, monkeypatch):
        """With the iterations capped, many trials are solved again from
        their next redraw stream, stacked, as the loop solves them one by one."""
        monkeypatch.setattr(ratelab, "MAX_DISCARD_RATE", 1.0)
        config = table_config(kind, solver=bl.SolverOptions(max_iters=max_iters))
        table, redraws = ratelab._trial_table(config, config.family.anchor)
        expected, expected_redraws = per_trial_table(config)
        assert redraws == expected_redraws > 10
        assert np.array_equal(table, expected)

    @pytest.mark.parametrize("kind", sorted(TABLE_FAMILIES))
    def test_independent_of_the_float_budget(self, kind, monkeypatch):
        config = table_config(kind)
        table, redraws = ratelab._trial_table(config, config.family.anchor)
        for budget in (1, 64, 10**9):
            monkeypatch.setattr(ratelab, "TRIAL_FLOAT_BUDGET", budget)
            chunked, chunked_redraws = ratelab._trial_table(config, config.family.anchor)
            assert np.array_equal(chunked, table)
            assert chunked_redraws == redraws

    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize(
        "make, distance",
        [(SphereCap, 1.4), (SphereCap, 2.5), (HyperbolicGaussian, 1.4)],
    )
    def test_isometric_anchor_gives_the_default_table(self, make, distance, dim):
        """A family anchored away from the pole draws, from the same stream,
        the isometric image of the default family's draws (its frame is the
        rotation or boost of the pole's), and barycenters are equivariant,
        so the trial table is the default one to rounding; the cap at
        distance 2.5 takes its frame from the far pole -e_d."""
        family = make(0.3, dim=dim)
        direction = family._basis.sum(axis=0) / math.sqrt(dim)
        anchor = family.space.exp(family.anchor, distance * direction)
        tables = []
        for moved in (family, make(0.3, dim=dim, anchor=anchor)):
            config = bl.RateExperimentConfig(
                family=moved, theorem="tail", n_grid=(2, 3, 16, 100), trials=30, master_seed=5
            )
            tables.append(ratelab._trial_table(config, moved.anchor)[0])
        assert np.allclose(tables[1], tables[0], rtol=1e-12, atol=0)

    def test_wide_points_split_the_solve(self, monkeypatch):
        """The budget counts floats, so 16 x 16 covariances at n = 16 (272
        floats a point) split 20 trials into stacked solves of as many trials
        as the budget holds, and one of the rest."""
        sizes = []

        def recording(space, batch, weights, options):
            sizes.append(weights.shape)
            return barycenter_batch(space, batch, weights, options)

        monkeypatch.setattr(ratelab, "barycenter_batch", recording)
        family = GaussianEnsemble(0.8, 1.6, dim=16)
        config = bl.RateExperimentConfig(
            family=family, theorem="wasserstein", n_grid=(16,), trials=20, master_seed=5
        )
        ratelab._trial_table(config, family.anchor)
        per_solve = ratelab.TRIAL_FLOAT_BUDGET // (16 * 272)
        assert 1 < per_solve < 20 and 20 % per_solve
        assert sizes == [(per_solve, 16)] * (20 // per_solve) + [(20 % per_solve, 16)]

    def test_never_converging_trial_is_named(self, monkeypatch):
        """A trial that fails every redraw stops the run, named by its
        (n_index, trial)."""

        def stuck(space, batch, weights, options):
            result = barycenter_batch(space, batch, weights, options)
            converged = result.converged.copy()
            if weights.shape[1] == 8:  # the last trial at n = 8 never converges
                converged[-1] = False
            return dataclasses.replace(result, converged=converged)

        monkeypatch.setattr(ratelab, "barycenter_batch", stuck)
        with pytest.raises(DiscardRateExceeded, match=r"trial \(1, 4\) failed .* 26 redraws"):
            run_rate_experiment(euclid_config(n_grid=(4, 8), trials=5))


# the configs of the benchmark's workloads (perfbench/workloads.py), less the seed
WORKLOAD_CONFIGS = {
    "rates-hyperbolic": (HyperbolicGaussian(0.5, dim=2), "negcurv", (16, 64, 256, 1024), 40),
    "rates-gaussian": (GaussianEnsemble(0.8, 1.6, dim=3), "wasserstein", (16, 64, 256, 1024), 20),
    "tail-sphere": (SphereCap(0.3, dim=2), "tail", (100, 400), 50),
}


class TestTrialTableMemory:
    @pytest.mark.parametrize("name", sorted(WORKLOAD_CONFIGS))
    def test_workload_table_peaks_below_one_mib(self, name):
        """A benchmark workload's trial table holds one chunk of draws and its
        solve at a time: it peaks at 439-650 KiB."""
        family, theorem, n_grid, trials = WORKLOAD_CONFIGS[name]
        config = bl.RateExperimentConfig(
            family=family, theorem=theorem, n_grid=n_grid, trials=trials, master_seed=1
        )
        small = dataclasses.replace(config, n_grid=(2,), trials=1)
        ratelab._trial_table(small, family.anchor)  # lazy imports
        tracemalloc.start()
        try:
            ratelab._trial_table(config, family.anchor)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20


def tail_config(trials=2000):
    return bl.RateExperimentConfig(
        family=EuclideanGaussian(dim=3, sd=1.0),
        theorem="tail",
        n_grid=(100,),
        trials=trials,
        master_seed=21,
        verify_draws=20_000,
    )


@pytest.fixture(scope="module")
def tail_results():
    return run_tail_experiment(tail_config(), [0.2], varsigma2=3.0)


class FlakySolver:
    """``barycenter_batch`` that reports non-convergence on redraw 0 of every
    ``every``-th trial, counting trials in the order they are first solved;
    the call after one that reports any is their redraw, passed through."""

    def __init__(self, every=10):
        self.every = every
        self.trial = 0
        self.redrawing = False

    def __call__(self, space, batch, weights, options):
        result = barycenter_batch(space, batch, weights, options)
        if self.redrawing:
            self.redrawing = False
            return result
        count = len(weights)
        flaky = (self.trial + np.arange(count)) % self.every == 0
        self.trial += count
        self.redrawing = bool(flaky.any())
        return dataclasses.replace(result, converged=result.converged & ~flaky)


class TestTailExperiment:
    def test_exceedance_below_bound(self, tail_results):
        (res,) = tail_results
        stderr = math.sqrt(
            res.empirical_exceedance * (1 - res.empirical_exceedance) / res.trials
        )
        assert res.empirical_exceedance <= res.bound_probability + 3.0 * stderr

    def test_chi_square_oracle_agreement(self, tail_results):
        """Gaussian samples admit an exact tail probability for the threshold."""
        (res,) = tail_results
        exact = float(chi2.sf(res.n * res.threshold / 1.0**2, df=3))
        stderr = math.sqrt(max(exact * (1 - exact), res.empirical_exceedance) / res.trials)
        assert abs(res.empirical_exceedance - exact) <= 2.0 * stderr + 1e-12

    def test_requires_subgaussian_proxy(self):
        with pytest.raises(HypothesisViolated):
            run_tail_experiment(tail_config(trials=10), [0.2], varsigma2=1.05)

    def test_delta_validation(self):
        with pytest.raises(ValueError):
            run_tail_experiment(tail_config(trials=10), [0.2, 1.5], varsigma2=3.0)
        with pytest.raises(ValueError):
            run_tail_experiment(tail_config(trials=10), [], varsigma2=3.0)

    def test_deltas_share_one_trial_table(self):
        """Each delta reads the same squared distances: a run with both deltas
        equals the single-delta runs, row for row, delta-major."""
        config = tail_config(trials=200)
        both = run_tail_experiment(config, [0.05, 0.2], varsigma2=3.0)
        single = [run_tail_experiment(config, [d], varsigma2=3.0) for d in (0.05, 0.2)]
        assert both == single[0] + single[1]
        assert [r.delta for r in both] == [0.05, 0.2]

    def test_discard_rate_gate(self, monkeypatch):
        """Redraws above MAX_DISCARD_RATE fail the tail run as they fail a
        rate run: 2 discards in 22 draws."""
        monkeypatch.setattr(ratelab, "barycenter_batch", FlakySolver())
        with pytest.raises(DiscardRateExceeded):
            run_tail_experiment(tail_config(trials=20), [0.2], varsigma2=3.0)
        monkeypatch.setattr(ratelab, "barycenter_batch", FlakySolver())
        with pytest.raises(DiscardRateExceeded):
            run_rate_experiment(euclid_config(n_grid=(4,), trials=20))

    def test_discards_under_the_cap_are_counted(self, monkeypatch):
        """1 discard in 201 draws passes, and every row reports it."""
        monkeypatch.setattr(ratelab, "barycenter_batch", FlakySolver(every=200))
        results = run_tail_experiment(tail_config(trials=200), [0.05, 0.2], varsigma2=3.0)
        assert [r.discarded for r in results] == [1, 1]

    @pytest.mark.parametrize(
        "pk, pk_stderr", [(0.75, 0.25), (0.1, 0.5), (-0.2, 0.0)],
        ids=["three-stderr-at-zero", "within-three-stderr", "negative"],
    )
    def test_nonpositive_pk_raises_before_any_trial(self, monkeypatch, pk, pk_stderr):
        """A sampled Pk that is not positive by three standard errors fails
        the tail run before the anchor is verified or any trial is drawn."""

        def spy(*args):
            raise AssertionError("the run went on past the Pk gate")

        monkeypatch.setattr(ratelab, "population_barycenter", spy)
        monkeypatch.setattr(ratelab, "_trial_table", spy)
        profile = HuggingProfile(pk, pk_stderr, pk**2, pk)
        with pytest.raises(HypothesisViolated, match="is not positive"):
            run_tail_experiment(
                tail_config(trials=10), [0.2], varsigma2=3.0,
                profile=profile, subgaussian=SubgaussianCheck(1.0, True),
            )

    def test_profile_on_euclidean_family(self):
        profile = estimate_hugging_profile(tail_config(trials=10), 50, 30)
        assert profile.pk == pytest.approx(1.0, abs=1e-9)
        assert profile.k_min == pytest.approx(1.0, abs=1e-9)

    def test_profile_matches_the_scalar_loop(self):
        """Pinned to the per-pair scalar loop the batched profile replaced."""
        config = dataclasses.replace(
            tail_config(trials=10), family=SphereCap(0.3), master_seed=1
        )
        profile = estimate_hugging_profile(config)
        assert profile.pk == pytest.approx(0.9848823022744162, rel=1e-12)
        assert profile.k_min == pytest.approx(0.9698929260107242, rel=1e-12)

    def test_profile_rejects_targets_all_at_the_anchor(self):
        config = dataclasses.replace(tail_config(trials=10), family=PointMass(dim=3))
        with pytest.raises(CoincidentPoints):
            estimate_hugging_profile(config, 5, 3)


def per_target_profile(config, n_points, n_targets):
    """(pk, pk_stderr, pk_sq, k_min) of the hugging profile as one evaluation
    per target, each taking the support's log maps afresh: the reference of
    the batched profile."""
    family = config.family
    space, anchor = family.space, family.anchor
    rng = ratelab._stream(config.master_seed, ratelab._PROFILE)
    xs = family.sample_batch(rng, n_points)
    targets = family.sample_batch(rng, n_targets)
    rows = []
    for b in targets:
        lb, d_bb = space.log_batch(anchor, space.stack([b]))
        if d_bb[0] <= 1e-12:
            continue
        lx = space.log_batch(anchor, xs)[0]
        cone_sq = space.tangent_inner(anchor, lx - lb, lx - lb)
        rows.append(1.0 - (cone_sq - space.sqdist_batch(b, xs)) / d_bb[0] ** 2)
    k_of_x = np.min(rows, axis=0)
    return (float(k_of_x.mean()), float(k_of_x.std(ddof=1) / math.sqrt(n_points)),
            float((k_of_x**2).mean()), float(k_of_x.min()))


PROFILE_FAMILIES = {
    "euclidean": EuclideanGaussian(dim=3),
    "sphere": SphereCap(0.3),
    "hyperbolic": HyperbolicGaussian(0.5),
    "gaussian": GaussianEnsemble(0.8, 1.6, dim=3),
}


class TestBatchedProfile:
    @pytest.mark.parametrize("kind", sorted(PROFILE_FAMILIES))
    @pytest.mark.parametrize("budget", [ratelab.TRIAL_FLOAT_BUDGET, 1000])
    def test_equals_the_per_target_loop(self, kind, budget, monkeypatch):
        """Bit for bit, in one block of targets or in many."""
        monkeypatch.setattr(ratelab, "TRIAL_FLOAT_BUDGET", budget)
        config = dataclasses.replace(
            tail_config(trials=10), family=PROFILE_FAMILIES[kind], master_seed=1
        )
        profile = estimate_hugging_profile(config, 60, 40)
        assert (profile.pk, profile.pk_stderr, profile.pk_sq, profile.k_min) == (
            per_target_profile(config, 60, 40)
        )

    def test_skips_coincident_targets(self):
        """Targets at the anchor drop out, as in the per-target loop."""

        class HalfAtAnchor(EuclideanGaussian):
            def sample_batch(self, rng, count):
                batch = super().sample_batch(rng, count)
                batch[::2] = self.anchor
                return batch

        config = dataclasses.replace(tail_config(trials=10), family=HalfAtAnchor(dim=3))
        profile = estimate_hugging_profile(config, 20, 10)
        assert (profile.pk, profile.pk_stderr, profile.pk_sq, profile.k_min) == (
            per_target_profile(config, 20, 10)
        )

    def test_support_log_maps_are_taken_once(self, monkeypatch):
        config = dataclasses.replace(tail_config(trials=10), family=SphereCap(0.3))
        kernel = type(config.family.space).log_batch
        sizes = []

        def spy(space, base, batch):
            sizes.append(len(batch))
            return kernel(space, base, batch)

        monkeypatch.setattr(type(config.family.space), "log_batch", spy)
        estimate_hugging_profile(config, 200, 100)
        per_block = ratelab.TRIAL_FLOAT_BUDGET // (200 * config.family.space.point_floats)
        assert sizes.count(200) == 1
        # the support, the targets' coincidence check, then one call a block of targets
        assert len(sizes) == 2 + -(-100 // per_block)

