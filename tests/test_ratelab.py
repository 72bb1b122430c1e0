"""Monte Carlo harness: slopes, determinism, gates, bounds, tails."""

import dataclasses
import json
import math

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
    InsufficientGrid,
)
from barylab.families import EuclideanGaussian, GaussianEnsemble, HyperbolicGaussian, SphereCap
from barylab.ratelab import (
    RateCurve,
    RatePoint,
    estimate_hugging_profile,
    rate_violations,
    run_rate_experiment,
    run_tail_experiment,
    subgaussian_proxy_check,
)


class PointMass(EuclideanGaussian):
    """Every draw is the anchor itself."""

    def sample_batch(self, rng, count):
        return np.tile(self.anchor, (count, 1))


def make_curve(ns, means):
    points = tuple(
        RatePoint(n, 100, m, 0.01 * m, 1.0, 1.0 / n, m * n) for n, m in zip(ns, means)
    )
    return RateCurve(points, float("nan"), 1.0, 1.0, "negcurv", "euclidean", 0)


class TestSlopeFit:
    def test_exact_inverse_n(self):
        ns = [10, 100, 1000]
        curve = make_curve(ns, [2.0 / n for n in ns])
        assert bl.fit_loglog_slope(curve) == pytest.approx(-1.0, abs=1e-12)

    def test_exact_inverse_sqrt(self):
        ns = [16, 64, 256, 1024]
        curve = make_curve(ns, [3.0 / math.sqrt(n) for n in ns])
        assert bl.fit_loglog_slope(curve) == pytest.approx(-0.5, abs=1e-12)

    def test_insufficient_grid(self):
        curve = make_curve([4, 16], [1.0, 0.25])
        with pytest.raises(InsufficientGrid):
            bl.fit_loglog_slope(curve)


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

    def test_negcurv_rejects_positively_curved_space(self):
        config = bl.RateExperimentConfig(
            family=SphereCap(0.3),
            theorem="negcurv",
            n_grid=(4,),
            trials=5,
            master_seed=1,
        )
        with pytest.raises(HypothesisViolated):
            run_rate_experiment(config)

    def test_master_rejects_negatively_curved_space(self):
        config = bl.RateExperimentConfig(
            family=HyperbolicGaussian(0.5),
            theorem="master_extendible",
            n_grid=(4,),
            trials=5,
            master_seed=1,
        )
        with pytest.raises(HypothesisViolated):
            run_rate_experiment(config)

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


class TestSubgaussian:
    def test_near_point_mass_passes(self):
        config = euclid_config(family=EuclideanGaussian(dim=3, sd=1e-9))
        check = subgaussian_proxy_check(config, varsigma2=1.0, draws=20_000)
        assert check.passed
        assert check.estimate == pytest.approx(1.0, abs=1e-9)

    def test_bounded_family_with_diameter_proxy_passes(self):
        family = SphereCap(0.3)
        config = bl.RateExperimentConfig(
            family=family, theorem="tail", n_grid=(4,), trials=1, master_seed=9
        )
        varsigma2 = 0.3**2 / (2.0 * math.log(2.0))
        check = subgaussian_proxy_check(config, varsigma2, draws=50_000)
        assert check.passed

    def test_zero_draws_rejected(self):
        with pytest.raises(ValueError, match="draws"):
            subgaussian_proxy_check(euclid_config(), varsigma2=3.0, draws=0)

    def test_heavy_proxy_fails(self):
        config = euclid_config()
        check = subgaussian_proxy_check(config, varsigma2=1.2, draws=50_000)
        assert not check.passed

    def test_estimate_pinned(self):
        """Exponential moment of SphereCap(0.3) at master seed 1 over two
        200 000-draw blocks, summed as the sigma^2 pass sums them."""
        config = bl.RateExperimentConfig(
            family=SphereCap(0.3), theorem="tail", n_grid=(4,), trials=1, master_seed=1
        )
        check = subgaussian_proxy_check(config, varsigma2=0.1, draws=400_000)
        assert check.estimate == pytest.approx(1.2621705652073945, rel=1e-14, abs=0)
        assert check.stderr == pytest.approx(0.00025899853575277117, rel=1e-14, abs=0)


TABLE_FAMILIES = {
    "euclidean": EuclideanGaussian(dim=3),
    "sphere": SphereCap(0.7),
    "hyperbolic": HyperbolicGaussian(1.5),
    "gaussian": GaussianEnsemble(0.8, 1.6, dim=2),
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

    @pytest.mark.parametrize("kind, max_iters", [("sphere", 6), ("gaussian", 5)])
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

    def test_wide_points_split_the_solve(self, monkeypatch):
        """The budget counts floats, so 16 x 16 covariances at n = 16 (272
        floats a point) split 20 trials into stacked solves of 15 and 5."""
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
        assert sizes == [(15, 16), (5, 16)]
        assert all(t * n * 272 <= ratelab.TRIAL_FLOAT_BUDGET for t, n in sizes)

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

