"""Barycenter solvers: closed forms, descent, fixed point, dispatch."""

import dataclasses
import importlib
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import barylab as bl
from barylab.barycenter import (
    SolverOptions,
    barycenter,
    barycenter_batch,
    best_support_init,
    descent_batch,
    minimality_spot_check,
)
from barylab.errors import GridMismatch, SpaceMismatch
from barylab.families import (
    GaussianEnsemble,
    HyperbolicGaussian,
    SphereCap,
    gaussian_quantile_grid,
)
from barylab.linalg import positive_qr_q, spd_sqrt_batch, sym, weighted_sum
from barylab.ratelab import TRIAL_FLOAT_BUDGET
from barylab.spaces import Space

from conftest import probe_point, separated_points


def random_distribution(space, rng, n=8, weighted=True):
    """A well-conditioned random discrete distribution for solver tests."""
    if space.tag == "sphere":
        center = space.random_point(rng)
        pts = []
        for _ in range(n):
            v = space.random_tangent(center, rng)
            v *= rng.uniform(0.05, 0.35) / space.tangent_norm(center, v)
            pts.append(space.exp(center, v))
    else:
        pts = [probe_point(space, rng) for _ in range(n)]
    if weighted:
        w = rng.uniform(0.2, 1.0, n)
        return bl.DiscreteDistribution(space, pts, w / w.sum())
    return bl.DiscreteDistribution.uniform(space, pts)


class TestVariance:
    def test_point_mass_at_itself(self, any_space, rng):
        x = probe_point(any_space, rng)
        dist = bl.DiscreteDistribution.uniform(any_space, [x])
        assert bl.variance(dist, x) <= 1e-12

    def test_euclidean_two_points(self):
        space = bl.Euclidean(1)
        dist = bl.DiscreteDistribution.uniform(
            space, [np.array([-1.0]), np.array([1.0])]
        )
        assert bl.variance(dist, np.array([0.0])) == pytest.approx(1.0)

    def test_sphere_axis_points(self):
        space = bl.Sphere(2)
        dist = bl.DiscreteDistribution.uniform(space, list(np.eye(3)))
        center = np.ones(3) / math.sqrt(3.0)
        expected = math.acos(1.0 / math.sqrt(3.0)) ** 2  # arccos oracle
        assert bl.variance(dist, center) == pytest.approx(expected, abs=1e-12)


class TestDistribution:
    def test_weight_validation(self):
        space = bl.Euclidean(1)
        pts = [np.array([0.0]), np.array([1.0])]
        with pytest.raises(ValueError):
            bl.DiscreteDistribution(space, pts, [0.5, 0.6])
        with pytest.raises(ValueError):
            bl.DiscreteDistribution(space, pts, [1.2, -0.2])
        with pytest.raises(ValueError):
            bl.DiscreteDistribution(space, [], [])

    def test_space_mismatch(self):
        with pytest.raises(SpaceMismatch):
            bl.DiscreteDistribution.uniform(
                bl.Euclidean(2), [np.zeros(2), np.zeros(3)]
            )

    def test_euclidean_point_shape_checked(self):
        with pytest.raises(SpaceMismatch):
            bl.DiscreteDistribution.uniform(bl.Euclidean(2), [np.zeros(3), np.ones(3)])
        with pytest.raises(SpaceMismatch):
            bl.DiscreteDistribution.uniform(bl.Euclidean(2), np.zeros((2, 2, 1)))

    def test_sphere_and_hyperboloid_point_shape_checked(self):
        space = bl.Sphere(2)
        with pytest.raises(SpaceMismatch):
            bl.DiscreteDistribution.uniform(space, list(np.eye(4)))
        with pytest.raises(SpaceMismatch):
            bl.DiscreteDistribution.uniform(bl.Hyperboloid(2), [np.array([1.0, 0.0])])
        assert len(bl.DiscreteDistribution.uniform(space, list(np.eye(3)))) == 3

    def test_bures_point_shape_checked(self):
        space = bl.BuresWasserstein(2)
        wrong = bl.GaussianPoint(np.zeros(3), np.eye(3))
        with pytest.raises(SpaceMismatch):
            bl.DiscreteDistribution.uniform(space, [wrong, wrong])
        batch = space.stack([bl.GaussianPoint(np.zeros(2), np.eye(2))] * 2)
        for wrong in (np.zeros((2, 4, 3)), batch[:, 1:], batch[:, 0]):
            with pytest.raises(SpaceMismatch):
                bl.DiscreteDistribution.uniform(space, wrong)
        assert len(bl.DiscreteDistribution.uniform(space, batch)) == 2


class TestEuclidean:
    def test_mean_is_exact_in_one_iteration(self, rng):
        space = bl.Euclidean(3)
        pts = [rng.standard_normal(3) for _ in range(10)]
        res = bl.empirical_barycenter(space, pts)
        assert res.converged and res.iters == 1
        assert np.allclose(res.point, np.mean(pts, axis=0), atol=1e-14)
        assert res.grad_norm <= 1e-13

    def test_single_point_short_circuit(self, rng):
        space = bl.Euclidean(2)
        x = rng.standard_normal(2)
        res = bl.empirical_barycenter(space, [x])
        assert res.converged and res.objective == 0.0
        assert np.array_equal(res.point, x)

    def test_empty_sample_rejected(self):
        with pytest.raises(ValueError):
            bl.empirical_barycenter(bl.Euclidean(2), [])


class TestSphereDescent:
    def test_axis_points_barycenter(self, rng):
        space = bl.Sphere(2)
        res = bl.empirical_barycenter(space, list(np.eye(3)))
        expected = np.ones(3) / math.sqrt(3.0)
        assert res.converged
        assert space.distance(res.point, expected) <= 1e-9
        assert res.grad_norm <= 1e-10
        # competitors at a measurable radius never beat the solution
        dist = bl.DiscreteDistribution.uniform(space, list(np.eye(3)))
        base = bl.variance(dist, res.point)
        for _ in range(200):
            v = space.random_tangent(res.point, rng)
            v *= 1e-3 / space.tangent_norm(res.point, v)
            assert bl.variance(dist, space.exp(res.point, v)) > base

    def test_first_order_condition(self, rng):
        space = bl.Sphere(2)
        for _ in range(10):
            dist = random_distribution(space, rng, n=12)
            res = barycenter(dist)
            assert res.converged
            payloads, _ = space.log_batch(res.point, dist.batch)
            grad = np.tensordot(dist.weights, payloads, axes=(0, 0))
            assert space.tangent_norm(res.point, grad) <= 1e-10

    def test_not_converged_flag(self, rng):
        space = bl.Sphere(2)
        dist = random_distribution(space, rng, n=16)
        res = bl.frechet_mean_descent(
            dist, best_support_init(dist), bl.SolverOptions(max_iters=1, tol=1e-16)
        )
        assert not res.converged

    def test_minimality_spot_check(self, rng):
        space = bl.Sphere(2)
        dist = random_distribution(space, rng, n=10)
        res = barycenter(dist)
        assert minimality_spot_check(dist, res, rng, count=100)


class TestMinimalityEverywhere:
    def test_spot_check_after_every_solve(self, any_space, rng):
        for _ in range(3):
            dist = random_distribution(any_space, rng, n=7)
            res = barycenter(dist)
            assert res.converged
            assert minimality_spot_check(dist, res, rng, count=100)

    def test_perturbations_are_scored_in_one_call(self, any_space, rng, monkeypatch):
        """One kernel call for the result, one for every perturbation."""
        dist = random_distribution(any_space, rng, n=7)
        res = barycenter(dist)
        kernel = type(any_space).sqdist_batch
        calls = []

        def spy(space, base, batch):
            calls.append(base)
            return kernel(space, base, batch)

        monkeypatch.setattr(type(any_space), "sqdist_batch", spy)
        assert minimality_spot_check(dist, res, rng, count=100)
        assert len(calls) == 2

    def test_a_point_off_the_minimum_fails(self, any_space, rng):
        dist = random_distribution(any_space, rng, n=7)
        res = barycenter(dist)
        direction = any_space.random_tangent(res.point, rng)
        step = 0.05 / any_space.tangent_norm(res.point, direction)
        off = dataclasses.replace(res, point=any_space.exp(res.point, step * direction))
        assert not minimality_spot_check(dist, off, rng, count=100)


class TestSolverErrors:
    def test_cut_locus_during_iteration(self):
        space = bl.Sphere(2)
        pole = np.array([0.0, 0.0, 1.0])
        near_antipode = space.exp(pole, np.array([math.pi - 1e-10, 0.0, 0.0]))
        dist = bl.DiscreteDistribution.uniform(space, [pole, near_antipode])
        from barylab.errors import CutLocusDuringIteration

        with pytest.raises(CutLocusDuringIteration):
            bl.frechet_mean_descent(dist, pole, bl.SolverOptions())

    def test_variance_space_mismatch(self, rng):
        space = bl.Euclidean(2)
        dist = bl.DiscreteDistribution.uniform(space, [np.zeros(2), np.ones(2)])
        with pytest.raises(SpaceMismatch):
            bl.variance(dist, np.zeros(3))


class TestHyperbolicDescent:
    def test_converges_and_is_stationary(self, rng):
        space = bl.Hyperboloid(2)
        for _ in range(10):
            dist = random_distribution(space, rng, n=15)
            res = barycenter(dist)
            assert res.converged
            assert res.grad_norm <= 1e-10

    def test_two_point_midpoint(self, rng):
        space = bl.Hyperboloid(2)
        x, y = separated_points(space, rng, 2)
        res = bl.empirical_barycenter(space, [x, y])
        mid = space.geodesic_point(x, y, 0.5)
        assert space.distance(res.point, mid) <= 1e-9


    def test_wide_sample_converges(self):
        """A wide three-point sample on which the unit step ran 10 000
        iterations unconverged, from either start."""
        family = HyperbolicGaussian(1.5)
        points = family.sample(np.random.default_rng(2), 3)
        res = barycenter(bl.DiscreteDistribution.uniform(family.space, points))
        assert res.converged
        assert res.iters <= 100

    def test_wide_samples_all_converge(self):
        """With the curvature-bounded step every one of 200 wide three-point
        samples converges; with the unit step 47 of them did not."""
        family = HyperbolicGaussian(1.5)
        stalled = [
            seed
            for seed in range(200)
            if not barycenter(
                bl.DiscreteDistribution.uniform(
                    family.space, family.sample(np.random.default_rng(seed), 3)
                )
            ).converged
        ]
        assert stalled == []


class TestStackedSolve:
    def test_weighted_barycenter_is_its_row(self, any_space, rng):
        """A weighted ``barycenter`` equals, bit for bit, its row of one
        stacked solve among other problems of the same size."""
        dists = [random_distribution(any_space, rng) for _ in range(5)]
        batch = np.stack([d.batch for d in dists])
        solved = barycenter_batch(any_space, batch, np.stack([d.weights for d in dists]))
        for i, (dist, row) in enumerate(zip(dists, any_space.unstack(solved.points))):
            single = barycenter(dist)
            assert single.converged and solved.converged[i]
            assert single.iters == solved.iters[i]
            assert single.grad_norm == solved.grad_norm[i]
            if any_space.tag == "gaussian":
                assert np.array_equal(single.point.mean, row.mean)
                assert np.array_equal(single.point.cov, row.cov)
            else:
                assert np.array_equal(single.point, row)


class TestStackedDescentRows:
    @staticmethod
    def wide_problems(space, rng, count, n, spread):
        """``count`` problems of ``n`` weighted points up to ``spread`` from a
        centre, wide enough that an overshooting step has to halve."""
        centre = space.random_point(rng)
        points = []
        for _ in range(count * n):
            v = space.random_tangent(centre, rng)
            v *= rng.uniform(0.0, spread) / space.tangent_norm(centre, v)
            points.append(space.exp(centre, v))
        weights = rng.uniform(0.1, 1.0, (count, n))
        return np.reshape(points, (count, n, -1)), weights / weights.sum(axis=1, keepdims=True)

    @pytest.mark.parametrize(
        "tag, spread, step, noise",
        [
            ("sphere", 1.4, 2.05, 1e-12),
            ("hyperbolic", 3.0, 2.2, 1e-12),
            ("hyperbolic", 3.0, 1.0, -1e-7),
        ],
        ids=["sphere-halving", "hyperbolic-halving", "hyperbolic-stalling"],
    )
    def test_rows_equal_single_solves(self, tag, spread, step, noise, monkeypatch):
        """Steps that overshoot and halve (a step near 2), problems that
        stall (an objective that must fall by 1e-7 to count), problems that
        end on different iterations, and log maps formed two problems at a
        time leave every row of a stacked descent equal, bit for bit, to its
        problem solved alone."""
        bary = importlib.import_module("barylab.barycenter")
        space = bl.Sphere(2) if tag == "sphere" else bl.Hyperboloid(2)
        batch, weights = self.wide_problems(space, np.random.default_rng(4), 12, 6, spread)
        init = space.warm_start(batch, weights)
        opts = SolverOptions(step=step, max_iters=200)
        exp_calls = []

        def exp(p, v):
            exp_calls.append(len(v))
            return type(space).exp(space, p, v)

        monkeypatch.setattr(space, "exp", exp)
        monkeypatch.setattr(bary, "LOG_BLOCK_FLOATS", 2 * 6 * space.point_floats)
        monkeypatch.setattr(bary, "OBJECTIVE_NOISE", noise)
        stacked = descent_batch(space, batch, weights, init, opts)
        assert len(set(stacked.iters)) > 1  # problems ended on different iterations
        assert len(exp_calls) > stacked.iters.max()  # some iteration halved its step
        for i in range(len(batch)):
            single = descent_batch(space, batch[i:i + 1], weights[i:i + 1], init[i:i + 1], opts)
            assert np.array_equal(single.points[0], stacked.points[i])
            assert single.grad_norm[0] == stacked.grad_norm[i]
            assert single.iters[0] == stacked.iters[i]
            assert single.converged[0] == stacked.converged[i]


class TestStackedSolveMemory:
    @pytest.mark.parametrize("n", [16, 64, 256, 1024])
    @pytest.mark.parametrize(
        "family", [HyperbolicGaussian(0.5), SphereCap(0.3)], ids=["hyperbolic", "sphere"]
    )
    def test_descent_peaks_below_three_budgets(self, family, n):
        """A descent over a support of one TRIAL_FLOAT_BUDGET of floats
        (1 365 hyperbolic or sphere problems at n = 16) allocates under 3
        budgets at its peak: each problem carries per-problem state only, and
        the log maps are formed and reduced a block at a time."""
        space = family.space
        count = TRIAL_FLOAT_BUDGET // (n * space.point_floats)
        rng = np.random.default_rng(1)
        batch = np.asarray(family.sample_batch(rng, count * n)).reshape(count, n, -1)
        weights = np.full((count, n), 1.0 / n)
        init = space.warm_start(batch, weights)
        tracemalloc.start()
        try:
            solved = descent_batch(space, batch, weights, init)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert solved.converged.all()
        assert peak < 3 * 8 * TRIAL_FLOAT_BUDGET

    @pytest.mark.parametrize("n", [16, 64, 256, 1024])
    def test_fixed_point_peaks_below_two_budgets(self, n):
        """A Gaussian solve over a support of one TRIAL_FLOAT_BUDGET of
        floats (341 problems at n = 16, d = 3) allocates under 2 budgets at
        its peak: each problem carries its descent state only, and the
        sandwiches and their roots are formed and reduced a block at a
        time."""
        family = GaussianEnsemble(0.8, 1.6, dim=3)
        space = family.space
        count = TRIAL_FLOAT_BUDGET // (n * space.point_floats)
        rng = np.random.default_rng(1)
        batch = np.stack([family.sample_batch(rng, n) for _ in range(count)])
        weights = np.full((count, n), 1.0 / n)
        tracemalloc.start()
        try:
            solved = barycenter_batch(space, batch, weights)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert solved.converged.all()
        assert peak < 2 * 8 * TRIAL_FLOAT_BUDGET


class TestQuantileMean:
    def test_point_mass_average(self):
        space = bl.QuantileSpace(4)
        dist = bl.DiscreteDistribution.uniform(
            space, [np.zeros(4), np.full(4, 2.0)]
        )
        assert np.allclose(bl.quantile_mean(dist), np.ones(4))

    def test_single_point_identity(self, rng):
        space = bl.QuantileSpace(8)
        x = np.sort(rng.standard_normal(8))
        dist = bl.DiscreteDistribution.uniform(space, [x])
        assert np.array_equal(bl.quantile_mean(dist), x)

    def test_gaussian_quantile_average(self):
        space = bl.QuantileSpace(10_000)
        g1 = gaussian_quantile_grid(space, 0.0, 1.0)
        g2 = gaussian_quantile_grid(space, 0.0, 3.0)
        dist = bl.DiscreteDistribution.uniform(space, [g1, g2])
        mean = bl.quantile_mean(dist)
        expected = gaussian_quantile_grid(space, 0.0, 2.0)
        assert space.distance(mean, expected) <= 1e-3

    def test_output_sorted(self, rng):
        space = bl.QuantileSpace(64)
        dist = random_distribution(space, rng, n=6)
        assert np.all(np.diff(bl.quantile_mean(dist)) >= 0)

    def test_grid_mismatch(self):
        space = bl.QuantileSpace(4)
        # grids of 3 values on a 4-value space: the batch has the wrong width
        with pytest.raises(GridMismatch):
            bl.DiscreteDistribution.uniform(space, [np.zeros(3), np.ones(3)])


class TestBuresFixedPoint:
    def test_identical_points(self):
        space = bl.BuresWasserstein(2)
        pt = bl.GaussianPoint(np.zeros(2), np.diag([1.0, 2.0]))
        pts = [pt, bl.GaussianPoint(pt.mean.copy(), pt.cov.copy())]
        res = bl.bures_fixed_point(bl.DiscreteDistribution.uniform(space, pts))
        assert res.converged
        assert np.allclose(res.point.cov, pt.cov, atol=1e-10)

    def test_one_dim_matches_quantile_rule(self):
        space = bl.BuresWasserstein(1)
        pts = [bl.GaussianPoint([0.0], [[1.0]]), bl.GaussianPoint([0.0], [[9.0]])]
        res = bl.bures_fixed_point(bl.DiscreteDistribution.uniform(space, pts))
        assert res.converged
        assert res.point.cov[0, 0] == pytest.approx(4.0, abs=1e-8)

    def test_commuting_covariances(self):
        space = bl.BuresWasserstein(2)
        pts = [
            bl.GaussianPoint(np.zeros(2), np.diag([1.0, 4.0])),
            bl.GaussianPoint(np.zeros(2), np.diag([4.0, 1.0])),
        ]
        res = bl.bures_fixed_point(bl.DiscreteDistribution.uniform(space, pts))
        assert res.converged
        assert np.allclose(res.point.cov, np.diag([2.25, 2.25]), atol=1e-8)

    def test_means_averaged_exactly(self, rng):
        space = bl.BuresWasserstein(3)
        dist = random_distribution(space, rng, n=7)
        res = barycenter(dist)
        means = np.stack([p.mean for p in dist.points])
        assert np.allclose(res.point.mean, dist.weights @ means, atol=1e-14)

    def test_first_order_condition_random(self, rng):
        space = bl.BuresWasserstein(3)
        for _ in range(5):
            dist = random_distribution(space, rng, n=9)
            res = barycenter(dist)
            assert res.converged and res.grad_norm <= 1e-10

    def test_matches_quantile_mean_on_discretized_gaussians(self, rng):
        ensemble = GaussianEnsemble(0.8, 1.6, dim=1)
        pts = ensemble.sample(rng, 12)
        res = bl.bures_fixed_point(
            bl.DiscreteDistribution.uniform(ensemble.space, pts)
        )
        qspace = bl.QuantileSpace(10_000)
        grids = [
            gaussian_quantile_grid(qspace, float(p.mean[0]), math.sqrt(float(p.cov[0, 0])))
            for p in pts
        ]
        qmean = bl.quantile_mean(bl.DiscreteDistribution.uniform(qspace, grids))
        res_grid = gaussian_quantile_grid(
            qspace, float(res.point.mean[0]), math.sqrt(float(res.point.cov[0, 0]))
        )
        assert qspace.distance(qmean, res_grid) <= 1e-3


def spd_sqrt_inv_sqrt(m):
    """Square root (that of ``spd_sqrt_batch``) and its inverse, batched over
    leading axes."""
    s = spd_sqrt_batch(m)
    return s, sym(np.linalg.inv(s))


def frobenius(m):
    """Frobenius norm over the last two axes."""
    return np.sqrt(np.sum(m * m, axis=(-2, -1)))


def test_inverse_root_inverts_the_root():
    spectra = np.random.default_rng(7).uniform(0.1, 10.0, (50, 3))
    q = positive_qr_q(np.random.default_rng(7).standard_normal((50, 3, 3)))
    a = sym((q * spectra[:, None, :]) @ np.swapaxes(q, -1, -2))
    root, inv_root = spd_sqrt_inv_sqrt(a)
    assert np.array_equal(inv_root, np.swapaxes(inv_root, -1, -2))
    assert np.max(np.abs(root @ inv_root - np.eye(3))) <= 1e-14


def averaged_sandwich_fixed_point(batch, weights, opts):
    """The stacked fixed point with the first-order condition read from the
    weighted mean of the n sandwiches C^(-1/2) root_i C^(-1/2) of each
    problem; covariances, gradient norms and iterations."""
    covs = batch[..., 1:, :].copy()
    w = weights
    count, dim = len(w), covs.shape[-1]
    cov = sym(weighted_sum(w, covs))
    out = np.empty_like(cov)
    grad_norm = np.full(count, math.inf)
    iters = np.full(count, opts.max_iters)
    live = np.arange(count)
    for iteration in range(1, opts.max_iters + 1):
        s, s_inv = spd_sqrt_inv_sqrt(cov)
        cross = spd_sqrt_batch(s[:, None] @ covs @ s[:, None])
        lin = sym(weighted_sum(w, s_inv[:, None] @ cross @ s_inv[:, None])) - np.eye(dim)
        grad_norm[live] = norm = np.sqrt(
            np.maximum(np.sum((lin @ cov) * lin, axis=(-2, -1)), 0.0)
        )
        cross_bar = weighted_sum(w, cross)
        cov_next = sym(s_inv @ cross_bar @ cross_bar @ s_inv)
        done = (norm <= opts.tol) & (frobenius(cov_next - cov) <= opts.tol)
        out[live[done]] = cov[done]
        iters[live[done]] = iteration
        keep = ~done
        live, covs, w, cov = live[keep], covs[keep], w[keep], cov_next[keep]
        if not len(live):
            break
    out[live] = cov
    return out, grad_norm, iters


class TestBuresSandwich:
    @staticmethod
    def problems(dim, count=12, n=7):
        """``count`` weighted problems of ``n`` random Gaussians, which the
        fixed point solves in different numbers of iterations."""
        rng = np.random.default_rng(dim)
        a = rng.normal(size=(count, n, dim, dim))
        batch = np.empty((count, n, dim + 1, dim))
        batch[..., 1:, :] = a @ np.swapaxes(a, -1, -2) / dim + 0.3 * np.eye(dim)
        batch[..., 0, :] = rng.normal(size=(count, n, dim))
        return batch, rng.dirichlet(np.ones(n), size=count)

    @staticmethod
    def w2(space, points, covs):
        """Bures-Wasserstein distances from the stacked points to N(mean, cov)
        with each point's own mean and the given covariances."""
        return np.sqrt([
            space.sqdist_batch(bl.GaussianPoint(row[0], cov), row[None])[0]
            for row, cov in zip(points, covs)
        ])

    @pytest.mark.parametrize("max_iters", [10_000, 3])
    @pytest.mark.parametrize("dim", [2, 3, 5])
    def test_agrees_with_the_averaged_sandwich(self, dim, max_iters):
        """Descent on Gaussians, whose unit step is the fixed point, ends
        within the solver tolerance of the fixed point's covariances, on
        the iteration the fixed point ends or the one before (the fixed
        point also waits for its covariance to settle to ``tol``); three
        iterations of each (max_iters = 3) reach the same iterate to
        rounding.  The means are the weighted means."""
        batch, weights = self.problems(dim)
        space = bl.BuresWasserstein(dim)
        opts = SolverOptions(max_iters=max_iters)
        solved = barycenter_batch(space, batch, weights, opts)
        cov, grad_norm, iters = averaged_sandwich_fixed_point(batch, weights, opts)
        gaps = self.w2(space, solved.points, cov)
        assert np.array_equal(solved.converged, iters < max_iters)
        if max_iters == 3:
            assert np.all(solved.iters == 3) and np.all(gaps <= 1e-13)
            assert np.allclose(solved.grad_norm, grad_norm, rtol=1e-6, atol=1e-14)
        else:
            assert len(set(solved.iters)) > 1
            assert np.all((iters - 1 <= solved.iters) & (solved.iters <= iters))
            assert np.all(gaps <= 2 * opts.tol)
            assert np.all(solved.grad_norm <= opts.tol)
        means = weighted_sum(weights, batch[..., 0, :])
        assert np.allclose(solved.points[:, 0], means, rtol=0, atol=1e-14)

    @pytest.mark.parametrize("per_block", [1, 2])
    @pytest.mark.parametrize("max_iters", [10_000, 3])
    @pytest.mark.parametrize("dim", [2, 3, 5])
    def test_rows_do_not_depend_on_the_blocks(self, dim, max_iters, per_block, monkeypatch):
        """Sandwiches formed one or two problems at a time leave every row of
        a stacked Gaussian solve equal, bit for bit, to its problem solved
        alone, as problems leave the stack at different iterations; each row
        is within the solver tolerance of the averaged sandwiches' fixed
        point."""
        bary = importlib.import_module("barylab.barycenter")
        batch, weights = self.problems(dim)
        space = bl.BuresWasserstein(dim)
        opts = SolverOptions(max_iters=max_iters)
        floats = weights.shape[1] * space.point_floats  # one problem's support
        monkeypatch.setattr(bary, "LOG_BLOCK_FLOATS", per_block * floats)
        solved = barycenter_batch(space, batch, weights, opts)
        cov, _, iters = averaged_sandwich_fixed_point(batch, weights, opts)
        assert len(set(solved.iters)) > 1 or max_iters == 3
        assert np.all(self.w2(space, solved.points, cov) <= 2 * opts.tol)
        for i in range(len(weights)):
            single = barycenter_batch(space, batch[i:i + 1], weights[i:i + 1], opts)
            assert np.array_equal(solved.points[i], single.points[0])
            assert solved.iters[i] == single.iters[0]
            assert solved.converged[i] == single.converged[0] == (iters[i] < max_iters)
            assert solved.grad_norm[i] == single.grad_norm[0]

    @pytest.mark.parametrize("step", [2.0, 0.5])
    def test_any_step_converges_inside_the_cone(self, step):
        """A step above the space's cap of 1 is the fixed point's unit step
        and cannot leave the SPD cone; a step below it damps the fixed point.
        Either way every problem converges to the averaged sandwiches' point
        within the solver tolerance."""
        batch, weights = self.problems(3)
        space = bl.BuresWasserstein(3)
        opts = SolverOptions(step=step)
        solved = barycenter_batch(space, batch, weights, opts)  # no OutOfDomain
        cov, _, _ = averaged_sandwich_fixed_point(batch, weights, SolverOptions())
        assert solved.converged.all()
        assert np.all(self.w2(space, solved.points, cov) <= 2 * opts.tol)
        if step > 1:
            unit = barycenter_batch(space, batch, weights)
            assert np.array_equal(solved.points, unit.points)


    def test_descent_starts_from_a_gaussian_point(self, rng):
        """``frechet_mean_descent`` takes a ``GaussianPoint`` start, such as
        a support point, and reaches the barycenter from it."""
        space = bl.BuresWasserstein(3)
        dist = random_distribution(space, rng, n=9)
        res = bl.frechet_mean_descent(dist, dist.points[0])
        assert res.converged
        assert space.distance(res.point, barycenter(dist).point) <= 2 * SolverOptions().tol


class TestFlatSpacesTakeNoStep:
    @pytest.mark.parametrize("space", [bl.Euclidean(3), bl.QuantileSpace(16)], ids=repr)
    def test_solve_is_the_weighted_mean(self, space, rng):
        """Descent from the exact weighted mean stops before its first step:
        every row is ``weighted_sum(weights, batch)`` bit for bit, after one
        iteration, converged."""
        batch = np.stack([
            space.stack([probe_point(space, rng) for _ in range(9)]) for _ in range(6)
        ])
        weights = rng.uniform(0.2, 1.0, (6, 9))
        weights /= weights.sum(axis=1, keepdims=True)
        solved = barycenter_batch(space, batch, weights)
        assert np.array_equal(solved.points, weighted_sum(weights, batch))
        assert np.all(solved.iters == 1) and solved.converged.all()
        assert np.all(solved.grad_norm <= SolverOptions().tol)


class TestTangentStructure:
    def test_tangent_linearity(self, any_space, rng):
        """Weighted sums of log payloads commute with the inner product."""
        space = any_space
        dist = random_distribution(space, rng, n=6)
        c = probe_point(space, rng)
        if space.tag == "sphere":
            c = space.exp(dist.points[0], 0.3 * space.random_tangent(dist.points[0], rng))
        b = dist.points[0]
        logs, _ = space.log_batch(b, dist.batch)
        log_c = space.log(b, c)
        lhs = sum(
            w * space.tangent_inner(b, payload, log_c)
            for w, payload in zip(dist.weights, logs)
        )
        mean = np.tensordot(dist.weights, logs, axes=(0, 0))
        rhs = space.tangent_inner(b, mean, log_c)
        assert lhs == pytest.approx(rhs, abs=1e-9)

    def test_residual_positive_anywhere(self, any_space, rng):
        """The double log integral is nonnegative at arbitrary base points."""
        from barylab.hugging import exp_barycenter_residual

        space = any_space
        dist = random_distribution(space, rng, n=6)
        for _ in range(20):
            b = dist.points[0] if rng.random() < 0.2 else probe_point(space, rng)
            if space.tag == "sphere":
                b = space.exp(
                    dist.points[0], 0.4 * space.random_tangent(dist.points[0], rng)
                )
            assert exp_barycenter_residual(space, dist, b) >= -1e-9

    def test_residual_at_converged_barycenter(self, any_space, rng):
        from barylab.hugging import exp_barycenter_residual

        dist = random_distribution(any_space, rng, n=8)
        res = barycenter(dist)
        assert res.converged
        residual = exp_barycenter_residual(any_space, dist, res.point)
        assert residual <= (1e-10) ** 2 * (1.0 + 1e-3)

    def test_euclidean_residual_is_squared_gap(self, rng):
        from barylab.hugging import exp_barycenter_residual

        space = bl.Euclidean(3)
        dist = random_distribution(space, rng, n=9, weighted=False)
        mean = np.mean(dist.batch, axis=0)
        b = mean + np.array([0.3, -0.2, 0.1])
        expected = float(np.dot(mean - b, mean - b))
        assert exp_barycenter_residual(space, dist, b) == pytest.approx(
            expected, abs=1e-12
        )


def best_support_point(dist):
    """The support point of least objective, by brute force over all pairs:
    the (n, n) squared distances times the weights, summed in the order of
    the default warm start, so that exact ties break alike."""
    objectives = dist.space.sqdist_batch(dist.batch, dist.batch) @ dist.weights
    return dist.points[int(np.argmin(objectives))]


class TestWarmStart:
    @given(
        data=st.data(),
        kind=st.sampled_from(["sphere_cap", "hyperbolic_gaussian"]),
        n=st.integers(min_value=2, max_value=64),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        weighted=st.booleans(),
    )
    @settings(max_examples=100, deadline=None)
    def test_descent_reaches_the_best_support_result(self, data, kind, n, seed, weighted):
        if kind == "sphere_cap":
            family = SphereCap(data.draw(st.floats(0.05, 0.78), label="radius"))
        else:
            family = HyperbolicGaussian(data.draw(st.floats(0.05, 2.0), label="scale"))
        space = family.space
        rng = np.random.default_rng(seed)
        points = family.sample(rng, n)
        if weighted:
            w = rng.uniform(0.2, 1.0, n)
            dist = bl.DiscreteDistribution(space, points, w / w.sum())
        else:
            dist = bl.DiscreteDistribution.uniform(space, points)
        start = best_support_init(dist)
        space.check_point(start)
        reference = bl.frechet_mean_descent(dist, best_support_point(dist))
        assert reference.converged
        res = bl.frechet_mean_descent(dist, start)
        assert res.converged
        assert space.distance(res.point, reference.point) <= 1e-8

    @pytest.mark.parametrize(
        "rows",
        [
            [[1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0]],  # zero extrinsic mean
            [[1, 0, 0], [0, 1, 0], [-1, 0, 0]],  # support pi/2 from the mean
        ],
    )
    def test_sphere_falls_back_to_support_default(self, monkeypatch, rows):
        calls = []
        default = Space.warm_start

        def spy(self, batch, weights):
            calls.append(len(batch))
            return default(self, batch, weights)

        monkeypatch.setattr(Space, "warm_start", spy)
        space = bl.Sphere(2)
        points = [np.array(r, dtype=float) for r in rows]
        dist = bl.DiscreteDistribution.uniform(space, points)
        start = best_support_init(dist)
        assert calls == [len(points)]
        space.check_point(start)
        assert np.array_equal(start, best_support_point(dist))


def test_barycenter_calls_the_traced_hooks(monkeypatch, rng):
    """The benchmark tracer patches these two module globals by name."""
    # the package re-exports the function ``barycenter`` under the module's name
    bary = importlib.import_module("barylab.barycenter")
    calls = {"best_support_init": 0, "frechet_mean_descent": 0}

    def counting(name):
        inner = getattr(bary, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return inner(*args, **kwargs)

        return wrapper

    for name in calls:
        monkeypatch.setattr(bary, name, counting(name))
    family = HyperbolicGaussian(0.5)
    dist = bl.DiscreteDistribution.uniform(family.space, family.sample(rng, 16))
    assert barycenter(dist).converged
    assert calls == {"best_support_init": 1, "frechet_mean_descent": 1}
