"""Barycenter solvers: closed forms, descent, fixed point, dispatch."""

import dataclasses
import math
import sys
import tracemalloc
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import barylab as bl
import barylab.barycenter as bary
from barylab.barycenter import (
    SolverOptions,
    barycenter,
    barycenter_batch,
    best_support_init,
    descent_batch,
)
from barylab.errors import SpaceMismatch
from barylab.families import GaussianEnsemble, HyperbolicGaussian, SphereCap
from barylab.linalg import positive_qr_q, spd_sqrt_batch, sym, weighted_sum
from barylab.ratelab import TRIAL_FLOAT_BUDGET
from barylab.spaces import SPACE_KINDS, Space
from barylab.spaces.base import WARM_START_CANDIDATES

from conftest import gaussian, make_space, probe_point, separated_points
from oracles import gaussian_quantile_grid, mean_log_sqnorm, minimality_spot_check


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
    return bl.DiscreteDistribution(space, pts)


class TestVariance:
    def test_point_mass_at_itself(self, any_space, rng):
        x = probe_point(any_space, rng)
        dist = bl.DiscreteDistribution(any_space, [x])
        assert bl.variance(dist, x) <= 1e-12

    def test_euclidean_two_points(self):
        space = bl.Euclidean(1)
        dist = bl.DiscreteDistribution(
            space, [np.array([-1.0]), np.array([1.0])]
        )
        assert bl.variance(dist, np.array([0.0])) == pytest.approx(1.0)

    def test_sphere_axis_points(self):
        space = bl.Sphere(2)
        dist = bl.DiscreteDistribution(space, list(np.eye(3)))
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

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_weights_refused(self, bad):
        """A NaN weight passes ``w <= 0`` and the sum check alike, so it is
        refused by name, as is an infinite one."""
        with pytest.raises(ValueError, match="finite and positive"):
            bl.DiscreteDistribution(bl.Euclidean(2), [[0.0, 0.0], [1.0, 1.0]], [bad, 0.5])

    @pytest.mark.parametrize("tag", sorted(SPACE_KINDS))
    def test_one_point_sample_is_a_batch_of_one(self, tag, rng):
        """``empirical_barycenter`` of one point is ``barycenter`` of its
        point mass, field for field, with no one-point branch of its own."""
        space = make_space(tag)
        p = probe_point(space, rng)
        sample = bl.empirical_barycenter(space, [p])
        dist = barycenter(bl.DiscreteDistribution(space, [p]))
        assert np.array_equal(sample.point, dist.point)
        assert (sample.objective, sample.grad_norm, sample.iters, sample.converged) == (
            dist.objective, dist.grad_norm, dist.iters, dist.converged
        )
        assert sample.iters == 1 and sample.converged

    def test_space_mismatch(self):
        with pytest.raises(SpaceMismatch):
            bl.DiscreteDistribution(
                bl.Euclidean(2), [np.zeros(2), np.zeros(3)]
            )

    def test_euclidean_point_shape_checked(self):
        with pytest.raises(SpaceMismatch):
            bl.DiscreteDistribution(bl.Euclidean(2), [np.zeros(3), np.ones(3)])
        with pytest.raises(SpaceMismatch):
            bl.DiscreteDistribution(bl.Euclidean(2), np.zeros((2, 2, 1)))

    def test_sphere_and_hyperboloid_point_shape_checked(self):
        space = bl.Sphere(2)
        with pytest.raises(SpaceMismatch):
            bl.DiscreteDistribution(space, list(np.eye(4)))
        with pytest.raises(SpaceMismatch):
            bl.DiscreteDistribution(bl.Hyperboloid(2), [np.array([1.0, 0.0])])
        assert len(bl.DiscreteDistribution(space, list(np.eye(3)))) == 3

    def test_bures_point_shape_checked(self):
        space = bl.BuresWasserstein(2)
        wrong = gaussian(np.zeros(3), np.eye(3))
        with pytest.raises(SpaceMismatch):
            bl.DiscreteDistribution(space, [wrong, wrong])
        batch = space.stack([gaussian(np.zeros(2), np.eye(2))] * 2)
        for wrong in (np.zeros((2, 4, 3)), batch[:, 1:], batch[:, 0]):
            with pytest.raises(SpaceMismatch):
                bl.DiscreteDistribution(space, wrong)
        assert len(bl.DiscreteDistribution(space, batch)) == 2


class TestEuclidean:
    def test_mean_is_exact_in_one_iteration(self, rng):
        space = bl.Euclidean(3)
        pts = [rng.standard_normal(3) for _ in range(10)]
        res = bl.empirical_barycenter(space, pts)
        assert res.converged and res.iters == 1
        assert np.allclose(res.point, np.mean(pts, axis=0), atol=1e-14)
        assert res.grad_norm <= 1e-13

    def test_single_point(self, rng):
        space = bl.Euclidean(2)
        x = rng.standard_normal(2)
        res = bl.empirical_barycenter(space, [x])
        assert res.converged and res.iters == 1 and res.objective == 0.0
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
        dist = bl.DiscreteDistribution(space, list(np.eye(3)))
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
        dist = bl.DiscreteDistribution(space, [pole, near_antipode])
        from barylab.errors import CutLocusDuringIteration

        with pytest.raises(CutLocusDuringIteration):
            bl.frechet_mean_descent(dist, pole, bl.SolverOptions())

    def test_variance_space_mismatch(self, rng):
        space = bl.Euclidean(2)
        dist = bl.DiscreteDistribution(space, [np.zeros(2), np.ones(2)])
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
        res = barycenter(bl.DiscreteDistribution(family.space, points))
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
                bl.DiscreteDistribution(
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
        for i, (dist, row) in enumerate(zip(dists, solved.points)):
            single = barycenter(dist)
            assert single.converged and solved.converged[i]
            assert single.iters == solved.iters[i]
            assert single.grad_norm == solved.grad_norm[i]
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
        "tag, spread, scale, noise",
        [
            ("sphere", 1.4, 2.05, 1e-12),
            ("hyperbolic", 3.0, 2.2, 1e-12),
            ("hyperbolic", 3.0, 1.0, -1e-7),
        ],
        ids=["sphere-halving", "hyperbolic-halving", "hyperbolic-stalling"],
    )
    def test_rows_equal_single_solves(self, tag, spread, scale, noise, monkeypatch):
        """Steps that overshoot and halve (the space's step scaled to near
        2), problems that stall (an objective that must fall by 1e-7 to
        count) and problems that end on different iterations, so that later
        steps take a stack compacted to the problems still descending, leave
        every row of a stacked descent equal, bit for bit, to its problem
        solved alone."""
        space = bl.Sphere(2) if tag == "sphere" else bl.Hyperboloid(2)
        batch, weights = self.wide_problems(space, np.random.default_rng(4), 12, 6, spread)
        init = space.warm_start(batch, weights)
        opts = SolverOptions(max_iters=200)
        step_sizes = bary._step_sizes
        exp_calls = []

        def exp(p, v):
            exp_calls.append(len(v))
            return type(space).exp(space, p, v)

        monkeypatch.setattr(space, "exp", exp)
        monkeypatch.setattr(bary, "OBJECTIVE_NOISE", noise)
        monkeypatch.setattr(bary, "_step_sizes", lambda *args: scale * step_sizes(*args))
        stacked = descent_batch(space, batch, weights, init, opts)
        assert len(set(stacked.iters)) > 1  # problems ended on different iterations
        assert len(exp_calls) > stacked.iters.max()  # some iteration halved its step
        for i in range(len(batch)):
            single = descent_batch(space, batch[i:i + 1], weights[i:i + 1], init[i:i + 1], opts)
            assert np.array_equal(single.points[0], stacked.points[i])
            assert single.grad_norm[0] == stacked.grad_norm[i]
            assert single.iters[0] == stacked.iters[i]
            assert single.converged[0] == stacked.converged[i]

    @pytest.mark.parametrize(
        "tag, spread, scale",
        [("sphere", 1.4, 2.05), ("hyperbolic", 3.0, 2.2)],
        ids=["sphere-halving", "hyperbolic-halving"],
    )
    def test_tangent_mean_takes_the_live_rows_copied_only_when_they_change(
        self, tag, spread, scale, monkeypatch
    ):
        """Each tangent mean of a stacked descent takes the support of the
        problems still live (of those still pending, on a halving), and a
        support array not seen before appears only on a halving, on an
        iteration where a problem ends, or on the one after, which takes the
        compacted stack: an iteration every live problem accepts at once
        copies no support, even after the first problem has ended."""
        space = bl.Sphere(2) if tag == "sphere" else bl.Hyperboloid(2)
        batch, weights = self.wide_problems(space, np.random.default_rng(4), 12, 6, spread)
        init = space.warm_start(batch, weights)
        step_sizes = bary._step_sizes
        monkeypatch.setattr(bary, "_step_sizes", lambda *args: scale * step_sizes(*args))
        problem_of = {row.tobytes(): i for i, row in enumerate(batch)}
        iterations = [[]]  # the supports of the start's state, then of each iteration

        def tangent_norm(p, v):
            if sys._getframe(1).f_code is descent_batch.__code__:
                iterations.append([])  # descent opens an iteration with it
            return type(space).tangent_norm(space, p, v)

        def tangent_mean(p, support, w):
            iterations[-1].append(support)  # held, so no two supports share an id
            return type(space).tangent_mean(space, p, support, w)

        monkeypatch.setattr(space, "tangent_norm", tangent_norm)
        monkeypatch.setattr(space, "tangent_mean", tangent_mean)
        solved = descent_batch(space, batch, weights, init, SolverOptions(max_iters=200))
        assert solved.converged.any() and len(set(solved.iters)) > 1
        assert len(iterations) == solved.iters.max() + 1

        def root(a):
            while isinstance(a.base, np.ndarray):
                a = a.base
            return id(a)

        seen, quiet = {root(iterations[0][0])}, 0
        for k in range(1, len(iterations)):
            changed = bool({k - 1, k} & set(solved.iters))
            live = [i for i, end in enumerate(solved.iters)
                    if end > k or (end == k and not solved.converged[i])]
            for j, support in enumerate(iterations[k]):
                rows = [problem_of[row.tobytes()] for row in support]
                if j == 0:
                    assert rows == live
                else:  # a halving takes rows of the previous try, in order
                    assert rows == sorted(rows) and set(rows) <= set(live)
                if root(support) not in seen:
                    assert j > 0 or changed, f"iteration {k} copied the support"
                    seen.add(root(support))
                elif j == 0 and not changed and k > solved.iters.min():
                    quiet += 1
                live = rows
        assert quiet  # some iteration after the first end was checked


class TestStackedSolveMemory:
    # a stacked solve over one chunk of TRIAL_FLOAT_BUDGET floats of support
    # (128 KiB) peaks at 269-525 KiB on the sphere and the hyperboloid and
    # at 403-600 KiB on 3 x 3 Gaussians
    PEAK_BYTES = 768 * 1024

    @pytest.mark.parametrize("n", [16, 64, 256, 1024])
    @pytest.mark.parametrize(
        "family", [HyperbolicGaussian(0.5), SphereCap(0.3)], ids=["hyperbolic", "sphere"]
    )
    def test_descent_peaks_below_the_bound(self, family, n):
        """A descent over one chunk of support (341 hyperbolic or sphere
        problems at n = 16) stays under PEAK_BYTES: each problem carries
        per-problem state only beside the step's log maps."""
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
        assert peak < self.PEAK_BYTES

    @pytest.mark.parametrize("n", [16, 64, 256, 1024])
    def test_fixed_point_peaks_below_the_bound(self, n):
        """A Gaussian solve over one chunk of support (85 problems at n = 16,
        d = 3) stays under PEAK_BYTES: each problem carries its descent state
        only beside the step's sandwiches and their roots."""
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
        assert peak < self.PEAK_BYTES


class TestQuantileMean:
    """On quantile grids the barycenter is the pointwise weighted average."""

    def test_point_mass_average(self):
        space = bl.QuantileSpace(4)
        dist = bl.DiscreteDistribution(
            space, [np.zeros(4), np.full(4, 2.0)]
        )
        assert np.allclose(barycenter(dist).point, np.ones(4))

    def test_single_point_identity(self, rng):
        space = bl.QuantileSpace(8)
        x = np.sort(rng.standard_normal(8))
        dist = bl.DiscreteDistribution(space, [x])
        assert np.array_equal(barycenter(dist).point, x)

    def test_gaussian_quantile_average(self):
        space = bl.QuantileSpace(10_000)
        g1 = gaussian_quantile_grid(space, 0.0, 1.0)
        g2 = gaussian_quantile_grid(space, 0.0, 3.0)
        dist = bl.DiscreteDistribution(space, [g1, g2])
        mean = barycenter(dist).point
        expected = gaussian_quantile_grid(space, 0.0, 2.0)
        assert space.distance(mean, expected) <= 1e-3

    def test_output_sorted(self, rng):
        space = bl.QuantileSpace(64)
        dist = random_distribution(space, rng, n=6)
        assert np.all(np.diff(barycenter(dist).point) >= 0)

    def test_weighted_average_bit_for_bit(self, rng):
        """Descent starts from the weighted average and takes no step."""
        for _ in range(50):
            space = bl.QuantileSpace(int(rng.integers(2, 65)))
            dist = random_distribution(space, rng, n=int(rng.integers(2, 12)))
            res = barycenter(dist)
            assert res.iters == 1
            assert np.array_equal(res.point, dist.weights @ dist.batch)

    def test_grid_mismatch(self):
        space = bl.QuantileSpace(4)
        # grids of 3 values on a 4-value space: the batch has the wrong width
        with pytest.raises(SpaceMismatch):
            bl.DiscreteDistribution(space, [np.zeros(3), np.ones(3)])


class TestBuresFixedPoint:
    def test_identical_points(self):
        space = bl.BuresWasserstein(2)
        pt = gaussian(np.zeros(2), np.diag([1.0, 2.0]))
        pts = [pt, pt.copy()]
        res = bl.bures_fixed_point(bl.DiscreteDistribution(space, pts))
        assert res.converged
        assert np.allclose(res.point[1:], pt[1:], atol=1e-10)

    def test_one_dim_matches_quantile_rule(self):
        space = bl.BuresWasserstein(1)
        pts = [gaussian([0.0], [[1.0]]), gaussian([0.0], [[9.0]])]
        res = bl.bures_fixed_point(bl.DiscreteDistribution(space, pts))
        assert res.converged
        assert res.point[1, 0] == pytest.approx(4.0, abs=1e-8)

    def test_commuting_covariances(self):
        space = bl.BuresWasserstein(2)
        pts = [
            gaussian(np.zeros(2), np.diag([1.0, 4.0])),
            gaussian(np.zeros(2), np.diag([4.0, 1.0])),
        ]
        res = bl.bures_fixed_point(bl.DiscreteDistribution(space, pts))
        assert res.converged
        assert np.allclose(res.point[1:], np.diag([2.25, 2.25]), atol=1e-8)

    def test_means_averaged_exactly(self, rng):
        space = bl.BuresWasserstein(3)
        dist = random_distribution(space, rng, n=7)
        res = barycenter(dist)
        assert np.allclose(res.point[0], dist.weights @ dist.batch[:, 0], atol=1e-14)

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
            bl.DiscreteDistribution(ensemble.space, pts)
        )
        qspace = bl.QuantileSpace(10_000)
        grids = [
            gaussian_quantile_grid(qspace, float(p[0, 0]), math.sqrt(float(p[1, 0])))
            for p in pts
        ]
        qmean = barycenter(bl.DiscreteDistribution(qspace, grids)).point
        res_grid = gaussian_quantile_grid(
            qspace, float(res.point[0, 0]), math.sqrt(float(res.point[1, 0]))
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
            space.sqdist_batch(gaussian(row[0], cov), row[None])[0]
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

    @pytest.mark.parametrize("order", ["given", "reversed"])
    @pytest.mark.parametrize("max_iters", [10_000, 3])
    @pytest.mark.parametrize("dim", [2, 3, 5])
    def test_rows_do_not_depend_on_their_neighbours(self, dim, max_iters, order):
        """Problems stacked in either order leave every row of a stacked
        Gaussian solve equal, bit for bit, to its problem solved alone, as
        problems leave the stack at different iterations; each row is within
        the solver tolerance of the averaged sandwiches' fixed point."""
        batch, weights = self.problems(dim)
        if order == "reversed":
            batch, weights = batch[::-1], weights[::-1]
        space = bl.BuresWasserstein(dim)
        opts = SolverOptions(max_iters=max_iters)
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


    def test_descent_starts_from_a_gaussian_point(self, rng):
        """``frechet_mean_descent`` takes a support point's [mean; cov] row as
        its start and reaches the barycenter from it."""
        space = bl.BuresWasserstein(3)
        dist = random_distribution(space, rng, n=9)
        res = bl.frechet_mean_descent(dist, dist.batch[0])
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
            c = space.exp(dist.batch[0], 0.3 * space.random_tangent(dist.batch[0], rng))
        b = dist.batch[0]
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
        space = any_space
        dist = random_distribution(space, rng, n=6)
        for _ in range(20):
            b = dist.batch[0] if rng.random() < 0.2 else probe_point(space, rng)
            if space.tag == "sphere":
                b = space.exp(
                    dist.batch[0], 0.4 * space.random_tangent(dist.batch[0], rng)
                )
            assert mean_log_sqnorm(space, dist, b) >= -1e-9

    def test_residual_at_converged_barycenter(self, any_space, rng):
        dist = random_distribution(any_space, rng, n=8)
        res = barycenter(dist)
        assert res.converged
        residual = mean_log_sqnorm(any_space, dist, res.point)
        assert residual <= (1e-10) ** 2 * (1.0 + 1e-3)
        assert residual == pytest.approx(res.grad_norm**2, rel=1e-12)

    def test_euclidean_residual_is_squared_gap(self, rng):
        space = bl.Euclidean(3)
        dist = random_distribution(space, rng, n=9, weighted=False)
        mean = np.mean(dist.batch, axis=0)
        b = mean + np.array([0.3, -0.2, 0.1])
        expected = float(np.dot(mean - b, mean - b))
        assert mean_log_sqnorm(space, dist, b) == pytest.approx(
            expected, abs=1e-12
        )


def best_support_point(dist):
    """The support point of least objective, by brute force over all pairs:
    each row of the (n, n) squared distances times the weights, summed as
    the default warm start sums it, so that exact ties break alike."""
    rows = dist.space.sqdist_batch(dist.batch, dist.batch)
    objectives = [(dist.weights[None] @ row[:, None])[0, 0] for row in rows]
    return dist.batch[int(np.argmin(objectives))]


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
            dist = bl.DiscreteDistribution(space, points)
        start = best_support_init(dist)
        space.check_point(start)
        reference = bl.frechet_mean_descent(dist, best_support_point(dist))
        assert reference.converged
        res = bl.frechet_mean_descent(dist, start)
        assert res.converged
        assert space.distance(res.point, reference.point) <= 1e-8

    @pytest.mark.parametrize(
        "tag, rows",
        [
            ("sphere", [[1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0]]),
            ("sphere", [[1, 0, 0], [0, 1, 0], [-1, 0, 0]]),
            # rows off the upper sheet: the means that rounding alone could
            # leave of sheet points, there zero, spacelike and lower-sheet
            ("hyperbolic", [[1, 0, 0], [-1, 0, 0]]),
            ("hyperbolic", [[math.sqrt(2), 1, 0], [-math.sqrt(2), 1, 0]]),
            ("hyperbolic", [[-1, 0, 0], [-math.sqrt(2), 1, 0]]),
        ],
        ids=["sphere-zero-mean", "sphere-beyond-half-pi", "hyperbolic-zero-mean",
             "hyperbolic-spacelike-mean", "hyperbolic-lower-sheet-mean"],
    )
    def test_model_space_falls_back_to_support_default(self, monkeypatch, tag, rows):
        """Where the projected mean is degenerate, off the upper sheet or
        pi/2 (the uniqueness radius) or more from a support point, the one
        model-space warm start takes the base start in one stacked call."""
        calls = []
        default = Space.warm_start

        def spy(self, batch, weights):
            calls.append(batch.shape[:2])
            return default(self, batch, weights)

        monkeypatch.setattr(Space, "warm_start", spy)
        space = bl.Sphere(2) if tag == "sphere" else bl.Hyperboloid(2)
        batch = np.array([rows], dtype=float)
        weights = np.full((1, len(rows)), 1.0 / len(rows))
        start = space.warm_start(batch, weights)
        assert calls == [(1, len(rows))]  # one stacked call, of the one problem
        assert np.array_equal(start, default(space, batch, weights))

    def test_sphere_stack_falls_back_in_one_call(self, monkeypatch, rng):
        """On a stack where some problems fall back (a zero extrinsic mean, a
        support point past pi/2 from it) and others do not, the failing rows
        take one stacked base call and every start is its problem's own."""
        space = bl.Sphere(2)
        a = 0.1
        pole, e1, e2 = np.eye(3)[2], np.eye(3)[0], np.eye(3)[1]
        beyond = [[math.cos(a), 0.0, -math.sin(a)], [-math.cos(a), 0.0, -math.sin(a)], pole, pole]
        cap = SphereCap(0.3)
        problems = [
            cap.sample(rng, 4),
            [e1, -e1, e2, -e2],  # zero extrinsic mean
            cap.sample(rng, 4),
            beyond,  # its first two points lie pi/2 + a from the mean
            [e2, -e2, e1, -e1],
            cap.sample(rng, 4),
        ]
        batch = np.array(problems, dtype=float)
        weights = rng.uniform(0.2, 1.0, (len(batch), 4))
        weights[[1, 3, 4]] = 0.25  # equal: exact zero means, and problem 3's at the pole
        weights /= weights.sum(axis=1, keepdims=True)
        calls = []
        default = Space.warm_start

        def spy(self, batch, weights):
            calls.append(batch.shape[:2])
            return default(self, batch, weights)

        monkeypatch.setattr(Space, "warm_start", spy)
        starts = space.warm_start(batch, weights)
        assert calls == [(3, 4)]
        for t in range(len(batch)):
            alone = space.warm_start(batch[t:t + 1], weights[t:t + 1])[0]
            assert np.array_equal(starts[t], alone)
            space.check_point(starts[t])
        for t in (1, 3, 4):
            dist = bl.DiscreteDistribution(space, batch[t], weights[t])
            assert np.array_equal(starts[t], best_support_point(dist))
        assert not any(np.any(np.all(batch[t] == starts[t], axis=-1)) for t in (0, 2, 5))

    @pytest.mark.parametrize("n", [3, 40])
    def test_base_start_of_a_stack_is_each_problems_own(self, any_space, n, rng):
        """The default start scores a stack's problems in one call, and row t
        is the best of problem t's first WARM_START_CANDIDATES points."""
        space = any_space
        batch = space.stack([probe_point(space, rng) for _ in range(5 * n)])
        batch = batch.reshape((5, n) + space.point_shape)
        weights = rng.uniform(0.2, 1.0, (5, n))
        weights /= weights.sum(axis=1, keepdims=True)
        starts = Space.warm_start(space, batch, weights)
        assert starts.shape == (5,) + space.point_shape
        for t in range(5):
            candidates = batch[t, :WARM_START_CANDIDATES]
            scores = space.sqdist_batch(candidates, batch[t]) @ weights[t]
            assert np.array_equal(starts[t], candidates[int(np.argmin(scores))])
            alone = Space.warm_start(space, batch[t:t + 1], weights[t:t + 1])[0]
            assert np.array_equal(starts[t], alone)


def test_submodule_import_binds_the_module():
    """The package exports no name that shadows its ``barycenter`` module."""
    import barylab.barycenter as module

    assert isinstance(module, types.ModuleType) and bl.barycenter is module
    assert module.barycenter is barycenter


def test_barycenter_calls_the_traced_hooks(monkeypatch, rng):
    """The benchmark tracer patches these two module globals by name."""
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
    dist = bl.DiscreteDistribution(family.space, family.sample(rng, 16))
    assert barycenter(dist).converged
    assert calls == {"best_support_init": 1, "frechet_mean_descent": 1}
