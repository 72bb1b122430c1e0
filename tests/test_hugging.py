"""Hugging diagnostics, variance equality, extendibility bounds."""

import collections
import math

import numpy as np
import pytest

import barylab as bl
from barylab import ratelab
from barylab.barycenter import barycenter
from barylab.errors import BadBounds, BadLambda, CoincidentPoints
from barylab.families import GaussianEnsemble, SphereCap
from barylab.sweeps import hugging_sweep

from conftest import gaussian, make_space, probe_point, separated_points
from test_barycenter import random_distribution


class TestHuggingValue:
    def test_euclidean_is_one(self, rng):
        space = bl.Euclidean(3)
        for _ in range(50):
            b_star, b, x = separated_points(space, rng, 3)
            assert bl.hugging_value(space, b_star, b, x) == pytest.approx(1.0, abs=1e-12)

    def test_x_at_base_is_one(self, any_space, rng):
        b_star, b = separated_points(any_space, rng, 2)
        assert bl.hugging_value(any_space, b_star, b, b_star) == pytest.approx(
            1.0, abs=1e-9
        )

    def test_sphere_axis_example(self):
        space = bl.Sphere(2)
        b_star = np.array([0.0, 0.0, 1.0])
        x = np.array([1.0, 0.0, 0.0])
        b = np.array([0.0, 1.0, 0.0])
        assert bl.hugging_value(space, b_star, b, x) == pytest.approx(0.0, abs=1e-12)

    def test_scalar_is_a_batch_of_one(self, any_space, rng):
        b_star, b = separated_points(any_space, rng, 2)
        xs = [probe_point(any_space, rng) for _ in range(20)]
        if any_space.tag == "sphere":  # keep clear of the cut locus of b_star
            xs = [
                any_space.exp(b_star, 0.5 * any_space.random_tangent(b_star, rng))
                for _ in range(20)
            ]
        batched = bl.hugging_values(any_space, b_star, any_space.stack([b]), any_space.stack(xs))
        assert batched.shape == (1, 20)
        for x, value in zip(xs, batched[0]):
            assert bl.hugging_value(any_space, b_star, b, x) == value

    def test_stacked_targets_give_one_row_each(self, any_space, rng):
        """Every row of a stack of targets equals that target's batch of one."""
        b_star, *bs = separated_points(any_space, rng, 5)
        xs = [probe_point(any_space, rng) for _ in range(20)]
        if any_space.tag == "sphere":  # keep clear of the cut locus of b_star
            xs = [
                any_space.exp(b_star, 0.5 * any_space.random_tangent(b_star, rng))
                for _ in range(20)
            ]
        xs = any_space.stack(xs)
        rows = bl.hugging_values(any_space, b_star, any_space.stack(bs), xs)
        assert rows.shape == (4, 20)
        for b, row in zip(bs, rows):
            one = bl.hugging_values(any_space, b_star, any_space.stack([b]), xs)
            assert np.array_equal(row, one[0])

    def test_coincident_points_rejected(self, any_space, rng):
        b_star, b, x = separated_points(any_space, rng, 3)
        with pytest.raises(CoincidentPoints):
            bl.hugging_value(any_space, b_star, b_star, x)
        with pytest.raises(CoincidentPoints):  # one target at the base rejects the stack
            bl.hugging_values(
                any_space, b_star, any_space.stack([b, b_star]), any_space.stack([x])
            )

    @pytest.mark.parametrize("tag", ["sphere", "quantile", "gaussian"])
    def test_nonnegative_curvature_keeps_k_below_one(self, tag, rng):
        space = make_space(tag)
        for _ in range(300):
            b_star, b, x = separated_points(space, rng, 3, min_sep=0.02)
            assert bl.hugging_value(space, b_star, b, x) <= 1.0 + 1e-9

    def test_nonpositive_curvature_keeps_k_above_one(self, rng):
        space = bl.Hyperboloid(2)
        for _ in range(300):
            b_star, b, x = separated_points(space, rng, 3, min_sep=0.02)
            assert bl.hugging_value(space, b_star, b, x) >= 1.0 - 1e-9


class TestVarianceEquality:
    def test_euclidean_identity_is_exact(self, rng):
        space = bl.Euclidean(3)
        dist = random_distribution(space, rng, n=9)
        b_star = barycenter(dist).point
        for _ in range(20):
            b = probe_point(space, rng)
            assert bl.variance_equality_residual(space, dist, b_star, b) <= 1e-12

    def test_point_mass_degenerates_to_zero(self, any_space, rng):
        """P = delta_x with base x: both sides collapse for any other target."""
        x, b = separated_points(any_space, rng, 2)
        dist = bl.DiscreteDistribution(any_space, [x])
        assert bl.variance_equality_residual(any_space, dist, x, b) <= 1e-10
        with pytest.raises(CoincidentPoints):
            bl.variance_equality_residual(any_space, dist, x, x)

    def test_residual_weights_the_sqdist_of_b_to_b_star_itself(self, any_space, rng, monkeypatch):
        """With every k_i at 1 and the support's d^2 to b* read as its d^2(b, x_i),
        the residual is d^2(b, b*) exactly as sqdist_batch returned it: no root
        is taken and squared back."""
        space = any_space
        monkeypatch.setattr(
            bl.hugging, "hugging_values", lambda s, b_star, bs, xs, **_: np.ones((len(bs), len(xs)))
        )
        returned = []

        def spy(a, b, _method=space.sqdist_batch):
            # the first call gives d^2(b, x), then d^2(b, b*); the second, d^2(b*, x),
            # returns the first call's d^2(b, x)
            returned.append(_method(a, b) if not returned else returned[0][0, :-1])
            return returned[-1]

        cases = [separated_points(space, rng, 3) for _ in range(20)]
        monkeypatch.setattr(space, "sqdist_batch", spy)
        for b_star, b, x in cases:
            dist = bl.DiscreteDistribution(space, [x])
            returned.clear()
            residual = bl.variance_equality_residual(space, dist, b_star, b)
            assert len(returned) == 2
            assert residual == returned[0][0, -1]

    def test_residual_small_at_converged_barycenters(self, any_space, rng):
        space = any_space
        tol = 1e-10
        for _ in range(5):
            dist = random_distribution(space, rng, n=8)
            res = barycenter(dist, bl.SolverOptions(tol=tol))
            assert res.converged
            for _ in range(20):
                if space.tag == "sphere":
                    v = space.random_tangent(res.point, rng)
                    v *= rng.uniform(0.1, 1.2) / space.tangent_norm(res.point, v)
                    b = space.exp(res.point, v)
                else:
                    b = probe_point(space, rng)
                d = space.distance(b, res.point)
                if d <= 1e-6:
                    continue
                residual = bl.variance_equality_residual(space, dist, res.point, b)
                assert residual <= max(1e-8, 10.0 * tol * d)

    def test_sweep_takes_the_support_maps_once_per_block(self, monkeypatch):
        """hugging_sweep takes the support's log maps at b_star, its squared
        distances to b_star and d^2(b, support) once for each block of cases:
        the calls over the support grow with the blocks, not with n_cases."""
        family = GaussianEnsemble(0.8, 1.6, dim=3)
        n_support = 50
        calls = collections.Counter()
        space_cls = type(family.space)
        for name in ("log_batch", "sqdist_batch"):

            def spy(self, p, batch, _method=getattr(space_cls, name), _name=name):
                # the residuals' call takes b_star beside the support
                calls[_name] += np.shape(batch)[-3] in (n_support, n_support + 1)
                return _method(self, p, batch)

            monkeypatch.setattr(space_cls, name, spy)
        # a case holds b, x and the support
        per_block = ratelab.TRIAL_FLOAT_BUDGET // ((n_support + 2) * family.space.point_floats)
        for n_cases in (5, 40):
            calls.clear()
            hugging_sweep(family, n_support, n_cases, 1)
            blocks = -(-n_cases // per_block)
            assert blocks < n_cases
            # the solver's final objective makes one further sqdist_batch call
            assert calls == {"log_batch": blocks, "sqdist_batch": 1 + 2 * blocks}

    def test_mean_hugging_nonnegative_at_barycenter(self, any_space, rng):
        """The weighted hugging average stays nonnegative at the optimum."""
        space = any_space
        dist = random_distribution(space, rng, n=8)
        res = barycenter(dist)
        for _ in range(100):
            if space.tag == "sphere":
                v = space.random_tangent(res.point, rng)
                v *= rng.uniform(0.1, 1.0) / space.tangent_norm(res.point, v)
                b = space.exp(res.point, v)
            else:
                b = probe_point(space, rng)
            if space.distance(b, res.point) <= 1e-6:
                continue
            values = [
                bl.hugging_value(space, res.point, b, x) for x in dist.batch
            ]
            assert float(dist.weights @ np.asarray(values)) >= -1e-6


class TestExtendibilityBounds:
    def test_kmin_formula(self):
        assert bl.extendibility_kmin(4.0, 1.0) == pytest.approx(0.25)
        assert bl.extendibility_kmin(math.inf, math.inf) == 1.0
        assert bl.extendibility_kmin(1.0, 1.0) == pytest.approx(-0.5)

    def test_kmin_errors(self):
        with pytest.raises(BadLambda):
            bl.extendibility_kmin(0.0, 1.0)
        with pytest.raises(BadLambda):
            bl.extendibility_kmin(-1.0, 1.0)

    def test_support_extendibility_euclidean(self, rng):
        space = bl.Euclidean(2)
        dist = random_distribution(space, rng, n=5)
        ext = space.max_extendibility(probe_point(space, rng), dist.batch)
        assert math.isinf(ext.lambda_in) and math.isinf(ext.lambda_out)

    def test_support_extendibility_sphere_cap(self, rng):
        family = SphereCap(0.3)
        space = family.space
        dist = bl.DiscreteDistribution(space, family.sample(rng, 40))
        ext = space.max_extendibility(family.anchor, dist.batch)
        floor = (math.pi / 0.3 - 1.0) / 2.0
        assert ext.lambda_in >= floor - 1e-9
        assert ext.lambda_out >= floor - 1e-9
        per_point = space.extendibility_batch(family.anchor, dist.batch)
        assert np.min(per_point.lambda_in) == ext.lambda_in

    def test_support_extendibility_gaussian_interval_arithmetic(self, rng):
        """Sampled map eigenvalues in [alpha, beta] bound the support infimum."""
        family = GaussianEnsemble(0.8, 1.6, dim=3)
        space = family.space
        dist = bl.DiscreteDistribution(space, family.sample(rng, 40))
        ext = space.max_extendibility(family.anchor, dist.batch)
        assert ext.lambda_in >= 1.0 / (1.6 - 1.0) - 1e-9
        assert ext.lambda_out >= 0.8 / (1.0 - 0.8) - 1e-9
        pop = family.support_extendibility()
        assert pop.lambda_in == pytest.approx(1.0 / 0.6, abs=1e-9)
        assert pop.lambda_out == pytest.approx(4.0, abs=1e-9)

    def test_population_vs_empirical_consistency(self, rng):
        family = SphereCap(0.25)
        pop = family.support_extendibility()
        dist = bl.DiscreteDistribution(
            family.space, family.sample(rng, 60)
        )
        emp = family.space.max_extendibility(family.anchor, dist.batch)
        assert emp.lambda_in >= pop.lambda_in - 1e-9
        assert emp.lambda_out >= pop.lambda_out - 1e-9


class TestHuggingLowerBounds:
    def test_sphere_cap_instance(self, rng):
        family = SphereCap(0.3)
        space = family.space
        ext = family.support_extendibility()
        k_min = bl.extendibility_kmin(ext.lambda_in, ext.lambda_out)
        assert k_min > 0
        for _ in range(400):
            x = family.sample(rng, 1)[0]
            v = space.random_tangent(family.anchor, rng)
            v *= rng.uniform(0.05, 2.5) / space.tangent_norm(family.anchor, v)
            b = space.exp(family.anchor, v)
            assert bl.hugging_value(space, family.anchor, b, x) >= k_min - 1e-7

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_gaussian_instance_and_route_consistency(self, dim, rng):
        """The extendibility and Wasserstein routes give one constant,
        1 - beta + alpha, in every dimension (at dim 1 too, where beta and
        alpha cannot share one map), and no sampled hugging value is below it."""
        family = GaussianEnsemble(0.8, 1.6, dim=dim)
        space = family.space
        ext = family.support_extendibility()
        k_ext = bl.extendibility_kmin(ext.lambda_in, ext.lambda_out)
        k_wass = bl.wasserstein_kmin(*family.transport_bounds())
        assert k_ext == pytest.approx(k_wass, abs=1e-12)
        sampled_min = math.inf
        for _ in range(300):
            x = family.sample(rng, 1)[0]
            b = space.random_point(rng)
            sampled_min = min(
                sampled_min, bl.hugging_value(space, family.anchor, b, x)
            )
        assert k_ext <= sampled_min + 1e-7
        assert k_wass <= sampled_min + 1e-7


class TestWassersteinPotentials:
    def test_identity_map(self):
        pt = gaussian(np.zeros(2), np.diag([1.0, 2.0]))
        same = pt.copy()
        alpha, beta = bl.BuresWasserstein(2).transport_map_bounds(pt, same)
        assert alpha == pytest.approx(1.0, abs=1e-9)
        assert beta == pytest.approx(1.0, abs=1e-9)

    def test_scalar_map(self):
        a = gaussian([0.0], [[1.0]])
        b = gaussian([0.0], [[4.0]])
        assert bl.BuresWasserstein(1).transport_map_bounds(a, b) == pytest.approx((2.0, 2.0))

    def test_identity_anchor_diagonal(self):
        a = gaussian(np.zeros(2), np.eye(2))
        b = gaussian(np.zeros(2), np.diag([0.81, 2.25]))
        alpha, beta = bl.BuresWasserstein(2).transport_map_bounds(a, b)
        assert alpha == pytest.approx(0.9, abs=1e-12)
        assert beta == pytest.approx(1.5, abs=1e-12)

    @pytest.mark.parametrize("dim", [1, 3])
    def test_a_stack_gives_each_point_its_bounds(self, dim, rng):
        """On a stacked batch the bounds are arrays whose entries are the
        floats of each point alone, bit for bit."""
        space = bl.BuresWasserstein(dim)
        p = probe_point(space, rng)
        xs = space.stack([probe_point(space, rng) for _ in range(6)])
        lo, hi = space.transport_map_bounds(p, xs)
        assert lo.shape == hi.shape == (6,)
        for x, a, b in zip(xs, lo, hi):
            one = space.transport_map_bounds(p, x)
            assert one == (a, b) and all(type(v) is float for v in one)

    def test_wasserstein_kmin(self):
        assert bl.wasserstein_kmin(1.0, 1.0) == 1.0
        assert bl.wasserstein_kmin(0.8, 1.6) == pytest.approx(0.2)
        assert bl.wasserstein_kmin(0.5, 1.6) == pytest.approx(-0.1)
        with pytest.raises(BadBounds):
            bl.wasserstein_kmin(1.2, 0.8)
        with pytest.raises(BadBounds):
            bl.wasserstein_kmin(0.0, 0.5)


def min_hugging_over_targets(space, b_star, x, target_sampler, n_targets, rng):
    """Monte Carlo upper bound on the pointwise hugging minimum over targets:
    the least hugging value at ``x`` over ``n_targets`` sampled targets b,
    skipping draws that coincide with ``b_star``."""
    best = math.inf
    for _ in range(n_targets):
        try:
            best = min(best, bl.hugging_value(space, b_star, target_sampler(rng), x))
        except CoincidentPoints:
            continue
    assert math.isfinite(best), "every sampled target coincided with the base point"
    return best


class TestMinHuggingOverTargets:
    def test_euclidean_always_one(self, rng):
        space = bl.Euclidean(2)
        b_star, x = separated_points(space, rng, 2)
        value = min_hugging_over_targets(
            space, b_star, x, lambda r: probe_point(space, r), 50, rng
        )
        assert value == pytest.approx(1.0, abs=1e-12)

    def test_hyperbolic_at_least_one(self, rng):
        space = bl.Hyperboloid(2)
        b_star, x = separated_points(space, rng, 2)
        value = min_hugging_over_targets(
            space, b_star, x, lambda r: probe_point(space, r), 100, rng
        )
        assert value >= 1.0 - 1e-9

    def test_sphere_cap_respects_extendibility_floor(self, rng):
        family = SphereCap(0.3)
        space = family.space
        ext = family.support_extendibility()
        k_min = bl.extendibility_kmin(ext.lambda_in, ext.lambda_out)
        x = family.sample(rng, 1)[0]

        def sampler(r):
            v = space.random_tangent(family.anchor, r)
            v *= r.uniform(0.05, 2.0) / space.tangent_norm(family.anchor, v)
            return space.exp(family.anchor, v)

        value = min_hugging_over_targets(space, family.anchor, x, sampler, 200, rng)
        assert value >= k_min - 1e-9
