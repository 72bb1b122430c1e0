"""Model-space contracts: metric axioms, geodesics, log/exp, extendibility."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import barylab as bl
from barylab.errors import (
    AntipodalPoints,
    CutLocus,
    GridMismatch,
    NotPositiveDefinite,
    OutOfDomain,
    SpaceMismatch,
)
from barylab.families import gaussian_quantile_grid
from barylab.spaces import componentwise_inf

from conftest import make_space, probe_point, separated_points


class TestMetricAxioms:
    def test_axioms_on_random_triples(self, any_space, rng):
        space = any_space
        for _ in range(1000):
            x, y, z = (probe_point(space, rng) for _ in range(3))
            dxy = space.distance(x, y)
            assert dxy >= 0.0
            assert space.distance(x, x) <= 1e-12
            assert abs(dxy - space.distance(y, x)) <= 1e-12 * max(1.0, dxy)
            assert space.distance(x, z) <= dxy + space.distance(y, z) + 1e-9

    def test_euclidean_pythagoras(self):
        assert bl.Euclidean(2).distance(np.zeros(2), np.array([3.0, 4.0])) == 5.0

    def test_quantile_point_mass_distance(self):
        space = bl.QuantileSpace(2)
        assert space.distance(np.zeros(2), np.full(2, 2.0)) == pytest.approx(2.0)

    def test_gaussian_one_dim_example(self):
        space = bl.BuresWasserstein(1)
        a = bl.GaussianPoint([0.0], [[1.0]])
        b = bl.GaussianPoint([0.0], [[4.0]])
        assert space.distance(a, b) == pytest.approx(1.0, abs=1e-12)


class TestGeodesics:
    def test_endpoints(self, any_space, rng):
        for _ in range(10):
            x, y = separated_points(any_space, rng, 2)
            assert any_space.distance(any_space.geodesic_point(x, y, 0.0), x) <= 1e-9
            assert any_space.distance(any_space.geodesic_point(x, y, 1.0), y) <= 1e-9

    def test_constant_speed_on_grid(self, any_space, rng):
        grid = np.linspace(0.0, 1.0, 10)
        for _ in range(20):
            x, y = separated_points(any_space, rng, 2)
            length = any_space.distance(x, y)
            pts = [any_space.geodesic_point(x, y, t) for t in grid]
            for (s, ps), (t, pt) in itertools.combinations(zip(grid, pts), 2):
                assert any_space.distance(ps, pt) == pytest.approx(
                    (t - s) * length, abs=1e-9
                )

    def test_euclidean_interpolation(self):
        point = bl.Euclidean(2).geodesic_point(np.zeros(2), np.array([2.0, 0.0]), 0.25)
        assert np.allclose(point, [0.5, 0.0])

    def test_gaussian_variance_interpolation(self):
        space = bl.BuresWasserstein(1)
        mid = space.geodesic_point(
            bl.GaussianPoint([0.0], [[1.0]]), bl.GaussianPoint([0.0], [[9.0]]), 0.5
        )
        assert mid.cov[0, 0] == pytest.approx(4.0, abs=1e-12)

    def test_quantile_geodesic_stays_sorted(self, rng):
        space = bl.QuantileSpace(32)
        x = np.sort(rng.standard_normal(32))
        y = np.sort(rng.standard_normal(32))
        for t in np.linspace(0, 1, 7):
            assert np.all(np.diff(space.geodesic_point(x, y, t)) >= 0)

    def test_sphere_antipodal_rejected(self):
        space = bl.Sphere(2)
        p = np.array([0.0, 0.0, 1.0])
        with pytest.raises(AntipodalPoints):
            space.geodesic_point(p, -p, 0.5)


class TestLogExp:
    def test_log_magnitude_is_distance(self, any_space, rng):
        for _ in range(50):
            p, x = separated_points(any_space, rng, 2)
            v = any_space.log(p, x)
            assert any_space.tangent_norm(p, v) == pytest.approx(
                any_space.distance(p, x), abs=1e-12
            )

    def test_log_at_base_is_tip(self, any_space, rng):
        p = probe_point(any_space, rng)
        v = any_space.log(p, p)
        assert any_space.tangent_norm(p, v) == 0.0
        assert any_space.distance(any_space.exp(p, v), p) <= 1e-12

    def test_exp_log_round_trip(self, any_space, rng):
        for _ in range(100):
            p, x = separated_points(any_space, rng, 2)
            back = any_space.exp(p, any_space.log(p, x))
            assert any_space.distance(back, x) <= 1e-9

    def test_exp_magnitude_is_distance(self, any_space, rng):
        p = probe_point(any_space, rng)
        v = any_space.random_tangent(p, rng)
        norm = any_space.tangent_norm(p, v)
        scaled = (0.37 / norm) * v
        try:
            q = any_space.exp(p, scaled)
        except OutOfDomain:
            return  # quantile cone boundary: nothing to check
        assert any_space.distance(p, q) == pytest.approx(0.37, abs=1e-9)

    def test_sphere_round_trips_large_sample(self, rng):
        space = bl.Sphere(2)
        worst = 0.0
        for _ in range(1000):
            p, x = separated_points(space, rng, 2, min_sep=1e-3)
            if space.distance(p, x) > math.pi - 0.1:
                continue
            back = space.exp(p, space.log(p, x))
            worst = max(worst, space.distance(back, x))
        assert worst <= 1e-9

    def test_sphere_log_example(self):
        space = bl.Sphere(2)
        p = np.array([0.0, 0.0, 1.0])
        x = np.array([1.0, 0.0, 0.0])
        v = space.log(p, x)
        magnitude = space.tangent_norm(p, v)
        assert magnitude == pytest.approx(math.pi / 2, abs=1e-12)
        assert np.allclose(v / magnitude, [1.0, 0.0, 0.0], atol=1e-12)

    def test_sphere_cut_locus(self):
        space = bl.Sphere(2)
        p = np.array([0.0, 0.0, 1.0])
        with pytest.raises(CutLocus):
            space.log(p, -p)

    def test_sphere_exp_domain(self):
        space = bl.Sphere(2)
        p = np.array([0.0, 0.0, 1.0])
        with pytest.raises(OutOfDomain):
            space.exp(p, np.array([math.pi, 0.0, 0.0]))

    def test_euclidean_exp_example(self):
        space = bl.Euclidean(2)
        assert np.allclose(
            space.exp(np.array([1.0, 1.0]), np.array([2.0, 0.0])), [3.0, 1.0]
        )

    def test_gaussian_log_magnitude_matches_w2(self, rng):
        space = bl.BuresWasserstein(3)
        for _ in range(50):
            p, x = (space.random_point(rng) for _ in range(2))
            assert space.tangent_norm(p, space.log(p, x)) == pytest.approx(
                space.distance(p, x), abs=1e-9
            )

    def test_gaussian_exp_domain(self):
        space = bl.BuresWasserstein(2)
        p = bl.GaussianPoint(np.zeros(2), np.eye(2))
        payload = np.zeros((3, 2))
        payload[1:] = -2.0 * np.eye(2)  # I + L has eigenvalue -1
        with pytest.raises(OutOfDomain):
            space.exp(p, payload)

    def test_quantile_exp_leaves_cone(self):
        space = bl.QuantileSpace(3)
        p = np.array([0.0, 1.0, 2.0])
        with pytest.raises(OutOfDomain):
            space.exp(p, np.array([0.0, 5.0, 0.0]))


class TestExtendibility:
    def test_euclidean_lines_extend_forever(self, rng):
        space = bl.Euclidean(3)
        x, y = separated_points(space, rng, 2)
        ext = space.max_extendibility(x, y)
        assert math.isinf(ext.lambda_in) and math.isinf(ext.lambda_out)

    def test_hyperbolic_extends_forever(self, rng):
        space = bl.Hyperboloid(2)
        x, y = separated_points(space, rng, 2)
        ext = space.max_extendibility(x, y)
        assert math.isinf(ext.lambda_in) and math.isinf(ext.lambda_out)

    def test_sphere_symmetric_budget(self):
        space = bl.Sphere(2)
        p = np.array([0.0, 0.0, 1.0])
        q = space.exp(p, np.array([math.pi / 8, 0.0, 0.0]))
        ext = space.max_extendibility(p, q)
        assert ext.lambda_in == pytest.approx(3.5, abs=1e-9)
        assert ext.lambda_out == pytest.approx(3.5, abs=1e-9)

    def test_sphere_extension_is_minimizing(self, rng):
        """Oracle: the extended arc realizes its length as a distance.

        Probed at 95% of the reported budget; at the exact budget the
        endpoints are antipodal, where chordal evaluation loses precision.
        """
        space = bl.Sphere(2)
        for _ in range(20):
            p, q = separated_points(space, rng, 2)
            length = space.distance(p, q)
            ext = space.max_extendibility(p, q)
            payload = space.log(p, q)
            lam_in = 0.95 * ext.lambda_in
            lam_out = 0.95 * ext.lambda_out
            total = (lam_in + 1.0 + lam_out) * length
            assert total < math.pi
            start = space.exp(p, -lam_in * payload)
            end = space.exp(p, (1.0 + lam_out) * payload)
            assert space.distance(start, end) == pytest.approx(total, abs=1e-9)

    def test_gaussian_example_bounds(self):
        space = bl.BuresWasserstein(1)
        a = bl.GaussianPoint([0.0], [[1.0]])
        b = bl.GaussianPoint([0.0], [[4.0]])
        ext = space.max_extendibility(a, b)
        assert ext.lambda_in == pytest.approx(1.0, abs=1e-12)
        assert math.isinf(ext.lambda_out)
        assert ext.open_in and not ext.open_out

    def test_gaussian_supremum_is_open(self):
        """Inside the supremum the interpolated map stays PD, at it it fails."""
        space = bl.BuresWasserstein(1)
        a = bl.GaussianPoint([0.0], [[1.0]])
        b = bl.GaussianPoint([0.0], [[4.0]])
        inside = space.geodesic_point(a, b, -0.99)
        assert inside.cov[0, 0] > 0
        with pytest.raises(OutOfDomain):
            space.geodesic_point(a, b, -1.01)

    def test_quantile_monotone_budget(self):
        space = bl.QuantileSpace(2)
        p = np.array([0.0, 1.0])
        x = np.array([0.0, 2.0])
        ext = space.max_extendibility(p, x)
        assert ext.lambda_in == pytest.approx(1.0, abs=1e-12)
        assert math.isinf(ext.lambda_out)

    def test_quantile_extension_past_budget_leaves_cone(self):
        """Within the monotone budget the extension is a grid, past it exp fails."""
        space = bl.QuantileSpace(2)
        p = np.array([0.0, 1.0])
        x = np.array([0.0, 2.0])
        space.check_point(space.geodesic_point(p, x, -0.99))
        with pytest.raises(OutOfDomain):
            space.geodesic_point(p, x, -1.5)


def reference_extendibility(space, x, y) -> bl.Extendibility:
    """The per-pair formulas that ``extendibility_batch`` replaced."""
    if space.tag == "sphere":
        length = space.distance(x, y)
        if length < 1e-14:
            return bl.Extendibility(math.inf, math.inf)
        half = (math.pi / length - 1.0) / 2.0
        return bl.Extendibility(half, half)
    if space.tag == "quantile":
        dx, dy = np.diff(x), np.diff(y)
        slope = dy - dx
        t_max, t_min = math.inf, -math.inf
        if np.any(slope < 0):
            t_max = float(np.min(dx[slope < 0] / -slope[slope < 0]))
        if np.any(slope > 0):
            t_min = float(np.max(-dx[slope > 0] / slope[slope > 0]))
        lam_out = t_max - 1.0 if math.isfinite(t_max) else math.inf
        lam_in = -t_min if math.isfinite(t_min) else math.inf
        return bl.Extendibility(max(lam_in, 0.0), max(lam_out, 0.0))
    eig = np.linalg.eigvalsh(space.transport_map(x, y))
    a_min, a_max = float(eig[0]), float(eig[-1])
    open_out, open_in = a_min < 1.0 - 1e-15, a_max > 1.0 + 1e-15
    lam_out = a_min / (1.0 - a_min) if open_out else math.inf
    lam_in = 1.0 / (a_max - 1.0) if open_in else math.inf
    return bl.Extendibility(lam_in, lam_out, open_in, open_out)


class TestExtendibilityBatch:
    @pytest.mark.parametrize("tag", ["sphere", "quantile", "gaussian"])
    def test_rows_equal_the_per_pair_formula_bit_for_bit(self, tag, rng):
        space = make_space(tag)
        for _ in range(10):
            p = probe_point(space, rng)
            xs = [p] + [probe_point(space, rng) for _ in range(12)]
            ext = space.extendibility_batch(p, space.stack(xs))
            open_in, open_out = (np.broadcast_to(f, len(xs)) for f in (ext.open_in, ext.open_out))
            for i, x in enumerate(xs):
                ref = reference_extendibility(space, p, x)
                row = (ext.lambda_in[i], ext.lambda_out[i], open_in[i], open_out[i])
                assert row == (ref.lambda_in, ref.lambda_out, ref.open_in, ref.open_out)

    def test_componentwise_inf_keeps_the_open_flag_of_the_minimum(self):
        ext = bl.Extendibility(
            np.array([2.0, 1.0, 1.0]), np.array([3.0, 5.0, 3.0]),
            np.array([True, False, True]), np.array([False, True, True]),
        )
        assert componentwise_inf(ext) == bl.Extendibility(1.0, 3.0, True, True)
        with pytest.raises(ValueError):
            componentwise_inf(bl.Extendibility(np.empty(0), np.empty(0)))


class TestValidationAndSerialization:
    def test_check_point_rejects_bad_points(self):
        with pytest.raises(ValueError):
            bl.Sphere(2).check_point(np.array([1.0, 1.0, 1.0]))
        with pytest.raises(ValueError):
            bl.Hyperboloid(2).check_point(np.array([0.5, 0.0, 0.0]))
        with pytest.raises(ValueError):
            bl.QuantileSpace(3).check_point(np.array([1.0, 0.0, 2.0]))
        with pytest.raises(NotPositiveDefinite):
            bl.GaussianPoint([0.0], [[-1.0]])
        with pytest.raises(NotPositiveDefinite):
            bl.GaussianPoint([0.0, 0.0], [[1.0, 0.5], [0.4, 1.0]])

    def test_payload_round_trip(self, any_space, rng):
        x = probe_point(any_space, rng)
        payload = any_space.point_payload(x)
        space2, back = bl.point_from_payload(payload)
        assert space2.tag == any_space.tag
        assert any_space.distance(x, back) <= 1e-12

    def test_unknown_tag_rejected(self):
        with pytest.raises(ValueError):
            bl.point_from_payload({"space": "torus", "coords": [0.0]})

    def test_quantile_discretization_is_monotone(self):
        space = bl.QuantileSpace(100)
        grid = gaussian_quantile_grid(space, 0.3, 1.7)
        assert np.all(np.diff(grid) > 0)


class TestCrossSpaceOracles:
    def test_quantile_distance_is_w2_brute_force(self, rng):
        """Brute-force assignment over all permutations equals the grid metric."""
        space = bl.QuantileSpace(4)
        for _ in range(10):
            x = np.sort(rng.standard_normal(4))
            y = np.sort(rng.standard_normal(4))
            best = min(
                math.sqrt(sum((x[i] - y[s[i]]) ** 2 for i in range(4)) / 4.0)
                for s in itertools.permutations(range(4))
            )
            assert space.distance(x, y) == pytest.approx(best, abs=1e-12)

    def test_gaussian_matches_quantile_discretization(self, rng):
        """1-D W2 between Gaussians against their quantile discretizations."""
        g = bl.BuresWasserstein(1)
        q = bl.QuantileSpace(10_000)
        for _ in range(5):
            m1, s1 = rng.normal(), rng.uniform(0.5, 2.0)
            m2, s2 = rng.normal(), rng.uniform(0.5, 2.0)
            w2 = g.distance(
                bl.GaussianPoint([m1], [[s1**2]]), bl.GaussianPoint([m2], [[s2**2]])
            )
            quantized = q.distance(
                gaussian_quantile_grid(q, m1, s1), gaussian_quantile_grid(q, m2, s2)
            )
            assert w2 == pytest.approx(quantized, abs=1e-3)


def short_range_pair(tag, seed, exponent):
    """(space, p, x) with x about 10**exponent from p; diagonal Gaussians,
    whose Bures distance has a closed form."""
    space = make_space(tag)
    rng = np.random.default_rng(seed)
    scale = 10.0**exponent
    if tag == "gaussian":
        mean = rng.standard_normal(space.dim)
        var = rng.uniform(0.5, 2.0, space.dim)
        p = bl.GaussianPoint(mean, np.diag(var))
        x = bl.GaussianPoint(
            mean + 0.5 * scale * rng.standard_normal(space.dim),
            np.diag(var + scale * rng.standard_normal(space.dim)),
        )
        return space, p, x
    p = probe_point(space, rng)
    v = space.random_tangent(p, rng)
    return space, p, space.exp(p, (scale / space.tangent_norm(p, v)) * v)


def reference_sqdist(space, p, x) -> float:
    """Squared distance by a formula that shares nothing with the kernels."""
    if space.tag == "gaussian":
        c1, c2 = np.diag(p.cov), np.diag(x.cov)
        bures = ((c1 - c2) / (np.sqrt(c1) + np.sqrt(c2))) ** 2
        return math.fsum((p.mean - x.mean) ** 2) + math.fsum(bures)
    if space.tag == "sphere":
        # atan2(|p x x|, p . x), with p x x = p x (x - p) free of cancellation
        return math.atan2(np.linalg.norm(np.cross(p, x - p)), float(p @ x)) ** 2
    if space.tag == "hyperbolic":
        # Beltrami-Klein model, k = x[1:] / x[0]: tanh d = sqrt(|k_x - k_p|^2
        # - (k_p ^ (k_x - k_p))^2) / (1 - k_p . k_x)
        d = x - p
        a = p[1:] / p[0]
        delta = (d[1:] * p[0] - p[1:] * d[0]) / (x[0] * p[0])
        wedge = a[0] * delta[1] - a[1] * delta[0]
        den = (p[0] ** 2 - p[1:] @ p[1:]) / p[0] ** 2 - a @ delta
        return math.atanh(math.sqrt(delta @ delta - wedge**2) / den) ** 2
    # Euclidean and quantile: plain differences
    return math.fsum((x - p) ** 2) / (len(p) if space.tag == "quantile" else 1)


ALL_TAGS = ["euclidean", "sphere", "hyperbolic", "quantile", "gaussian"]


class TestBatchedKernelsAtShortRange:
    @pytest.mark.parametrize("tag", ALL_TAGS)
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        exponent=st.floats(min_value=-12.0, max_value=-8.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_sqdist_batch_matches_scalar_distance(self, tag, seed, exponent):
        """sqdist_batch and the scalar distance, its batch of one, agree with
        each other exactly and with an independent reference to 1e-12."""
        space, p, x = short_range_pair(tag, seed, exponent)
        reference = reference_sqdist(space, p, x)
        batched = space.sqdist_batch(p, space.stack([x, p]))
        assert reference > 0.0
        assert abs(batched[0] - reference) <= 1e-12 * reference
        assert batched[1] == 0.0
        # the scalar distance is the same kernel on a batch of one
        assert space.distance(p, x) == math.sqrt(batched[0])

    @pytest.mark.parametrize("tag", ALL_TAGS)
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        exponent=st.floats(min_value=-12.0, max_value=-2.0),
    )
    @settings(max_examples=50, deadline=None)
    def test_sqdist_batch_is_symmetric(self, tag, seed, exponent):
        space, p, x = short_range_pair(tag, seed, exponent)
        far = probe_point(space, np.random.default_rng([seed, 1]))
        for y in (x, far):
            there = space.sqdist_batch(p, space.stack([y]))[0]
            back = space.sqdist_batch(y, space.stack([p]))[0]
            assert abs(there - back) <= 1e-12 * max(there, back)


class TestBatchedKernels:
    def test_log_batch_row_at_base_is_exact_tip(self, any_space, rng):
        space = any_space
        for _ in range(20):
            p, x = separated_points(space, rng, 2)
            payloads, mags = space.log_batch(p, space.stack([p, x]))
            assert np.all(payloads[0] == 0.0) and mags[0] == 0.0
            assert mags[1] > 0.0

    def test_tangent_inner_broadcasts_over_leading_axes(self, any_space, rng):
        space = any_space
        p = probe_point(space, rng)
        us, vs = (
            np.stack([space.random_tangent(p, rng) for _ in range(6)]).reshape(
                (2, 3) + np.shape(space.random_tangent(p, rng))
            )
            for _ in range(2)
        )
        batched = space.tangent_inner(p, us, vs)
        assert batched.shape == (2, 3)
        for i, j in itertools.product(range(2), range(3)):
            assert batched[i, j] == pytest.approx(
                float(space.tangent_inner(p, us[i, j], vs[i, j])), rel=1e-14, abs=1e-14
            )


def extendibility_arrays(ext: bl.Extendibility, shape) -> np.ndarray:
    """The four fields of an array-valued extendibility of ``shape``, stacked
    along axis 0; the open flags may be scalars that broadcast to it."""
    assert np.shape(ext.lambda_in) == np.shape(ext.lambda_out) == shape
    fields = (ext.lambda_in, ext.lambda_out, ext.open_in, ext.open_out)
    return np.stack([np.broadcast_to(np.asarray(f, float), shape) for f in fields])


class TestBroadcastContract:
    """Every space's kernels take a base with leading axes, broadcast against
    the batch as ``p[..., None]``: a stack of m bases gives (m, n) results
    whose row k is the call at base k alone, bit for bit."""

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_stacked_base_rows_equal_single_base_calls(self, any_space, m, rng):
        space = any_space
        bases = [probe_point(space, rng) for _ in range(m)]
        batch = space.stack(bases[:1] + [probe_point(space, rng) for _ in range(7)])
        stacked = space.stack(bases)
        sq = space.sqdist_batch(stacked, batch)
        payloads, mags = space.log_batch(stacked, batch)
        ext = extendibility_arrays(space.extendibility_batch(stacked, batch), (m, 8))
        assert sq.shape == mags.shape == (m, 8)
        assert payloads.shape == (m, 8) + space.point_shape
        for k, p in enumerate(bases):
            one_payloads, one_mags = space.log_batch(p, batch)
            assert np.array_equal(sq[k], space.sqdist_batch(p, batch))
            assert np.array_equal(payloads[k], one_payloads)
            assert np.array_equal(mags[k], one_mags)
            one_ext = extendibility_arrays(space.extendibility_batch(p, batch), (8,))
            assert np.array_equal(ext[:, k], one_ext)
        assert np.all(payloads[0, 0] == 0.0) and sq[0, 0] == 0.0


class TestTangentMachinery:
    def test_exp_of_a_stack_is_exp_row_by_row(self, any_space, rng):
        """exp batches over leading axes: on a (k,) + payload stack at one
        point (a ``GaussianPoint`` included) it gives the row-by-row maps bit
        for bit, as sampling and the probes rely on."""
        space = any_space
        p = probe_point(space, rng)
        payloads, _ = space.log_batch(p, space.stack([probe_point(space, rng) for _ in range(6)]))
        payloads *= np.linspace(0.1, 0.6, 6).reshape((6,) + (1,) * len(space.point_shape))
        stacked = space.exp(p, payloads)
        assert np.array_equal(stacked, space.stack([space.exp(p, v) for v in payloads]))

    def test_quantile_exp_sorts_and_scales_each_row_of_a_stack(self):
        space = bl.QuantileSpace(4)
        out = space.exp(np.arange(4.0), np.array([[0.0] * 4, [-5.0] * 4]))
        assert np.array_equal(out, [[0.0, 1.0, 2.0, 3.0], [-5.0, -4.0, -3.0, -2.0]])

    @pytest.mark.parametrize("make", [bl.Sphere, bl.Hyperboloid])
    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_tangent_basis_is_orthonormal_and_tangent(self, make, dim, rng):
        """``dim`` rows, orthonormal and tangent under ``tangent_inner``, to
        1e-12 scaled by x0^2 as the hyperboloid's own point check is: the
        Minkowski form of a point far out rounds to that size."""
        space = make(dim)
        for _ in range(20):
            p = space.random_point(rng)
            basis = space.tangent_basis(p)
            tol = 1e-12 * max(1.0, p[0] ** 2)
            assert basis.shape == (dim, dim + 1)
            gram = space.tangent_inner(p, basis[:, None], basis[None])
            assert np.max(np.abs(gram - np.eye(dim))) <= tol
            assert np.max(np.abs(space.tangent_inner(p, basis, p))) <= tol

    def test_gaussian_has_no_coordinate_tangent_basis(self, rng):
        """Its tangent dimension is not ``dim``, so the base basis would be
        short; the space refuses rather than return a partial basis."""
        space = bl.BuresWasserstein(3)
        with pytest.raises(NotImplementedError):
            space.tangent_basis(space.random_point(rng))

    @pytest.mark.parametrize("dim", [2, 3, 5])
    def test_gaussian_exp_and_inner_take_stacked_rows(self, dim, rng):
        """At (k, d+1, d) base rows matched row for row with k payloads, exp
        and tangent_inner give each row's map and inner product at its own
        ``GaussianPoint`` bit for bit, as stacked descent relies on."""
        space = bl.BuresWasserstein(dim)
        rows = space.stack([space.random_point(rng) for _ in range(5)])
        u = np.stack([0.3 * space.random_tangent(p, rng) for p in space.unstack(rows)])
        v = np.stack([space.random_tangent(p, rng) for p in space.unstack(rows)])
        moved = space.exp(rows, u)
        inner = space.tangent_inner(rows, u, v)
        for i, p in enumerate(space.unstack(rows)):
            assert np.array_equal(moved[i], space.stack([space.exp(p, u[i])])[0])
            assert inner[i] == space.tangent_inner(p, u[i], v[i])

    @pytest.mark.parametrize("dim", [1, 2, 3, 5])
    def test_gaussian_tangent_mean_is_the_mean_log(self, dim, rng):
        """The sandwich form of the Gaussian tangent mean gives, to rounding,
        the weighted mean of the log maps and the weighted squared distances
        that the base method forms from ``log_batch``."""
        space = bl.BuresWasserstein(dim)
        base = space.stack([space.random_point(rng) for _ in range(3)])
        batch = np.stack([space.stack([space.random_point(rng) for _ in range(7)]) for _ in base])
        weights = rng.dirichlet(np.ones(7), size=3)
        grad, objective, _ = space.tangent_mean(base, batch, weights)
        for t, p in enumerate(space.unstack(base)):
            logs, mags = space.log_batch(p, batch[t])
            assert np.allclose(grad[t], np.tensordot(weights[t], logs, 1), rtol=0, atol=1e-12)
            assert objective[t] == pytest.approx(weights[t] @ mags**2, rel=1e-12)

    def test_gaussian_random_tangent_draws_mean_then_symmetric_map(self, rng):
        """The base draw, the tangent part of one normal payload, is the
        payload of d mean normals and then a symmetrised d x d normal block."""
        space = bl.BuresWasserstein(3)
        p = space.random_point(rng)
        twin = np.random.default_rng(17)
        v = space.random_tangent(p, np.random.default_rng(17))
        mean = twin.standard_normal(3)
        lin = twin.standard_normal((3, 3))
        assert np.array_equal(v, np.concatenate((mean[None], 0.5 * (lin + lin.T))))


class TestStackedForm:
    def test_stack_is_one_array_of_point_shape(self, any_space, rng):
        """A stacked batch is one float array of shape (n,) + point_shape in
        every space, and it unstacks to the same points bit for bit."""
        space = any_space
        points = [probe_point(space, rng) for _ in range(5)]
        batch = space.stack(points)
        assert type(batch) is np.ndarray and batch.dtype == float
        assert batch.shape == (5,) + space.point_shape
        assert space.point_floats == math.prod(space.point_shape)
        assert space.stack(batch) is batch
        for point, row in zip(points, space.unstack(batch)):
            if space.tag == "gaussian":
                assert np.array_equal(point.mean, row.mean)
                assert np.array_equal(point.cov, row.cov)
            else:
                assert np.array_equal(point, row)
        assert np.array_equal(space.stack(space.unstack(batch)), batch)

    def test_wrong_shape_is_refused(self, any_space, rng):
        """A batch whose points are not of point_shape raises ValueError
        (GridMismatch on quantile grids), and SpaceMismatch as a support."""
        space = any_space
        batch = space.stack([probe_point(space, rng) for _ in range(4)])
        error, mismatch = (
            (GridMismatch, GridMismatch) if space.tag == "quantile"
            else (ValueError, SpaceMismatch)
        )
        grown = np.zeros((4,) + tuple(k + 1 for k in space.point_shape))
        for wrong in (grown, batch[:, :-1], np.stack([batch, batch])):
            with pytest.raises(error):
                space.stack(wrong)
            with pytest.raises(mismatch):
                bl.DiscreteDistribution.uniform(space, wrong)

    def test_gaussian_points_share_the_payload_layout(self, rng):
        """Row 0 of a Gaussian point and of its log payload is the mean part,
        so the payloads' mean rows are the batch's mean rows minus the base
        mean, bit for bit."""
        space = bl.BuresWasserstein(3)
        p = space.random_point(rng)
        batch = space.stack([space.random_point(rng) for _ in range(6)])
        payloads, _ = space.log_batch(p, batch)
        assert np.array_equal(payloads[:, 0], batch[:, 0] - p.mean)
        assert np.array_equal(batch[:, 1:], [x.cov for x in space.unstack(batch)])


def broadcast_log(space, p, batch):
    """Log maps of a stacked batch by whole-array broadcasting, the form the
    in-place kernels replaced: their arithmetic reference."""
    p = np.asarray(p, float)[..., None, :]
    v = batch - p
    if space.tag == "sphere":
        v = v - np.einsum("...j,...j->...", v, p)[..., None] * p
        nv = np.linalg.norm(v, axis=-1)
        theta = np.arctan2(nv, np.einsum("...j,...j->...", batch, p))
    else:
        v = v + space.tangent_inner(p, v, p)[..., None] * p
        nv = np.sqrt(np.maximum(space.tangent_inner(p, v, v), 0.0))
        theta = np.arcsinh(nv)
    scale = np.where(nv > 0, theta / np.where(nv == 0, 1.0, nv), 0.0)
    return v * scale[..., None], theta


class TestInPlaceLogKernels:
    @pytest.mark.parametrize("dim", [2, 5])
    @pytest.mark.parametrize("tag", ["sphere", "hyperbolic"])
    def test_equal_the_broadcast_formula(self, tag, dim):
        """The in-place log maps and distances of a stacked batch, a point
        at its base included, equal the broadcast formula bit for bit (the
        sphere sums its squared norms in np.linalg.norm's order, which holds
        for fewer than 8 coordinates)."""
        space = bl.Sphere(dim) if tag == "sphere" else bl.Hyperboloid(dim)
        rng = np.random.default_rng(dim)
        bases = np.stack([probe_point(space, rng) for _ in range(7)])
        batch = np.stack([
            space.stack([base] + [probe_point(space, rng) for _ in range(9)]) for base in bases
        ])
        for p, x in ((bases, batch), (bases[0], batch[0])):
            payloads, theta = space.log_batch(p, x)
            ref_payloads, ref_theta = broadcast_log(space, p, x)
            assert np.array_equal(payloads, ref_payloads)
            assert np.array_equal(theta, ref_theta)
            assert np.array_equal(space.sqdist_batch(p, x), ref_theta**2)
        assert np.all(payloads[0] == 0.0)
