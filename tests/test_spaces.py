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
    NotPositiveDefinite,
    OutOfDomain,
    SpaceMismatch,
)
from barylab.families import FAMILY_KINDS
from barylab.spaces import SPACE_KINDS

from conftest import gaussian, make_space, probe_point, separated_points
from oracles import gaussian_quantile_grid


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
        a = gaussian([0.0], [[1.0]])
        b = gaussian([0.0], [[4.0]])
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
        mid = space.geodesic_point(gaussian([0.0], [[1.0]]), gaussian([0.0], [[9.0]]), 0.5)
        assert mid[1, 0] == pytest.approx(4.0, abs=1e-12)

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

    @pytest.mark.parametrize("dim", [2, 3])
    def test_hyperboloid_round_trip_far_from_the_origin(self, dim, rng):
        """exp at the origin lands on the sheet by the spatial lift, so log
        recovers tangents up to |v| = 100 to 1e-13 relative, where a radial
        rescale loses eps x0^2 and, from |v| near 20, every digit."""
        space = bl.Hyperboloid(dim)
        o = space.origin()
        for r in (1.0, 5.0, 10.0, 15.0, 20.0, 30.0, 50.0, 100.0):
            v = space.random_tangent(o, rng)
            v *= r / space.tangent_norm(o, v)
            back = space.log_batch(o, space.exp(o, v)[None])[0][0]
            assert np.linalg.norm(back - v) <= 1e-13 * r

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
        p = gaussian(np.zeros(2), np.eye(2))
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
        a = gaussian([0.0], [[1.0]])
        b = gaussian([0.0], [[4.0]])
        ext = space.max_extendibility(a, b)
        assert ext.lambda_in == pytest.approx(1.0, abs=1e-12)
        assert math.isinf(ext.lambda_out)

    def test_gaussian_supremum_is_open(self):
        """Inside the supremum the interpolated map stays PD, at it it fails."""
        space = bl.BuresWasserstein(1)
        a = gaussian([0.0], [[1.0]])
        b = gaussian([0.0], [[4.0]])
        inside = space.geodesic_point(a, b, -0.99)
        assert inside[1, 0] > 0
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
    lam_out = a_min / (1.0 - a_min) if a_min < 1.0 - 1e-15 else math.inf
    lam_in = 1.0 / (a_max - 1.0) if a_max > 1.0 + 1e-15 else math.inf
    return bl.Extendibility(lam_in, lam_out)


class TestExtendibilityBatch:
    @pytest.mark.parametrize("tag", ["sphere", "quantile", "gaussian"])
    def test_rows_equal_the_per_pair_formula_bit_for_bit(self, tag, rng):
        space = make_space(tag)
        for _ in range(10):
            p = probe_point(space, rng)
            xs = [p] + [probe_point(space, rng) for _ in range(12)]
            ext = space.extendibility_batch(p, space.stack(xs))
            for i, x in enumerate(xs):
                ref = reference_extendibility(space, p, x)
                assert (ext.lambda_in[i], ext.lambda_out[i]) == (ref.lambda_in, ref.lambda_out)

    @pytest.mark.parametrize("tag", sorted(SPACE_KINDS))
    def test_max_extendibility_of_a_stack_is_the_minimum_over_its_points(self, tag, rng):
        space = make_space(tag)
        p = probe_point(space, rng)
        ys = space.stack([p] + [probe_point(space, rng) for _ in range(8)])
        each = [space.max_extendibility(p, y) for y in ys]
        ext = space.max_extendibility(p, ys)
        assert ext == bl.Extendibility(min(e.lambda_in for e in each),
                                       min(e.lambda_out for e in each))
        assert type(ext.lambda_in) is float and type(ext.lambda_out) is float
        assert space.max_extendibility(p, ys[1]) == space.max_extendibility(p, ys[1:2])
        with pytest.raises(ValueError, match="empty extendibility batch"):
            space.max_extendibility(p, ys[:0])


class TestValidationAndSerialization:
    def test_check_point_rejects_bad_points(self):
        with pytest.raises(ValueError):
            bl.Sphere(2).check_point(np.array([1.0, 1.0, 1.0]))
        with pytest.raises(ValueError):
            bl.Hyperboloid(2).check_point(np.array([0.5, 0.0, 0.0]))
        with pytest.raises(ValueError):
            bl.QuantileSpace(3).check_point(np.array([1.0, 0.0, 2.0]))
        with pytest.raises(NotPositiveDefinite):
            bl.BuresWasserstein(1).check_point(gaussian([0.0], [[-1.0]]))
        with pytest.raises(NotPositiveDefinite):
            bl.BuresWasserstein(2).check_point(gaussian([0.0, 0.0], [[1.0, 0.5], [0.4, 1.0]]))
        with pytest.raises(ValueError):
            bl.BuresWasserstein(2).check_point(gaussian([0.0], [[1.0]]))
        with pytest.raises(NotPositiveDefinite):
            bl.point_from_payload({"space": "gaussian", "mean": [0.0], "cov": [[-1.0]]})

    @pytest.mark.parametrize("coords", [[1e200, 1e200, 0.0], [1e200, 0.0, 0.0], [1e200, 1e10, 0.0]],
                             ids=["nan", "minus-inf", "minus-inf-off-axis"])
    def test_hyperboloid_refuses_a_point_whose_minkowski_form_overflows(self, coords):
        """Finite coordinates whose squares overflow make <x, x>_M NaN or
        infinite: the point is refused with ValueError, and no warning (which
        fails the suite) is raised on the way."""
        with pytest.raises(ValueError, match="not on the upper hyperboloid sheet"):
            bl.Hyperboloid(2).check_point(np.array(coords))
        with pytest.raises(ValueError, match="not on the upper hyperboloid sheet"):
            bl.point_from_payload({"space": "hyperbolic", "coords": coords})

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, "shape"])
    @pytest.mark.parametrize("tag", sorted(SPACE_KINDS))
    def test_every_space_refuses_a_non_finite_or_misshaped_point(self, tag, bad, rng):
        """check_point and point_from_payload refuse, with ValueError, a point
        with a NaN or an infinite first or last entry (a Gaussian's mean or
        covariance), or with its last entry (a Gaussian's last row) dropped."""
        space = make_space(tag)
        x = probe_point(space, rng)
        if bad == "shape":
            points = [x[:-1]]
        else:
            points = [np.array(x), np.array(x)]
            points[0].flat[0] = points[1].flat[-1] = bad
        for point in points:
            with pytest.raises(ValueError):
                space.check_point(point)
            with pytest.raises(ValueError):
                space.point_from_payload(space.point_payload(point))

    def test_gaussian_payload_checks_its_covariance_once(self, monkeypatch):
        import barylab.spaces.gaussian as gaussian_module

        calls = []
        check = gaussian_module.spd_check

        def spy(m, what="matrix"):
            calls.append(what)
            return check(m, what)

        monkeypatch.setattr(gaussian_module, "spd_check", spy)
        payload = {"space": "gaussian", "mean": [0.0, 1.0], "cov": [[2.0, 0.5], [0.5, 1.0]]}
        space, x = bl.point_from_payload(payload)
        assert calls == ["covariance"]
        assert np.array_equal(x, gaussian([0.0, 1.0], [[2.0, 0.5], [0.5, 1.0]]))
        with pytest.raises(ValueError, match="inconsistent shapes"):
            space.point_from_payload(dict(payload, cov=[[1.0]]))
        with pytest.raises(ValueError, match=r"row of shape \(4, 3\)"):
            bl.BuresWasserstein(3).point_from_payload(payload)

    def test_payload_round_trip(self, any_space, rng):
        """A point's payload parses back to the same float array, bit for bit."""
        x = probe_point(any_space, rng)
        payload = any_space.point_payload(x)
        space2, back = bl.point_from_payload(payload)
        assert repr(space2) == repr(any_space)
        assert type(back) is np.ndarray and back.dtype == float
        assert np.array_equal(back, x)
        assert np.array_equal(any_space.point_from_payload(payload), x)

    @pytest.mark.parametrize("tag", sorted(SPACE_KINDS))
    def test_malformed_payload_refused_with_its_tag_and_key(self, tag, rng):
        """A payload that is not an object, lacks one of its keys, or holds
        under one something other than a list of numbers of the key's depth
        (a Gaussian's cov is a list of lists) is refused with ValueError by
        ``point_from_payload``, ``payload_space`` and the space's own
        ``point_from_payload``; each message names the tag and the key."""
        space = make_space(tag)
        good = space.point_payload(probe_point(space, rng))
        keys = [key for key in good if key != "space"]
        bad = [(key, {k: v for k, v in good.items() if k != key}) for key in keys]
        for key in keys:
            value = good[key]
            for wrong in (5, "1.0", None, [], [value], [str(c) for c in value],
                          [True] * len(value), [value[0], value[1:]]):
                bad.append((key, dict(good, **{key: wrong})))
        for key, payload in bad:
            refusals = [lambda: bl.point_from_payload(payload),
                        lambda: space.point_from_payload(payload)]
            if key == keys[0]:  # the key that sizes the space
                refusals.append(lambda: type(space).payload_space(payload))
            for refuse in refusals:
                with pytest.raises(ValueError, match=f"{tag} point payload") as err:
                    refuse()
                assert repr(key) in str(err.value)
        for payload in (5, [good], None):
            with pytest.raises(ValueError, match="must be an object"):
                bl.point_from_payload(payload)
            with pytest.raises(ValueError, match=f"a {tag} point payload must be an object"):
                type(space).payload_space(payload)
        if tag in ("sphere", "hyperbolic"):  # one coordinate sizes no space of dim >= 1
            one = dict(good, coords=[1.0])
            for refuse in (lambda: bl.point_from_payload(one),
                           lambda: type(space).payload_space(one)):
                with pytest.raises(ValueError, match=f"'coords' of a {tag} point payload") as err:
                    refuse()
                assert "dim must be" not in str(err.value)

    def test_gaussian_point_refuses_a_scalar_mean(self):
        with pytest.raises(ValueError, match="inconsistent shapes"):
            bl.GaussianPoint(0.0, [[1.0]])

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
            w2 = g.distance(gaussian([m1], [[s1**2]]), gaussian([m2], [[s2**2]]))
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
        p = gaussian(mean, np.diag(var))
        x = gaussian(
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
        c1, c2 = np.diag(p[1:]), np.diag(x[1:])
        bures = ((c1 - c2) / (np.sqrt(c1) + np.sqrt(c2))) ** 2
        return math.fsum((p[0] - x[0]) ** 2) + math.fsum(bures)
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
    """The two factors of an array-valued extendibility of ``shape``, stacked
    along axis 0."""
    assert np.shape(ext.lambda_in) == np.shape(ext.lambda_out) == shape
    return np.stack([ext.lambda_in, ext.lambda_out])


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

    @pytest.mark.parametrize("shape", [(1, 7), (3, 33), (40, 16), (5, 200)])
    @pytest.mark.parametrize("dim", [2, 3, 4])
    @pytest.mark.parametrize("make", [bl.Sphere, bl.Hyperboloid])
    def test_curved_kernel_rows_equal_their_own_calls(self, make, dim, shape):
        """On a (T, n) stack, at ambient dimension 3 to 5, each entry (t, i) of
        tangent_inner, log_batch, sqdist_batch and exp is the call of base t
        and point i alone, bit for bit, wherever the entry sits in the stack,
        so chunking a sweep or a trial table cannot move a result (a BLAS
        product such as (u * v) @ j rounds by position at ambient >= 4)."""
        space = make(dim)
        rng = np.random.default_rng([dim, *shape])
        bases = space.stack([space.random_point(rng) for _ in range(shape[0])])
        batch = np.stack([
            space.stack([p] + [space.random_point(rng) for _ in range(shape[1] - 1)]) for p in bases
        ])
        payloads, theta = space.log_batch(bases, batch)
        sq = space.sqdist_batch(bases, batch)
        others = np.roll(payloads, 1, axis=1)  # tangent at the same base
        inner = space.tangent_inner(bases[:, None], payloads, others)
        moved = space.exp(bases[:, None], 0.5 * payloads)
        for t, i in np.ndindex(shape):
            p, x, u = bases[t], batch[t, i : i + 1], payloads[t, i]
            one_payloads, one_theta = space.log_batch(p, x)
            assert np.array_equal(payloads[t, i], one_payloads[0]) and theta[t, i] == one_theta[0]
            assert sq[t, i] == space.sqdist_batch(p, x)[0]
            assert inner[t, i] == space.tangent_inner(p, u, others[t, i])
            assert np.array_equal(moved[t, i], space.exp(p, 0.5 * u))


class TestTangentMachinery:
    def test_exp_of_a_stack_is_exp_row_by_row(self, any_space, rng):
        """exp batches over leading axes: on a (k,) + payload stack at one
        point it gives the row-by-row maps bit for bit, as sampling and the
        probes rely on."""
        space = any_space
        p = probe_point(space, rng)
        payloads, _ = space.log_batch(p, space.stack([probe_point(space, rng) for _ in range(6)]))
        payloads *= np.linspace(0.1, 0.6, 6).reshape((6,) + (1,) * len(space.point_shape))
        stacked = space.exp(p, payloads)
        assert np.array_equal(stacked, np.stack([space.exp(p, v) for v in payloads]))

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

    @pytest.mark.parametrize("dim", [2, 3, 5])
    def test_gaussian_exp_and_inner_take_stacked_rows(self, dim, rng):
        """At (k, d+1, d) base rows matched row for row with k payloads, exp
        and tangent_inner give each row's map and inner product at that row
        alone bit for bit, as stacked descent relies on."""
        space = bl.BuresWasserstein(dim)
        rows = space.stack([space.random_point(rng) for _ in range(5)])
        u = np.stack([0.3 * space.random_tangent(p, rng) for p in rows])
        v = np.stack([space.random_tangent(p, rng) for p in rows])
        moved = space.exp(rows, u)
        inner = space.tangent_inner(rows, u, v)
        for i, p in enumerate(rows):
            assert np.array_equal(moved[i], space.exp(p, u[i]))
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
        for t, p in enumerate(base):
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
        every space, and its rows are the points bit for bit."""
        space = any_space
        points = [probe_point(space, rng) for _ in range(5)]
        batch = space.stack(points)
        assert type(batch) is np.ndarray and batch.dtype == float
        assert batch.shape == (5,) + space.point_shape
        assert space.point_floats == math.prod(space.point_shape)
        assert space.stack(batch) is batch
        for point, row in zip(points, batch):
            assert np.array_equal(point, row)
        assert np.array_equal(space.stack(list(batch)), batch)

    def test_every_point_is_a_float_array_of_point_shape(self, any_space, rng):
        """One point form in every space: a random point, a family anchor, the
        exp of one payload and a solved barycenter are each one float array
        of ``point_shape``."""
        space = any_space
        family = {
            "euclidean": ("euclidean_gaussian", {"dim": 3}),
            "sphere": ("sphere_cap", {"radius": 0.3}),
            "hyperbolic": ("hyperbolic_gaussian", {"scale": 0.5}),
            "gaussian": ("gaussian_ensemble", {"alpha": 0.8, "beta": 1.6}),
        }.get(space.tag)
        p = probe_point(space, rng)
        points = [space.random_point(rng), space.exp(p, space.log(p, probe_point(space, rng)))]
        points.append(bl.empirical_barycenter(space, [p, points[0], points[1]]).point)
        if family is not None:
            kind, params = family
            points.append(FAMILY_KINDS[kind](**params).anchor)
        for x in points:
            assert type(x) is np.ndarray and x.dtype == float
            assert x.shape == space.point_shape

    def test_wrong_shape_is_refused(self, any_space, rng):
        """A batch whose points are not of point_shape raises ValueError, and
        SpaceMismatch as a support, in every space."""
        space = any_space
        batch = space.stack([probe_point(space, rng) for _ in range(4)])
        grown = np.zeros((4,) + tuple(k + 1 for k in space.point_shape))
        for wrong in (grown, batch[:, :-1], np.stack([batch, batch])):
            with pytest.raises(ValueError):
                space.stack(wrong)
            with pytest.raises(SpaceMismatch):
                bl.DiscreteDistribution(space, wrong)

    def test_gaussian_points_share_the_payload_layout(self, rng):
        """Row 0 of a Gaussian point and of its log payload is the mean part,
        so the payloads' mean rows are the batch's mean rows minus the base
        mean, bit for bit."""
        space = bl.BuresWasserstein(3)
        p = space.random_point(rng)
        batch = space.stack([space.random_point(rng) for _ in range(6)])
        payloads, _ = space.log_batch(p, batch)
        assert np.array_equal(payloads[:, 0], batch[:, 0] - p[0])


def broadcast_log(space, p, batch):
    """Log maps of a stacked batch by whole-array broadcasting, the form the
    in-place kernels replaced: their arithmetic reference."""
    p = np.asarray(p, float)[..., None, :]
    v = batch - p
    v = v - space.kappa * space.tangent_inner(p, v, p)[..., None] * p
    nv = np.sqrt(np.maximum(space.tangent_inner(p, v, v), 0.0))
    if space.tag == "sphere":
        theta = np.arctan2(nv, np.einsum("...j,...j->...", batch, p))
    else:
        theta = np.arcsinh(nv)
    scale = np.where(nv > 0, theta / np.where(nv == 0, 1.0, nv), 0.0)
    return v * scale[..., None], theta


class TestInPlaceLogKernels:
    @pytest.mark.parametrize("dim", [2, 5])
    @pytest.mark.parametrize("tag", ["sphere", "hyperbolic"])
    def test_equal_the_broadcast_formula(self, tag, dim):
        """The in-place log maps and distances of a stacked batch, a point
        at its base included, equal the broadcast formula bit for bit."""
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
