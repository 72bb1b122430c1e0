"""Comparison-geometry primitives: kappa trig, angles, probes, cone metric."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import barylab as bl
from barylab.comparison import comparison_angle_at
from barylab.errors import (
    CutLocus,
    DegenerateTriangle,
    InvalidTriangle,
    PerimeterTooLarge,
)

from conftest import TRUE_KAPPA, make_space, separated_points


class TestKappaTrig:
    def test_s_kappa_examples(self):
        assert bl.s_kappa(1.0, math.pi / 2) == pytest.approx(1.0, abs=1e-15)
        assert bl.s_kappa(0.0, 2.5) == 2.5
        assert bl.s_kappa(-1.0, 1.0) == pytest.approx(1.1752011936438014, abs=1e-12)

    def test_c_kappa_examples(self):
        assert bl.c_kappa(1.0, 0.0) == 1.0
        assert bl.c_kappa(0.0, 7.0) == 1.0
        assert bl.c_kappa(-1.0, 1.0) == pytest.approx(1.5430806348152437, abs=1e-12)

    @given(
        kappa=st.floats(min_value=-4.0, max_value=4.0),
        r=st.floats(min_value=0.0, max_value=6.0),
    )
    @settings(max_examples=300, deadline=None)
    def test_pythagorean_identity(self, kappa, r):
        c = bl.c_kappa(kappa, r)
        s = bl.s_kappa(kappa, r)
        scale = max(1.0, c * c, abs(kappa) * s * s)
        assert abs(c * c + kappa * s * s - 1.0) <= 1e-12 * scale

    def test_flat_limit_of_s_kappa(self):
        for kappa in (1e-6, -1e-6):
            for r in (0.3, 1.0, 2.5):
                assert bl.s_kappa(kappa, r) == pytest.approx(r, abs=1e-4)

    def test_model_diameter(self):
        assert bl.model_diameter(1.0) == pytest.approx(math.pi)
        assert bl.model_diameter(4.0) == pytest.approx(math.pi / 2)
        assert math.isinf(bl.model_diameter(0.0))
        assert math.isinf(bl.model_diameter(-2.0))


class TestComparisonAngle:
    def test_flat_right_isoceles(self):
        sides = bl.TriangleSides(1.0, 1.0, math.sqrt(2.0))
        assert bl.comparison_angle(0.0, sides) == pytest.approx(math.pi / 2, abs=1e-12)

    def test_sphere_octant(self):
        sides = bl.TriangleSides(math.pi / 2, math.pi / 2, math.pi / 2)
        assert bl.comparison_angle(1.0, sides) == pytest.approx(math.pi / 2, abs=1e-12)

    def test_hyperbolic_equilateral(self):
        # independent oracle: hyperbolic law of cosines evaluated directly
        expected = math.acos(
            (math.cosh(1.0) ** 2 - math.cosh(1.0)) / math.sinh(1.0) ** 2
        )
        sides = bl.TriangleSides(1.0, 1.0, 1.0)
        assert bl.comparison_angle(-1.0, sides) == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(0.9187978721780272, abs=1e-9)

    @pytest.mark.parametrize("kappa", [0.0, 1.0, -1.0])
    def test_degenerate_collinear_triangles(self, kappa):
        a, b = 0.5, 0.9
        straight = bl.TriangleSides(a, b, a + b)
        folded = bl.TriangleSides(a, b, abs(a - b))
        assert bl.comparison_angle(kappa, straight) == pytest.approx(math.pi, abs=1e-6)
        assert bl.comparison_angle(kappa, folded) == pytest.approx(0.0, abs=1e-6)

    def test_kappa_limit_matches_flat_angle(self):
        sides = bl.TriangleSides(0.7, 1.1, 0.9)
        flat = bl.comparison_angle(0.0, sides)
        for kappa in (1e-6, -1e-6):
            assert bl.comparison_angle(kappa, sides) == pytest.approx(flat, abs=1e-4)

    def test_zero_adjacent_side_rejected(self):
        with pytest.raises(DegenerateTriangle):
            bl.comparison_angle(0.0, bl.TriangleSides(0.0, 1.0, 1.0))
        with pytest.raises(DegenerateTriangle):
            bl.comparison_angle(0.0, bl.TriangleSides(1.0, 0.0, 1.0))

    def test_perimeter_gate_is_hard(self):
        sides = bl.TriangleSides(2.5, 2.5, 2.2)
        with pytest.raises(PerimeterTooLarge):
            bl.comparison_angle(1.0, sides)
        # fine for flat and negative bounds where the diameter is infinite
        bl.comparison_angle(0.0, sides)
        bl.comparison_angle(-1.0, sides)

    @pytest.mark.parametrize(
        "kappa,sides",
        [
            (0.0, (1.0, 1.0, 5.0)),
            (0.0, (-0.1, 1.0, 1.0)),
            (0.0, (math.nan, 1.0, 1.0)),
            (-1.0, (1.0, 1.0, math.nan)),
            (0.0, (1.0, math.inf, 1.0)),
            # cosh and sinh overflow: the cosine is not finite
            (-1.0, (800.0, 800.0, 1.0)),
        ],
    )
    def test_triangle_inequality_violation_rejected(self, kappa, sides):
        """Sides that no triangle has, or whose cosine is not finite, raise
        rather than give an angle (a NaN cosine once clamped to pi)."""
        with pytest.raises(InvalidTriangle):
            bl.comparison_angle(kappa, bl.TriangleSides(*sides))

    def test_array_sides_give_an_array_of_angles(self):
        sides = bl.TriangleSides(np.array([1.0, 0.5]), 1.0, np.array([math.sqrt(2.0), 0.5]))
        angles = bl.comparison_angle(0.0, sides)
        assert angles.shape == (2,)
        assert angles[0] == pytest.approx(math.pi / 2, abs=1e-12)
        single = bl.comparison_angle(0.0, bl.TriangleSides(0.5, 1.0, 0.5))
        assert isinstance(single, float)
        assert angles[1] == pytest.approx(single, rel=0, abs=1e-15)

    @pytest.mark.parametrize("kappa", [-1.0, 0.0, 1.0])
    def test_short_equilateral_sides_keep_their_digits(self, kappa):
        """An equilateral triangle of side s has cos(gamma) = c(s) / (1 + c(s))
        exactly; the law of cosines lost it to cancellation (pi/2 at kappa = -1
        and s = 1e-8)."""
        sides = np.logspace(-12, 0, 49)
        cos = np.array([bl.c_kappa(kappa, s) for s in sides])
        expected = np.arccos(cos / (1.0 + cos))
        angles = bl.comparison_angle(kappa, bl.TriangleSides(sides, sides, sides))
        np.testing.assert_allclose(angles, expected, rtol=0, atol=1e-14)
        for s, angle in zip(sides, expected):
            assert abs(bl.comparison_angle(kappa, bl.TriangleSides(s, s, s)) - angle) <= 1e-14

    def test_flat_angle_is_scale_invariant(self):
        """At kappa = 0 the sides' products would underflow to 0 / 0."""
        for scale in (1e-170, 5e-324, 1e300, 1.7e308):
            sides = bl.TriangleSides(scale, scale, scale)
            assert bl.comparison_angle(0.0, sides) == pytest.approx(math.pi / 3, rel=1e-15)

    @given(
        kappa=st.sampled_from([-1.0, 0.0, 1.0]),
        sides=st.lists(st.floats(min_value=0.0, max_value=1.7e308), min_size=3, max_size=3),
        batched=st.booleans(),
    )
    @settings(max_examples=300, deadline=None)
    def test_any_side_lengths_give_an_angle_or_a_typed_rejection(self, kappa, sides, batched):
        """Tiny and huge sides included: nothing but the typed errors escapes,
        with scalar sides and with array sides alike."""
        if batched:
            sides = [np.array([side]) for side in sides]
        try:
            angle = bl.comparison_angle(kappa, bl.TriangleSides(*sides))
        except (InvalidTriangle, DegenerateTriangle, PerimeterTooLarge):
            return
        assert np.all((0.0 <= angle) & (angle <= math.pi))

    @pytest.mark.parametrize("tag", ["euclidean", "sphere", "hyperbolic"])
    def test_matching_kappa_reproduces_vertex_angle(self, tag, rng):
        """On the model plane itself the comparison angle is the true angle."""
        space = make_space(tag)
        kappa = TRUE_KAPPA[tag]
        for _ in range(50):
            p, x, y = separated_points(space, rng, 3)
            u = space.log(p, x)
            v = space.log(p, y)
            cos_true = space.tangent_inner(p, u, v) / (
                space.tangent_norm(p, u) * space.tangent_norm(p, v)
            )
            true_angle = math.acos(min(1.0, max(-1.0, cos_true)))
            assert comparison_angle_at(space, kappa, p, x, y) == pytest.approx(
                true_angle, abs=1e-9
            )


class TestQuadruple:
    def test_flat_tripod_is_tight(self):
        space = bl.Euclidean(2)
        p = np.zeros(2)
        pts = [
            np.array([math.cos(a), math.sin(a)])
            for a in (0.0, 2 * math.pi / 3, 4 * math.pi / 3)
        ]
        assert bl.quadruple_defect(space, p, *pts, kappa=0.0) == pytest.approx(
            0.0, abs=1e-12
        )

    def test_sphere_small_circle(self, rng):
        space = bl.Sphere(2)
        pole = np.array([0.0, 0.0, 1.0])
        pts = [
            space.exp(pole, 0.2 * np.array([math.cos(a), math.sin(a), 0.0]))
            for a in (0.3, 2.0, 4.4)
        ]
        assert bl.quadruple_defect(space, pole, *pts, kappa=1.0) >= -1e-12

    @pytest.mark.parametrize("tag", sorted(TRUE_KAPPA))
    def test_random_quadruples_certify_lower_bound(self, tag, rng):
        space = make_space(tag)
        kappa = TRUE_KAPPA[tag]
        for _ in range(150):
            p, x, y, z = separated_points(space, rng, 4)
            assert bl.quadruple_defect(space, p, x, y, z, kappa) >= -1e-9


class TestMonotonicity:
    def test_flat_angles_constant(self, rng):
        space = bl.Euclidean(3)
        p, x, y = separated_points(space, rng, 3)
        report = bl.angle_monotonicity_probe(space, p, x, y, 0.0, [0.25, 0.5, 1.0])
        assert report.max_violation <= 1e-12
        assert np.ptp(report.angles) <= 1e-12

    def test_sphere_example(self):
        space = bl.Sphere(2)
        p = np.array([0.0, 0.0, 1.0])
        x = np.array([1.0, 0.0, 0.0])
        y = np.array([0.0, 1.0, 0.0])
        report = bl.angle_monotonicity_probe(space, p, x, y, 0.0, [0.25, 0.5, 1.0])
        assert report.max_violation <= 1e-9

    @pytest.mark.parametrize("tag", sorted(TRUE_KAPPA))
    def test_random_probes(self, tag, rng):
        space = make_space(tag)
        kappa = TRUE_KAPPA[tag]
        for _ in range(15):
            p, x, y = separated_points(space, rng, 3)
            report = bl.angle_monotonicity_probe(
                space, p, x, y, kappa, [0.25, 0.5, 0.75, 1.0]
            )
            assert report.max_violation <= 1e-9

    def test_grid_validation(self, rng):
        space = bl.Euclidean(2)
        p, x, y = separated_points(space, rng, 3)
        with pytest.raises(ValueError):
            bl.angle_monotonicity_probe(space, p, x, y, 0.0, [0.5, 0.25])
        with pytest.raises(ValueError):
            bl.angle_monotonicity_probe(space, p, x, y, 0.0, [0.0, 0.5])


class TestConeMetric:
    def test_inner_at_base_is_zero(self, any_space, rng):
        p, x = separated_points(any_space, rng, 2)
        assert bl.tangent_inner(any_space, p, p, x) == pytest.approx(0.0, abs=1e-12)

    def test_euclidean_orthogonal(self):
        space = bl.Euclidean(2)
        p = np.zeros(2)
        assert bl.tangent_inner(space, p, np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 0.0

    def test_sphere_axis_example(self):
        space = bl.Sphere(2)
        p = np.array([0.0, 0.0, 1.0])
        x = np.array([1.0, 0.0, 0.0])
        y = np.array([0.0, 1.0, 0.0])
        assert bl.tangent_inner(space, p, x, y) == pytest.approx(0.0, abs=1e-12)
        cone = bl.cone_distance(space, p, x, y)
        assert cone == pytest.approx(math.pi / math.sqrt(2.0), abs=1e-12)
        assert cone >= space.distance(x, y) - 1e-9

    def test_cone_distance_at_base_equals_distance(self, any_space, rng):
        p, x = separated_points(any_space, rng, 2)
        assert bl.cone_distance(any_space, p, p, x) == pytest.approx(
            any_space.distance(p, x), abs=1e-12
        )

    def test_euclidean_cone_is_exact(self, rng):
        space = bl.Euclidean(3)
        for _ in range(20):
            p, x, y = separated_points(space, rng, 3)
            assert bl.cone_distance(space, p, x, y) == pytest.approx(
                space.distance(x, y), abs=1e-12
            )

    @pytest.mark.parametrize(
        "tag,sign", [("sphere", 1), ("quantile", 1), ("gaussian", 1), ("hyperbolic", -1)]
    )
    def test_cone_distance_direction(self, tag, sign, rng):
        """Nonnegative curvature stretches the cone metric, nonpositive shrinks it."""
        space = make_space(tag)
        for _ in range(100):
            p, x, y = separated_points(space, rng, 3)
            gap = bl.cone_distance(space, p, x, y) - space.distance(x, y)
            assert sign * gap >= -1e-9

    def test_cut_locus_rejected(self):
        space = bl.Sphere(2)
        p = np.array([0.0, 0.0, 1.0])
        with pytest.raises(CutLocus):
            bl.tangent_inner(space, p, -p, np.array([1.0, 0.0, 0.0]))


# The scalar compositions the batched probes replaced: one scalar distance or
# log call per side and math.acos per triangle.  They are the references the
# batched probes must match to rounding.


def scalar_angle(kappa, a, b, c):
    """The half-angle form, sin^2(gamma/2) = s(u/2) s(v/2) / (s(a) s(b)), in
    scalar math; the law of cosines loses digits to cancellation on the
    probes' thin triangles."""
    sq = math.sqrt(abs(kappa))

    def s(r):
        if kappa == 0:
            return r
        return (math.sin if kappa > 0 else math.sinh)(r * sq) / sq

    sin_sq = s((c - a + b) / 2) * s((c + a - b) / 2) / (s(a) * s(b))
    return 2.0 * math.asin(math.sqrt(min(1.0, max(0.0, sin_sq))))


def scalar_angle_at(space, kappa, p, x, y):
    return scalar_angle(
        kappa, space.distance(p, x), space.distance(p, y), space.distance(x, y)
    )


def scalar_quadruple_defect(space, p, x, y, z, kappa):
    return 2.0 * math.pi - (
        scalar_angle_at(space, kappa, p, x, y)
        + scalar_angle_at(space, kappa, p, x, z)
        + scalar_angle_at(space, kappa, p, y, z)
    )


def scalar_monotonicity_angles(space, p, x, y, kappa, grid):
    px = [space.geodesic_point(p, x, s) for s in grid]
    py = [space.geodesic_point(p, y, t) for t in grid]
    return np.array([[scalar_angle_at(space, kappa, p, a, b) for b in py] for a in px])


def scalar_cone_distance(space, p, x, y):
    u, v = space.log(p, x), space.log(p, y)
    uu, vv, uv = (float(space.tangent_inner(p, a, b)) for a, b in ((u, u), (v, v), (u, v)))
    return math.sqrt(max(uu + vv - 2.0 * uv, 0.0))


class TestBatchedProbesMatchScalarReference:
    @pytest.mark.parametrize("tag", sorted(TRUE_KAPPA))
    def test_angles_over_a_batch_of_triangles(self, tag, rng):
        space = make_space(tag)
        kappa = TRUE_KAPPA[tag]
        triples = [separated_points(space, rng, 3) for _ in range(30)]
        sides = np.array([
            [space.distance(p, x), space.distance(p, y), space.distance(x, y)]
            for p, x, y in triples
        ])
        angles = bl.comparison_angle(kappa, bl.TriangleSides(*sides.T))
        reference = [scalar_angle(kappa, *row) for row in sides]
        np.testing.assert_allclose(angles, reference, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("tag", sorted(TRUE_KAPPA))
    def test_probes(self, tag, rng):
        space = make_space(tag)
        kappa = TRUE_KAPPA[tag]
        grid = [0.25, 0.5, 0.75, 1.0]
        for _ in range(20):
            p, x, y, z = separated_points(space, rng, 4)
            assert bl.quadruple_defect(space, p, x, y, z, kappa) == pytest.approx(
                scalar_quadruple_defect(space, p, x, y, z, kappa), rel=0, abs=1e-12
            )
            assert comparison_angle_at(space, kappa, p, x, y) == pytest.approx(
                scalar_angle_at(space, kappa, p, x, y), rel=0, abs=1e-12
            )
            np.testing.assert_allclose(
                bl.angle_monotonicity_probe(space, p, x, y, kappa, grid).angles,
                scalar_monotonicity_angles(space, p, x, y, kappa, grid),
                rtol=0, atol=1e-12,
            )
            assert bl.cone_distance(space, p, x, y) == pytest.approx(
                scalar_cone_distance(space, p, x, y), rel=0, abs=1e-12
            )

    def test_quadruple_defect_makes_one_distance_call(self, any_space, rng):
        """The six distinct sides come from one 4 x 4 ``sqdist_batch`` call,
        with the four points as both the base stack and the batch."""
        space = any_space
        p, x, y, z = separated_points(space, rng, 4)
        kernel = space.sqdist_batch
        calls = []

        def spy(base, batch):
            calls.append((len(base), len(batch)))
            return kernel(base, batch)

        space.sqdist_batch = spy
        bl.quadruple_defect(space, p, x, y, z, TRUE_KAPPA[space.tag])
        assert calls == [(4, 4)]
