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

    def test_triangle_inequality_violation_rejected(self):
        with pytest.raises(InvalidTriangle):
            bl.comparison_angle(0.0, bl.TriangleSides(1.0, 1.0, 5.0))
        with pytest.raises(InvalidTriangle):
            bl.TriangleSides(-0.1, 1.0, 1.0)

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
