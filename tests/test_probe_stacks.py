"""The stacking contract of the diagnostic probes, and the sweeps built on it.

Every probe takes one configuration or a (Q,) stack of them; row k of a
stacked call equals the call on configuration k alone, bit for bit.  The
sweeps draw their configurations as a loop of attempts draws them, and
evaluate them a block at a time.
"""

import itertools
import math

import numpy as np
import pytest

import barylab as bl
from barylab import ratelab, sweeps
from barylab.barycenter import barycenter
from barylab.comparison import comparison_angle_at
from barylab.errors import CoincidentPoints, DegenerateTriangle, PerimeterTooLarge
from barylab.families import EuclideanGaussian, GaussianEnsemble, HyperbolicGaussian, SphereCap

from conftest import SPACE_FACTORIES, TRUE_KAPPA, make_space, separated_points, separated_stacks

GRID = [0.25, 0.5, 0.75, 1.0]
FAMILIES = {
    "euclidean": lambda: EuclideanGaussian(dim=3),
    "sphere_cap": lambda: SphereCap(0.3),
    "hyperbolic": lambda: HyperbolicGaussian(0.5),
    "ensemble": lambda: GaussianEnsemble(0.8, 1.6, dim=3),
}


def probe_calls(space, kappa, stacks, dist, b_star):
    """Each probe's call on the (possibly single-point) configurations
    ``stacks``: four points (p, x, y, z) and a target b for the residual."""
    p, x, y, z, b = stacks
    mono = bl.angle_monotonicity_probe(space, p, x, y, kappa, GRID)
    return {
        "quadruple_defect": bl.quadruple_defect(space, p, x, y, z, kappa),
        "comparison_angle_at": comparison_angle_at(space, kappa, p, x, y),
        "monotonicity_angles": mono.angles,
        "max_violation": mono.max_violation,
        "cone_distance": bl.cone_distance(space, p, x, y),
        "hugging_value": bl.hugging_value(space, p, x, y),
        "variance_equality_residual": bl.variance_equality_residual(space, dist, b_star, b),
    }


def reference_separated(space, points, min_sep=sweeps.MIN_SEPARATION):
    """``sweeps.separated`` as it was, one configuration a call, with its
    branch on the sphere's tag."""
    count = len(points)
    batch = space.stack(points)
    dist = np.sqrt(space.sqdist_batch(batch, batch))
    pairs = dist[np.triu_indices(count, 1)]
    if np.min(pairs) < min_sep:
        return False
    if space.tag != "sphere":
        return True
    return bool(np.max(pairs) <= math.pi - min_sep) and not any(
        dist[i, j] + dist[i, k] + dist[j, k] > 2.0 * math.pi - 1e-3
        for i, j, k in itertools.combinations(range(count), 3)
    )


def reference_separated_points(space, rng, count, max_tries=200):
    """The per-attempt draw the curvature sweep made before its rounds."""
    for _ in range(max_tries):
        pts = [space.random_point(rng) for _ in range(count)]
        if sweeps.separated(space, space.stack(pts)[None])[0]:
            return pts
    raise RuntimeError("could not sample separated probe points")


def reference_curvature_rows(space, kappa, quadruples, triples, seed):
    """The curvature sweep as a loop of single-configuration probe calls."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 12]))
    values = {"quadruple_defect": [], "monotonicity_violation": [], "cone_gap": []}
    for _ in range(quadruples):
        p, x, y, z = reference_separated_points(space, rng, 4)
        values["quadruple_defect"].append(bl.quadruple_defect(space, p, x, y, z, kappa))
    for _ in range(triples):
        p, x, y = reference_separated_points(space, rng, 3)
        report = bl.angle_monotonicity_probe(space, p, x, y, kappa, GRID)
        values["monotonicity_violation"].append(report.max_violation)
    for _ in range(triples):
        p, x, y = reference_separated_points(space, rng, 3)
        gap = bl.cone_distance(space, p, x, y) - space.distance(x, y)
        values["cone_gap"].append(-gap if space.curv_upper <= 0 else gap)
    return [(name, i, v) for name, vs in values.items() for i, v in enumerate(vs)]


def reference_hugging_cases(family, n_support, n_cases, seed):
    """The hugging sweep as a loop of attempts, a target at b_star skipped."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 11]))
    space = family.space
    support = family.sample(rng, n_support)
    dist = bl.DiscreteDistribution(space, support)
    b_star = barycenter(dist).point
    cases = []
    while len(cases) < n_cases:
        b = family.sample(rng, 1)[0]
        x = support[int(rng.integers(0, n_support))]
        try:
            k = bl.hugging_value(space, b_star, b, x)
            cases.append((k, bl.variance_equality_residual(space, dist, b_star, b)))
        except CoincidentPoints:
            continue
    return cases


def parity_rejection(monkeypatch):
    """Make ``sweeps.separated`` also reject about half of all configurations,
    by a digit of their first coordinate."""
    original = sweeps.separated

    def picky(space, configs, min_sep=sweeps.MIN_SEPARATION):
        first = np.reshape(configs, (len(configs), -1))[:, 0]
        return original(space, configs, min_sep) & (np.floor(first * 1e6) % 2 == 0)

    monkeypatch.setattr(sweeps, "separated", picky)


class TestProbeStackContract:
    @pytest.mark.parametrize("q", [1, 2, 3])
    @pytest.mark.parametrize("tag", sorted(SPACE_FACTORIES))
    def test_rows_equal_single_configurations(self, tag, q, rng):
        space = make_space(tag)
        kappa = TRUE_KAPPA[tag]
        # b_star, a support of 5 and the q targets, all mutually separated
        b_star, *support = separated_points(space, rng, 6 + q)
        dist = bl.DiscreteDistribution(space, support[:5])
        stacks = separated_stacks(space, rng, q, 4) + [space.stack(support[5:])]
        stacked = probe_calls(space, kappa, stacks, dist, b_star)
        assert stacked["monotonicity_angles"].shape == (q, len(GRID), len(GRID))
        for name, values in stacked.items():
            if name != "monotonicity_angles":
                assert values.shape == (q,), name
        for k in range(q):
            points = [stack[k] for stack in stacks]
            single = probe_calls(space, kappa, points, dist, b_star)
            for name, value in single.items():
                assert np.ndim(value) == (2 if name == "monotonicity_angles" else 0), name
                assert np.array_equal(stacked[name][k], value), name

    @pytest.mark.parametrize("tag", sorted(SPACE_FACTORIES))
    def test_a_point_broadcasts_against_stacks(self, tag, rng):
        """A single point among stacked arguments serves every configuration."""
        space = make_space(tag)
        p, x, y = separated_stacks(space, rng, 3, 3)
        base = p[0]
        np.testing.assert_array_equal(
            bl.hugging_value(space, base, x, y), bl.hugging_value(space, p[[0, 0, 0]], x, y)
        )
        with pytest.raises(ValueError):
            bl.cone_distance(space, p, x[:2], y)

    @pytest.mark.parametrize("q", [1, 2, 3])
    @pytest.mark.parametrize("tag", sorted(SPACE_FACTORIES))
    def test_curvature_blocks_equal_one_block(self, tag, q, monkeypatch):
        space = make_space(tag)
        whole = sweeps.curvature_sweep(space, TRUE_KAPPA[tag], 7, 5, GRID, 3)
        # q quadruples a block, and as many triples as that budget holds
        monkeypatch.setattr(ratelab, "TRIAL_FLOAT_BUDGET", q * 4 * space.point_floats)
        assert sweeps.curvature_sweep(space, TRUE_KAPPA[tag], 7, 5, GRID, 3) == whole

    @pytest.mark.parametrize("q", [1, 2, 3])
    @pytest.mark.parametrize("name", sorted(FAMILIES))
    def test_hugging_blocks_equal_one_block(self, name, q, monkeypatch):
        family = FAMILIES[name]()
        whole = sweeps.hugging_sweep(family, 8, 7, 3)
        monkeypatch.setattr(ratelab, "TRIAL_FLOAT_BUDGET", q * 10 * family.space.point_floats)
        assert sweeps.hugging_sweep(family, 8, 7, 3) == whole

    @pytest.mark.parametrize("tag", sorted(SPACE_FACTORIES))
    def test_rounds_draw_as_a_loop_of_attempts(self, tag, monkeypatch):
        """With about half the draws rejected, the rounds keep the
        configurations a per-attempt loop keeps, and the stacked probes give
        that loop's values."""
        space = make_space(tag)
        parity_rejection(monkeypatch)
        rows = sweeps.curvature_sweep(space, TRUE_KAPPA[tag], 9, 4, GRID, 5)
        reference = reference_curvature_rows(space, TRUE_KAPPA[tag], 9, 4, 5)
        assert [(r["probe"], r["index"], r["value"]) for r in rows] == reference

    @pytest.mark.parametrize("name", sorted(FAMILIES))
    def test_hugging_rounds_redraw_as_a_loop_of_attempts(self, name, monkeypatch):
        """With the coincidence tolerance raised to reject about half the
        targets, the rounds keep the cases the per-attempt loop keeps."""
        family = FAMILIES[name]()
        probe_rng = np.random.default_rng(9)
        tol = float(np.median(family.space.log_batch(family.anchor, family.sample_batch(probe_rng, 40))[1]))
        monkeypatch.setattr(sweeps, "COINCIDENT_TOL", tol)
        monkeypatch.setattr(bl.hugging, "COINCIDENT_TOL", tol)
        reports, _ = sweeps.hugging_sweep(family, 8, 9, 4)
        assert [(r.k_value, r.variance_eq_residual) for r in reports] == reference_hugging_cases(
            family, 8, 9, 4
        )

    def test_rejections_in_a_row_are_capped_as_per_attempt(self):
        """200 rejections in a row raise after the 200th draw, as the
        per-attempt loop did, however many configurations a round draws."""
        drawn = []

        def draw(count):
            drawn.extend(range(count))
            return [np.zeros(1)] * count

        with pytest.raises(RuntimeError):
            sweeps._sweep(None, 5, 1, draw, lambda configs: [False] * len(configs), 200)
        assert len(drawn) == 200


    def test_a_failing_block_raises_its_first_failing_configuration(self):
        """The stacked call checks each kind of failure over the whole block;
        the sweep still raises what a loop would: the first failure's error."""

        def probe(values):  # fails on 2 as PerimeterTooLarge before 1 as degenerate
            if np.any(values[:, 0] == 2.0):
                raise PerimeterTooLarge("a 2")
            if np.any(values[:, 0] == 1.0):
                raise DegenerateTriangle("a 1")
            return values[:, 0]

        configs = iter([0.0, 1.0, 2.0])

        def draw(count):
            return [np.array([[next(configs)]]) for _ in range(count)]

        with pytest.raises(DegenerateTriangle):
            sweeps._sweep(probe, 3, 1, draw, lambda configs: [True] * len(configs))


class TestSeparated:
    @pytest.mark.parametrize("count", [2, 3, 4])
    @pytest.mark.parametrize("tag", sorted(SPACE_FACTORIES))
    def test_decisions_equal_the_tag_branch(self, tag, count, rng):
        """Stacked and single decisions equal the former per-configuration
        function's, including near-antipodal pairs and near-2 pi perimeters
        on the sphere."""
        space = make_space(tag)
        configs = [[space.random_point(rng) for _ in range(count)] for _ in range(200)]
        if tag == "sphere":
            for _ in range(200):  # points near a great circle, near-antipodal or spread
                spread = rng.uniform(2.0, 2.3) * np.arange(count) + rng.normal(0, 1e-3, count)
                circle = np.stack([np.cos(spread), np.sin(spread), rng.normal(0, 1e-3, count)], 1)
                configs.append(list(circle / np.linalg.norm(circle, axis=1, keepdims=True)))
        decisions = []
        for min_sep in (0.05, 0.8):
            expected = [reference_separated(space, c, min_sep) for c in configs]
            stacked = sweeps.separated(space, np.stack([space.stack(c) for c in configs]), min_sep)
            assert stacked.tolist() == expected
            assert [sweeps.separated(space, c, min_sep) for c in configs] == expected
            decisions += expected
        assert 0 < sum(decisions) < len(decisions)
