"""Sampling families: anchors, guarantees, determinism, fast paths."""

import math
import tracemalloc

import numpy as np
import pytest

import barylab as bl
from barylab.errors import AnchorNotBarycenter, BadFamilyParams
from barylab import ratelab
from barylab.families import (
    EuclideanGaussian,
    GaussianEnsemble,
    HyperbolicGaussian,
    SphereCap,
    _unit_rule,
    family_from_config,
)
from barylab.ratelab import RateExperimentConfig, population_barycenter

from conftest import anchor_moment

BASE_COV = [[2.0, 0.3, 0.0], [0.3, 1.0, 0.1], [0.0, 0.1, 0.5]]

FAMILIES = {
    "euclidean_gaussian": lambda: EuclideanGaussian(dim=3, sd=1.0),
    "sphere_cap": lambda: SphereCap(0.3),
    "hyperbolic_gaussian": lambda: HyperbolicGaussian(0.5),
    "gaussian_ensemble": lambda: GaussianEnsemble(0.8, 1.6, dim=3),
    "gaussian_ensemble_base_cov": lambda: GaussianEnsemble(0.8, 1.6, dim=3, base_cov=BASE_COV),
}

THEOREM_FOR = {
    "euclidean_gaussian": "negcurv",
    "sphere_cap": "master_extendible",
    "hyperbolic_gaussian": "negcurv",
    "gaussian_ensemble": "wasserstein",
}


@pytest.fixture(params=sorted(FAMILIES))
def family(request):
    return FAMILIES[request.param]()


def small_config(family, seed=7, **kw):
    return RateExperimentConfig(
        family=family,
        theorem=THEOREM_FOR[family.kind],
        n_grid=(2, 4),
        trials=2,
        master_seed=seed,
        verify_draws=kw.pop("verify_draws", 30_000),
        **kw,
    )


class TestDeterminism:
    def test_same_seed_same_sample(self, family):
        a = family.sample(np.random.default_rng(123), 5)
        b = family.sample(np.random.default_rng(123), 5)
        for pa, pb in zip(a, b):
            assert family.space.point_payload(pa) == family.space.point_payload(pb)

    def test_different_seed_differs(self, family):
        a = family.sample(np.random.default_rng(1), 3)
        b = family.sample(np.random.default_rng(2), 3)
        assert any(family.space.distance(pa, pb) > 1e-9 for pa, pb in zip(a, b))


class TestGuarantees:
    def test_cap_radius_guarantee(self):
        family = SphereCap(0.3)
        rng = np.random.default_rng(5)
        batch = family.sample_batch(rng, 2000)
        sq = family.space.sqdist_batch(family.anchor, batch)
        assert np.max(sq) <= 0.3**2 + 1e-12

    def test_ensemble_eigenvalue_guarantee(self):
        family = GaussianEnsemble(0.8, 1.6, dim=3)
        rng = np.random.default_rng(5)
        maps = family.draw_maps(rng, 2000)
        eig = np.linalg.eigvalsh(maps)
        assert eig.min() >= 0.8 - 1e-12
        assert eig.max() <= 1.6 + 1e-12

    def test_ensemble_transport_eigs_match_draws(self):
        """The library transport map recovers the constructed map exactly."""
        family = GaussianEnsemble(0.8, 1.6, dim=3)
        rng = np.random.default_rng(11)
        maps = family.draw_maps(rng, 10)
        for m in maps:
            target = bl.GaussianPoint(np.zeros(3), m @ family.anchor.cov @ m)
            recovered = family.space.transport_map(family.anchor, target)
            assert np.allclose(recovered, m, atol=1e-10)

    def test_sqdist_fast_path_matches_library(self, family):
        """Construction-based squared distances equal log-free library values."""
        fast = family.sqdist_anchor(np.random.default_rng(77), 500)
        batch = family.sample_batch(np.random.default_rng(77), 500)
        slow = family.space.sqdist_batch(family.anchor, batch)
        assert np.allclose(fast, slow, rtol=1e-12, atol=0)

    def test_ensemble_sample_batch_is_exp_of_its_tangents(self):
        """The M C M points equal the Bures exp of the tangents that a twin
        stream draws, one payload at a time."""
        family = GaussianEnsemble(0.8, 1.6, dim=3, base_cov=BASE_COV)
        batch = family.sample_batch(np.random.default_rng(9), 200)
        tangents = family.tangents(np.random.default_rng(9), 200)
        expected = family.space.stack([family.space.exp(family.anchor, v) for v in tangents])
        assert np.max(np.abs(batch - expected)) <= 1e-14 * np.max(np.abs(expected))

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_default_anchor_bases_are_the_coordinate_axes(self, dim):
        """At the default anchors the bases are the coordinate rows, bit for
        bit: the cap's e_0 .. e_(d-1), the hyperbolic family's e_1 .. e_d."""
        assert np.array_equal(SphereCap(0.3, dim=dim)._basis, np.eye(dim, dim + 1))
        assert np.array_equal(HyperbolicGaussian(0.5, dim=dim)._basis, np.eye(dim, dim + 1, 1))

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_far_hyperbolic_anchor_gets_dim_basis_rows_and_samples(self, dim):
        """An anchor at distance 8 (x0 about 1.5e3) rounds the last
        Gram-Schmidt residual to about eps x0^3, far above zero; the basis
        still has ``dim`` rows, orthonormal to that size, and sampling runs."""
        space = bl.Hyperboloid(dim)
        direction = np.zeros(dim + 1)
        direction[1:] = 1.0 / math.sqrt(dim)
        anchor = space.exp(space.origin(), 8.0 * direction)
        family = HyperbolicGaussian(0.5, dim=dim, anchor=anchor)
        basis = family._basis
        assert basis.shape == (dim, dim + 1)
        tol = 1e-15 * anchor[0] ** 3
        gram = space.tangent_inner(anchor, basis[:, None], basis[None])
        assert np.max(np.abs(gram - np.eye(dim))) <= tol
        assert np.max(np.abs(space.tangent_inner(anchor, basis, anchor))) <= tol
        batch = family.sample_batch(np.random.default_rng(5), 64)
        assert batch.shape == (64, dim + 1)
        for point in batch:
            space.check_point(point)

    @pytest.mark.parametrize("dim", [2, 3])
    def test_hyperbolic_anchor_with_a_skewed_basis_is_refused(self, dim):
        """At distance 15 (x0 about 1.6e6) rounding leaves the Gram-Schmidt
        basis far from orthonormal, which would skew the law and break
        sigma2 = dim scale^2, so the constructor refuses the anchor."""
        space = bl.Hyperboloid(dim)
        direction = np.zeros(dim + 1)
        direction[1:] = 1.0 / math.sqrt(dim)
        anchor = space.exp(space.origin(), 15.0 * direction)
        with pytest.raises(ValueError, match="orthonormal"):
            HyperbolicGaussian(0.5, dim=dim, anchor=anchor)

    def test_ensemble_draws_consume_the_parent_stream(self):
        """Eigenvalues, then one (count, d, d) normal block: the next draw
        after a batch is the one the LAPACK-QR sampler left behind."""
        rng = np.random.default_rng(3)
        GaussianEnsemble(0.8, 1.6, dim=3, base_cov=BASE_COV).sample_batch(rng, 10)
        assert rng.random() == 0.15997166501999804

    @pytest.mark.parametrize(
        "base_cov, expected",
        [(None, 0.12019349023559975), (BASE_COV, 0.14020665482113562)],
    )
    def test_ensemble_sigma2_pinned(self, base_cov, expected):
        """10^6-draw Monte Carlo sigma^2 on the stream the rate runs once drew
        it from (master seed 1, label 2), as the map-building pass gave it."""
        family = GaussianEnsemble(0.8, 1.6, dim=3, base_cov=base_cov)
        rng = np.random.default_rng(np.random.SeedSequence([1, 2]))
        sigma2, _ = anchor_moment(family, rng, 10**6)
        assert sigma2 == pytest.approx(expected, rel=1e-14, abs=0)


SIGMA2_FAMILIES = {
    "euclidean_gaussian": lambda: EuclideanGaussian(dim=3, sd=1.3),
    "hyperbolic_gaussian": lambda: HyperbolicGaussian(0.5, dim=3),
    "sphere_cap_d2": lambda: SphereCap(0.3),
    "sphere_cap_d3": lambda: SphereCap(0.7, dim=3),
    "sphere_cap_d4": lambda: SphereCap(0.5, dim=4),
    "gaussian_ensemble": lambda: GaussianEnsemble(0.8, 1.6, dim=3),
    # p_lo = 0.3 / 1.0, away from 1/2
    "gaussian_ensemble_base_cov": lambda: GaussianEnsemble(0.3, 1.3, dim=3, base_cov=BASE_COV),
}


class TestExactSigma2:
    @pytest.mark.parametrize("name", sorted(SIGMA2_FAMILIES))
    def test_within_three_stderr_of_monte_carlo(self, name):
        family = SIGMA2_FAMILIES[name]()
        mean, stderr = anchor_moment(family, np.random.default_rng(2024), 10**6)
        assert abs(family.sigma2() - mean) <= 3.0 * stderr

    def test_ensemble_closed_form(self):
        """tr(Sigma) [p_lo (1 - alpha)^2 + (1 - p_lo)(beta - 1)^2] / 3."""
        assert GaussianEnsemble(0.8, 1.6, dim=3).sigma2() == pytest.approx(0.12, rel=1e-14)
        family = GaussianEnsemble(0.3, 1.3, dim=3, base_cov=BASE_COV)
        expected = 3.5 * (0.3 * 0.7**2 + 0.7 * 0.3**2) / 3.0
        assert family.sigma2() == pytest.approx(expected, rel=1e-14)

    @pytest.mark.parametrize("radius", [0.5, 0.7, 0.78])
    def test_cap_quadrature_matches_the_two_sphere_closed_form(self, radius):
        """On S^2 the cap gives (2r sin r + (2 - r^2) cos r - 2) / (1 - cos r).
        That form cancels at small r (it is 4e-14 off at r = 0.3), so it is
        the reference only where it keeps its digits."""
        r = radius
        exact = (2 * r * math.sin(r) + (2 - r * r) * math.cos(r) - 2) / (1 - math.cos(r))
        assert SphereCap(r).sigma2() == pytest.approx(exact, rel=1e-14, abs=0)


class TestQuadratureRule:
    def test_builds_without_an_eigendecomposition(self, fresh_rule, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the quadrature rule called an eigendecomposition")

        for name in ("eigh", "eigvalsh", "eig"):
            monkeypatch.setattr(np.linalg, name, refuse)
        nodes, weights = _unit_rule()
        assert nodes.shape == weights.shape == (64,)
        assert SphereCap(0.3).sigma2() > 0.0

    def test_nodes_ascend_symmetrically_inside_the_unit_interval(self):
        nodes, weights = _unit_rule()
        assert 0.0 < nodes[0] and nodes[-1] < 1.0
        assert np.all(np.diff(nodes) > 0.0)
        eps = np.finfo(float).eps
        np.testing.assert_allclose(nodes + nodes[::-1], 1.0, rtol=0, atol=eps)
        np.testing.assert_allclose(weights, weights[::-1], rtol=4 * eps, atol=0)

    def test_integrates_every_polynomial_below_degree_128_to_rounding(self):
        """A 64-node Gauss rule is exact through degree 127.  The eigenvector
        weights of Golub & Welsch missed 1 / (k + 1) by up to 1.1e-15 and
        summed to 1 within 1.1e-15; Newton's weights miss by at most 2.2e-16,
        so the bound of 5e-16 separates the two."""
        nodes, weights = _unit_rule()
        assert abs(weights.sum() - 1.0) <= 5e-16
        for k in range(128):
            assert abs(weights @ nodes**k - 1.0 / (k + 1)) <= 5e-16, k


# each family at a proxy where the Monte Carlo moment has finite variance:
# E exp(d^2 / varsigma2) < inf, so sd^2 < varsigma2 / 2 for the Gaussian tails
MOMENT_FAMILIES = {
    "euclidean_gaussian": (lambda: EuclideanGaussian(dim=3, sd=1.3), 8.0),
    "hyperbolic_gaussian": (lambda: HyperbolicGaussian(0.5, dim=3), 1.0),
    "sphere_cap_d2": (lambda: SphereCap(0.3), 0.1),
    "sphere_cap_d3": (lambda: SphereCap(0.7, dim=3), 0.3),
    "sphere_cap_d4": (lambda: SphereCap(0.5, dim=4), 0.1),
    "gaussian_ensemble": (lambda: GaussianEnsemble(0.8, 1.6, dim=3), 0.1),
}


def monte_carlo_moment(family, varsigma2):
    return anchor_moment(
        family, np.random.default_rng(2024), 10**6, lambda sq: np.exp(sq / (2.0 * varsigma2))
    )


class TestSubgaussianMoment:
    @pytest.mark.parametrize("name", sorted(MOMENT_FAMILIES))
    def test_within_three_stderr_of_monte_carlo(self, name):
        make, varsigma2 = MOMENT_FAMILIES[name]
        family = make()
        mean, stderr = monte_carlo_moment(family, varsigma2)
        assert abs(family.subgaussian_moment(varsigma2) - mean) <= 3.0 * stderr

    def test_anisotropic_ensemble_is_an_upper_bound(self):
        """With a non-isotropic base covariance prod_i psi(lam_i(C)) bounds
        the moment from above (Schur-Horn and log-convexity of psi)."""
        family = GaussianEnsemble(0.3, 1.3, dim=3, base_cov=BASE_COV)
        mean, stderr = monte_carlo_moment(family, 0.3)
        assert family.subgaussian_moment(0.3) >= mean - 3.0 * stderr

    @pytest.mark.parametrize("make", [
        lambda: EuclideanGaussian(dim=3, sd=1.0),
        lambda: HyperbolicGaussian(1.0, dim=3),
    ])
    def test_gaussian_tails_in_closed_form(self, make):
        """(1 - s^2 / varsigma2)^(-dim/2), and inf from s^2 = varsigma2 on."""
        family = make()
        assert family.subgaussian_moment(3.0) == pytest.approx((2.0 / 3.0) ** -1.5, rel=1e-15)
        assert family.subgaussian_moment(1.0) == math.inf
        assert family.subgaussian_moment(0.5) == math.inf

    def test_cap_moment_tends_to_one_and_is_finite(self):
        family = SphereCap(0.3)
        assert family.subgaussian_moment(1e12) == pytest.approx(1.0, abs=1e-12)
        assert family.subgaussian_moment(1e-4) > 2.0
        assert family.subgaussian_moment(1e-6) == math.inf  # exp overflows, no warning


class TestAnchors:
    def test_anchor_passes_verification(self, family):
        config = small_config(family)
        anchor = population_barycenter(config)
        assert family.space.distance(anchor, family.anchor) == 0.0

    def test_shifted_samples_fail_verification(self):
        class _Lopsided(EuclideanGaussian):
            def tangents(self, rng, count):
                return super().tangents(rng, count) + np.array([0.25, 0.0, 0.0])

        family = _Lopsided(dim=3, sd=1.0)
        config = small_config(family)
        with pytest.raises(AnchorNotBarycenter):
            population_barycenter(config)


# the fixture's families, plus the rejection-sampled cap radius and a wide
# hyperbolic spread, whose log maps lose the most digits
LOG_SUM_FAMILIES = {
    **FAMILIES,
    "sphere_cap_d3": lambda: SphereCap(0.7, dim=3),
    "hyperbolic_gaussian_wide": lambda: HyperbolicGaussian(1.5, dim=3),
}


class TestAnchorLogSums:
    @pytest.mark.parametrize("name", sorted(LOG_SUM_FAMILIES))
    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("count", [1, 7, 2000])
    def test_sums_the_log_maps_of_sample_batch(self, name, seed, count):
        """The sums equal those of the log maps of the points sample_batch
        draws from a twin stream, and leave the stream where it leaves it."""
        family = LOG_SUM_FAMILIES[name]()
        rng, twin = np.random.default_rng(seed), np.random.default_rng(seed)
        payload_sum, sq_sum = family.anchor_log_sums(rng, count)
        payloads, mags = family.space.log_batch(family.anchor, family.sample_batch(twin, count))
        # the sum of magnitudes is the scale of the terms of the payload sum
        assert np.allclose(payload_sum, payloads.sum(axis=0), rtol=0, atol=1e-12 * mags.sum())
        assert sq_sum == pytest.approx(float(mags @ mags), rel=1e-12, abs=0)
        assert rng.random() == twin.random()

    def test_verification_blocks_fit_the_float_budget(self, family, monkeypatch):
        """The pass asks for at most TRIAL_FLOAT_BUDGET floats of points a
        block, and for exactly verify_draws draws in all."""
        counts = []
        sums = family.anchor_log_sums

        def spy(rng, count):
            counts.append(count)
            return sums(rng, count)

        monkeypatch.setattr(family, "anchor_log_sums", spy)
        config = small_config(family, verify_draws=100_000)
        population_barycenter(config)
        assert len(counts) > 1
        assert max(counts) <= ratelab.TRIAL_FLOAT_BUDGET // family.space.point_floats
        assert sum(counts) == config.verify_draws

    def test_verification_memory_is_bounded(self, family):
        """A 10^5-draw pass holds one block of draws at a time, never all of
        them: (10^5, 3, 3) normals alone would take 7 MB."""
        population_barycenter(small_config(family, verify_draws=10))  # lazy imports
        tracemalloc.start()
        try:
            population_barycenter(small_config(family, verify_draws=100_000))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20

    @pytest.mark.parametrize(
        "name",
        ["euclidean_gaussian", "sphere_cap", "hyperbolic_gaussian", "gaussian_ensemble_base_cov"],
    )
    def test_verification_forms_no_points(self, name, monkeypatch):
        """Every family draws from a tangent vector at the anchor and verifies
        from that vector, never through sample_batch."""
        family = FAMILIES[name]()

        def refuse(rng, count):
            raise AssertionError("verification sampled points")

        monkeypatch.setattr(family, "sample_batch", refuse)
        assert population_barycenter(small_config(family)) is family.anchor

    def test_shifted_ensemble_eigenvalues_fail_verification(self):
        """Map eigenvalues with mean 1.05: the expected map is 1.05 I."""

        class _Inflated(GaussianEnsemble):
            def _draw_eigs(self, rng, shape):
                return super()._draw_eigs(rng, shape) + 0.05

        family = _Inflated(0.8, 1.6, dim=3, base_cov=BASE_COV)
        with pytest.raises(AnchorNotBarycenter):
            population_barycenter(small_config(family))

    def test_shifted_hyperbolic_coords_fail_verification(self):
        class _Lopsided(HyperbolicGaussian):
            def tangents(self, rng, count):
                return super().tangents(rng, count) + np.array([0.0, 0.1, 0.0])

        family = _Lopsided(0.5)
        with pytest.raises(AnchorNotBarycenter):
            population_barycenter(small_config(family))


class TestParams:
    def test_invalid_params_rejected(self):
        with pytest.raises(BadFamilyParams):
            SphereCap(1.0)  # >= pi/4
        with pytest.raises(BadFamilyParams):
            SphereCap(0.0)
        with pytest.raises(BadFamilyParams):
            EuclideanGaussian(sd=0.0)
        with pytest.raises(BadFamilyParams):
            HyperbolicGaussian(scale=-1.0)
        with pytest.raises(BadFamilyParams):
            GaussianEnsemble(1.2, 1.6)
        with pytest.raises(BadFamilyParams):
            GaussianEnsemble(0.8, 0.9)

    def test_family_from_config(self):
        family = family_from_config({"kind": "sphere_cap", "radius": 0.2})
        assert isinstance(family, SphereCap)
        with pytest.raises(BadFamilyParams):
            family_from_config({"kind": "donut"})
        with pytest.raises(BadFamilyParams):
            family_from_config({"kind": "sphere_cap", "radius": 0.2, "spin": 3})

    def test_describe_round_trip(self, family):
        rebuilt = family_from_config(family.describe())
        assert rebuilt.describe() == family.describe()

    def test_mean_one_eigenvalue_mixture(self):
        family = GaussianEnsemble(0.8, 1.6, dim=3)
        rng = np.random.default_rng(3)
        eigs = family._draw_eigs(rng, 400_000)
        assert abs(float(np.mean(eigs)) - 1.0) <= 3.0 * float(np.std(eigs)) / math.sqrt(
            eigs.size
        ) + 1e-3
