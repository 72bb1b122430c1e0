"""Sampling families: anchors, guarantees, determinism, fast paths."""

import math

import numpy as np
import pytest

import barylab as bl
from barylab.errors import AnchorNotBarycenter, BadFamilyParams
from barylab import ratelab
from barylab.families import (
    EuclideanGaussian,
    Family,
    GaussianEnsemble,
    HyperbolicGaussian,
    SphereCap,
    family_from_config,
)
from barylab.ratelab import RateExperimentConfig, _anchor_moment, population_barycenter

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
        sigma2, _ = _anchor_moment(family, rng, 10**6)
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
        mean, stderr = _anchor_moment(family, np.random.default_rng(2024), 10**6)
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


class TestAnchors:
    def test_anchor_passes_verification(self, family):
        config = small_config(family)
        anchor = population_barycenter(config)
        assert family.space.distance(anchor, family.anchor) == 0.0

    def test_shifted_samples_fail_verification(self):
        class _Lopsided(EuclideanGaussian):
            def sample_batch(self, rng, count):
                return super().sample_batch(rng, count) + np.array([0.25, 0.0, 0.0])

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

    @pytest.mark.parametrize("name", sorted(LOG_SUM_FAMILIES))
    def test_default_sums_are_independent_of_the_slices(self, name, monkeypatch):
        family = LOG_SUM_FAMILIES[name]()
        whole = Family.anchor_log_sums(family, np.random.default_rng(4), 500)
        monkeypatch.setattr(ratelab, "TRIAL_FLOAT_BUDGET", 64)
        sliced = Family.anchor_log_sums(family, np.random.default_rng(4), 500)
        # sqrt(count * sq_sum) bounds the sum of the log magnitudes
        assert np.allclose(sliced[0], whole[0], rtol=0, atol=1e-12 * math.sqrt(500 * whole[1]))
        assert sliced[1] == pytest.approx(whole[1], rel=1e-12, abs=0)

    @pytest.mark.parametrize(
        "name", ["sphere_cap", "hyperbolic_gaussian", "gaussian_ensemble_base_cov"]
    )
    def test_verification_forms_no_points(self, name, monkeypatch):
        """Families that draw from a tangent vector at the anchor verify
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
            def _draw_coords(self, rng, count):
                return super()._draw_coords(rng, count) + np.array([0.1, 0.0])

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
