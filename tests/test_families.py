"""Sampling families: anchors, guarantees, determinism, fast paths."""

import math

import numpy as np
import pytest

import barylab as bl
from barylab.errors import AnchorNotBarycenter, BadFamilyParams
from barylab.families import (
    EuclideanGaussian,
    GaussianEnsemble,
    HyperbolicGaussian,
    SphereCap,
    family_from_config,
)
from barylab.ratelab import RateExperimentConfig, estimate_sigma2, population_barycenter

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
        sigma2_draws=kw.pop("sigma2_draws", 50_000),
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
        """10^6-draw sigma^2 at master seed 1, as the map-building pass gave it."""
        family = GaussianEnsemble(0.8, 1.6, dim=3, base_cov=base_cov)
        config = RateExperimentConfig(
            family=family, theorem="wasserstein", n_grid=(2, 4), trials=2, master_seed=1
        )
        sigma2, _ = estimate_sigma2(config)
        assert sigma2 == pytest.approx(expected, rel=1e-14, abs=0)


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
