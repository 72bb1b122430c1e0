"""Sampling families with known population barycenters.

Each family is constructed symmetric about its anchor so the anchor is the
population barycenter; the experiment harness verifies this from
``anchor_log_sums``, the sums of the draws' log maps at the anchor.  A family
that draws each point as the exponential of a tangent vector at the anchor sums
those vectors and never forms the points.  Families also expose the
extendibility of their population support, computed through the space's
max_extendibility on extreme support points.
"""

from __future__ import annotations

import abc
import inspect
import math
from statistics import NormalDist

import numpy as np

from .errors import BadFamilyParams
from .linalg import positive_qr_q, sym
from .spaces import (
    BuresWasserstein,
    Euclidean,
    Extendibility,
    GaussianPoint,
    Hyperboloid,
    QuantileSpace,
    Space,
    Sphere,
)


class Family(abc.ABC):
    """A seeded sampling distribution on one model space."""

    kind: str
    space: Space
    anchor: object

    @abc.abstractmethod
    def sample_batch(self, rng: np.random.Generator, count: int):
        """Batch of draws in the space's stacked representation."""

    @abc.abstractmethod
    def sqdist_anchor(self, rng: np.random.Generator, count: int) -> np.ndarray:
        """Squared distances to the anchor for ``count`` fresh draws."""

    @abc.abstractmethod
    def sigma2(self) -> float:
        """Exact population variance E d^2(anchor, X), from the family's law."""

    @abc.abstractmethod
    def support_extendibility(self) -> Extendibility:
        """Extendibility infimum over the population support."""

    @abc.abstractmethod
    def describe(self) -> dict:
        """JSON-ready parameter echo."""

    def sample(self, rng: np.random.Generator, count: int) -> list:
        return self.space.unstack(self.sample_batch(rng, count))

    def anchor_log_sums(self, rng: np.random.Generator, count: int):
        """Sums of log_anchor(X) and of d^2(anchor, X) over the draws of
        ``sample_batch(rng, count)``, leaving ``rng`` where that call leaves it.
        This default takes their log maps in slices of TRIAL_FLOAT_BUDGET floats."""
        from .ratelab import TRIAL_FLOAT_BUDGET  # ratelab imports this module

        space, batch = self.space, self.sample_batch(rng, count)
        step = max(1, TRIAL_FLOAT_BUDGET // space.point_floats)
        payload_sum, sq_sum = 0.0, 0.0
        for start in range(0, count, step):
            piece = space.take(batch, slice(start, start + step))
            payloads, mags = space.log_batch(self.anchor, piece)
            payload_sum, sq_sum = payload_sum + payloads.sum(axis=0), sq_sum + float(mags @ mags)
        return payload_sum, sq_sum


def _as_unit_rows(v: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(v, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    return v / norms


class EuclideanGaussian(Family):
    """Isotropic Gaussian around a Euclidean anchor."""

    kind = "euclidean_gaussian"

    def __init__(self, dim: int = 3, mean=None, sd: float = 1.0):
        if sd <= 0:
            raise BadFamilyParams("sd must be positive")
        self.space = Euclidean(dim)
        self.anchor = np.zeros(dim) if mean is None else np.asarray(mean, float)
        self.space.check_point(self.anchor)
        self.sd = float(sd)

    def sample_batch(self, rng, count):
        return self.anchor + self.sd * rng.standard_normal((count, self.space.dim))

    def sqdist_anchor(self, rng, count):
        z = rng.standard_normal((count, self.space.dim))
        return self.sd**2 * np.einsum("ij,ij->i", z, z)

    def sigma2(self):
        return self.space.dim * self.sd**2

    def support_extendibility(self) -> Extendibility:
        return Extendibility(math.inf, math.inf)

    def describe(self) -> dict:
        return {
            "kind": self.kind,
            "dim": self.space.dim,
            "mean": [float(c) for c in self.anchor],
            "sd": self.sd,
        }


class SphereCap(Family):
    """Uniform (surface measure) on a geodesic cap around the anchor.

    The cap radius is capped at pi/4, which keeps empirical barycenters of
    cap samples unique and inside the cap.
    """

    kind = "sphere_cap"

    def __init__(self, radius: float, dim: int = 2, anchor=None):
        if not 0 < radius < math.pi / 4:
            raise BadFamilyParams("cap radius must lie in (0, pi/4)")
        self.space = Sphere(dim)
        if anchor is None:
            anchor = np.zeros(dim + 1)
            anchor[-1] = 1.0
        self.anchor = np.asarray(anchor, float)
        self.space.check_point(self.anchor)
        self.radius = float(radius)
        self._basis = _orthonormal_tangent_basis(self.anchor)

    def _draw_theta(self, rng, count) -> np.ndarray:
        d = self.space.dim
        if d == 2:
            # exact inverse CDF of the area measure on a cap of S^2
            u = rng.random(count)
            return np.arccos(1.0 - u * (1.0 - math.cos(self.radius)))
        # rejection against the uniform envelope of sin^(d-1)
        out = np.empty(count)
        filled = 0
        peak = math.sin(self.radius) ** (d - 1)
        while filled < count:
            block = max(count - filled, 1024)
            theta = rng.uniform(0.0, self.radius, block)
            keep = rng.random(block) * peak <= np.sin(theta) ** (d - 1)
            kept = theta[keep][: count - filled]
            out[filled : filled + kept.size] = kept
            filled += kept.size
        return out

    def _draw_polar(self, rng, count):
        theta = self._draw_theta(rng, count)
        return theta, _as_unit_rows(rng.standard_normal((count, self.space.dim)))

    def sample_batch(self, rng, count):
        theta, dirs = self._draw_polar(rng, count)
        tangent = dirs @ self._basis
        pts = np.cos(theta)[:, None] * self.anchor + np.sin(theta)[:, None] * tangent
        return _as_unit_rows(pts)

    def anchor_log_sums(self, rng, count):
        theta, dirs = self._draw_polar(rng, count)
        return (theta @ dirs) @ self._basis, float(theta @ theta)

    def sqdist_anchor(self, rng, count):
        return self._draw_theta(rng, count) ** 2

    def sigma2(self):
        # E theta^2 under the density sin^(d-1) theta on [0, r], by
        # Gauss-Legendre; 64 nodes reach rounding for r < pi/4
        from numpy.polynomial.legendre import leggauss

        nodes, weights = leggauss(64)
        theta = 0.5 * self.radius * (nodes + 1.0)
        density = weights * np.sin(theta) ** (self.space.dim - 1)
        return float(density @ theta**2 / density.sum())

    def support_extendibility(self) -> Extendibility:
        edge = self.space.exp(self.anchor, self.radius * self._basis[0])
        return self.space.max_extendibility(self.anchor, edge)

    def describe(self) -> dict:
        return {
            "kind": self.kind,
            "dim": self.space.dim,
            "anchor": [float(c) for c in self.anchor],
            "radius": self.radius,
        }


class HyperbolicGaussian(Family):
    """Exponential of an isotropic Gaussian tangent vector at the anchor."""

    kind = "hyperbolic_gaussian"

    def __init__(self, scale: float, dim: int = 2, anchor=None):
        if scale <= 0:
            raise BadFamilyParams("scale must be positive")
        self.space = Hyperboloid(dim)
        self.anchor = self.space.origin() if anchor is None else np.asarray(anchor, float)
        self.space.check_point(self.anchor)
        self.scale = float(scale)
        self._basis = self.space.tangent_basis(self.anchor)

    def _draw_coords(self, rng, count) -> np.ndarray:
        return self.scale * rng.standard_normal((count, self.space.dim))

    def sample_batch(self, rng, count):
        coords = self._draw_coords(rng, count)
        norms = np.linalg.norm(coords, axis=1)
        dirs = _as_unit_rows(coords) @ self._basis
        pts = np.cosh(norms)[:, None] * self.anchor + np.sinh(norms)[:, None] * dirs
        # re-project to the sheet to keep the Minkowski norm exact
        q = -np.einsum("ij,j,ij->i", pts, self.space._j, pts)
        return pts / np.sqrt(np.maximum(q, 1e-300))[:, None]

    def sqdist_anchor(self, rng, count):
        coords = self._draw_coords(rng, count)
        return np.einsum("ij,ij->i", coords, coords)

    def anchor_log_sums(self, rng, count):
        coords = self._draw_coords(rng, count)
        return coords.sum(axis=0) @ self._basis, float(np.einsum("ij,ij->", coords, coords))

    def sigma2(self):
        # d(anchor, exp v) = |v| for the Gaussian tangent vector v
        return self.space.dim * self.scale**2

    def support_extendibility(self) -> Extendibility:
        return Extendibility(math.inf, math.inf)

    def describe(self) -> dict:
        return {
            "kind": self.kind,
            "dim": self.space.dim,
            "anchor": [float(c) for c in self.anchor],
            "scale": self.scale,
        }


class GaussianEnsemble(Family):
    """Pushforwards of the anchor Gaussian by random SPD maps.

    Maps are R diag(eigs) R^T with Haar rotations and eigenvalues drawn from
    a two-segment uniform mixture on [alpha, 1] and [1, beta] with mean
    exactly 1, so the expected map is the identity and the anchor is the
    population barycenter while every map eigenvalue stays in [alpha, beta].
    """

    kind = "gaussian_ensemble"

    def __init__(self, alpha: float, beta: float, dim: int = 3, base_cov=None):
        # with alpha or beta at 1 the mean of 1 forces every eigenvalue to 1,
        # so every draw would be the anchor
        if not 0 < alpha < 1 < beta:
            raise BadFamilyParams("need 0 < alpha < 1 < beta")
        self.space = BuresWasserstein(dim)
        cov = np.eye(dim) if base_cov is None else np.asarray(base_cov, float)
        self.anchor = GaussianPoint(np.zeros(dim), cov)
        self.alpha = float(alpha)
        self.beta = float(beta)
        # weight of the [alpha, 1] segment that puts the eigenvalue mean at 1
        self._p_lo = (self.beta - 1.0) / (self.beta - self.alpha)

    def _draw_eigs(self, rng, shape) -> np.ndarray:
        lo = rng.uniform(self.alpha, 1.0, shape)
        hi = rng.uniform(1.0, self.beta, shape)
        return np.where(rng.random(shape) < self._p_lo, lo, hi)

    def _draw_spectra(self, rng, count):
        """Map eigenvalues (count, d) and Haar rotations (count, d, d)."""
        d = self.space.dim
        eigs = self._draw_eigs(rng, (count, d))
        return eigs, positive_qr_q(rng.standard_normal((count, d, d)))

    def draw_maps(self, rng, count) -> np.ndarray:
        eigs, q = self._draw_spectra(rng, count)
        return sym((q * eigs[:, None, :]) @ np.swapaxes(q, -1, -2))

    def sample_batch(self, rng, count):
        maps = self.draw_maps(rng, count)
        covs = sym(maps @ self.anchor.cov @ maps)
        means = np.zeros((count, self.space.dim))
        return means, covs

    def anchor_log_sums(self, rng, count):
        # the optimal map from C to M C M is the SPD M itself, so a draw's log
        # is [0; M - I] = [0; sum_i (e_i - 1) q_i q_i^T], of squared norm
        # tr(C sum_i (e_i - 1)^2 q_i q_i^T): with all columns q_ni side by side
        # each sum is one product, and no covariance or root is formed
        d = self.space.dim
        eigs, q = self._draw_spectra(rng, count)
        cols, gaps = np.swapaxes(q, 0, 1).reshape(d, count * d), (eigs - 1.0).ravel()
        payload_sum = np.zeros((d + 1, d))
        payload_sum[1:] = sym((cols * gaps) @ cols.T)
        return payload_sum, float(np.einsum("ij,ji->", self.anchor.cov, (cols * gaps**2) @ cols.T))

    def sqdist_anchor(self, rng, count):
        # |Q (E - I) Q^T|^2 in L2(anchor) = sum_i (e_i - 1)^2 q_i^T C q_i: no map
        # is built and no I subtracted, so draws near e = 1 keep their precision
        eigs, q = self._draw_spectra(rng, count)
        spread = np.einsum("nji,nji->ni", q, self.anchor.cov @ q)
        return np.einsum("ni,ni->n", (eigs - 1.0) ** 2, spread)

    def sigma2(self):
        # sum_i E(e_i - 1)^2 E q_i^T C q_i: a Haar column gives tr C / d whatever
        # the eigenvalues, and a uniform segment from 1 to x gives (x - 1)^2 / 3
        p = self._p_lo
        spread = p * (1.0 - self.alpha) ** 2 + (1.0 - p) * (self.beta - 1.0) ** 2
        return float(np.trace(self.anchor.cov)) * spread / 3.0

    def support_extendibility(self) -> Extendibility:
        # extreme admissible map realizes the support infimum exactly
        d = self.space.dim
        eigs = np.ones(d)
        eigs[0] = self.beta
        eigs[-1] = self.alpha
        extreme = GaussianPoint(
            np.zeros(d), sym(np.diag(eigs) @ self.anchor.cov @ np.diag(eigs))
        )
        return self.space.max_extendibility(self.anchor, extreme)

    def describe(self) -> dict:
        return {
            "kind": self.kind,
            "dim": self.space.dim,
            "alpha": self.alpha,
            "beta": self.beta,
            "base_cov": [[float(c) for c in row] for row in self.anchor.cov],
        }


FAMILY_KINDS = {
    EuclideanGaussian.kind: EuclideanGaussian,
    SphereCap.kind: SphereCap,
    HyperbolicGaussian.kind: HyperbolicGaussian,
    GaussianEnsemble.kind: GaussianEnsemble,
}


def family_from_config(obj: dict) -> Family:
    """Build a family from its JSON description (strict keys)."""
    obj = dict(obj)
    kind = obj.pop("kind", None)
    if kind not in FAMILY_KINDS:
        raise BadFamilyParams(f"unknown family kind {kind!r}")
    cls = FAMILY_KINDS[kind]
    # the keys are the constructor's parameters
    unknown = set(obj) - set(inspect.signature(cls).parameters)
    if unknown:
        raise BadFamilyParams(f"unknown family keys {sorted(unknown)}")
    try:
        return cls(**obj)
    except TypeError as exc:
        raise BadFamilyParams(str(exc)) from exc


def _orthonormal_tangent_basis(anchor: np.ndarray) -> np.ndarray:
    """Deterministic orthonormal basis of the hyperplane orthogonal to anchor."""
    n = anchor.shape[0]
    basis = []
    for k in range(n):
        e = np.zeros(n)
        e[k] = 1.0
        v = e - np.dot(e, anchor) * anchor
        for b in basis:
            v = v - np.dot(v, b) * b
        norm = np.linalg.norm(v)
        if norm > 1e-8:
            basis.append(v / norm)
        if len(basis) == n - 1:
            break
    return np.stack(basis)


def gaussian_quantile_grid(space: QuantileSpace, mean: float, sd: float) -> np.ndarray:
    """Quantile-space discretization of a one-dimensional Gaussian."""
    if sd < 0:
        raise BadFamilyParams("sd must be nonnegative")
    inv_cdf = NormalDist().inv_cdf
    return mean + sd * np.array([inv_cdf(level) for level in space.levels()])
