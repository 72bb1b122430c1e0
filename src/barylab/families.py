"""Sampling families with known population barycenters.

A family is a law of tangent vectors at its anchor: ``tangents`` draws the log
payloads at the anchor, each inside the injectivity radius and symmetric about
0, so the anchor is the population barycenter.  The space's own ``exp`` turns
them into points, its ``tangent_inner`` gives their squared distances to the
anchor, and the experiment harness verifies the anchor from
``anchor_log_sums``, the sums of the payloads, without forming the points.
Families also expose the extendibility of their population support, computed
through the space's max_extendibility on extreme support points.
"""

from __future__ import annotations

import abc
import functools
import math

import numpy as np

from .errors import BadFamilyParams
from .linalg import positive_qr_q, sym
from .spaces import (
    BuresWasserstein,
    Euclidean,
    Extendibility,
    Hyperboloid,
    Space,
    Sphere,
)


class Family(abc.ABC):
    """A seeded sampling distribution on one model space."""

    kind: str
    space: Space
    anchor: object

    @abc.abstractmethod
    def tangents(self, rng: np.random.Generator, count: int) -> np.ndarray:
        """Log payloads at the anchor of ``count`` fresh draws, stacked along
        axis 0, each inside the injectivity radius: draw k is
        ``space.exp(anchor, tangents[k])``."""

    @abc.abstractmethod
    def sigma2(self) -> float:
        """Exact population variance E d^2(anchor, X), from the family's law."""

    @abc.abstractmethod
    def subgaussian_moment(self, varsigma2: float) -> float:
        """E exp(d^2(anchor, X) / (2 varsigma2)) from the law (inf if it diverges), or a bound."""

    @abc.abstractmethod
    def support_extendibility(self) -> Extendibility:
        """Extendibility infimum over the population support."""

    def transport_bounds(self) -> tuple[float, float] | None:
        """(alpha, beta) when every draw's transport potential from the anchor is
        alpha-convex and beta-smooth, the Wasserstein corollary's premise; else None."""
        return None

    def sample(self, rng: np.random.Generator, count: int) -> list:
        return list(self.sample_batch(rng, count))

    def sample_batch(self, rng: np.random.Generator, count: int):
        """Batch of draws in the space's stacked representation."""
        return self.space.exp(self.anchor, self.tangents(rng, count))

    def sqdist_anchor(self, rng: np.random.Generator, count: int) -> np.ndarray:
        """Squared distances to the anchor for ``count`` fresh draws."""
        payloads = self.tangents(rng, count)
        return self.space.tangent_inner(self.anchor, payloads, payloads)

    def anchor_log_sums(self, rng: np.random.Generator, count: int):
        """Sums of log_anchor(X) and of d^2(anchor, X) over the draws of
        ``sample_batch(rng, count)``, leaving ``rng`` where that call leaves it."""
        payloads = self.tangents(rng, count)
        sq = self.space.tangent_inner(self.anchor, payloads, payloads)
        return payloads.sum(axis=0), float(sq.sum())


def _legendre(x: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """P_n(x) and P_n'(x) by the three-term recurrence, for x inside (-1, 1)."""
    prev, cur = np.ones_like(x), x
    for j in range(1, n):
        prev, cur = cur, ((2 * j + 1) * x * cur - j * prev) / (j + 1)
    # (1 - x^2) P_n' = n (P_{n-1} - x P_n)
    return cur, n * (prev - x * cur) / (1.0 - x * x)


@functools.cache
def _unit_rule() -> tuple[np.ndarray, np.ndarray]:
    """64-node Gauss-Legendre rule on [0, 1] (nodes ascending, weights summing to 1),
    built once by Newton's method on the Legendre recurrence (Hale & Townsend 2013).
    No eigendecomposition is formed, so sphere, hyperbolic and Euclidean runs call no
    LAPACK routine.  From the guesses cos(pi (k - 1/4) / (n + 1/2)) the steps reach
    rounding in four iterations; a root x of P_n in [-1, 1] has weight
    2 / ((1 - x^2) P_n'(x)^2), halved on [0, 1].  For every k < 128 the rule gives
    the integral 1 / (k + 1) of x^k on [0, 1] to within 2.2e-16."""
    n = 64
    x = np.cos(np.pi * (np.arange(n, 0, -1) - 0.25) / (n + 0.5))
    step = np.inf
    while np.max(np.abs(step)) > 1e-14:
        value, slope = _legendre(x, n)
        step = value / slope
        x -= step
    _, slope = _legendre(x, n)
    return 0.5 * (x + 1.0), 1.0 / ((1.0 - x * x) * slope * slope)


def _chi2_moment(ratio: float, dim: int) -> float:
    """E exp(ratio Z / 2) for Z chi-square with ``dim`` degrees of freedom."""
    return math.inf if ratio >= 1.0 else (1.0 - ratio) ** (-dim / 2)


def _as_unit_rows(v: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(v, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    return v / norms


class _IsotropicGaussian(Family):
    """Exponential of an isotropic Gaussian tangent vector v at the anchor:
    ``scale`` times standard normal coordinates in an orthonormal frame, the
    rows of ``frame`` or else the space's ``tangent_basis`` at the anchor.
    Then d(anchor, exp v) = |v|, so d^2 = scale^2 Z with Z chi-square on dim
    degrees of freedom."""

    def __init__(self, space: Space, anchor, scale: float, frame=None):
        self.space = space
        self.anchor = np.asarray(anchor, float)
        space.check_point(self.anchor)
        self.scale = float(scale)
        self._basis = space.tangent_basis(self.anchor) if frame is None else frame

    def tangents(self, rng, count):
        return (self.scale * rng.standard_normal((count, self.space.dim))) @ self._basis

    def sigma2(self):
        return self.space.dim * self.scale**2

    def subgaussian_moment(self, varsigma2):
        return _chi2_moment(self.scale**2 / varsigma2, self.space.dim)

    def support_extendibility(self) -> Extendibility:
        return Extendibility(math.inf, math.inf)


class EuclideanGaussian(_IsotropicGaussian):
    """Isotropic Gaussian around a Euclidean anchor."""

    kind = "euclidean_gaussian"

    def __init__(self, dim: int = 3, mean=None, sd: float = 1.0):
        if sd <= 0:
            raise BadFamilyParams("sd must be positive")
        space = Euclidean(dim)
        super().__init__(space, np.zeros(dim) if mean is None else mean, sd, np.eye(space.dim))


class HyperbolicGaussian(_IsotropicGaussian):
    """Isotropic Gaussian tangent vectors at a hyperbolic anchor."""

    kind = "hyperbolic_gaussian"

    def __init__(self, scale: float, dim: int = 2, anchor=None):
        if scale <= 0:
            raise BadFamilyParams("scale must be positive")
        space = Hyperboloid(dim)
        super().__init__(space, space.origin() if anchor is None else anchor, scale)


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
        self.anchor = self.space.origin() if anchor is None else np.asarray(anchor, float)
        self.space.check_point(self.anchor)
        self.radius = float(radius)
        self._basis = self.space.tangent_basis(self.anchor)

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

    def tangents(self, rng, count):
        # polar: the angle theta from the anchor, then a uniform direction
        theta = self._draw_theta(rng, count)
        dirs = _as_unit_rows(rng.standard_normal((count, self.space.dim)))
        return (theta[:, None] * dirs) @ self._basis

    def _theta_mean(self, f) -> float:
        """E f(theta) under the density sin^(d-1) theta on [0, r], by quadrature."""
        nodes, weights = _unit_rule()
        theta = self.radius * nodes
        density = weights * np.sin(theta) ** (self.space.dim - 1)
        with np.errstate(over="ignore"):
            return float(density @ f(theta) / density.sum())

    def sigma2(self):
        return self._theta_mean(np.square)

    def subgaussian_moment(self, varsigma2):
        return self._theta_mean(lambda theta: np.exp(theta**2 / (2.0 * varsigma2)))

    def support_extendibility(self) -> Extendibility:
        edge = self.space.exp(self.anchor, self.radius * self._basis[0])
        return self.space.max_extendibility(self.anchor, edge)


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
        if cov.shape != (dim, dim):
            raise ValueError(f"base_cov of shape {cov.shape}, expected {(dim, dim)}")
        self.anchor = np.concatenate((np.zeros((1, dim)), cov))
        self.space.check_point(self.anchor)
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

    def tangents(self, rng, count):
        # the optimal map from C to M C M is the SPD M itself, so a draw's log
        # is [0; M - I] = [0; Q (E - I) Q^T], formed without subtracting I
        eigs, q = self._draw_spectra(rng, count)
        payloads = np.zeros((count,) + self.space.point_shape)
        payloads[:, 1:] = sym((q * (eigs - 1.0)[:, None, :]) @ np.swapaxes(q, -1, -2))
        return payloads

    def sample_batch(self, rng, count):
        # M C M directly: Bures exp would check each map's eigenvalues, which
        # the eigenvalue draws already bound
        eigs, q = self._draw_spectra(rng, count)
        maps = sym((q * eigs[:, None, :]) @ np.swapaxes(q, -1, -2))
        batch = np.zeros((count,) + self.space.point_shape)
        batch[:, 1:] = sym(maps @ self.anchor[1:] @ maps)  # the means stay 0
        return batch

    def anchor_log_sums(self, rng, count):
        # the sums of the tangents without a map formed: the payloads sum to
        # [0; sum_ni (e_ni - 1) q_ni q_ni^T], their squared norms to
        # tr(C sum_ni (e_ni - 1)^2 q_ni q_ni^T), and with all columns q_ni side
        # by side each sum is one product
        d = self.space.dim
        eigs, q = self._draw_spectra(rng, count)
        cols, gaps = np.swapaxes(q, 0, 1).reshape(d, count * d), (eigs - 1.0).ravel()
        payload_sum = np.zeros((d + 1, d))
        payload_sum[1:] = sym((cols * gaps) @ cols.T)
        return payload_sum, float(np.einsum("ij,ji->", self.anchor[1:], (cols * gaps**2) @ cols.T))

    def sigma2(self):
        # sum_i E(e_i - 1)^2 E q_i^T C q_i: a Haar column gives tr C / d whatever
        # the eigenvalues, and a uniform segment from 1 to x gives (x - 1)^2 / 3
        p = self._p_lo
        spread = p * (1.0 - self.alpha) ** 2 + (1.0 - p) * (self.beta - 1.0) ** 2
        return float(np.trace(self.anchor[1:])) * spread / 3.0

    def subgaussian_moment(self, varsigma2):
        # given Q, d^2 = sum_i a_i (e_i - 1)^2 with a = diag(Q^T C Q), so the moment is
        # prod_i psi(a_i), psi(a) = E exp(a (e - 1)^2 / (2 varsigma2)); lam(C) majorizes a
        # (Schur-Horn) and log psi is convex, so prod_i psi(lam_i) bounds it, exact for C = cI
        nodes, weights = _unit_rule()
        gaps = np.array([[1.0 - self.alpha], [self.beta - 1.0]]) * nodes
        lam = np.linalg.eigvalsh(self.anchor[1:])
        with np.errstate(over="ignore"):
            psi = np.exp(lam[:, None, None] * gaps**2 / (2.0 * varsigma2)) @ weights
        return float(np.prod(psi @ [self._p_lo, 1.0 - self._p_lo]))

    def transport_bounds(self):
        return self.alpha, self.beta  # the eigenvalue range of every draw's map

    def support_extendibility(self) -> Extendibility:
        # the two extreme admissible maps, eigenvalue beta and eigenvalue
        # alpha (the others 1), realize the support infimum exactly
        maps = np.ones((2, self.space.dim))
        maps[:, 0] = self.beta, self.alpha
        extreme = np.zeros((2,) + self.space.point_shape)
        extreme[:, 1:] = sym(maps[:, :, None] * self.anchor[1:] * maps[:, None, :])
        return self.space.max_extendibility(self.anchor, extreme)


FAMILY_KINDS = {
    EuclideanGaussian.kind: EuclideanGaussian,
    SphereCap.kind: SphereCap,
    HyperbolicGaussian.kind: HyperbolicGaussian,
    GaussianEnsemble.kind: GaussianEnsemble,
}

