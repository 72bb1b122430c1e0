"""Bures-Wasserstein space: Gaussian measures on R^D under the W2 metric.

Distances, geodesics and log/exp are closed-form in the mean and covariance.
A tangent payload is the affine displacement map z -> u + L (z - mean),
stored as the (D+1, D) array [u; L]; its norm in L2 of the base Gaussian is
the cone norm, so payload algebra matches the tangent-cone structure.  A
point N(m, C) takes the same layout, the (D+1, D) array [m; C], and a
stacked batch of n points is the (n, D+1, D) array of their rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..errors import OutOfDomain
from ..linalg import (
    SPD_EIG_FLOOR,
    positive_qr_q,
    spd_check,
    spd_eigh,
    spd_sqrt_batch,
    sym,
    weighted_sum,
)
from .base import Extendibility, Space


@dataclass(frozen=True, eq=False)
class GaussianPoint:
    """A Gaussian N(mean, cov) with SPD covariance, validated by
    ``BuresWasserstein.check_point``: the constructor of a point from outside
    input, whose ``row`` is the point itself."""

    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "mean", np.asarray(self.mean, dtype=float))
        object.__setattr__(self, "cov", np.asarray(self.cov, dtype=float))
        if self.mean.ndim != 1 or self.cov.shape != self.mean.shape * 2:
            raise ValueError(f"inconsistent shapes {self.mean.shape} / {self.cov.shape}")
        BuresWasserstein(len(self.mean)).check_point(self.row)

    @property
    def row(self) -> np.ndarray:
        """The point as the kernels take it: the (D+1, D) array [mean; cov]."""
        return np.concatenate((self.mean[None], self.cov))


class BuresWasserstein(Space):
    tag = "gaussian"
    curv_lower = 0.0
    curv_upper = float("inf")

    def check_point(self, x) -> None:
        super().check_point(x)
        spd_check(np.asarray(x, float)[1:], "covariance")

    def random_point(self, rng):
        q = positive_qr_q(rng.standard_normal((self.dim, self.dim)))
        eig = rng.uniform(0.5, 2.0, self.dim)
        cov = sym((q * eig) @ q.T)
        return np.concatenate((0.5 * rng.standard_normal((1, self.dim)), cov))

    @classmethod
    def payload_space(cls, obj: dict) -> BuresWasserstein:
        return cls(len(cls.payload_array(obj, "mean")))

    def point_payload(self, x) -> dict:
        return {
            "space": self.tag,
            "mean": [float(c) for c in x[0]],
            "cov": [[float(c) for c in row] for row in x[1:]],
        }

    def point_from_payload(self, obj):
        # GaussianPoint checks the point; its dimension is left
        mean, cov = self.payload_array(obj, "mean"), self.payload_array(obj, "cov", 2)
        x = GaussianPoint(mean, cov).row
        if x.shape != self.point_shape:
            raise ValueError(f"expected a [mean; cov] row of shape {self.point_shape}")
        return x

    # -- metric ----------------------------------------------------------------

    def transport_map(self, p, x) -> np.ndarray:
        """Linear part A of the optimal map from p to x (SPD)."""
        return np.eye(self.dim) + self._map_gaps(p, x[None, 1:])[0]

    def transport_map_bounds(self, p, x) -> tuple[float, float]:
        """Extreme eigenvalues of ``transport_map(p, x)``: its potential's convexity, smoothness."""
        eig = np.linalg.eigvalsh(self.transport_map(p, x))
        return float(eig[0]), float(eig[-1])

    def _map_gaps(self, p, covs: np.ndarray) -> np.ndarray:
        """L_i = A_i - I for the optimal linear maps A_i from p to covs_i, with
        stacked rows ``p`` broadcast as ``p[..., None, :, :]`` against ``covs``.

        In the eigenbasis V of C_p = V diag(lam) V^T, with r = sqrt(lam),
        L = X / (r_i r_j) where diag(lam) + X is the square root of
        diag(lam^2) + D and D = r_i (V^T (C - C_p) V)_ij r_j.  X solves
        (lam_i + lam_j) X_ij = (D - X^2)_ij; evaluating X^2 at the eigensolver
        root gives X to relative precision however close C is to C_p, where
        forming A and subtracting I would leave only rounding noise.
        """
        cov = p[..., None, 1:, :]  # the batch axis
        lam, v = spd_eigh(cov)
        r, eye, vt = np.sqrt(lam), np.eye(self.dim), np.swapaxes(v, -1, -2)
        d = r[..., :, None] * (vt @ (covs - cov) @ v) * r[..., None, :]
        x0 = spd_sqrt_batch((lam**2)[..., None] * eye + d) - lam[..., None] * eye
        x = (d - x0 @ x0) / (lam[..., :, None] + lam[..., None, :])
        return sym(v @ (x / (r[..., :, None] * r[..., None, :])) @ vt)

    def extendibility_batch(self, p, batch) -> Extendibility:
        """Extension range limited by positive-definiteness of the interpolant.

        The interpolated map (1 - t) I + t A stays PD outward while
        t < 1/(1 - a_min) and inward while t > -1/(a_max - 1); both suprema
        are open because the map degenerates exactly at the endpoint.
        """
        eig = np.linalg.eigvalsh(np.eye(self.dim) + self._map_gaps(p, batch[..., 1:, :]))
        a_min, a_max = eig[..., 0], eig[..., -1]
        shrinks, grows = a_min < 1.0 - 1e-15, a_max > 1.0 + 1e-15  # else unbounded
        lam_out = np.where(shrinks, a_min / np.where(shrinks, 1.0 - a_min, 1.0), math.inf)
        lam_in = np.where(grows, 1.0 / np.where(grows, a_max - 1.0, 1.0), math.inf)
        return Extendibility(lam_in, lam_out)

    # -- tangent cone ------------------------------------------------------------

    def exp(self, p, v):
        """Exponential map at rows ``p``, broadcast against the payloads ``v``."""
        v = np.asarray(v, dtype=float)
        t = np.eye(self.dim) + v[..., 1:, :]
        if np.min(np.linalg.eigvalsh(sym(t))) <= SPD_EIG_FLOOR:
            raise OutOfDomain("induced map I + L is not positive definite")
        mean, cov = p[..., 0, :] + v[..., 0, :], sym(t @ p[..., 1:, :] @ t)
        return np.concatenate((mean[..., None, :], cov), axis=-2)

    def tangent_inner(self, p, u_payload, v_payload):
        u1, l1 = u_payload[..., 0, :], u_payload[..., 1:, :]
        u2, l2 = v_payload[..., 0, :], v_payload[..., 1:, :]
        return np.einsum("...i,...i->...", u1, u2) + np.einsum(
            "...ij,...ji->...", l1 @ p[..., 1:, :], l2
        )

    def tangent_part(self, p, v):
        # a displacement map's linear part L is symmetric
        return np.concatenate((v[..., :1, :], sym(v[..., 1:, :])), axis=-2)

    # -- batched -------------------------------------------------------------

    @property
    def point_shape(self) -> tuple:
        return (self.dim + 1, self.dim)

    @property
    def tangent_dim(self) -> int:
        # a mean shift and a symmetric map: d + d(d + 1)/2
        return self.dim * (self.dim + 3) // 2

    def log_batch(self, p, batch):
        payloads, mags_sq = self._log_sq(p, batch)
        return payloads, np.sqrt(mags_sq)

    def sqdist_batch(self, p, batch) -> np.ndarray:
        # |u|^2 + tr(L C L), a quadratic form in the log payload, so nearly
        # equal points do not lose precision to the cancellation of O(1) traces
        return self._log_sq(p, batch)[1]

    def warm_start(self, batch, weights):
        """The weighted means and covariances, each covariance symmetrised:
        the fixed point's start, for each problem of a stacked batch."""
        start = weighted_sum(weights, batch)
        start[..., 1:, :] = sym(start[..., 1:, :])
        return start

    def tangent_mean(self, p, batch, weights):
        """The base method at stacked rows ``p`` in the fixed point's
        sandwich form (Alvarez-Esteban et al. 2016).  With S = C^(1/2) and
        X = sum_i w_i (S C_i S)^(1/2), reduced once per problem, the mean
        log is [sum_i w_i m_i - m; sym(S^-1 X S^-1) - I] and the objective
        sum_i w_i |m_i - m|^2 + tr C + tr(sum_i w_i C_i) - 2 tr X.  S and
        S^-1 come from one eigendecomposition per problem; the distances
        are None."""
        mean, cov = p[..., 0, :], p[..., 1:, :]
        lam, v = spd_eigh(cov)
        r = np.sqrt(lam)[..., None, :]
        vt = np.swapaxes(v, -1, -2)
        s, s_inv = ((v * r) @ vt)[:, None], (v / r) @ vt
        x = weighted_sum(weights, spd_sqrt_batch(s @ batch[..., 1:, :] @ s))
        bar = weighted_sum(weights, batch)  # [sum_i w_i m_i; sum_i w_i C_i]
        gaps = batch[..., 0, :] - mean[:, None]
        grad = np.empty(np.shape(p))
        grad[:, 0] = bar[:, 0] - mean
        grad[:, 1:] = sym(s_inv @ x @ s_inv) - np.eye(self.dim)
        objective = weighted_sum(weights, np.einsum("...i,...i->...", gaps, gaps))
        objective += np.einsum("...ii->...", cov + bar[:, 1:] - 2.0 * x)
        return grad, objective, None

    def _log_sq(self, p, batch):
        """Log payloads [u; L] = [m_i - m; A_i - I] and their squared norms;
        stacked base rows meet the batch as ``p[..., None, :, :]``."""
        base = p[..., None, :, :]
        mean, cov = base[..., 0, :], base[..., 1:, :]
        means, covs = batch[..., 0, :], batch[..., 1:, :]
        payloads = np.concatenate(((means - mean)[..., None, :], self._map_gaps(p, covs)), -2)
        tip = np.all(means == mean, axis=-1) & np.all(covs == cov, axis=(-2, -1))
        payloads[tip] = 0.0  # exact cone tip, not the rounding of A - I
        return payloads, np.maximum(self.tangent_inner(base, payloads, payloads), 0.0)
