"""Bures-Wasserstein space: Gaussian measures on R^D under the W2 metric.

Distances, geodesics and log/exp are closed-form in the mean and covariance.
A tangent payload is the affine displacement map z -> u + L (z - mean),
stored as the (D+1, D) array [u; L]; its norm in L2 of the base Gaussian is
the cone norm, so payload algebra matches the tangent-cone structure.  A
stacked batch of points takes the same layout: each point N(m, C) is the
(D+1, D) array [m; C].
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
    """A Gaussian N(mean, cov) with SPD covariance."""

    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "mean", np.asarray(self.mean, dtype=float))
        object.__setattr__(self, "cov", np.asarray(self.cov, dtype=float))
        d = self.mean.shape[0]
        if self.mean.ndim != 1 or self.cov.shape != (d, d):
            raise ValueError(f"inconsistent shapes {self.mean.shape} / {self.cov.shape}")
        spd_check(self.cov, "covariance")

    @property
    def dim(self) -> int:
        return self.mean.shape[0]


class BuresWasserstein(Space):
    tag = "gaussian"
    curv_lower = 0.0
    curv_upper = float("inf")
    # the unit step is the fixed point (C <- T C T for the mean map T, which is
    # SPD); a longer one can leave the SPD cone
    max_step = 1.0

    def check_point(self, x) -> None:
        if not isinstance(x, GaussianPoint) or x.dim != self.dim:
            raise ValueError(f"expected a GaussianPoint of dimension {self.dim}")
        spd_check(x.cov, "covariance")

    def random_point(self, rng):
        q = positive_qr_q(rng.standard_normal((self.dim, self.dim)))
        eig = rng.uniform(0.5, 2.0, self.dim)
        cov = (q * eig) @ q.T
        return GaussianPoint(0.5 * rng.standard_normal(self.dim), sym(cov))

    def point_payload(self, x) -> dict:
        return {
            "space": self.tag,
            "mean": [float(c) for c in x.mean],
            "cov": [[float(c) for c in row] for row in x.cov],
        }

    def point_from_payload(self, obj):
        pt = GaussianPoint(np.asarray(obj["mean"], float), np.asarray(obj["cov"], float))
        self.check_point(pt)
        return pt

    # -- metric ----------------------------------------------------------------

    def transport_map(self, p: GaussianPoint, x: GaussianPoint) -> np.ndarray:
        """Linear part A of the optimal map from p to x (SPD)."""
        return np.eye(self.dim) + self._map_gaps(p, x.cov[None])[0]

    def transport_map_bounds(self, p: GaussianPoint, x: GaussianPoint) -> tuple[float, float]:
        """Least and greatest eigenvalues of ``transport_map(p, x)``."""
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
        cov = self._parts(p)[1][..., None, :, :]  # the batch axis
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
        open_out = a_min < 1.0 - 1e-15
        open_in = a_max > 1.0 + 1e-15
        lam_out = np.where(open_out, a_min / np.where(open_out, 1.0 - a_min, 1.0), math.inf)
        lam_in = np.where(open_in, 1.0 / np.where(open_in, a_max - 1.0, 1.0), math.inf)
        return Extendibility(lam_in, lam_out, open_in, open_out)

    # -- tangent cone ------------------------------------------------------------

    @staticmethod
    def _parts(p):
        """Mean and covariance of a ``GaussianPoint``, or of stacked
        (..., D+1, D) rows."""
        if isinstance(p, GaussianPoint):
            return p.mean, p.cov
        return p[..., 0, :], p[..., 1:, :]

    def exp(self, p, v):
        """Exponential map at a ``GaussianPoint`` or stacked rows ``p``, broadcast
        against the payloads ``v``; stacked payloads or rows give stacked rows."""
        payload = np.asarray(v, dtype=float)
        t = np.eye(self.dim) + payload[..., 1:, :]
        if np.min(np.linalg.eigvalsh(sym(t))) <= SPD_EIG_FLOOR:
            raise OutOfDomain("induced map I + L is not positive definite")
        mean, cov = self._parts(p)
        mean, cov = mean + payload[..., 0, :], sym(t @ cov @ t)
        if isinstance(p, GaussianPoint) and payload.ndim == 2:
            return GaussianPoint(mean, cov)
        return np.concatenate((mean[..., None, :], cov), axis=-2)

    def tangent_inner(self, p, u_payload, v_payload):
        u1, l1 = u_payload[..., 0, :], u_payload[..., 1:, :]
        u2, l2 = v_payload[..., 0, :], v_payload[..., 1:, :]
        return np.einsum("...i,...i->...", u1, u2) + np.einsum(
            "...ij,...ji->...", l1 @ self._parts(p)[1], l2
        )

    def tangent_part(self, p: GaussianPoint, v):
        # a displacement map's linear part L is symmetric
        return np.concatenate((v[..., :1, :], sym(v[..., 1:, :])), axis=-2)

    # -- batched -------------------------------------------------------------

    @property
    def point_shape(self) -> tuple:
        return (self.dim + 1, self.dim)

    def stack(self, points):
        """The (n, D+1, D) batch of [mean; cov] rows of a sequence of
        ``GaussianPoint``; a stacked batch passes through."""
        if not isinstance(points, np.ndarray):
            points = [np.concatenate((pt.mean[None], pt.cov)) for pt in points]
        return super().stack(points)

    def unstack(self, batch) -> list:
        return [GaussianPoint(row[0], row[1:]) for row in batch]

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
        mean, cov = self._parts(p)
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
        base = p if isinstance(p, GaussianPoint) else p[..., None, :, :]
        mean, cov = self._parts(base)
        means, covs = batch[..., 0, :], batch[..., 1:, :]
        payloads = np.concatenate(((means - mean)[..., None, :], self._map_gaps(p, covs)), -2)
        tip = np.all(means == mean, axis=-1) & np.all(covs == cov, axis=(-2, -1))
        payloads[tip] = 0.0  # exact cone tip, not the rounding of A - I
        return payloads, np.maximum(self.tangent_inner(base, payloads, payloads), 0.0)
