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
        eig = self._map_eigs(p, x.cov[None])[0]
        return float(eig[0]), float(eig[-1])

    def _map_eigs(self, p: GaussianPoint, covs: np.ndarray) -> np.ndarray:
        """Ascending eigenvalues of the optimal linear maps from p to covs_i."""
        return np.linalg.eigvalsh(np.eye(self.dim) + self._map_gaps(p, covs))

    @staticmethod
    def _map_gaps(p: GaussianPoint, covs: np.ndarray) -> np.ndarray:
        """L_i = A_i - I for the optimal linear maps A_i from p to covs_i.

        In the eigenbasis V of p.cov = V diag(lam) V^T, with r = sqrt(lam),
        L = X / (r_i r_j) where diag(lam) + X is the square root of
        diag(lam^2) + D and D = r_i (V^T (C - p.cov) V)_ij r_j.  X solves
        (lam_i + lam_j) X_ij = (D - X^2)_ij; evaluating X^2 at the eigensolver
        root gives X to relative precision however close C is to p.cov, where
        forming A and subtracting I would leave only rounding noise.
        """
        lam, v = spd_eigh(p.cov)
        r = np.sqrt(lam)
        d = r[:, None] * (v.T @ (covs - p.cov) @ v) * r
        x0 = spd_sqrt_batch(np.diag(lam**2) + d) - np.diag(lam)
        x = (d - x0 @ x0) / (lam[:, None] + lam)
        return sym(v @ (x / np.outer(r, r)) @ v.T)

    def extendibility_batch(self, p: GaussianPoint, batch) -> Extendibility:
        """Extension range limited by positive-definiteness of the interpolant.

        The interpolated map (1 - t) I + t A stays PD outward while
        t < 1/(1 - a_min) and inward while t > -1/(a_max - 1); both suprema
        are open because the map degenerates exactly at the endpoint.
        """
        eig = self._map_eigs(p, batch[:, 1:])
        a_min, a_max = eig[:, 0], eig[:, -1]
        open_out = a_min < 1.0 - 1e-15
        open_in = a_max > 1.0 + 1e-15
        lam_out = np.where(open_out, a_min / np.where(open_out, 1.0 - a_min, 1.0), math.inf)
        lam_in = np.where(open_in, 1.0 / np.where(open_in, a_max - 1.0, 1.0), math.inf)
        return Extendibility(lam_in, lam_out, open_in, open_out)

    # -- tangent cone ------------------------------------------------------------

    def exp(self, p: GaussianPoint, v):
        payload = np.asarray(v, dtype=float)
        u, lin = payload[0], payload[1:]
        t = np.eye(self.dim) + lin
        if np.min(np.linalg.eigvalsh(sym(t))) <= SPD_EIG_FLOOR:
            raise OutOfDomain("induced map I + L is not positive definite")
        return GaussianPoint(p.mean + u, sym(t @ p.cov @ t))

    def tangent_inner(self, p: GaussianPoint, u_payload, v_payload):
        u1, l1 = u_payload[..., 0, :], u_payload[..., 1:, :]
        u2, l2 = v_payload[..., 0, :], v_payload[..., 1:, :]
        return np.einsum("...i,...i->...", u1, u2) + np.einsum(
            "...ij,...ji->...", l1 @ p.cov, l2
        )

    def random_tangent(self, p: GaussianPoint, rng) -> np.ndarray:
        payload = np.empty((self.dim + 1, self.dim))
        payload[0] = rng.standard_normal(self.dim)
        payload[1:] = sym(rng.standard_normal((self.dim, self.dim)))
        return payload

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

    def log_batch(self, p: GaussianPoint, batch):
        payloads, mags_sq = self._log_sq(p, batch)
        return payloads, np.sqrt(mags_sq)

    def sqdist_batch(self, p, batch) -> np.ndarray:
        # |u|^2 + tr(L C L), a quadratic form in the log payload, so nearly
        # equal points do not lose precision to the cancellation of O(1) traces
        if not isinstance(p, GaussianPoint):  # a stacked batch of base points, one row each
            return np.stack([self._log_sq(q, batch)[1] for q in self.unstack(p)])
        return self._log_sq(p, batch)[1]

    def _log_sq(self, p: GaussianPoint, batch):
        """Log payloads [u; L] = [m_i - m; A_i - I] and their squared norms."""
        means, covs = batch[:, 0], batch[:, 1:]
        payloads = np.empty(batch.shape)
        payloads[:, 0, :] = means - p.mean
        payloads[:, 1:, :] = self._map_gaps(p, covs)
        tip = np.all(means == p.mean, axis=1) & np.all(covs == p.cov, axis=(1, 2))
        payloads[tip] = 0.0  # exact cone tip, not the rounding of A - I
        return payloads, np.maximum(self.tangent_inner(p, payloads, payloads), 0.0)
