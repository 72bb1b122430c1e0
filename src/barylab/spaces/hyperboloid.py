"""Hyperbolic space H^d in the hyperboloid model.

Points live on the upper sheet {x : <x, x>_M = -1, x0 > 0} of the Minkowski
quadric; the model is numerically stabler for log/exp than the Poincare disk.
"""

from __future__ import annotations

import math

import numpy as np

from ..linalg import weighted_sum
from .base import Space

MINKOWSKI_TOL = 1e-12


class Hyperboloid(Space):
    tag = "hyperbolic"
    curv_lower = -1.0
    curv_upper = -1.0

    def __init__(self, dim: int = 2):
        super().__init__(dim)
        # Minkowski signature (-, +, ..., +)
        self._j = np.ones(self.dim + 1)
        self._j[0] = -1.0

    @property
    def ambient(self) -> int:
        return self.dim + 1

    def minkowski(self, a, b) -> float:
        return float(np.sum(self._j * np.asarray(a, float) * np.asarray(b, float)))

    def origin(self) -> np.ndarray:
        o = np.zeros(self.ambient)
        o[0] = 1.0
        return o

    def check_point(self, x) -> None:
        x = np.asarray(x, dtype=float)
        if x.shape != (self.ambient,):
            raise ValueError(f"expected ambient dimension {self.ambient}, got {x.shape}")
        q = self.minkowski(x, x)
        if abs(q + 1.0) > MINKOWSKI_TOL * max(1.0, x[0] ** 2) or x[0] < 1.0 - MINKOWSKI_TOL:
            raise ValueError(f"not on the upper hyperboloid sheet: <x,x>_M = {q!r}")

    def _project(self, x: np.ndarray) -> np.ndarray:
        q = np.maximum(-self.tangent_inner(None, x, x), 1e-300)
        return x / np.sqrt(q)[..., None]

    def random_point(self, rng):
        v = np.zeros(self.ambient)
        v[1:] = rng.standard_normal(self.dim)
        return self.exp(self.origin(), v)

    def exp(self, p, v):
        """Exponential map, batched over leading axes of ``p`` and ``v``."""
        p = np.asarray(p, float)
        payload = np.asarray(v, dtype=float)
        m = np.sqrt(np.maximum(self.tangent_inner(p, payload, payload), 0.0))[..., None]
        tip = m < 1e-300
        u = payload / np.where(tip, 1.0, m)
        return np.where(tip, p, self._project(np.cosh(m) * p + np.sinh(m) * u))

    def tangent_inner(self, p, u_payload, v_payload):
        # the Minkowski form is positive definite on tangent planes
        return np.einsum("...i,i,...i->...", u_payload, self._j, v_payload)

    def random_tangent(self, p, rng) -> np.ndarray:
        p = np.asarray(p, float)
        v = rng.standard_normal(self.ambient)
        return v + self.minkowski(v, p) * p

    # -- batched -------------------------------------------------------------

    def _tangent_theta(self, p, batch):
        """Tangent parts at p of the batch, their norms, and distances to p;
        ``p`` of shape (..., D) with a batch of shape (..., n, D).

        The tangent part x + <x, p>_M p = sinh(theta) u is taken of x - p,
        which is exact for nearby points, so rounding off the sheet (normal
        to it) does not leak into short distances as it does in |x - p|_M.
        The returned ``v`` is the one batch-sized array formed: it takes the
        projection a coordinate at a time, and the norms in place.
        """
        p = np.asarray(p, float)[..., None, :]
        v = batch - p
        inner = self.tangent_inner(p, v, p)
        for k in range(self.ambient):
            v[..., k] += inner * p[..., k]
        nv = self.tangent_inner(p, v, v)
        np.sqrt(np.maximum(nv, 0.0, out=nv), out=nv)
        return v, nv, np.arcsinh(nv)

    def log_batch(self, p, batch):
        v, nv, theta = self._tangent_theta(p, batch)
        # scale v by theta / nv in place, by 0 where nv is 0
        v *= np.divide(theta, nv, out=nv, where=nv > 0)[..., None]
        return v, theta

    def sqdist_batch(self, p, batch) -> np.ndarray:
        return self._tangent_theta(p, batch)[2] ** 2

    def warm_start(self, batch, weights):
        """The projected extrinsic mean: the Minkowski-normalised weighted mean
        (timelike with x0 > 0 for any sheet points, unless rounding breaks it);
        for each problem of a stacked (T, n, D) batch with (T, n) weights."""
        mean = weighted_sum(weights, batch)
        ok = (mean[..., 0] > 0) & (self.tangent_inner(None, mean, mean) < 0)
        return self._fall_back(self._project(mean), ok, batch, weights)

    def tangent_basis(self, p) -> np.ndarray:
        """Minkowski-orthonormal basis of the tangent plane at p, rows as vectors."""
        p = np.asarray(p, float)
        basis = []
        for k in range(1, self.ambient):
            e = np.zeros(self.ambient)
            e[k] = 1.0
            v = e + self.minkowski(e, p) * p  # project onto the tangent plane
            for b in basis:
                v = v - self.tangent_inner(p, v, b) * b
            norm = math.sqrt(max(self.tangent_inner(p, v, v), 0.0))
            basis.append(v / norm)
        return np.stack(basis)
