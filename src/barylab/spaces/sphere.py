"""Unit sphere S^d embedded in R^(d+1), with angles stable on all of [0, pi]."""

from __future__ import annotations

import math

import numpy as np

from ..errors import AntipodalPoints, OutOfDomain
from ..linalg import weighted_sum
from .base import Extendibility, Space

# Points this close to the cut locus are rejected rather than resolved.
ANTIPODAL_TOL = 1e-9
UNIT_NORM_TOL = 1e-12


class Sphere(Space):
    tag = "sphere"
    curv_lower = 1.0
    curv_upper = 1.0

    def __init__(self, dim: int = 2):
        super().__init__(dim)  # intrinsic dimension; ambient is dim + 1

    @property
    def ambient(self) -> int:
        return self.dim + 1

    def check_point(self, x) -> None:
        x = np.asarray(x, dtype=float)
        if x.shape != (self.ambient,):
            raise ValueError(f"expected ambient dimension {self.ambient}, got {x.shape}")
        if abs(np.linalg.norm(x) - 1.0) > UNIT_NORM_TOL:
            raise ValueError(f"not a unit vector: |x| = {np.linalg.norm(x)!r}")

    def random_point(self, rng):
        v = rng.standard_normal(self.ambient)
        return v / np.linalg.norm(v)

    def exp(self, p, v):
        """Exponential map, batched over leading axes of ``p`` and ``v``."""
        p = np.asarray(p, float)
        payload = np.asarray(v, dtype=float)
        m = np.linalg.norm(payload, axis=-1, keepdims=True)
        if np.any(m >= math.pi):
            raise OutOfDomain(f"tangent magnitude {np.max(m):.12g} >= pi")
        tip = m < 1e-300
        out = np.cos(m) * p + np.sin(m) * (payload / np.where(tip, 1.0, m))
        return np.where(tip, p, out / np.linalg.norm(out, axis=-1, keepdims=True))

    def tangent_inner(self, p, u_payload, v_payload):
        return np.einsum("...i,...i->...", u_payload, v_payload)

    def random_tangent(self, p, rng) -> np.ndarray:
        p = np.asarray(p, float)
        v = rng.standard_normal(self.ambient)
        return v - np.dot(v, p) * p

    # -- batched -------------------------------------------------------------

    def _tangent_theta(self, p, batch):
        """Parts of the batch orthogonal to p, their norms, and angles to p;
        ``p`` of shape (..., D) with a batch of shape (..., n, D).

        The orthogonal part is taken of x - p, which is exact for nearby
        points, and theta = atan2(|x_perp|, x . p) is stable on all of
        [0, pi] and blind to the rounding of |x| and |p| away from 1.  The
        returned ``v`` is the one batch-sized array formed: it takes the
        projection and the squared norms a coordinate at a time, summed in the
        order ``np.linalg.norm`` sums fewer than 8 coordinates.
        """
        p = np.asarray(p, float)[..., None, :]
        v = batch - p
        inner = np.einsum("...j,...j->...", v, p)
        for k in range(self.ambient):
            v[..., k] -= inner * p[..., k]
        nv = v[..., 0] * v[..., 0]
        for k in range(1, self.ambient):
            nv += v[..., k] * v[..., k]
        np.sqrt(nv, out=nv)
        cos = np.einsum("...j,...j->...", batch, p)
        return v, nv, np.arctan2(nv, cos, out=cos)

    def log_batch(self, p, batch):
        v, nv, theta = self._tangent_theta(p, batch)
        if np.any(theta > math.pi - ANTIPODAL_TOL):
            raise AntipodalPoints("a batch point reaches the cut locus of the base")
        # scale v by theta / nv in place, by 0 where nv is 0
        v *= np.divide(theta, nv, out=nv, where=nv > 0)[..., None]
        return v, theta

    def sqdist_batch(self, p, batch) -> np.ndarray:
        return self._tangent_theta(p, batch)[2] ** 2

    def extendibility_batch(self, p, batch) -> Extendibility:
        length = np.sqrt(self.sqdist_batch(p, batch))
        if np.any(length > math.pi - ANTIPODAL_TOL):
            raise AntipodalPoints("no unique geodesic to extend")
        # the extension stays minimizing while the total arc is <= pi;
        # report the symmetric maximal split of the remaining budget
        short = length < 1e-14
        half = np.where(short, math.inf, (math.pi / np.where(short, 1.0, length) - 1.0) / 2.0)
        return Extendibility(half, half)

    def warm_start(self, batch, weights):
        """The projected extrinsic mean, unless it is degenerate or a support
        point lies pi/2 (the Karcher/Afsari uniqueness radius) or more away;
        for each problem of a stacked (T, n, D) batch with (T, n) weights."""
        mean = weighted_sum(weights, batch)
        norm = np.linalg.norm(mean, axis=-1, keepdims=True)
        start = mean / np.where(norm > 1e-8, norm, 1.0)
        ok = (norm[..., 0] > 1e-8) & np.all(
            self.sqdist_batch(start, batch) < (math.pi / 2) ** 2, axis=-1
        )
        return self._fall_back(start, ok, batch, weights)
