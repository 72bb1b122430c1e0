"""The model spaces of curvature kappa = 1 and -1: the unit sphere S^d, and
hyperbolic space H^d as the upper sheet x0 > 0 of the hyperboloid, which is
stabler for log/exp than the Poincare disk.

Both are the quadric <x, x>_j = 1/kappa in R^(d+1) under the form
<x, y>_j = sum_k j_k x_k y_k, with j = 1 on the sphere and j = (-1, 1, ..., 1)
on the hyperboloid (Bridson & Haefliger 1999, ch. I.2), positive definite on
tangent planes.  Each kernel is one formula in kappa and (cos, sin) or
(cosh, sinh).  The frame at p carries the axes e_k, k != pole, by the rotation
or boost taking the pole o = +-e_pole (on p's side) to p:
e_k - kappa p_k (p + o) / (1 + kappa <o, p>_j).  Its Gram error grows like
eps x0^2 on the hyperboloid, so anchors to about distance 12 build.
"""

from __future__ import annotations

import math

import numpy as np

from ..errors import AntipodalPoints, OutOfDomain
from ..linalg import weighted_sum
from .base import Extendibility, Space

# Points this close to the cut locus are rejected rather than resolved.
ANTIPODAL_TOL = 1e-9
UNIT_NORM_TOL = 1e-12
MINKOWSKI_TOL = 1e-12
# largest Gram error of a tangent basis, which would skew a family's law
BASIS_GRAM_TOL = 1e-5


class _ModelSpace(Space):
    """The quadric <x, x>_j = 1/kappa.  A subclass sets ``kappa``, ``cut``
    (the distance to the cut locus), ``_pole`` (the axis where j holds
    kappa, whose unit vector is the default anchor) and ``_cos``/``_sin``."""

    def __init__(self, dim: int = 2):
        super().__init__(dim)  # intrinsic dimension; ambient is dim + 1
        self._j = np.ones(self.ambient)
        self._j[self._pole] = self.kappa

    @property
    def ambient(self) -> int:
        return self.dim + 1

    @classmethod
    def payload_space(cls, obj: dict) -> _ModelSpace:
        """The space of ``dim`` one less than the payload's coordinates, which
        must be at least two."""
        coords = cls.payload_array(obj, cls.payload_key)
        if len(coords) < 2:
            raise ValueError(f"{cls.payload_key!r} of a {cls.tag} point payload must be a list "
                             f"of at least 2 numbers, got {obj[cls.payload_key]!r}")
        return cls(len(coords) - 1)

    def origin(self) -> np.ndarray:
        o = np.zeros(self.ambient)
        o[self._pole] = 1.0
        return o

    def _project(self, x: np.ndarray) -> np.ndarray:
        q = np.maximum(self.kappa * self.tangent_inner(None, x, x), 1e-300)
        return x / np.sqrt(q)[..., None]

    def exp(self, p, v):
        """Exponential map c(m) p + s(m) v / m with m = |v|, batched over
        leading axes of ``p`` and ``v``."""
        p = np.asarray(p, float)
        payload = np.asarray(v, dtype=float)
        m = self.tangent_norm(p, payload)[..., None]
        # the one finite cut of these spaces is the sphere's
        if self.cut < math.inf and np.any(m >= self.cut):
            raise OutOfDomain(f"tangent magnitude {np.max(m):.12g} >= pi")
        tip = m < 1e-300
        u = payload / np.where(tip, 1.0, m)
        return np.where(tip, p, self._project(self._cos(m) * p + self._sin(m) * u))

    def tangent_inner(self, p, u_payload, v_payload):
        return np.einsum("...i,i,...i->...", u_payload, self._j, v_payload)

    def tangent_part(self, p, v):
        p = np.asarray(p, float)
        return v - self.kappa * self.tangent_inner(p, v, p)[..., None] * p

    def tangent_basis(self, p) -> np.ndarray:
        """The module docstring's frame at ``p`` (the coordinate rows at the
        pole), stacked along axis 0; ValueError if rounding leaves its Gram
        matrix under ``tangent_inner`` off I by over BASIS_GRAM_TOL."""
        p = np.asarray(p, float)
        o = np.zeros(self.ambient)
        o[self._pole] = np.copysign(1.0, p[self._pole])
        c = self.kappa * self.tangent_inner(p, o, p)
        frame = np.eye(self.ambient) - self.kappa * np.multiply.outer(p, (p + o) / (1.0 + c))
        basis = np.delete(frame, self._pole, axis=0)
        gram_error = np.max(np.abs(self.tangent_inner(p, basis[:, None], basis) - np.eye(self.dim)))
        if gram_error > BASIS_GRAM_TOL:
            raise ValueError(f"tangent basis at this point is off orthonormal by {gram_error:.3g}")
        return basis

    # -- batched -------------------------------------------------------------

    def _tangent_theta(self, p, batch):
        """Tangent parts at p of the batch, their norms, and distances to p;
        ``p`` of shape (..., D) with a batch of shape (..., n, D).

        The tangent part x - kappa <x, p>_j p = s(theta) u is taken of x - p,
        which is exact for nearby points, so rounding off the quadric (normal
        to it) does not leak into short distances.  The returned ``v`` is the
        one batch-sized array formed: it takes the projection a coordinate at
        a time, and the norms in place.
        """
        p = np.asarray(p, float)[..., None, :]
        v = batch - p
        inner = self.tangent_inner(p, v, p)
        kp = self.kappa * p  # kappa scales p, not the batch-sized inner
        for k in range(self.ambient):
            v[..., k] -= inner * kp[..., k]
        nv = self.tangent_inner(p, v, v)
        np.sqrt(np.maximum(nv, 0.0, out=nv), out=nv)
        return v, nv, self._angle(p, batch, nv)

    def log_batch(self, p, batch):
        v, nv, theta = self._tangent_theta(p, batch)
        if self.cut < math.inf and np.any(theta > self.cut - ANTIPODAL_TOL):
            raise AntipodalPoints("a batch point reaches the cut locus of the base")
        # scale v by theta / nv in place, by 0 where nv is 0
        v *= np.divide(theta, nv, out=nv, where=nv > 0)[..., None]
        return v, theta

    def sqdist_batch(self, p, batch) -> np.ndarray:
        return self._tangent_theta(p, batch)[2] ** 2

    def warm_start(self, batch, weights):
        """The projected extrinsic mean where the weighted mean is off the
        origin (kappa <mean, mean>_j above 1e-16), on the upper sheet when
        kappa < 0, and on the sphere within pi/2 (the Karcher/Afsari
        uniqueness radius) of every support point; elsewhere the base start,
        taken in one stacked call.  For each problem of a stacked (T, n, D)
        batch with (T, n) weights."""
        mean = weighted_sum(weights, batch)
        start = self._project(mean)
        ok = self.kappa * self.tangent_inner(None, mean, mean) > 1e-16
        if self.kappa < 0:
            ok &= mean[..., self._pole] > 0
        else:
            ok &= np.all(self.sqdist_batch(start, batch) < (math.pi / 2) ** 2, axis=-1)
        if not ok.all():
            start[~ok] = super().warm_start(batch[~ok], weights[~ok])
        return start


class Sphere(_ModelSpace):
    """Unit sphere S^d embedded in R^(d+1), with angles stable on all of [0, pi]."""

    tag = "sphere"
    kappa = curv_lower = curv_upper = 1.0
    cut = math.pi
    _pole = -1
    _cos, _sin = np.cos, np.sin

    def check_point(self, x) -> None:
        super().check_point(x)
        if abs(np.linalg.norm(x) - 1.0) > UNIT_NORM_TOL:
            raise ValueError(f"not a unit vector: |x| = {np.linalg.norm(x)!r}")

    def random_point(self, rng):
        v = rng.standard_normal(self.ambient)
        return v / np.linalg.norm(v)

    def _angle(self, p, batch, nv):
        """theta = atan2(|x_perp|, x . p), stable on all of [0, pi] and blind
        to the rounding of |x| and |p| away from 1."""
        cos = np.einsum("...j,...j->...", batch, p)
        return np.arctan2(nv, cos, out=cos)

    def extendibility_batch(self, p, batch) -> Extendibility:
        length = np.sqrt(self.sqdist_batch(p, batch))
        if np.any(length > math.pi - ANTIPODAL_TOL):
            raise AntipodalPoints("no unique geodesic to extend")
        # the extension stays minimizing while the total arc is <= pi;
        # report the symmetric maximal split of the remaining budget
        short = length < 1e-14
        half = np.where(short, math.inf, (math.pi / np.where(short, 1.0, length) - 1.0) / 2.0)
        return Extendibility(half, half)


class Hyperboloid(_ModelSpace):
    """Hyperbolic space H^d on the upper sheet {x : <x, x>_j = -1, x0 > 0}."""

    tag = "hyperbolic"
    kappa = curv_lower = curv_upper = -1.0
    cut = math.inf
    _pole = 0
    _cos, _sin = np.cosh, np.sinh

    def check_point(self, x) -> None:
        super().check_point(x)
        q = float(self.tangent_inner(None, x, x))
        # q is NaN or infinite once a square overflows: refused before x[0] is
        # squared, so with no warning; written so that a NaN fails the test
        if not (math.isfinite(q) and abs(q + 1.0) <= MINKOWSKI_TOL * max(1.0, x[0] ** 2)
                and x[0] >= 1.0 - MINKOWSKI_TOL):
            raise ValueError(f"not on the upper hyperboloid sheet: <x,x>_M = {q!r}")

    def random_point(self, rng):
        v = np.zeros(self.ambient)
        v[1:] = rng.standard_normal(self.dim)
        return self.exp(self.origin(), v)

    def _angle(self, p, batch, nv):
        return np.arcsinh(nv)
