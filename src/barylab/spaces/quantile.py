"""Quantile space: monotone grids of m values at levels (i - 1/2)/m.

A point is the quantile function of a one-dimensional measure sampled on a
fixed grid, which makes the space a convex subset of R^m carrying the
(1/m)-weighted Euclidean metric: exactly discretized 1-D 2-Wasserstein.
Everything but the monotone cone is inherited from ``Euclidean``.
"""

from __future__ import annotations

import math

import numpy as np

from ..errors import GridMismatch, OutOfDomain
from .base import Extendibility
from .euclidean import Euclidean

# ulp-level order flips from float rounding are snapped, larger ones rejected
SORT_SNAP_TOL = 1e-12


class QuantileSpace(Euclidean):
    tag = "quantile"

    def __init__(self, grid_size: int = 256):
        if grid_size < 1:
            raise ValueError("grid_size must be >= 1")
        self.dim = self.grid_size = int(grid_size)
        self.weight = 1.0 / self.grid_size

    def __repr__(self):
        return f"QuantileSpace(grid_size={self.grid_size})"

    def levels(self) -> np.ndarray:
        m = self.grid_size
        return (np.arange(m) + 0.5) / m

    def stack(self, points):
        try:
            return super().stack(points)
        except ValueError as exc:
            raise GridMismatch(f"quantile grids do not fit {self!r}: {exc}") from exc

    def check_point(self, x) -> None:
        x = np.asarray(x, dtype=float)
        if x.shape != (self.grid_size,):
            raise ValueError(f"expected grid size {self.grid_size}, got {x.shape}")
        if np.any(np.diff(x) < 0):
            raise ValueError("quantile grid must be nondecreasing")

    def random_point(self, rng):
        return np.sort(rng.standard_normal(self.grid_size))

    def point_payload(self, x) -> dict:
        return {"space": self.tag, "values": [float(c) for c in x]}

    def point_from_payload(self, obj):
        x = np.asarray(obj["values"], dtype=float)
        self.check_point(x)
        return x

    def extendibility_batch(self, p, batch) -> Extendibility:
        """Extension range limited by monotonicity of the extended grid."""
        dx = np.diff(np.asarray(p, float))[..., None, :]
        slope = np.diff(batch, axis=-1) - dx  # gap i evolves as dx_i + t slope_i >= 0
        safe = np.where(slope == 0, 1.0, slope)
        t_max = np.min(np.where(slope < 0, dx / -safe, math.inf), axis=-1, initial=math.inf)
        t_min = np.max(np.where(slope > 0, -dx / safe, -math.inf), axis=-1, initial=-math.inf)
        lam_out = np.maximum(t_max - 1.0, 0.0)
        lam_in = np.maximum(-t_min, 0.0)
        return Extendibility(lam_in, lam_out)

    def exp(self, p, v):
        """Exponential map, batched over leading axes of ``p`` and ``v``; each
        grid is checked against its own scale and sorted on its own."""
        out = super().exp(p, v)
        scale = np.maximum(np.max(np.abs(out), axis=-1, keepdims=True), 1.0)
        if np.any(np.diff(out) < -SORT_SNAP_TOL * scale):
            raise OutOfDomain("exponential leaves the monotone cone")
        return np.maximum.accumulate(out, axis=-1)
