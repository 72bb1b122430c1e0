"""Euclidean space R^d with a constant metric weight: the flat calibration case."""

from __future__ import annotations

import numpy as np

from ..linalg import weighted_sum
from .base import Space


class Euclidean(Space):
    tag = "euclidean"
    # squared norms are weight * |v|^2: 1 on R^d, 1/m on the quantile grid
    weight = 1.0

    @property
    def ambient(self) -> int:
        return self.dim

    def check_point(self, x) -> None:
        x = np.asarray(x, dtype=float)
        if x.shape != (self.dim,) or not np.all(np.isfinite(x)):
            raise ValueError(f"not a finite point of R^{self.dim}: {x!r}")

    def random_point(self, rng):
        return rng.standard_normal(self.dim)

    def exp(self, p, v):
        return np.asarray(p, float) + np.asarray(v, dtype=float)

    def tangent_inner(self, p, u_payload, v_payload):
        return self.weight * np.einsum("...i,...i->...", u_payload, v_payload)

    def tangent_part(self, p, v):
        return np.asarray(v, dtype=float)

    # -- batched -------------------------------------------------------------

    def log_batch(self, p, batch):
        payloads = batch - np.asarray(p, float)[..., None, :]
        return payloads, np.sqrt(self.tangent_inner(p, payloads, payloads))

    def sqdist_batch(self, p, batch) -> np.ndarray:
        diff = batch - np.asarray(p, float)[..., None, :]
        return self.tangent_inner(p, diff, diff)

    def warm_start(self, batch, weights):
        """The weighted mean, the exact barycenter, from which descent takes
        no step; for each problem of a stacked (T, n, D) batch."""
        return weighted_sum(weights, batch)
