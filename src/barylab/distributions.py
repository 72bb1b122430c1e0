"""Weighted finite supports of space points."""

from __future__ import annotations

import numpy as np

from .errors import SpaceMismatch
from .spaces import Space

WEIGHT_SUM_TOL = 1e-12


class DiscreteDistribution:
    """A probability measure with finite support on one model space.

    The support is given as a point sequence or an already stacked batch and
    kept only as the stacked batch the solvers read.  Weights must be finite
    and positive and sum to 1 within tolerance; ``None`` means uniform.
    """

    def __init__(self, space: Space, points, weights=None):
        try:
            batch = space.stack(points)
        except (ValueError, TypeError, AttributeError) as exc:
            raise SpaceMismatch(f"support points do not fit {space!r}: {exc}") from exc
        n = len(batch)
        if n == 0:
            raise ValueError("a distribution needs at least one support point")
        weights = np.full(n, 1.0 / n) if weights is None else np.asarray(weights, dtype=float)
        if weights.shape != (n,):
            raise ValueError("one weight per support point required")
        # NaN fails ``> 0`` but passes ``<= 0`` and the sum check
        if not np.all(np.isfinite(weights) & (weights > 0)):
            raise ValueError(f"weights must be finite and positive, got {weights!r}")
        if abs(float(weights.sum()) - 1.0) > WEIGHT_SUM_TOL:
            raise ValueError(f"weights sum to {weights.sum()!r}, not 1")
        self.space = space
        self.batch = batch
        self.weights = weights

    def __len__(self) -> int:
        return len(self.weights)

    def __repr__(self):
        return f"DiscreteDistribution({self.space!r}, n={len(self)})"
