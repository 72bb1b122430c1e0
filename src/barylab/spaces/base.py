"""Common interface for the concrete model spaces.

A point is a space-native value (an ndarray for the vector-like spaces, a
``GaussianPoint`` for the Bures-Wasserstein space).  Tangent vectors are
represented by a payload array whose algebra (scaling, sums) matches the
tangent-cone structure, so weighted log-map averages are plain array sums.
"""

from __future__ import annotations

import abc
import math
from dataclasses import dataclass, field
from typing import Any, Callable, ClassVar

import numpy as np

# support points scored by the default descent warm start
WARM_START_CANDIDATES = 32


@dataclass(frozen=True)
class TangentVector:
    """Element of the tangent cone at ``base``: direction plus magnitude.

    The payload is the full log vector (unit direction scaled by magnitude);
    the zero payload encodes the cone tip.
    """

    space: "Space"
    base: Any
    payload: np.ndarray

    @property
    def magnitude(self) -> float:
        return self.space.tangent_norm(self.base, self.payload)

    def scaled(self, factor: float) -> "TangentVector":
        return TangentVector(self.space, self.base, factor * self.payload)


@dataclass(frozen=True)
class GeodesicSegment:
    """Constant-speed geodesic from ``start`` (t=0) to ``end`` (t=1)."""

    space: "Space"
    start: Any
    end: Any
    length: float
    _evaluator: Callable[[float], Any] = field(repr=False)

    def at(self, t: float):
        return self._evaluator(float(t))


@dataclass(frozen=True)
class Extendibility:
    """Largest inward/outward extension factors of a geodesic.

    Values are suprema; an ``open_*`` flag marks a supremum that is not
    attained (the extension degenerates exactly at the endpoint).
    """

    lambda_in: float
    lambda_out: float
    open_in: bool = False
    open_out: bool = False


def componentwise_inf(items) -> Extendibility:
    """Componentwise infimum of extendibilities, propagating open flags."""
    items = list(items)
    if not items:
        raise ValueError("empty extendibility list")
    lam_in = min(e.lambda_in for e in items)
    lam_out = min(e.lambda_out for e in items)
    open_in = any(e.open_in and e.lambda_in == lam_in for e in items)
    open_out = any(e.open_out and e.lambda_out == lam_out for e in items)
    return Extendibility(lam_in, lam_out, open_in, open_out)


class Space(abc.ABC):
    """A geodesic metric space with closed-form distance, geodesics and log/exp."""

    tag: ClassVar[str]
    # curvature interval [curv_lower, curv_upper] of the space
    curv_lower: ClassVar[float] = 0.0
    curv_upper: ClassVar[float] = 0.0

    # -- points ------------------------------------------------------------

    @abc.abstractmethod
    def check_point(self, x) -> None:
        """Raise ValueError if ``x`` is not a valid point of this space."""

    @abc.abstractmethod
    def random_point(self, rng: np.random.Generator):
        """A generic random point, for tests and probes."""

    @abc.abstractmethod
    def point_payload(self, x) -> dict:
        """JSON-ready payload for ``x`` (space tag included)."""

    @abc.abstractmethod
    def point_from_payload(self, obj: dict):
        """Parse and validate a point from its JSON payload."""

    # -- metric and geodesics ----------------------------------------------

    def distance(self, x, y) -> float:
        """Geodesic distance: ``sqdist_batch`` on a batch of one."""
        return math.sqrt(float(self.sqdist_batch(x, self.stack([y]))[0]))

    @abc.abstractmethod
    def geodesic(self, x, y) -> GeodesicSegment: ...

    def geodesic_point(self, x, y, t: float):
        return self.geodesic(x, y).at(t)

    @abc.abstractmethod
    def max_extendibility(self, x, y) -> Extendibility:
        """Largest factors keeping the extended path a minimizing geodesic."""

    # -- tangent cone --------------------------------------------------------

    def log(self, p, x) -> TangentVector:
        """Log map: ``log_batch`` on a batch of one."""
        payloads, _ = self.log_batch(p, self.stack([x]))
        return TangentVector(self, p, payloads[0])

    @abc.abstractmethod
    def exp(self, p, v): ...

    @abc.abstractmethod
    def tangent_inner(self, p, u_payload, v_payload):
        """Cone inner product at ``p``, broadcast over leading payload axes."""

    def tangent_norm(self, p, u_payload) -> float:
        return math.sqrt(max(float(self.tangent_inner(p, u_payload, u_payload)), 0.0))

    @abc.abstractmethod
    def random_tangent(self, p, rng: np.random.Generator) -> np.ndarray:
        """A random tangent payload at ``p`` (isotropic, unnormalized)."""

    # -- batched kernels: the one formula for each quantity --------------------

    def stack(self, points):
        """Stacked batch of a point sequence; a stacked batch passes through.

        Raises ValueError unless every point has the ``(ambient,)`` shape.
        """
        batch = np.asarray(points, dtype=float)
        if len(batch) and batch.shape[1:] != (self.ambient,):
            raise ValueError(f"points of shape {batch.shape[1:]}, expected ({self.ambient},)")
        return batch

    def unstack(self, batch) -> list:
        """Per-point view of a stacked batch."""
        return list(batch)

    def batch_len(self, batch) -> int:
        return len(batch)

    @abc.abstractmethod
    def log_batch(self, p, batch):
        """Log payloads and magnitudes for every point in ``batch``; a point
        equal to ``p`` gives the exact zero payload (the cone tip)."""

    @abc.abstractmethod
    def sqdist_batch(self, p, batch) -> np.ndarray:
        """Squared distances from ``p`` to every point in ``batch``."""

    def warm_start(self, batch, weights):
        """Descent start: the best of the first WARM_START_CANDIDATES support
        points, O(n) each; spaces with a cheap extrinsic mean override it."""
        candidates = self.unstack(batch)[:WARM_START_CANDIDATES]
        objectives = [weights @ self.sqdist_batch(x, batch) for x in candidates]
        return candidates[int(np.argmin(objectives))]

    @staticmethod
    def _payload_of(v) -> np.ndarray:
        return v.payload if isinstance(v, TangentVector) else np.asarray(v, dtype=float)
