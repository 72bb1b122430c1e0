"""Common interface for the concrete model spaces.

A point is a float array of the space's ``point_shape`` in every space (the
(D+1, D) row [mean; cov] of a Gaussian in the Bures-Wasserstein space), and
a stacked batch of n points is one (n,) + point_shape array.  Tangent
vectors are represented by a payload array whose algebra (scaling, sums)
matches the tangent-cone structure, so weighted log-map averages are plain
array sums.

Every kernel broadcasts a base ``p`` with leading axes against a batch of
shape (..., n) + point_shape as ``p[..., None]`` over the point axes: m stacked
bases give (m, n) results, row k equal to base k's own call bit for bit.
A scalar form (``distance``, ``log``, ``tangent_norm`` of one payload) is its
kernel on a batch of one.  A tangent frame (``tangent_basis``) exists only
where the tangent dimension is ``dim`` and an isometry carries the default
anchor to any point: the sphere and the hyperboloid of ``curved``.
"""

from __future__ import annotations

import abc
import math
import numbers
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from ..linalg import weighted_sum

# support points scored by the default descent warm start
WARM_START_CANDIDATES = 32


@dataclass(frozen=True)
class Extendibility:
    """Largest inward/outward extension factors of a geodesic, as suprema,
    or arrays of them for the geodesics from one base point to a batch."""

    lambda_in: float
    lambda_out: float


class Space(abc.ABC):
    """A geodesic metric space with closed-form distance, geodesics and log/exp."""

    tag: ClassVar[str]
    # the point payload's key for its coordinates
    payload_key: ClassVar[str] = "coords"
    # curvature interval [curv_lower, curv_upper] of the space
    curv_lower: ClassVar[float] = 0.0
    curv_upper: ClassVar[float] = 0.0

    def __init__(self, dim: int = 2):
        if dim < 1:
            raise ValueError("dim must be >= 1")
        self.dim = int(dim)

    def __repr__(self):
        return f"{type(self).__name__}(dim={self.dim})"

    @property
    def tangent_dim(self) -> int:
        """Dimension of the tangent space at a point."""
        return self.dim

    # -- points ------------------------------------------------------------

    def check_point(self, x) -> None:
        """Raise ValueError unless ``x`` is a finite array of ``point_shape``;
        a subclass calls this first, then checks its own constraint."""
        x = np.asarray(x, dtype=float)
        if x.shape != self.point_shape or not np.all(np.isfinite(x)):
            raise ValueError(f"not a finite point of shape {self.point_shape}: shape {x.shape}, "
                             f"{np.count_nonzero(~np.isfinite(x))} non-finite entries")

    @abc.abstractmethod
    def random_point(self, rng: np.random.Generator):
        """A generic random point, for tests and probes."""

    @classmethod
    def payload_array(cls, obj: dict, key: str, depth: int = 1) -> np.ndarray:
        """``obj[key]`` as a float array; ValueError, naming the space tag and
        ``key``, unless ``obj`` is an object whose ``key`` holds a nonempty
        list of numbers nested ``depth`` lists deep, each list as long as its
        neighbours."""
        if not isinstance(obj, dict):
            raise ValueError(f"a {cls.tag} point payload must be an object, got {obj!r}")
        if key not in obj:
            raise ValueError(f"a {cls.tag} point payload needs {key!r}")
        # a ragged list stops at a lower depth, with the inner lists as entries
        x = np.array(obj[key], dtype=object)
        if x.ndim != depth or x.size == 0 or not all(
            isinstance(c, numbers.Real) and not isinstance(c, bool) for c in x.flat
        ):
            what = "a list of " + "lists of " * (depth - 1) + "numbers"
            raise ValueError(f"{key!r} of a {cls.tag} point payload must be {what}, "
                             f"got {obj[key]!r}")
        return x.astype(float)

    @classmethod
    def payload_space(cls, obj: dict) -> Space:
        """The space of this kind that the point payload ``obj`` lies in, sized by it."""
        return cls(len(cls.payload_array(obj, cls.payload_key)))

    def point_payload(self, x) -> dict:
        """JSON-ready payload for ``x`` (space tag included): its coordinates."""
        return {"space": self.tag, self.payload_key: [float(c) for c in x]}

    def point_from_payload(self, obj: dict):
        """Parse and validate a point from its JSON payload."""
        x = self.payload_array(obj, self.payload_key)
        self.check_point(x)
        return x

    # -- metric and geodesics ----------------------------------------------

    def distance(self, x, y) -> float:
        """Geodesic distance: ``sqdist_batch`` on a batch of one."""
        return math.sqrt(float(self.sqdist_batch(x, self.stack([y]))[0]))

    def geodesic_point(self, x, y, t: float):
        """Point at time ``t`` of the geodesic from ``x`` (t=0) to ``y`` (t=1),
        ``exp_x(t log_x(y))``; outside [0, 1] it is the extension, and ``exp``
        raises OutOfDomain where the extension leaves the space."""
        return self.exp(x, t * self.log(x, y))

    def max_extendibility(self, x, y) -> Extendibility:
        """Largest factors keeping the extended path a minimizing geodesic from
        ``x`` to the point ``y``, or to every point of the stacked batch ``y``:
        the componentwise infimum of ``extendibility_batch``, as floats."""
        one = np.ndim(y) <= len(self.point_shape)
        ext = self.extendibility_batch(x, self.stack([y] if one else y))
        if np.size(ext.lambda_in) == 0:
            raise ValueError("empty extendibility batch")
        return Extendibility(float(np.min(ext.lambda_in)), float(np.min(ext.lambda_out)))

    # -- tangent cone --------------------------------------------------------

    def log(self, p, x) -> np.ndarray:
        """Log map, as a tangent payload: ``log_batch`` on a batch of one."""
        payloads, _ = self.log_batch(p, self.stack([x]))
        return payloads[0]

    @abc.abstractmethod
    def exp(self, p, v):
        """Exponential map of the tangent payload ``v`` at ``p``, broadcast over
        leading axes of ``p`` and ``v``: row k of the result for a stack of
        payloads equals ``exp(p, v[k])`` bit for bit, in every space."""

    @abc.abstractmethod
    def tangent_inner(self, p, u_payload, v_payload):
        """Cone inner product at ``p``, broadcast over leading payload axes."""

    def tangent_norm(self, p, u_payload):
        """Cone norm at ``p``, broadcast over leading payload axes."""
        return np.sqrt(np.maximum(self.tangent_inner(p, u_payload, u_payload), 0.0))

    @abc.abstractmethod
    def tangent_part(self, p, v) -> np.ndarray:
        """The tangent part at ``p`` of the payload-shaped array ``v``,
        broadcast over leading payload axes."""

    def random_tangent(self, p, rng: np.random.Generator) -> np.ndarray:
        """A random tangent payload at ``p`` (isotropic, unnormalized): the
        tangent part of a standard normal payload."""
        return self.tangent_part(p, rng.standard_normal(self.point_shape))

    # -- batched kernels: the one formula for each quantity --------------------

    @property
    def point_shape(self) -> tuple:
        """Shape of one point in a stacked batch."""
        return (self.ambient,)

    @property
    def point_floats(self) -> int:
        """Floats that one point takes in a stacked batch."""
        return math.prod(self.point_shape)

    def stack(self, points):
        """Stacked batch of a point sequence, one float array of shape
        ``(n,) + point_shape`` in every space; a stacked batch passes through.

        Raises ValueError unless every point has the ``point_shape``.
        """
        batch = np.asarray(points, dtype=float)
        if len(batch) and batch.shape[1:] != self.point_shape:
            raise ValueError(f"points of shape {batch.shape[1:]}, expected {self.point_shape}")
        return batch

    def configs(self, *points):
        """Probe arguments as (Q,) + point_shape stacks (a point: a stack of one,
        broadcast), and the index of the result to return (0 if all were points)."""
        one = [np.ndim(x) <= len(self.point_shape) for x in points]
        stacks = [self.stack([x] if o else x) for x, o in zip(points, one)]
        return np.broadcast_arrays(*stacks), 0 if all(one) else slice(None)

    @abc.abstractmethod
    def log_batch(self, p, batch):
        """Log payloads and magnitudes for every point in ``batch`` from each
        base in ``p``; a point equal to its base gives the exact zero payload."""

    @abc.abstractmethod
    def sqdist_batch(self, p, batch) -> np.ndarray:
        """Squared distances from each base in ``p`` to every point in ``batch``:
        (m, n) for a stack of m base points."""

    def tangent_mean(self, p, batch, weights):
        """Descent's state at T base points ``p`` (T,) + point_shape, each
        with its support ``batch`` (T, n) + point_shape and ``weights``
        (T, n): the weighted log mean sum_i w_i log_p(x_i), the objective
        sum_i w_i d^2(p, x_i) and the (T, n) distances d(p, x_i), which
        spaces with ``curv_lower >= 0`` may leave as None."""
        payloads, mags = self.log_batch(p, batch)
        return weighted_sum(weights, payloads), weighted_sum(weights, mags**2), mags

    def extendibility_batch(self, p, batch) -> Extendibility:
        """``max_extendibility`` of the geodesics from ``p`` to ``batch``, as
        arrays of ``sqdist_batch``'s shape; unbounded unless overridden."""
        shape = np.broadcast_shapes(np.shape(p)[:-1] + (1,), np.shape(batch)[:-1])
        unbounded = np.full(shape, math.inf)
        return Extendibility(unbounded, unbounded)

    def warm_start(self, batch, weights):
        """Descent starts, (T,) + point_shape, for a stacked (T, n) +
        point_shape batch with (T, n) weights: for each problem the best of
        its first WARM_START_CANDIDATES support points, O(n) each.  Each
        candidate is scored across the stack in one call, so no temporary
        outgrows the batch.  Spaces with a cheap extrinsic mean override it."""
        scores = [
            weighted_sum(weights, self.sqdist_batch(batch[:, k], batch))
            for k in range(min(batch.shape[1], WARM_START_CANDIDATES))
        ]
        return batch[np.arange(len(batch)), np.argmin(scores, axis=0)]
