"""Common interface for the concrete model spaces.

A point is a space-native value (an ndarray for the vector-like spaces, a
``GaussianPoint`` for the Bures-Wasserstein space); a stacked batch of
points is one float array in every space.  Tangent vectors are
represented by a payload array whose algebra (scaling, sums) matches the
tangent-cone structure, so weighted log-map averages are plain array sums.

Every kernel broadcasts a base ``p`` with leading axes against a batch of
shape (..., n) + point_shape as ``p[..., None]`` over the point axes: m stacked
bases give (m, n) results, row k equal to base k's own call bit for bit.
"""

from __future__ import annotations

import abc
import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from ..linalg import weighted_sum

# support points scored by the default descent warm start
WARM_START_CANDIDATES = 32

# largest Gram error of a tangent basis, which would skew a family's law
BASIS_GRAM_TOL = 1e-5


@dataclass(frozen=True)
class Extendibility:
    """Largest inward/outward extension factors of a geodesic, or arrays of
    them for the geodesics from one base point to a batch.

    Values are suprema; an ``open_*`` flag marks a supremum that is not
    attained (the extension degenerates exactly at the endpoint).
    """

    lambda_in: float
    lambda_out: float
    open_in: bool = False
    open_out: bool = False


def componentwise_inf(ext: Extendibility) -> Extendibility:
    """Componentwise infimum of an array-valued extendibility, propagating
    the open flags of the geodesics that attain it."""
    if np.size(ext.lambda_in) == 0:
        raise ValueError("empty extendibility batch")
    lam_in = float(np.min(ext.lambda_in))
    lam_out = float(np.min(ext.lambda_out))
    open_in = bool(np.any(ext.open_in & (ext.lambda_in == lam_in)))
    open_out = bool(np.any(ext.open_out & (ext.lambda_out == lam_out)))
    return Extendibility(lam_in, lam_out, open_in, open_out)


class Space(abc.ABC):
    """A geodesic metric space with closed-form distance, geodesics and log/exp."""

    tag: ClassVar[str]
    # curvature interval [curv_lower, curv_upper] of the space
    curv_lower: ClassVar[float] = 0.0
    curv_upper: ClassVar[float] = 0.0
    # longest descent step, in units of the tangent mean: a longer one can
    # leave the space
    max_step: ClassVar[float] = math.inf

    def __init__(self, dim: int):
        if dim < 1:
            raise ValueError("dim must be >= 1")
        self.dim = int(dim)

    def __repr__(self):
        return f"{type(self).__name__}(dim={self.dim})"

    # -- points ------------------------------------------------------------

    @abc.abstractmethod
    def check_point(self, x) -> None:
        """Raise ValueError if ``x`` is not a valid point of this space."""

    @abc.abstractmethod
    def random_point(self, rng: np.random.Generator):
        """A generic random point, for tests and probes."""

    def point_payload(self, x) -> dict:
        """JSON-ready payload for ``x`` (space tag included): its coordinates."""
        return {"space": self.tag, "coords": [float(c) for c in x]}

    def point_from_payload(self, obj: dict):
        """Parse and validate a point from its JSON payload."""
        x = np.asarray(obj["coords"], dtype=float)
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
        """Largest factors keeping the extended path a minimizing geodesic:
        ``extendibility_batch`` on a batch of one."""
        return componentwise_inf(self.extendibility_batch(x, self.stack([y])))

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

    def tangent_norm(self, p, u_payload) -> float:
        return math.sqrt(max(float(self.tangent_inner(p, u_payload, u_payload)), 0.0))

    @abc.abstractmethod
    def tangent_part(self, p, v) -> np.ndarray:
        """The tangent part at ``p`` of the payload-shaped array ``v``,
        broadcast over leading payload axes."""

    def tangent_basis(self, p) -> np.ndarray:
        """Basis of the tangent space at ``p``, orthonormal under
        ``tangent_inner`` and stacked along axis 0, for the spaces whose
        tangent dimension is ``dim``: ``dim`` steps of Gram-Schmidt on the
        tangent parts of the coordinate payloads, each step taking the one
        left longest by the earlier steps (the first of equals); ValueError
        if rounding leaves its Gram matrix off I by over BASIS_GRAM_TOL."""
        rest = self.tangent_part(p, np.eye(self.point_floats).reshape((-1,) + self.point_shape))
        basis = []
        for _ in range(self.dim):
            norms = np.sqrt(np.maximum(self.tangent_inner(p, rest, rest), 0.0))
            k = int(np.argmax(norms))
            basis.append(rest[k] / norms[k])
            rest = rest - np.multiply.outer(self.tangent_inner(p, rest, basis[-1]), basis[-1])
        basis = np.stack(basis)
        gram_error = np.max(np.abs(self.tangent_inner(p, basis[:, None], basis) - np.eye(self.dim)))
        if gram_error > BASIS_GRAM_TOL:
            raise ValueError(f"tangent basis at this point is off orthonormal by {gram_error:.3g}")
        return basis

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

    def unstack(self, batch) -> list:
        """Per-point view of a stacked batch."""
        return list(batch)

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
        """Descent start: the best of the first WARM_START_CANDIDATES support
        points, O(n) each, for one problem's (n, D) batch and (n,) weights.
        Spaces with a cheap extrinsic mean override it for a stacked
        (T, n, D) batch with (T, n) weights, returning (T, D) starts."""
        candidates = batch[:WARM_START_CANDIDATES]
        return candidates[int(np.argmin(self.sqdist_batch(candidates, batch) @ weights))]

    def _fall_back(self, starts, ok, batch, weights):
        """(T, D) ``starts`` where ``ok`` holds, else the default
        ``Space.warm_start``, computed for each failing problem on its own."""
        for t in np.flatnonzero(~ok):
            starts[t] = Space.warm_start(self, batch[t], weights[t])
        return starts
