"""Test oracles: independent checks of the solvers' answers, kept out of the
package because no command runs them."""

from __future__ import annotations

from statistics import NormalDist

import numpy as np

from barylab.barycenter import BarycenterResult, SolverOptions, variance
from barylab.distributions import DiscreteDistribution
from barylab.errors import OutOfDomain
from barylab.spaces import QuantileSpace


def minimality_spot_check(
    dist: DiscreteDistribution,
    result: BarycenterResult,
    rng: np.random.Generator,
    count: int = 100,
    radius: float | None = None,
    noise_allowance: float = 1e-13,
) -> bool:
    """Objective at the result never exceeds objectives at random perturbations.

    Perturbations are exponentials of random tangent directions of the given
    radius (default 10x solver tolerance).  At such radii objective
    differences sit near float resolution, so the comparison allows
    ``noise_allowance * (1 + objective)`` of slack.
    """
    space = dist.space
    radius = 10.0 * SolverOptions().tol if radius is None else radius
    base_obj = variance(dist, result.point)
    allowance = noise_allowance * (1.0 + abs(base_obj))
    candidates = []
    for _ in range(count):
        direction = space.random_tangent(result.point, rng)
        norm = space.tangent_norm(result.point, direction)
        if norm == 0.0:
            continue
        try:
            candidates.append(space.exp(result.point, (radius / norm) * direction))
        except OutOfDomain:
            continue  # probe left the space (e.g. monotone cone boundary)
    if not candidates:
        return True
    # every candidate's objective from one kernel call, a row per candidate
    objectives = space.sqdist_batch(space.stack(candidates), dist.batch) @ dist.weights
    return not bool(np.any(objectives < base_obj - allowance))


def gaussian_quantile_grid(space: QuantileSpace, mean: float, sd: float) -> np.ndarray:
    """Quantile-space discretization of a one-dimensional Gaussian."""
    if sd < 0:
        raise ValueError("sd must be nonnegative")
    inv_cdf = NormalDist().inv_cdf
    return mean + sd * np.array([inv_cdf(level) for level in space.levels()])


def mean_log_sqnorm(space, dist: DiscreteDistribution, b) -> float:
    """Squared cone norm at ``b`` of the weighted log mean sum_i w_i log_b(x_i),
    from ``Space.tangent_mean``, the state descent stops on: the double
    integral sum_ij w_i w_j <log_b(x_i), log_b(x_j)>_b of the exponential
    barycenter condition, formed without its O(n^2) cancellation."""
    mean = space.tangent_mean(space.stack([b]), dist.batch[None], dist.weights[None])[0]
    return float(space.tangent_inner(b, mean[0], mean[0]))
