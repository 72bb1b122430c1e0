"""Tangent-cone hugging diagnostics and extendibility-based lower bounds.

The hugging coefficient at a base point measures how tightly the space hugs
its tangent cone there: 1 minus the normalized gap between the cone-metric
and true squared distances.  It equals 1 identically in Hilbert spaces, is
<= 1 under nonnegative curvature and >= 1 under nonpositive curvature, and
admits uniform lower bounds when geodesics from the base extend both ways.

Note on extension arithmetic: the inward/outward factors enter the bound as
lambda_out/(1+lambda_out) - 1/lambda_in, taking the factors exactly as the
largest margins by which the geodesic extends past each endpoint.  A reading
that shifts the outward factor by one circulates in informal statements of
the bound; this module implements the arithmetic above, which matches the
two-point construction the bound comes from.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .distributions import DiscreteDistribution
from .errors import BadBounds, BadLambda, CoincidentPoints
from .spaces import BuresWasserstein, Extendibility, GaussianPoint, componentwise_inf

COINCIDENT_TOL = 1e-12


@dataclass(frozen=True)
class HuggingReport:
    """One hugging evaluation with the instance's extension-based bound."""

    k_value: float
    lambda_in: float
    lambda_out: float
    k_min_bound: float
    variance_eq_residual: float


def hugging_values(space, b_star, b, xs) -> np.ndarray:
    """Hugging coefficients at ``b_star`` of target ``b``, evaluated at every
    point of the stacked batch ``xs``.

    1 - (||log(x) - log(b)||^2 - d^2(x, b)) / d^2(b, b_star), all log maps
    taken at ``b_star``.
    """
    lb, d_bb = space.log_batch(b_star, space.stack([b]))
    if d_bb[0] <= COINCIDENT_TOL:
        raise CoincidentPoints("hugging target must differ from the base point")
    lx, _ = space.log_batch(b_star, xs)
    cone_sq = space.tangent_inner(b_star, lx - lb, lx - lb)
    return 1.0 - (cone_sq - space.sqdist_batch(b, xs)) / d_bb[0] ** 2


def hugging_value(space, b_star, b, x) -> float:
    """``hugging_values`` at the single point ``x``."""
    return float(hugging_values(space, b_star, b, space.stack([x]))[0])


def variance_equality_residual(space, dist: DiscreteDistribution, b_star, b) -> float:
    """Absolute defect of the variance identity at a numerical barycenter.

    |d^2(b, b*) . sum_i w_i k_i  -  sum_i w_i (d^2(x_i, b) - d^2(x_i, b*))|,
    which vanishes when ``b_star`` is an exact barycenter of ``dist``.
    """
    k_values = hugging_values(space, b_star, b, dist.batch)  # rejects b = b_star
    lhs = space.distance(b, b_star) ** 2 * float(dist.weights @ k_values)
    gaps = space.sqdist_batch(b, dist.batch) - space.sqdist_batch(b_star, dist.batch)
    rhs = float(dist.weights @ gaps)
    return abs(lhs - rhs)


def extendibility_kmin(lambda_in: float, lambda_out: float) -> float:
    """Uniform hugging lower bound from bi-extension factors.

    lambda_out/(1 + lambda_out) - 1/lambda_in; tends to 1 as both factors
    grow and is informative (possibly negative) for short extensions.
    """
    if lambda_in == 0:
        raise BadLambda("lambda_in must be positive")
    if lambda_in < 0 or lambda_out < 0:
        raise BadLambda("extension factors must be nonnegative")
    out_term = 1.0 if math.isinf(lambda_out) else lambda_out / (1.0 + lambda_out)
    in_term = 0.0 if math.isinf(lambda_in) else 1.0 / lambda_in
    return out_term - in_term


def support_extendibility(space, dist: DiscreteDistribution, b_star) -> Extendibility:
    """Componentwise infimum of the maximal extendibility of the geodesics
    from ``b_star`` to each support point."""
    return componentwise_inf(space.extendibility_batch(b_star, dist.batch))


def exp_barycenter_residual(space, dist: DiscreteDistribution, b) -> float:
    """Double integral of cone inner products of log maps at ``b``.

    sum_ij w_i w_j <log_b(x_i), log_b(x_j)>_b.  In the model spaces the log
    payloads live in a linear tangent representation, so the double sum
    collapses by bilinearity to the squared cone norm of the weighted log
    mean; evaluating that form avoids the O(n^2) cancellation noise that
    would otherwise swamp values near the solver tolerance squared.
    """
    payloads, _ = space.log_batch(b, dist.batch)
    mean = np.tensordot(dist.weights, payloads, axes=(0, 0))
    return float(space.tangent_inner(b, mean, mean))


def bures_potential_bounds(b_star: GaussianPoint, mu: GaussianPoint) -> tuple[float, float]:
    """Convexity and smoothness bounds of the transport potential to ``mu``.

    For Gaussians the optimal map is affine, so the potential's strong
    convexity and smoothness constants are the extreme eigenvalues of the
    linear transport map.
    """
    return BuresWasserstein(b_star.dim).transport_map_bounds(b_star, mu)


def wasserstein_kmin(alpha: float, beta: float) -> float:
    """1 - beta + alpha; positive exactly when the Wasserstein rate bound applies."""
    if beta < alpha:
        raise BadBounds(f"beta {beta!r} < alpha {alpha!r}")
    if alpha <= 0:
        raise BadBounds("alpha must be positive")
    return 1.0 - beta + alpha
