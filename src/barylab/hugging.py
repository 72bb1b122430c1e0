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

COINCIDENT_TOL = 1e-12


@dataclass(frozen=True)
class HuggingReport:
    """One hugging evaluation with the instance's extension-based bound."""

    k_value: float
    lambda_in: float
    lambda_out: float
    k_min_bound: float
    variance_eq_residual: float


def hugging_values(space, b_star, bs, xs, logs=None, sqdist_b=None) -> np.ndarray:
    """Hugging coefficients at ``b_star`` of every target of the stacked batch
    ``bs``, at every point of the stacked batch ``xs``: an (m, n) array, or
    (..., m, n) for ``b_star``, ``bs`` and ``xs`` with leading axes (...).

    1 - (||log(x) - log(b)||^2 - d^2(x, b)) / d^2(b, b_star), all log maps
    taken at ``b_star``.  A caller that holds the log payloads of ``xs`` at
    ``b_star``, or the (..., m, n) d^2(bs, xs), passes them as ``logs`` or
    ``sqdist_b``.
    """
    axes = len(space.point_shape)
    lb, d_bb = space.log_batch(b_star, bs)
    if np.any(d_bb <= COINCIDENT_TOL):
        raise CoincidentPoints("hugging target must differ from the base point")
    lx = space.log_batch(b_star, xs)[0] if logs is None else logs
    sq_b = space.sqdist_batch(bs, np.expand_dims(xs, -2 - axes)) if sqdist_b is None else sqdist_b
    gaps = np.expand_dims(lx, -2 - axes) - np.expand_dims(lb, -1 - axes)
    # b_star meets the (..., m, n) gaps on two new axes
    at = np.expand_dims(b_star, (-2 - axes, -1 - axes))
    return 1.0 - (space.tangent_inner(at, gaps, gaps) - sq_b) / d_bb[..., None] ** 2


def hugging_value(space, b_star, b, x):
    """``hugging_values`` of each configuration's one target ``b`` and point ``x``."""
    (b_star, b, x), pick = space.configs(b_star, b, x)
    return hugging_values(space, b_star, b[:, None], x[:, None])[:, 0, 0][pick]


def variance_equality_residual(space, dist: DiscreteDistribution, b_star, b,
                               logs=None, sqdist_star=None):
    """Absolute defect of the variance identity at a numerical barycenter.

    |d^2(b, b*) . sum_i w_i k_i  -  sum_i w_i (d^2(x_i, b) - d^2(x_i, b*))|,
    which vanishes when ``b_star`` is an exact barycenter of ``dist``: one
    residual for one target ``b``, (Q,) for a (Q,) stack of targets.  A sweep
    over many targets passes the support's log payloads at ``b_star`` and its
    squared distances to ``b_star``, taken once, as ``logs`` and ``sqdist_star``.
    """
    (bs,), pick = space.configs(b)
    # d^2(b, x_i), then d^2(b, b*) in the last column
    sq = space.sqdist_batch(bs, np.concatenate((dist.batch, space.stack([b_star]))))
    k_values = hugging_values(space, b_star, bs, dist.batch, logs, sq[:, :-1])  # rejects b = b_star
    sqdist_star = space.sqdist_batch(b_star, dist.batch) if sqdist_star is None else sqdist_star
    lhs = sq[:, -1] * (k_values[:, None] @ dist.weights)[:, 0]
    return np.abs(lhs - ((sq[:, :-1] - sqdist_star)[:, None] @ dist.weights)[:, 0])[pick]


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


def wasserstein_kmin(alpha: float, beta: float) -> float:
    """1 - beta + alpha; positive exactly when the Wasserstein rate bound applies."""
    if beta < alpha:
        raise BadBounds(f"beta {beta!r} < alpha {alpha!r}")
    if alpha <= 0:
        raise BadBounds("alpha must be positive")
    return 1.0 - beta + alpha
