"""Barycenter (Frechet mean) solvers and variance computation.

Closed forms where the space provides them (Euclidean, quantile, Gaussian
means), tangent-space gradient descent otherwise, and a dispatching
empirical-barycenter entry point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any

import numpy as np

from .distributions import DiscreteDistribution
from .errors import (
    CutLocus,
    CutLocusDuringIteration,
    OutOfDomain,
    SpaceMismatch,
)
from .linalg import frobenius, spd_sqrt_batch, spd_sqrt_inv_sqrt, sym
from .spaces import BuresWasserstein, Euclidean, GaussianPoint, QuantileSpace, Space

# Accept a descent step when the objective does not increase beyond float noise.
OBJECTIVE_NOISE = 1e-12
MAX_HALVINGS = 30


@dataclass(frozen=True)
class SolverOptions:
    max_iters: int = 10_000
    tol: float = 1e-10  # stopping threshold on the tangent mean norm
    step: float = 1.0

    def __post_init__(self):
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if self.tol <= 0 or self.step <= 0:
            raise ValueError("tol and step must be positive")


@dataclass(frozen=True)
class BarycenterResult:
    point: Any
    objective: float
    grad_norm: float
    iters: int
    converged: bool


def variance(dist: DiscreteDistribution, b) -> float:
    """Weighted mean squared distance from b to the support."""
    try:
        sq = dist.space.sqdist_batch(b, dist.batch)
    except (ValueError, TypeError) as exc:
        raise SpaceMismatch(str(exc)) from exc
    return float(dist.weights @ sq)


def frechet_mean_descent(
    dist: DiscreteDistribution, init, opts: SolverOptions = SolverOptions()
) -> BarycenterResult:
    """Tangent-space gradient descent b <- exp_b(step * sum_i w_i log_b(x_i)).

    Stops when the tangent mean norm falls to ``opts.tol``.  The step is
    halved (at most MAX_HALVINGS times per iteration) whenever the candidate
    objective increases; a non-improving iteration ends the run with
    ``converged=False`` unless the tolerance was already met.
    """
    space = dist.space
    w = dist.weights
    b = init

    def eval_at(point):
        try:
            payloads, mags = space.log_batch(point, dist.batch)
        except CutLocus as exc:
            raise CutLocusDuringIteration(str(exc)) from exc
        return payloads, float(w @ (mags**2))

    payloads, objective = eval_at(b)
    grad_norm = math.inf
    for iteration in range(1, opts.max_iters + 1):
        grad = np.tensordot(w, payloads, axes=(0, 0))
        grad_norm = space.tangent_norm(b, grad)
        if grad_norm <= opts.tol:
            return BarycenterResult(b, objective, grad_norm, iteration, True)
        step = opts.step
        accepted = False
        for _ in range(MAX_HALVINGS + 1):
            candidate = space.exp(b, step * grad)
            cand_payloads, cand_objective = eval_at(candidate)
            if cand_objective <= objective + OBJECTIVE_NOISE * (1.0 + objective):
                b, payloads, objective = candidate, cand_payloads, cand_objective
                accepted = True
                break
            step *= 0.5
        if not accepted:
            return BarycenterResult(b, objective, grad_norm, iteration, False)
    return BarycenterResult(b, objective, grad_norm, opts.max_iters, False)


def quantile_mean(dist: DiscreteDistribution):
    """Pointwise weighted average of quantile grids: the exact barycenter."""
    if not isinstance(dist.space, QuantileSpace):
        raise SpaceMismatch("quantile_mean needs a quantile-space distribution")
    return dist.weights @ dist.batch


def bures_fixed_point(
    dist: DiscreteDistribution, opts: SolverOptions = SolverOptions()
) -> BarycenterResult:
    """Gaussian barycenter: exact mean average plus the covariance fixed point.

    Covariance update: C <- C^(-1/2) (sum_i w_i (C^(1/2) C_i C^(1/2))^(1/2))^2 C^(-1/2).
    Converged iterates satisfy both the fixed-point equation (Frobenius norm)
    and the first-order condition (tangent mean norm) to ``opts.tol``.
    """
    space = dist.space
    if not isinstance(space, BuresWasserstein):
        raise SpaceMismatch("bures_fixed_point needs a Bures-Wasserstein distribution")
    means, covs = dist.batch
    w = dist.weights
    mean_bar = w @ means  # the mean part decouples and averages exactly

    cov = sym(np.einsum("n,nij->ij", w, covs))  # arithmetic mean as warm start
    eye = np.eye(space.dim)
    grad_norm = math.inf
    iteration = 0
    for iteration in range(1, opts.max_iters + 1):
        s, s_inv = spd_sqrt_inv_sqrt(cov)
        cross = spd_sqrt_batch(s @ covs @ s)
        a_bar = s_inv @ cross @ s_inv
        lin = sym(np.einsum("n,nij->ij", w, a_bar)) - eye
        grad_norm = math.sqrt(max(float(np.sum((lin @ cov) * lin)), 0.0))  # lin is symmetric
        cross_bar = np.einsum("n,nij->nij", w, cross).sum(axis=0)
        cov_next = sym(s_inv @ cross_bar @ cross_bar @ s_inv)
        fp_residual = frobenius(cov_next - cov)
        if grad_norm <= opts.tol and fp_residual <= opts.tol:
            point = GaussianPoint(mean_bar, cov)
            return BarycenterResult(
                point, variance(dist, point), grad_norm, iteration, True
            )
        cov = cov_next
    point = GaussianPoint(mean_bar, cov)
    return BarycenterResult(point, variance(dist, point), grad_norm, iteration, False)


def best_support_init(dist: DiscreteDistribution):
    """Descent warm start, chosen by the space in O(n) (``Space.warm_start``)."""
    return dist.space.warm_start(dist.batch, dist.weights)


def empirical_barycenter(
    space: Space, sample, opts: SolverOptions = SolverOptions()
) -> BarycenterResult:
    """Barycenter of the uniform distribution on ``sample``, a point sequence
    or a stacked batch (``Family.sample_batch``).

    Dispatches to the closed-form solver where one exists and otherwise to
    descent from the space's ``warm_start`` (an O(n) projected extrinsic mean).
    """
    dist = DiscreteDistribution.uniform(space, sample)
    if len(dist) == 1:
        return BarycenterResult(dist.points[0], 0.0, 0.0, 0, True)
    return barycenter(dist, opts)


def barycenter(
    dist: DiscreteDistribution, opts: SolverOptions = SolverOptions()
) -> BarycenterResult:
    """Space-appropriate barycenter of a weighted distribution."""
    space = dist.space
    if isinstance(space, QuantileSpace):  # before its base class, Euclidean
        return _closed_form_result(dist, quantile_mean(dist))
    if isinstance(space, Euclidean):
        return _closed_form_result(dist, dist.weights @ dist.batch)
    if isinstance(space, BuresWasserstein):
        return bures_fixed_point(dist, opts)
    return frechet_mean_descent(dist, best_support_init(dist), opts)


def _closed_form_result(dist: DiscreteDistribution, point) -> BarycenterResult:
    payloads, _ = dist.space.log_batch(point, dist.batch)
    grad = np.tensordot(dist.weights, payloads, axes=(0, 0))
    grad_norm = dist.space.tangent_norm(point, grad)
    return BarycenterResult(point, variance(dist, point), grad_norm, 1, True)


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
    for _ in range(count):
        direction = space.random_tangent(result.point, rng)
        norm = space.tangent_norm(result.point, direction)
        if norm == 0.0:
            continue
        try:
            candidate = space.exp(result.point, (radius / norm) * direction)
        except OutOfDomain:
            continue  # probe left the space (e.g. monotone cone boundary)
        if variance(dist, candidate) < base_obj - allowance:
            return False
    return True
