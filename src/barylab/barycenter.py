"""Barycenter (Frechet mean) solver and variance computation.

One solver serves every space: tangent-space gradient descent to the point
where the weighted mean log map vanishes, on T problems stacked on a leading
axis, with every reduction kept per problem, so no result depends on the
problems solved beside it.  The space chooses only its start
(``Space.warm_start``) and its weighted tangent mean
(``Space.tangent_mean``); the step is read from its curvature.  From the
exact weighted mean a flat space (Euclidean, quantile grids) takes no step;
on Gaussian measures the unit step is the Bures fixed point C <- T C T
(Zemel & Panaretos 2019), which converges linearly (Chewi, Maunu, Rigollet &
Stromme 2020).  The single-distribution entry points are batches of one.
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
    SpaceMismatch,
)
from .linalg import weighted_sum
from .spaces import BuresWasserstein, Space

# the benchmark tracer wraps ``spd_sqrt_batch`` under this module's name, so
# it stays importable from here though no solver here calls it
from .linalg import spd_sqrt_batch  # noqa: F401

# Accept a descent step when the objective does not increase beyond float noise.
OBJECTIVE_NOISE = 1e-12
MAX_HALVINGS = 30


@dataclass(frozen=True)
class SolverOptions:
    max_iters: int = 10_000
    tol: float = 1e-10  # stopping threshold on the tangent mean norm

    def __post_init__(self):
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if self.tol <= 0:
            raise ValueError("tol must be positive")


@dataclass(frozen=True)
class BarycenterResult:
    point: Any
    objective: float
    grad_norm: float
    iters: int
    converged: bool


@dataclass(frozen=True)
class BatchResult:
    """T stacked solves: the barycenters as one stacked batch of the space
    and, per problem, the final tangent mean norm, the iterations and
    whether the solve converged."""

    points: Any
    grad_norm: np.ndarray
    iters: np.ndarray
    converged: np.ndarray


def variance(dist: DiscreteDistribution, b) -> float:
    """Weighted mean squared distance from b to the support."""
    try:
        sq = dist.space.sqdist_batch(b, dist.batch)
    except (ValueError, TypeError) as exc:
        raise SpaceMismatch(str(exc)) from exc
    return float(dist.weights @ sq)


def _step_sizes(space: Space, weights, mags) -> np.ndarray:
    """One over the objective's curvature bound on spaces with curvature
    bounded below by kappa < 0, else 1.

    There the Hessian of d^2(., x_i) / 2 has eigenvalues at most
    h(rho_i) = rho_i sqrt(-kappa) coth(rho_i sqrt(-kappa)) (h(0) = 1), at the
    distance rho_i = ``mags`` to x_i (Karcher 1977), so the weighted mean of
    the h(rho_i) bounds the objective's Hessian at the iterate, and a step of
    its inverse contracts where the unit step can stall (Afsari, Tron &
    Vidal 2013).
    """
    if space.curv_lower >= 0:
        return np.ones(len(weights))
    r = math.sqrt(-space.curv_lower) * mags
    h = np.divide(r, np.tanh(r), out=np.ones_like(r), where=r > 0)
    return 1.0 / weighted_sum(weights, h)


def _descent_state(space: Space, base, batch, weights):
    """The tangent mean, the objective and the ``_step_sizes`` bound of each
    problem at ``base`` over its support ``batch`` and ``weights``; a cut
    locus met there is a ``CutLocusDuringIteration``."""
    try:
        grad, objective, mags = space.tangent_mean(base, batch, weights)
    except CutLocus as exc:
        raise CutLocusDuringIteration(str(exc)) from exc
    return grad, objective, _step_sizes(space, weights, mags)


def descent_batch(
    space: Space, batch, weights, init, opts: SolverOptions = SolverOptions()
) -> BatchResult:
    """Tangent-space gradient descent b <- exp_b(step * sum_i w_i log_b(x_i))
    on T problems at once: ``batch`` (T, n) + ``space.point_shape``,
    ``weights`` (T, n) and starts ``init`` (T,) + ``space.point_shape``.

    A problem stops when its tangent mean norm falls to ``opts.tol``.  The
    step is 1, divided on negatively curved spaces by the curvature bound of
    ``_step_sizes``.  On Gaussians the unit step is the fixed point
    C <- T C T with T the SPD mean map, so it cannot leave the SPD cone.  A
    step is halved (at most MAX_HALVINGS times per iteration) whenever the
    candidate objective increases, and a non-improving iteration ends that
    problem with ``converged=False`` unless the tolerance was already met.

    Each problem carries only its support, iterate, tangent mean, objective
    and step bound, which ``_descent_state`` reduces from the log maps (on
    Gaussians, the sandwiches and their roots) of the whole stack at once, so
    a step's temporaries grow with the stack; ``_trial_table`` passes one chunk of
    ``ratelab.TRIAL_FLOAT_BUDGET`` floats of support.  A problem that has
    ended leaves the stack, support included, as the next iteration opens,
    and a halving step takes the rows still pending, so the support (at most
    that chunk) is copied only when a problem has ended or a step halves; a
    step every problem accepts is taken whole.
    """
    points = np.array(init, dtype=float)
    count = len(points)
    grad_norm = np.full(count, math.inf)
    iters = np.full(count, opts.max_iters)
    converged = np.zeros(count, dtype=bool)
    # the problems still descending: their rows of the caller's stack, in the
    # order of the rows of b, grad, objective, bound, batch and weights
    live = np.arange(count)
    b = points.copy()
    grad, objective, bound = _descent_state(space, b, batch, weights)
    stalled = np.zeros(count, dtype=bool)
    for iteration in range(1, opts.max_iters + 1):
        grad_norm[live] = norm = space.tangent_norm(b, grad)
        done = norm <= opts.tol
        ended = done | stalled
        if ended.any():
            points[live[ended]] = b[ended]
            iters[live[done]], iters[live[stalled]] = iteration, iteration - 1
            converged[live[done]] = True
            keep = ~ended
            live, b, grad, objective, bound, batch, weights = (
                a[keep] for a in (live, b, grad, objective, bound, batch, weights)
            )
            if not len(live):
                break
        step = bound.copy()
        pending = np.arange(len(live))
        for _ in range(MAX_HALVINGS + 1):
            if not len(pending):
                break
            rows = slice(None) if len(pending) == len(live) else pending  # no copy
            scale = step[rows].reshape((-1,) + (1,) * (grad.ndim - 1))
            candidate = space.exp(b[rows], scale * grad[rows])
            cand_grad, cand_objective, cand_bound = _descent_state(
                space, candidate, batch[rows], weights[rows]
            )
            old = objective[rows]
            ok = cand_objective <= old + OBJECTIVE_NOISE * (1.0 + old)
            took = pending[ok]
            if len(took) == len(live):
                b, grad, objective, bound = candidate, cand_grad, cand_objective, cand_bound
            else:
                b[took], grad[took] = candidate[ok], cand_grad[ok]
                objective[took], bound[took] = cand_objective[ok], cand_bound[ok]
            pending = pending[~ok]
            step[pending] *= 0.5
        stalled = np.zeros(len(live), dtype=bool)
        stalled[pending] = True  # no step accepted: it ends on this iteration
    points[live] = b
    return BatchResult(points, grad_norm, iters, converged)


def barycenter_batch(
    space: Space, batch, weights, opts: SolverOptions = SolverOptions()
) -> BatchResult:
    """Barycenters of T problems of n points each: ``descent_batch`` from the
    space's ``warm_start``.  ``batch`` is the (T, n) + ``space.point_shape``
    array of their supports, the ``np.stack`` of T stacked batches, and
    ``weights`` is (T, n)."""
    return descent_batch(space, batch, weights, space.warm_start(batch, weights), opts)


def _batch_of_one(dist: DiscreteDistribution):
    """The support and weights of ``dist`` as a stack of one problem."""
    return dist.batch[None], dist.weights[None]


def _single(dist: DiscreteDistribution, solved: BatchResult) -> BarycenterResult:
    """The one result of a batch of one, with its objective."""
    point = solved.points[0]
    return BarycenterResult(
        point,
        variance(dist, point),
        float(solved.grad_norm[0]),
        int(solved.iters[0]),
        bool(solved.converged[0]),
    )


def frechet_mean_descent(
    dist: DiscreteDistribution, init, opts: SolverOptions = SolverOptions()
) -> BarycenterResult:
    """``descent_batch`` on one distribution, from the point ``init``."""
    batch, weights = _batch_of_one(dist)
    start = dist.space.stack([init])
    return _single(dist, descent_batch(dist.space, batch, weights, start, opts))


def bures_fixed_point(
    dist: DiscreteDistribution, opts: SolverOptions = SolverOptions()
) -> BarycenterResult:
    """The barycenter of one Gaussian distribution: its row of
    ``barycenter_batch``, whose unit step is the fixed point."""
    if not isinstance(dist.space, BuresWasserstein):
        raise SpaceMismatch("bures_fixed_point needs a Bures-Wasserstein distribution")
    return _single(dist, barycenter_batch(dist.space, *_batch_of_one(dist), opts))


def best_support_init(dist: DiscreteDistribution):
    """Descent warm start, chosen by the space in O(n) (``Space.warm_start``)."""
    return dist.space.warm_start(*_batch_of_one(dist))[0]


def empirical_barycenter(
    space: Space, sample, opts: SolverOptions = SolverOptions()
) -> BarycenterResult:
    """Barycenter of the uniform distribution on ``sample``, a point sequence
    or a stacked batch (``Family.sample_batch``): descent from the space's
    ``warm_start`` (the weighted mean on flat and Gaussian spaces, an O(n)
    projected extrinsic mean on the sphere and the hyperboloid)."""
    return barycenter(DiscreteDistribution(space, sample), opts)


def barycenter(
    dist: DiscreteDistribution, opts: SolverOptions = SolverOptions()
) -> BarycenterResult:
    """Barycenter of a weighted distribution: its row of ``barycenter_batch``,
    reached through the module-level names that the benchmark tracer wraps."""
    return frechet_mean_descent(dist, best_support_init(dist), opts)
