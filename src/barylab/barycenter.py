"""Barycenter (Frechet mean) solver and variance computation.

One solver serves every space: tangent-space gradient descent to the point
where the weighted mean log map vanishes, on T problems stacked on a leading
axis, with every reduction kept per problem, so no result depends on the
problems solved beside it.  The space chooses only its start
(``Space.warm_start``), its weighted tangent mean (``Space.tangent_mean``)
and its step cap (``Space.max_step``).  From the exact weighted mean a flat
space (Euclidean, quantile grids) takes no step; on Gaussian measures the
unit step is the Bures fixed point C <- T C T (Zemel & Panaretos 2019), which
converges linearly (Chewi, Maunu, Rigollet & Stromme 2020).  The
single-distribution entry points are batches of one.
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
from .linalg import weighted_sum
from .spaces import BuresWasserstein, QuantileSpace, Space

# the benchmark tracer wraps ``spd_sqrt_batch`` under this module's name, so
# it stays importable from here though no solver here calls it
from .linalg import spd_sqrt_batch  # noqa: F401

# Accept a descent step when the objective does not increase beyond float noise.
OBJECTIVE_NOISE = 1e-12
MAX_HALVINGS = 30
# floats of support that descent maps at once (one problem at least): each
# ``Space.tangent_mean`` call forms its log maps (on Gaussians, its sandwiches
# and their roots) for one block and reduces them, so a step's temporaries are
# a few arrays of 128 KiB, however many problems it stacks
LOG_BLOCK_FLOATS = 16_384


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


def _tangent_norms(space: Space, p, v) -> np.ndarray:
    return np.sqrt(np.maximum(space.tangent_inner(p, v, v), 0.0))


def _tangent_mean(space: Space, p, batch, weights):
    try:
        return space.tangent_mean(p, batch, weights)
    except CutLocus as exc:
        raise CutLocusDuringIteration(str(exc)) from exc


def _step_sizes(space: Space, weights, mags, step: float) -> np.ndarray:
    """``step`` over the objective's curvature bound on spaces with curvature
    bounded below by kappa < 0, else ``step`` itself.

    There the Hessian of d^2(., x_i) / 2 has eigenvalues at most
    h(rho_i) = rho_i sqrt(-kappa) coth(rho_i sqrt(-kappa)) (h(0) = 1), at the
    distance rho_i = ``mags`` to x_i (Karcher 1977), so the weighted mean of
    the h(rho_i) bounds the objective's Hessian at the iterate, and a step of
    its inverse contracts where the unit step can stall (Afsari, Tron &
    Vidal 2013).
    """
    if space.curv_lower >= 0:
        return np.full(len(weights), step)
    r = math.sqrt(-space.curv_lower) * mags
    h = np.divide(r, np.tanh(r), out=np.ones_like(r), where=r > 0)
    return step / weighted_sum(weights, h)


def _consecutive(rows: np.ndarray):
    """Sorted indices as a slice where they are consecutive, so indexing with
    them makes a view rather than a copy."""
    if rows[-1] - rows[0] == len(rows) - 1:
        return slice(rows[0], rows[-1] + 1)
    return rows


def _blocks(rows: np.ndarray, floats: int):
    """``(block, take)`` for each run of LOG_BLOCK_FLOATS floats of support
    (one problem at least) over the problems ``rows`` of a stack whose
    problems hold ``floats`` floats each: ``block`` slices the per-problem
    state, in the order of ``rows``, and ``take`` the stack, as a view
    where those rows are consecutive."""
    per_block = max(1, LOG_BLOCK_FLOATS // floats)
    for start in range(0, len(rows), per_block):
        block = slice(start, start + per_block)
        yield block, _consecutive(rows[block])


def _descent_state(space: Space, base, batch, weights, rows, step: float):
    """The tangent mean, the objective and the ``_step_sizes`` bound of each
    problem at ``base``, whose support and weights are the rows ``rows`` of
    ``batch`` and ``weights``: ``Space.tangent_mean`` a ``_blocks`` block at
    a time, so no array of the size of the stack is formed."""
    parts = []
    for block, take in _blocks(rows, batch[0].size):
        w = weights[take]
        grad, objective, mags = _tangent_mean(space, base[block], batch[take], w)
        parts.append((grad, objective, _step_sizes(space, w, mags, step)))
    return [np.concatenate(part) for part in zip(*parts)]


def descent_batch(
    space: Space, batch, weights, init, opts: SolverOptions = SolverOptions()
) -> BatchResult:
    """Tangent-space gradient descent b <- exp_b(step * sum_i w_i log_b(x_i))
    on T problems at once: ``batch`` (T, n) + ``space.point_shape``,
    ``weights`` (T, n) and starts ``init`` (T,) + ``space.point_shape``.

    A problem stops when its tangent mean norm falls to ``opts.tol``.  The
    step is ``opts.step`` capped at ``space.max_step`` (so on Gaussians a
    ``step`` below 1 damps the fixed point, and one above 1 is the fixed
    point), divided on negatively curved spaces by the curvature bound of
    ``_step_sizes``; it is halved (at most MAX_HALVINGS times per iteration)
    whenever the candidate objective increases, and a non-improving
    iteration ends that problem with ``converged=False`` unless the
    tolerance was already met.

    Each problem carries only its iterate, tangent mean, objective and step
    bound, which ``_descent_state`` reduces from a block of the support at a
    time.  The support and weights are never gathered whole: a step reads
    the rows of its problems a block at a time, and a step every problem
    accepts is taken whole.
    """
    points = np.array(init, dtype=float)
    count = len(points)
    grad_norm = np.full(count, math.inf)
    iters = np.full(count, opts.max_iters)
    converged = np.zeros(count, dtype=bool)
    # the problems still descending: their rows of the stack, in the order of
    # the rows of b, grad, objective and bound
    live = np.arange(count)
    b = points.copy()
    capped = min(opts.step, space.max_step)
    grad, objective, bound = _descent_state(space, b, batch, weights, live, capped)
    for iteration in range(1, opts.max_iters + 1):
        grad_norm[live] = norm = _tangent_norms(space, b, grad)
        done = norm <= opts.tol
        step = bound.copy()
        pending = np.flatnonzero(~done)
        for _ in range(MAX_HALVINGS + 1):
            if not len(pending):
                break
            rows = slice(None) if len(pending) == len(live) else pending  # no copy
            scale = step[rows].reshape((-1,) + (1,) * (grad.ndim - 1))
            candidate = space.exp(b[rows], scale * grad[rows])
            cand_grad, cand_objective, cand_bound = _descent_state(
                space, candidate, batch, weights, live[rows], capped
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
        ended = done.copy()
        ended[pending] = True  # no step accepted: the problem stalls
        if not ended.any():
            continue
        points[live[ended]] = b[ended]
        iters[live[ended]] = iteration
        converged[live[done]] = True
        keep = ~ended
        live, b, grad, objective, bound = (a[keep] for a in (live, b, grad, objective, bound))
        if not len(live):
            break
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
    point = dist.space.unstack(solved.points)[0]
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


def quantile_mean(dist: DiscreteDistribution):
    """Pointwise weighted average of quantile grids: the exact barycenter."""
    if not isinstance(dist.space, QuantileSpace):
        raise SpaceMismatch("quantile_mean needs a quantile-space distribution")
    return dist.weights @ dist.batch


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
    return dist.space.unstack(dist.space.warm_start(*_batch_of_one(dist)))[0]


def empirical_barycenter(
    space: Space, sample, opts: SolverOptions = SolverOptions()
) -> BarycenterResult:
    """Barycenter of the uniform distribution on ``sample``, a point sequence
    or a stacked batch (``Family.sample_batch``): descent from the space's
    ``warm_start`` (the weighted mean on flat and Gaussian spaces, an O(n)
    projected extrinsic mean on the sphere and the hyperboloid)."""
    dist = DiscreteDistribution.uniform(space, sample)
    if len(dist) == 1:
        return BarycenterResult(dist.points[0], 0.0, 0.0, 0, True)
    return barycenter(dist, opts)


def barycenter(
    dist: DiscreteDistribution, opts: SolverOptions = SolverOptions()
) -> BarycenterResult:
    """Barycenter of a weighted distribution: its row of ``barycenter_batch``,
    reached through the module-level names that the benchmark tracer wraps."""
    return frechet_mean_descent(dist, best_support_init(dist), opts)


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
