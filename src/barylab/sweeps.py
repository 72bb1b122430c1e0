"""Diagnostic sweeps behind the hugging and curvature CLI subcommands."""

from __future__ import annotations

import itertools
import math

import numpy as np

from .barycenter import SolverOptions, barycenter
from .comparison import angle_monotonicity_probe, cone_distance, quadruple_defect
from .distributions import DiscreteDistribution
from .errors import CoincidentPoints, DiscardRateExceeded
from .families import Family
from .hugging import (
    HuggingReport,
    extendibility_kmin,
    hugging_value,
    support_extendibility,
    variance_equality_residual,
)
from .spaces import Space

MIN_SEPARATION = 0.05


def hugging_sweep(
    family: Family,
    n_support: int,
    n_cases: int,
    master_seed: int,
    solver: SolverOptions = SolverOptions(),
):
    """Hugging reports around one solved empirical barycenter of the family.

    Returns (rows, meta): one row per sampled (b, x) case with the instance's
    extension-based lower bound and variance-equality residual.
    """
    rng = np.random.default_rng(np.random.SeedSequence([int(master_seed), 11]))
    space = family.space
    support = family.sample(rng, n_support)
    dist = DiscreteDistribution.uniform(space, support)
    result = barycenter(dist, solver)
    if not result.converged:
        raise DiscardRateExceeded("hugging sweep barycenter did not converge")
    b_star = result.point
    ext = support_extendibility(space, dist, b_star)
    k_min = extendibility_kmin(ext.lambda_in, ext.lambda_out)
    # every case's residual shares the support's log maps and d^2 at b_star
    logs = space.log_batch(b_star, dist.batch)[0]
    sqdist_star = space.sqdist_batch(b_star, dist.batch)
    reports = []
    while len(reports) < n_cases:
        b = family.sample(rng, 1)[0]
        x = support[int(rng.integers(0, n_support))]
        try:
            report = HuggingReport(
                k_value=hugging_value(space, b_star, b, x),
                lambda_in=ext.lambda_in,
                lambda_out=ext.lambda_out,
                k_min_bound=k_min,
                variance_eq_residual=variance_equality_residual(
                    space, dist, b_star, b, logs, sqdist_star
                ),
            )
        except CoincidentPoints:
            continue
        reports.append(report)
    meta = {
        "grad_norm": result.grad_norm,
        "objective": result.objective,
        "iters": result.iters,
        "k_min_bound": k_min,
        # strict JSON has no infinity: an unbounded extension factor is null
        "lambda_in": ext.lambda_in if math.isfinite(ext.lambda_in) else None,
        "lambda_out": ext.lambda_out if math.isfinite(ext.lambda_out) else None,
    }
    return reports, meta


def separated(space: Space, points, min_sep: float = MIN_SEPARATION) -> bool:
    """Whether ``points`` are pairwise at least ``min_sep`` apart and, on the
    sphere, clear of the cut locus: every pair at most pi - ``min_sep`` apart
    and every triangle's perimeter short of 2 pi, as the probes need."""
    count = len(points)
    dist = np.zeros((count, count))
    for i in range(count - 1):
        dist[i, i + 1:] = np.sqrt(space.sqdist_batch(points[i], space.stack(points[i + 1:])))
    pairs = dist[np.triu_indices(count, 1)]
    if np.min(pairs) < min_sep:
        return False
    if space.tag != "sphere":
        return True
    return bool(np.max(pairs) <= math.pi - min_sep) and not any(
        dist[i, j] + dist[i, k] + dist[j, k] > 2.0 * math.pi - 1e-3
        for i, j, k in itertools.combinations(range(count), 3)
    )


def _separated_points(space: Space, rng, count: int, max_tries: int = 200):
    """Mutually separated random points, resampled to respect probe margins."""
    for _ in range(max_tries):
        pts = [space.random_point(rng) for _ in range(count)]
        if separated(space, pts):
            return pts
    raise RuntimeError("could not sample separated probe points")


def curvature_sweep(space: Space, kappa: float, quadruples: int, triples: int,
                    grid, master_seed: int):
    """Quadruple, monotonicity and cone-metric probes on one space.

    Emits one row per probe evaluation; the cone gap is signed so that the
    curvature-appropriate inequality corresponds to a nonnegative value.
    """
    rng = np.random.default_rng(np.random.SeedSequence([int(master_seed), 12]))
    rows = []
    for index in range(quadruples):
        p, x, y, z = _separated_points(space, rng, 4)
        rows.append(
            {
                "space": space.tag,
                "kappa": kappa,
                "probe": "quadruple_defect",
                "index": index,
                "value": quadruple_defect(space, p, x, y, z, kappa),
            }
        )
    for index in range(triples):
        p, x, y = _separated_points(space, rng, 3)
        report = angle_monotonicity_probe(space, p, x, y, kappa, grid)
        rows.append(
            {
                "space": space.tag,
                "kappa": kappa,
                "probe": "monotonicity_violation",
                "index": index,
                "value": report.max_violation,
            }
        )
    for index in range(triples):
        p, x, y = _separated_points(space, rng, 3)
        gap = cone_distance(space, p, x, y) - space.distance(x, y)
        if space.curv_upper <= 0:
            gap = -gap  # nonpositive curvature flips the comparison direction
        rows.append(
            {
                "space": space.tag,
                "kappa": kappa,
                "probe": "cone_gap",
                "index": index,
                "value": gap,
            }
        )
    return rows
