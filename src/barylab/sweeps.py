"""Diagnostic sweeps behind the hugging and curvature CLI subcommands."""

from __future__ import annotations

import itertools
import math

import numpy as np

from . import ratelab
from .barycenter import SolverOptions, barycenter
from .comparison import angle_monotonicity_probe, cone_distance, model_diameter, quadruple_defect
from .distributions import DiscreteDistribution
from .errors import BarylabError, DiscardRateExceeded
from .families import Family
from .hugging import COINCIDENT_TOL, HuggingReport, extendibility_kmin, hugging_value
from .hugging import variance_equality_residual
from .spaces import Space

MIN_SEPARATION = 0.05


def _sweep(probe, total: int, floats: int, draw, accept, max_tries: float = math.inf) -> list:
    """``probe`` of ``total`` configurations of ``floats`` floats, one call a
    block of at most TRIAL_FLOAT_BUDGET floats.  Each round draws the ``k``
    still needed, ``draw(k)``, and tests them in one ``accept`` call: the draws
    of a loop of attempts.  ``max_tries`` rejections in a row raise, and a
    failing block raises the error of its first failing configuration."""
    streak, values = 0, []
    for start, stop in ratelab.blocks(total, floats):
        kept, needed = [], stop - start
        while len(kept) < needed:
            drawn = draw(needed - len(kept))
            for config, good in zip(drawn, accept(drawn)):
                streak = 0 if good else streak + 1
                if streak >= max_tries:
                    raise RuntimeError("could not sample separated probe points")
                kept += [config] if good else []
        try:
            values += probe(*np.swapaxes(kept, 0, 1)).tolist()
        except BarylabError:
            for config in kept:
                probe(*config[:, None])
            raise
    return values


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
    rng = ratelab._stream(master_seed, ratelab._HUGGING)
    space = family.space
    dist = DiscreteDistribution(space, family.sample_batch(rng, n_support))
    result = barycenter(dist, solver)
    if not result.converged:
        raise DiscardRateExceeded("hugging sweep barycenter did not converge")
    b_star = result.point
    ext = space.max_extendibility(b_star, dist.batch)
    k_min = extendibility_kmin(ext.lambda_in, ext.lambda_out)
    # every case's residual shares the support's log maps and d^2 at b_star
    logs = space.log_batch(b_star, dist.batch)[0]
    sqdist_star = space.sqdist_batch(b_star, dist.batch)

    def draw(count):  # (b, x) cases: a family draw, then a support point
        return [np.stack((family.sample_batch(rng, 1)[0], dist.batch[rng.integers(n_support)]))
                for _ in range(count)]

    def apart(cases):  # a target at b_star is redrawn
        return space.log_batch(b_star, np.stack(cases)[:, 0])[1] > COINCIDENT_TOL

    def probe(b, x):
        k_values = hugging_value(space, b_star, b, x)
        residuals = variance_equality_residual(space, dist, b_star, b, logs, sqdist_star)
        return np.stack((k_values, residuals), -1)

    # a case's residual takes (n_support,) payloads
    cases = _sweep(probe, n_cases, (n_support + 2) * space.point_floats, draw, apart)
    reports = [HuggingReport(k, ext.lambda_in, ext.lambda_out, k_min, res) for k, res in cases]
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


def separated(space: Space, points, min_sep: float = MIN_SEPARATION):
    """Whether the m ``points`` are pairwise at least ``min_sep`` apart and clear
    of the cut locus, as the probes need: every pair at most D - ``min_sep``
    apart and every perimeter below 2D - 1e-3, D = model_diameter(curv_lower)
    (pi on the sphere, else inf); a (Q, m) + point_shape stack gives (Q,)."""
    axes = len(space.point_shape)
    batch = space.stack(points) if np.ndim(points) <= axes + 1 else np.asarray(points)
    dist = np.sqrt(space.sqdist_batch(batch, np.expand_dims(batch, -2 - axes)))
    i, j = np.triu_indices(dist.shape[-1], 1)
    pairs = dist[..., i, j]
    i, j, k = np.array(list(itertools.combinations(range(dist.shape[-1]), 3)), int).reshape(-1, 3).T
    perimeters = dist[..., i, j] + dist[..., i, k] + dist[..., j, k]
    diameter = model_diameter(space.curv_lower)
    ok = (np.min(pairs, axis=-1) >= min_sep) & (np.max(pairs, axis=-1) <= diameter - min_sep)
    ok &= ~np.any(perimeters > 2.0 * diameter - 1e-3, axis=-1)
    return ok if ok.ndim else bool(ok)


def curvature_sweep(space: Space, kappa: float, quadruples: int, triples: int,
                    grid, master_seed: int):
    """Quadruple, monotonicity and cone-metric probes on one space.

    Emits one row per probe evaluation; the cone gap is signed so that the
    curvature-appropriate inequality corresponds to a nonnegative value.
    """
    rng = ratelab._stream(master_seed, ratelab._CURVATURE)

    def cone_gap(p, x, y):  # nonpositive curvature flips the comparison direction
        gaps = cone_distance(space, p, x, y) - np.sqrt(space.sqdist_batch(x, y[:, None])[:, 0])
        return -gaps if space.curv_upper <= 0 else gaps

    probes = (
        ("quadruple_defect", quadruples, 4, lambda *c: quadruple_defect(space, *c, kappa)),
        ("monotonicity_violation", triples, 3,
         lambda *c: angle_monotonicity_probe(space, *c, kappa, grid).max_violation),
        ("cone_gap", triples, 3, cone_gap),
    )
    rows = []
    for name, total, count, probe in probes:

        def draw(configs, count=count):
            points = space.stack([space.random_point(rng) for _ in range(configs * count)])
            return points.reshape((configs, count) + space.point_shape)

        values = _sweep(probe, total, count * space.point_floats, draw,
                        lambda configs: separated(space, configs), max_tries=200)
        rows += [{"space": space.tag, "kappa": kappa, "probe": name, "index": i, "value": v}
                 for i, v in enumerate(values)]
    return rows
