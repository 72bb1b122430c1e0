"""Monte Carlo verification harness for barycenter convergence rates.

Experiments verify three rate regimes and a tail bound:

* nonpositive curvature: E d^2(b_n, b*) <= sigma^2 / n,
* extendible support on nonnegative curvature: E d^2 <= 4 sigma^2 / (n k^2)
  with k from the support extendibility bound,
* alpha-convex, beta-smooth transport potentials (``Family.transport_bounds``):
  E W2^2 <= 4 sigma^2 / ((1 - beta + alpha) n),
* a high-probability bound d^2 <= c1 log(2/delta) / n on nonnegative curvature
  under a subgaussian variance proxy.

The population constant sigma^2 = E d^2(b*, X) in the rate bounds and the
subgaussian moment E exp(d^2 / (2 varsigma^2)) of the tail gate are exact:
every family gives them from its law, so no draws go into them.

Hypotheses are hard gates: an experiment refuses to run when its premises
(``require_premise``) or its constants fail.  All randomness derives from the
master seed through per-purpose and per-trial streams, so results are
independent of execution order and bit-reproducible on one platform.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .barycenter import SolverOptions, barycenter_batch, empirical_barycenter
from .errors import (
    AnchorNotBarycenter,
    CoincidentPoints,
    DiscardRateExceeded,
    HypothesisViolated,
)
from .families import Family
from .hugging import COINCIDENT_TOL, extendibility_kmin, hugging_values, wasserstein_kmin
from .hugging import hugging_value  # noqa: F401  (perfbench/tracer.py counts its calls here)

THEOREMS = ("negcurv", "master_extendible", "wasserstein", "tail")

# stream labels for seed derivation, distinct across the package; 2 stays
# unused so that the other streams keep the seeds they had when a Monte Carlo
# sigma^2 pass drew from it
_VERIFY, _TRIAL, _PROFILE = 1, 3, 4
_HUGGING, _CURVATURE = 11, 12  # the diagnostic sweeps

# discarding more than this fraction of trials fails the run
MAX_DISCARD_RATE = 0.01

# a trial still unconverged after this many redraws fails the run
MAX_REDRAWS = 25

# floats of stacked draws per trial solve (Space.point_floats a point), per
# block of the anchor verification pass, of the hugging profile's (target,
# point) payloads and of a diagnostic sweep's configurations: 128 KiB, or one
# trial's draws if they are larger.  It sizes the draws, not the peak, which
# holds the draws and the temporaries beside them: descent forms the log maps
# (or sandwiches and roots) of its whole stack at once.  Larger chunks solve no
# faster and take more memory
TRIAL_FLOAT_BUDGET = 16_384

# the largest count a run accepts (points per trial, trials, verify draws):
# 2^26, so one trial of one-float points holds at most 512 MiB of draws
COUNT_CEILING = 67_108_864

# proof constant c in (0, 1) for the tail thresholds, fixed by convention
TAIL_SPLIT_C = 0.5

# sampled hugging minima overestimate the true minimum; thresholds use this margin
PK_MARGIN = 0.9


@dataclass(frozen=True)
class RateExperimentConfig:
    family: Family
    theorem: str
    n_grid: tuple
    trials: int
    master_seed: int
    solver: SolverOptions = SolverOptions()
    verify_draws: int = 100_000

    def __post_init__(self):
        if self.theorem not in THEOREMS:
            raise ValueError(f"unknown theorem {self.theorem!r}")
        grid = tuple(int(n) for n in self.n_grid)
        if not grid or any(n < 2 for n in grid) or list(grid) != sorted(grid):
            raise ValueError("n_grid must be ascending with every n >= 2")
        object.__setattr__(self, "n_grid", grid)
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.verify_draws < 1:
            raise ValueError("verify_draws must be >= 1")
        if max(grid[-1], self.trials, self.verify_draws) > COUNT_CEILING:
            raise ValueError(f"n_grid, trials and verify_draws must be at most {COUNT_CEILING}")
        if self.master_seed < 0:
            raise ValueError("master_seed must be >= 0")


@dataclass(frozen=True)
class RatePoint:
    n: int
    trials: int
    mean_sq_dist: float
    stderr: float
    sigma2: float
    bound: float
    ratio: float


@dataclass(frozen=True)
class RateCurve:
    points: tuple
    slope: float | None
    k_used: float
    sigma2: float
    theorem: str
    space: str
    master_seed: int
    discarded: int = 0


@dataclass(frozen=True)
class SubgaussianCheck:
    estimate: float  # the family's exact moment, or its upper bound
    passed: bool


@dataclass(frozen=True)
class HuggingProfile:
    pk: float
    pk_stderr: float
    pk_sq: float
    k_min: float


@dataclass(frozen=True)
class TailExperimentResult:
    delta: float
    n: int
    trials: int
    threshold: float  # on squared distance
    empirical_exceedance: float
    bound_probability: float
    c1_used: float
    c2_used: float
    varsigma2: float
    pk_estimate: float
    pk_used: float
    kmin_estimate: float
    discarded: int  # redraws in the run's trial table, which every row shares


def _stream(master_seed: int, *path: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([int(master_seed), *path]))


def blocks(total: int, floats: int):
    """The (start, stop) bounds of ``total`` items of ``floats`` floats each,
    in consecutive blocks of at most TRIAL_FLOAT_BUDGET floats (one item at
    least): the block rule of every stacked pass."""
    size = max(1, TRIAL_FLOAT_BUDGET // floats)
    for start in range(0, total, size):
        yield start, min(start + size, total)


def population_barycenter(config: RateExperimentConfig):
    """The family anchor, after an empirical first-order verification pass.

    Requires the mean of log_anchor(X) over ``verify_draws`` family draws to
    be within three standard errors of zero.  The draws come in blocks of
    TRIAL_FLOAT_BUDGET floats of points, each reduced to its sums by
    ``Family.anchor_log_sums`` (of the tangent vectors a family builds its
    points from, where it can) before the next is drawn.
    """
    family = config.family
    rng = _stream(config.master_seed, _VERIFY)
    count = config.verify_draws
    payload_sum, sq_sum = 0.0, 0.0
    for start, stop in blocks(count, family.space.point_floats):
        block_payload, block_sq = family.anchor_log_sums(rng, stop - start)
        payload_sum, sq_sum = payload_sum + block_payload, sq_sum + block_sq
    mean_norm = family.space.tangent_norm(family.anchor, payload_sum / count)
    sigma2_hat = sq_sum / count
    tolerance = 3.0 * math.sqrt(sigma2_hat / count)
    if mean_norm > tolerance:
        raise AnchorNotBarycenter(
            f"empirical gradient norm {mean_norm:.3e} exceeds {tolerance:.3e} "
            f"({count} draws)"
        )
    return family.anchor


def estimate_sigma2(config: RateExperimentConfig) -> float:
    """The family's variance about its anchor, exact from its closed form.

    The name stays because perfbench's tracer times this phase through it.
    """
    return config.family.sigma2()


def require_premise(theorem: str, family: Family) -> None:
    """Raise HypothesisViolated unless ``family`` meets ``theorem``'s premise, read
    from the space's curvature interval and the family's ``transport_bounds``."""
    space = family.space
    if theorem == "negcurv":
        premise = "curvature <= 0 with a finite lower bound"
        holds = space.curv_upper <= 0 and math.isfinite(space.curv_lower)
    elif theorem == "wasserstein":
        premise = "alpha-convex, beta-smooth transport potentials"
        holds = family.transport_bounds() is not None
    else:  # master_extendible and tail
        premise, holds = "curvature >= 0", space.curv_lower >= 0
    if not holds:
        raise HypothesisViolated(
            f"theorem {theorem!r} is incompatible with family {family.kind!r}: it needs {premise}"
        )


def _theorem_k(config: RateExperimentConfig) -> float:
    """The constant in force for the configured theorem, hypothesis-gated."""
    if config.theorem == "tail":
        raise HypothesisViolated("tail configs run through run_tail_experiment")
    require_premise(config.theorem, config.family)
    if config.theorem == "negcurv":
        return 1.0
    if config.theorem == "wasserstein":
        k, source = wasserstein_kmin(*config.family.transport_bounds()), "1 - beta + alpha"
    else:
        ext = config.family.support_extendibility()
        k, source = extendibility_kmin(ext.lambda_in, ext.lambda_out), "support extendibility"
    if k <= 0:
        raise HypothesisViolated(f"{source} gives k = {k:.6g} <= 0")
    return k


def _theorem_bound(theorem: str, sigma2: float, n: int, k: float) -> float:
    if theorem == "negcurv":
        return sigma2 / n
    if theorem == "master_extendible":
        return 4.0 * sigma2 / (n * k * k)
    return 4.0 * sigma2 / (n * k)  # wasserstein: first power of k


def _one_trial(config: RateExperimentConfig, b_star, n_index: int, trial: int):
    """Sample, solve and score one replication; redraw on non-convergence.

    The per-trial reference for ``_trial_table``, which solves the same
    draws stacked and scores them the same way.
    """
    family = config.family
    space = family.space
    redraw = 0
    while True:
        rng = _stream(config.master_seed, _TRIAL, n_index, trial, redraw)
        batch = family.sample_batch(rng, config.n_grid[n_index])
        result = empirical_barycenter(space, batch, config.solver)
        if result.converged:
            return float(space.sqdist_batch(b_star, space.stack([result.point]))[0]), redraw
        redraw += 1
        if redraw > MAX_REDRAWS:
            raise DiscardRateExceeded(
                f"trial ({n_index}, {trial}) failed to converge after {redraw} redraws"
            )


def _trial_chunk(config: RateExperimentConfig, b_star, n_index: int, trials: np.ndarray):
    """Squared distances of the given trials at ``n_grid[n_index]``, and the
    redraws they took.

    Each trial is drawn from its own stream, as in ``_one_trial``, and the
    draws are solved as one stacked solve; the non-converged trials are
    solved again together from their next redraw stream.
    """
    family = config.family
    space = family.space
    n = config.n_grid[n_index]
    sq = np.empty(len(trials))
    todo = np.arange(len(trials))
    redraw = redraws = 0
    while True:
        batch = np.stack([
            family.sample_batch(_stream(config.master_seed, _TRIAL, n_index, t, redraw), n)
            for t in trials[todo]
        ])
        weights = np.full((len(todo), n), 1.0 / n)
        solved = barycenter_batch(space, batch, weights, config.solver)
        ok = solved.converged
        sq[todo[ok]] = space.sqdist_batch(b_star, solved.points)[ok]
        todo = todo[~ok]
        if not len(todo):
            return sq, redraws
        redraw += 1
        redraws += len(todo)
        if redraw > MAX_REDRAWS:
            raise DiscardRateExceeded(
                f"trial ({n_index}, {trials[todo[0]]}) failed to converge after {redraw} redraws"
            )


def _trial_table(config: RateExperimentConfig, b_star):
    """Squared distances of every trial, shape ``(len(n_grid), trials)``, and
    the number of redraws they took.

    The trials of one n are solved in stacked chunks of at most
    TRIAL_FLOAT_BUDGET floats of draws (one trial at least).  Every reduction
    stays per trial, so the table equals the ``_one_trial`` loop bit for bit,
    however the trials are chunked.  Raises ``DiscardRateExceeded`` when
    redraws exceed ``MAX_DISCARD_RATE`` of all draws, for the rate and the
    tail experiment alike.
    """
    sq = np.empty((len(config.n_grid), config.trials))
    redraws = 0
    for n_index, n in enumerate(config.n_grid):
        for start, stop in blocks(config.trials, n * config.family.space.point_floats):
            trials = np.arange(start, stop)
            sq[n_index, trials], redraw = _trial_chunk(config, b_star, n_index, trials)
            redraws += redraw
    if redraws / (sq.size + redraws) > MAX_DISCARD_RATE:
        raise DiscardRateExceeded(
            f"{redraws} non-converged trials out of {sq.size + redraws}"
        )
    return sq, redraws


def run_rate_experiment(config: RateExperimentConfig) -> RateCurve:
    """Estimate E d^2(b_n, b*) over the n grid and compare to the theorem bound."""
    k = _theorem_k(config)
    b_star = population_barycenter(config)
    sigma2 = estimate_sigma2(config)
    table, discarded = _trial_table(config, b_star)
    points = []
    for n, sq in zip(config.n_grid, table):
        mean = float(sq.mean())
        stderr = float(sq.std(ddof=1) / math.sqrt(config.trials)) if config.trials > 1 else 0.0
        bound = _theorem_bound(config.theorem, sigma2, n, k)
        points.append(
            RatePoint(n, config.trials, mean, stderr, sigma2, bound, mean / bound)
        )
    return RateCurve(
        points=tuple(points),
        slope=_loglog_slope([p.n for p in points], [p.mean_sq_dist for p in points]),
        k_used=k,
        sigma2=sigma2,
        theorem=config.theorem,
        space=config.family.space.tag,
        master_seed=config.master_seed,
        discarded=discarded,
    )


def _loglog_slope(ns, means) -> float | None:
    """The least-squares slope of log mean against log n, over the positive
    means (a zero mean has no logarithm); None when fewer than three remain."""
    ns, means = np.asarray(ns, float), np.asarray(means, float)
    keep = means > 0
    if np.count_nonzero(keep) < 3:
        return None
    x, y = np.log(ns[keep]), np.log(means[keep])
    x = x - x.mean()
    return float((x @ (y - y.mean())) / (x @ x))


def subgaussian_proxy_check(config: RateExperimentConfig, varsigma2: float) -> SubgaussianCheck:
    """The exponential moment E exp(d^2 / (2 varsigma^2)) against the proxy.

    Passes when the family's moment (``Family.subgaussian_moment``: exact, or
    an upper bound, so a pass is sound either way) is at most 2.
    """
    if varsigma2 <= 0:
        raise ValueError("varsigma2 must be positive")
    moment = config.family.subgaussian_moment(varsigma2)
    return SubgaussianCheck(moment, bool(moment <= 2.0))


def estimate_hugging_profile(
    config: RateExperimentConfig, n_points: int = 200, n_targets: int = 100
) -> HuggingProfile:
    """Sampled hugging statistics of the family around its anchor.

    For each of ``n_points`` support draws x the inner minimum over targets
    is approximated by ``n_targets`` family draws; the profile records the
    average (an upper bound on the true average minimum), its standard
    error, the mean square, and the smallest value seen anywhere.  The
    support's log maps are taken once, and the targets are evaluated in
    blocks of at most TRIAL_FLOAT_BUDGET floats of (target, point) payloads.
    """
    family = config.family
    space, anchor = family.space, family.anchor
    rng = _stream(config.master_seed, _PROFILE)
    xs = family.sample_batch(rng, n_points)
    targets = family.sample_batch(rng, n_targets)
    # a target at the anchor has no hugging value
    targets = targets[space.log_batch(anchor, targets)[1] > COINCIDENT_TOL]
    count = len(targets)
    if not count:
        raise CoincidentPoints("every sampled target coincided with the anchor")
    logs = space.log_batch(anchor, xs)[0]
    k_of_x = np.full(n_points, np.inf)
    for start, stop in blocks(count, n_points * space.point_floats):
        rows = hugging_values(space, anchor, targets[start:stop], xs, logs)
        k_of_x = np.minimum(k_of_x, rows.min(axis=0))
    pk = float(k_of_x.mean())
    pk_stderr = float(k_of_x.std(ddof=1) / math.sqrt(n_points)) if n_points > 1 else 0.0
    return HuggingProfile(pk, pk_stderr, float((k_of_x**2).mean()), float(k_of_x.min()))


def run_tail_experiment(
    config: RateExperimentConfig,
    deltas,
    varsigma2: float,
    profile: HuggingProfile | None = None,
    subgaussian: SubgaussianCheck | None = None,
) -> list[TailExperimentResult]:
    """High-probability bound check: one result per (delta, n), delta-major.

    The threshold on d^2(b_n, b*) is the proof-derived
    8 varsigma^2 log(2/delta) / (n c^2 Pk^2) with c = 1/2 and the sampled Pk
    reduced by PK_MARGIN (the sampled estimate is an upper bound on the true
    value, so the reduction is the conservative direction).  The bound is one
    statement about the law of b_n read at several deltas, so the anchor is
    verified once and each trial is solved once, then thresholded at every
    delta.
    """
    deltas = [float(delta) for delta in deltas]
    if not deltas or not all(0 < delta < 1 for delta in deltas):
        raise ValueError("every delta must lie in (0, 1)")
    require_premise("tail", config.family)
    if subgaussian is None:
        subgaussian = subgaussian_proxy_check(config, varsigma2)
    if not subgaussian.passed:
        raise HypothesisViolated(
            f"subgaussian moment {subgaussian.estimate:.4g} > 2 at varsigma2 {varsigma2:.4g}"
        )
    if profile is None:
        profile = estimate_hugging_profile(config)
    if profile.pk - 3.0 * profile.pk_stderr <= 0:
        raise HypothesisViolated(
            f"sampled Pk {profile.pk:.4g} +- {profile.pk_stderr:.2g} is not positive"
        )
    pk_used = PK_MARGIN * profile.pk
    c = TAIL_SPLIT_C
    c1 = 8.0 * varsigma2 / (c**2 * pk_used**2)
    kmin_abs = max(abs(profile.k_min), 1e-12)
    c2 = ((1.0 - c) * pk_used / (2.0 * kmin_abs)) * min(
        (1.0 - c) * kmin_abs * pk_used / max(profile.pk_sq, 1e-300), 1.5
    )
    table, discarded = _trial_table(config, population_barycenter(config))
    out = []
    for delta in deltas:
        for n, sq in zip(config.n_grid, table):
            threshold = c1 * math.log(2.0 / delta) / n
            rate = int(np.count_nonzero(sq > threshold)) / config.trials
            out.append(
                TailExperimentResult(
                    delta=delta,
                    n=n,
                    trials=config.trials,
                    threshold=threshold,
                    empirical_exceedance=rate,
                    bound_probability=min(delta + math.exp(-c2 * n), 1.0),
                    c1_used=c1,
                    c2_used=c2,
                    varsigma2=float(varsigma2),
                    pk_estimate=profile.pk,
                    pk_used=pk_used,
                    kmin_estimate=profile.k_min,
                    discarded=discarded,
                )
            )
    return out


def rate_violations(curve: RateCurve, strict: bool = False) -> list[str]:
    """Bound violations in a rate curve; statistical slack unless strict."""
    out = []
    for p in curve.points:
        slack = 0.0 if strict else 3.0 * p.stderr / p.bound
        if p.ratio > 1.0 + slack:
            out.append(
                f"n={p.n}: ratio {p.ratio:.6g} exceeds 1 + {slack:.3g}"
            )
    return out


def tail_violations(results, strict: bool = False) -> list[str]:
    out = []
    for r in results:
        stderr = math.sqrt(
            max(r.empirical_exceedance * (1 - r.empirical_exceedance), 0.0) / r.trials
        )
        slack = 0.0 if strict else 3.0 * stderr
        if r.empirical_exceedance > r.bound_probability + slack:
            out.append(
                f"delta={r.delta}, n={r.n}: exceedance {r.empirical_exceedance:.4g} "
                f"above bound {r.bound_probability:.4g} + {slack:.3g}"
            )
    return out
