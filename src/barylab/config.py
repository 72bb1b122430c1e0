"""Strict JSON experiment configuration parsing.

Unknown keys are errors, and validation collects every violated invariant
before raising so a bad config is fixed in one round trip.
"""

from __future__ import annotations

import inspect
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .barycenter import SolverOptions
from .errors import (
    BadFamilyParams, HypothesisViolated, NotPositiveDefinite, ParseError, ValidationError,
)
from .families import FAMILY_KINDS
from .ratelab import (
    COUNT_CEILING, THEOREMS, RateExperimentConfig, estimate_hugging_profile, require_premise,
)
from .spaces import SPACE_KINDS, point_from_payload

# a tuple, not a set: a JSON list or object as 'theorem' is unhashable
_RATE_THEOREMS = tuple(sorted(set(THEOREMS) - {"tail"}))

_DEFAULT_TRIALS = 1000
# the hugging profile sizes of a tail config that omits them: the library's
_PROFILE_DEFAULTS = inspect.signature(estimate_hugging_profile).parameters


@dataclass(frozen=True)
class ParsedConfig:
    payload: dict  # experiment-specific, validated values
    config: dict  # the JSON object as read, which the manifest echoes
    master_seed: int = 0  # the run's seed, --seed over the config's, which the manifest records


def _reject_constant(name: str):
    # NaN and Infinity are not JSON; manifests are written strict, so reject them here
    raise ValueError(f"{name} is not a JSON number")


def _finite_float(text: str) -> float:
    # a literal beyond the double range reads as inf, which strict JSON output cannot hold
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"{text} overflows a double")
    return value


def load_json(path) -> dict:
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    try:
        obj = json.loads(text, parse_constant=_reject_constant, parse_float=_finite_float)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    except ValueError as exc:
        raise ParseError(f"{path}: {exc}") from exc
    if not isinstance(obj, dict):
        raise ParseError(f"{path}: top level must be a JSON object")
    return obj


def parse_config(path, expected_experiment: str | None = None,
                 seed: int | None = None) -> ParsedConfig:
    """Parse and validate a config file for one experiment; a ``seed`` given
    (the CLI's --seed) takes the place of the config's ``master_seed``."""
    # refused here, not by argparse, whose exit 2 would read as a failed hypothesis
    if seed is not None and seed < 0:
        raise ValidationError([f"--seed must be a nonnegative integer, got {seed}"])
    obj = load_json(path)
    violations: list[str] = []
    experiment = obj.get("experiment")
    if experiment is None:
        violations.append("missing required key 'experiment'")
    elif not isinstance(experiment, str) or experiment not in _BUILDERS:
        violations.append(f"experiment {experiment!r} not one of {sorted(_BUILDERS)}")
    elif expected_experiment and experiment != expected_experiment:
        violations.append(
            f"config declares experiment {experiment!r} but the "
            f"{expected_experiment!r} subcommand was invoked"
        )
    if violations:
        raise ValidationError(violations)
    master_seed = _seed(obj, violations)  # checked even where a given seed replaces it
    if seed is not None:
        master_seed = seed
    payload = _BUILDERS[experiment](obj, violations, master_seed)
    if violations:
        raise ValidationError(violations)
    return ParsedConfig(payload, obj, master_seed)


# -- field helpers ------------------------------------------------------------


def _is_numeric(value, depth: int = 0) -> bool:
    """Whether ``value`` is a JSON number within the double range (``depth``
    0), or a list of values numeric at ``depth - 1``."""
    if depth == 0:
        return (
            isinstance(value, (int, float))
            and not isinstance(value, bool)
            and abs(value) <= sys.float_info.max
        )
    return isinstance(value, list) and all(_is_numeric(item, depth - 1) for item in value)


def _check_keys(obj: dict, allowed: set, required: set, ctx: str, violations: list):
    for key in sorted(set(obj) - allowed):
        violations.append(f"{ctx}: unknown key {key!r}")
    for key in sorted(required - set(obj)):
        violations.append(f"{ctx}: missing required key {key!r}")


def _positive_int(obj, key, default, ctx, violations, minimum=1):
    """A count or size from ``minimum`` to COUNT_CEILING."""
    value = obj.get(key, default)
    if not isinstance(value, int) or isinstance(value, bool) or value < minimum:
        violations.append(f"{ctx}: {key!r} must be an integer >= {minimum}")
        return default
    if value > COUNT_CEILING:
        violations.append(f"{ctx}: {key!r} must be at most {COUNT_CEILING}")
        return default
    return value


def _positive_float(obj, key, default, ctx, violations):
    value = obj.get(key, default)
    if not _is_numeric(value) or value <= 0:
        violations.append(f"{ctx}: {key!r} must be a positive number")
        return default
    return float(value)


def _numbers(obj, key, default, ctx, violations, depth=1):
    """A list of numbers (``depth`` 1) or of lists of numbers (``depth`` 2)."""
    value = obj.get(key, default)
    if not _is_numeric(value, depth):
        violations.append(f"{ctx}: {key!r} must be a list of {'lists of ' * (depth - 1)}numbers")
        return default
    return value


def _seed(obj, violations) -> int:
    value = obj.get("master_seed", 0)
    if not isinstance(value, int) or isinstance(value, bool) or value < 0:
        violations.append("'master_seed' must be a nonnegative integer")
        return 0
    return value


def _solver(obj: dict, violations) -> SolverOptions:
    defaults = SolverOptions()
    section = obj.get("solver", {})
    if not isinstance(section, dict):
        violations.append("'solver' must be an object")
        return defaults
    _check_keys(section, {"max_iters", "tol"}, set(), "solver", violations)
    max_iters = _positive_int(section, "max_iters", defaults.max_iters, "solver", violations)
    tol = _positive_float(section, "tol", defaults.tol, "solver", violations)
    return SolverOptions(max_iters=max_iters, tol=tol)


# the JSON type of each constructor parameter of a family or space, by name
_FIELDS = {
    **dict.fromkeys(("dim", "grid_size"), _positive_int),
    **dict.fromkeys(("sd", "radius", "scale", "alpha", "beta"), _positive_float),
    **dict.fromkeys(("mean", "anchor"), _numbers),
    "base_cov": lambda *args: _numbers(*args, depth=2),
}


def _instance(obj: dict, ctx: str, kinds: dict, violations):
    """The instance that the object ``obj[ctx]`` describes: its ``kind`` picks
    the class from ``kinds``, and its other keys are that class's constructor
    parameters, each of the JSON type ``_FIELDS`` gives it.  The constructor
    checks the values' ranges and shapes; what it refuses is a violation."""
    section = obj.get(ctx)
    if not isinstance(section, dict) or "kind" not in section:
        violations.append(f"{ctx!r} must be an object with a 'kind'")
        return None
    params = dict(section)
    kind = params.pop("kind")
    # a JSON list or object as the kind is unhashable
    if not isinstance(kind, str) or kind not in kinds:
        violations.append(f"{ctx}: unknown kind {kind!r}")
        return None
    names = inspect.signature(kinds[kind]).parameters
    count = len(violations)
    _check_keys(params, set(names), set(), ctx, violations)
    for key, field in _FIELDS.items():
        if key in params and key in names:
            field(params, key, None, ctx, violations)
    if len(violations) > count:
        return None
    try:
        return kinds[kind](**params)
    except (TypeError, ValueError, BadFamilyParams, NotPositiveDefinite) as exc:
        violations.append(f"{ctx}: {exc}")
        return None


def _n_grid(obj: dict, violations, default=None):
    grid = obj.get("n_grid", default)
    if (
        not isinstance(grid, list)
        or not grid
        or any(
            not isinstance(n, int) or isinstance(n, bool) or not 2 <= n <= COUNT_CEILING
            for n in grid
        )
        or grid != sorted(grid)
    ):
        violations.append(
            f"'n_grid' must be an ascending list of integers from 2 to {COUNT_CEILING}"
        )
        return (2,)
    return tuple(grid)


def _rate_config(obj: dict, violations, theorem: str, seed: int) -> RateExperimentConfig | None:
    family = _instance(obj, "family", FAMILY_KINDS, violations)
    grid = _n_grid(obj, violations)
    trials = _positive_int(obj, "trials", _DEFAULT_TRIALS, "config", violations)
    solver = _solver(obj, violations)
    verify_draws = _positive_int(
        obj, "verify_draws", RateExperimentConfig.verify_draws, "config", violations
    )
    if family is not None:
        try:
            require_premise(theorem, family)
        except HypothesisViolated as exc:
            violations.append(str(exc))
    if violations or family is None:
        return None
    return RateExperimentConfig(
        family=family,
        theorem=theorem,
        n_grid=grid,
        trials=trials,
        master_seed=seed,
        solver=solver,
        verify_draws=verify_draws,
    )


# -- per-experiment builders ----------------------------------------------------


def _build_rates(obj: dict, violations, seed: int) -> dict:
    allowed = {
        "experiment", "family", "theorem", "n_grid", "trials", "master_seed",
        "solver", "verify_draws",
    }
    _check_keys(obj, allowed, {"family", "theorem", "n_grid"}, "config", violations)
    theorem = obj.get("theorem")
    if theorem not in _RATE_THEOREMS:
        violations.append(f"'theorem' must be one of {list(_RATE_THEOREMS)}")
        return {}
    return {"config": _rate_config(obj, violations, theorem, seed)}


def _build_tail(obj: dict, violations, seed: int) -> dict:
    allowed = {
        "experiment", "family", "n_grid", "trials", "master_seed", "solver",
        "delta", "varsigma2", "verify_draws", "profile_points", "profile_targets",
    }
    _check_keys(obj, allowed, {"family", "n_grid", "delta", "varsigma2"}, "config", violations)
    deltas = obj.get("delta")
    if _is_numeric(deltas):
        deltas = [deltas]
    if not deltas or not _is_numeric(deltas, 1) or not all(0 < d < 1 for d in deltas):
        violations.append("'delta' must be a number or list of numbers in (0, 1)")
        deltas = [0.1]
    return {  # evaluated in order, so the violations come in the order of the keys
        "deltas": [float(d) for d in deltas],
        "varsigma2": _positive_float(obj, "varsigma2", 1.0, "config", violations),
        "profile_points": _positive_int(
            obj, "profile_points", _PROFILE_DEFAULTS["n_points"].default, "config", violations
        ),
        "profile_targets": _positive_int(
            obj, "profile_targets", _PROFILE_DEFAULTS["n_targets"].default, "config", violations
        ),
        "config": _rate_config(obj, violations, "tail", seed),
    }


def _build_hugging(obj: dict, violations, seed: int) -> dict:
    allowed = {
        "experiment", "family", "n_support", "n_cases", "master_seed", "solver",
    }
    _check_keys(obj, allowed, {"family"}, "config", violations)
    return {  # the arguments of sweeps.hugging_sweep
        "family": _instance(obj, "family", FAMILY_KINDS, violations),
        "n_support": _positive_int(obj, "n_support", 30, "config", violations, minimum=2),
        "n_cases": _positive_int(obj, "n_cases", 200, "config", violations),
        "master_seed": seed,
        "solver": _solver(obj, violations),
    }


def _build_curvature(obj: dict, violations, seed: int) -> dict:
    allowed = {
        "experiment", "space", "kappa", "quadruples", "triples", "grid", "master_seed",
    }
    _check_keys(obj, allowed, {"space", "kappa"}, "config", violations)
    space = _instance(obj, "space", SPACE_KINDS, violations)
    if space is not None and space.tangent_dim < 2:
        # side rounding moves a degenerate triangle's angles by about sqrt(eps) > cli.PROBE_TOL
        violations.append(f"space: {space!r} has dimension {space.tangent_dim}, but the "
                          "curvature probes need dimension >= 2: every triangle in one "
                          "dimension is degenerate")
    kappa = obj.get("kappa", 0.0)
    if not _is_numeric(kappa):
        violations.append("'kappa' must be a number")
        kappa = 0.0
    grid = obj.get("grid", [0.25, 0.5, 0.75, 1.0])
    if (
        not grid or not _is_numeric(grid, 1)
        or not all(0 < g <= 1 for g in grid) or grid != sorted(grid)
    ):
        violations.append("'grid' must be a nonempty ascending list of numbers in (0, 1]")
        grid = [0.25, 0.5, 0.75, 1.0]
    return {  # the arguments of sweeps.curvature_sweep
        "space": space,
        "kappa": float(kappa),
        "quadruples": _positive_int(obj, "quadruples", 1000, "config", violations),
        "triples": _positive_int(obj, "triples", 50, "config", violations),
        "grid": [float(g) for g in grid],
        "master_seed": seed,
    }


def _build_barycenter(obj: dict, violations, seed: int) -> dict:
    allowed = {"experiment", "points", "weights", "solver"}
    _check_keys(obj, allowed, {"points"}, "config", violations)
    raw_points = obj.get("points")
    points, space = [], None
    if not isinstance(raw_points, list) or not raw_points:
        violations.append("'points' must be a nonempty list of tagged point payloads")
        raw_points = []
    else:
        for i, payload in enumerate(raw_points):
            try:
                this_space, point = point_from_payload(payload)
            except (KeyError, TypeError, ValueError, NotPositiveDefinite) as exc:
                violations.append(f"points[{i}]: {exc}")
                continue
            if space is None:
                space = this_space
            elif repr(this_space) != repr(space):
                violations.append(
                    f"points[{i}]: space {this_space!r} differs from {space!r}"
                )
                continue
            points.append(point)
    weights = obj.get("weights")
    if weights is not None:
        if (
            not _is_numeric(weights, 1) or len(weights) != len(raw_points)
            or not all(w > 0 for w in weights)
        ):
            violations.append("'weights' must be positive numbers, one per point")
            weights = None
        else:
            # a sum beyond the double range, or a weight far below the others,
            # normalizes to 0, which the distribution would refuse untyped
            with np.errstate(over="ignore"):
                weights = np.asarray(weights, float)
                weights = weights / weights.sum()
            if not np.all(weights > 0):
                violations.append("'weights' must stay positive when divided by their sum")
                weights = None
    return {
        "space": space,
        "points": points,
        "weights": weights,
        "solver": _solver(obj, violations),
    }


def _build_plot(obj: dict, violations, seed: int) -> dict:
    allowed = {"experiment", "csv", "title"}
    _check_keys(obj, allowed, {"csv"}, "config", violations)
    csv = obj.get("csv")
    if not isinstance(csv, str) or not csv:
        violations.append("'csv' must be a path string")
    title = obj.get("title", "")
    if not isinstance(title, str):
        violations.append("'title' must be a string")
        title = ""
    return {"csv": csv, "title": title}


_BUILDERS = {
    "rates": _build_rates,
    "tail": _build_tail,
    "hugging": _build_hugging,
    "curvature": _build_curvature,
    "barycenter": _build_barycenter,
    "plot": _build_plot,
}
