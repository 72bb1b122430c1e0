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
from functools import partial
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

# the default that a signature gives a parameter without one
REQUIRED = inspect.Parameter.empty
# the hugging profile sizes of a tail config that omits them: the library's
_PROFILE_DEFAULTS = inspect.signature(estimate_hugging_profile).parameters

# each experiment's keys besides 'experiment', in reading order (the order of
# their violations), each REQUIRED or its default
EXPERIMENTS = {
    "rates": {
        "master_seed": 0, "theorem": REQUIRED, "family": REQUIRED, "n_grid": REQUIRED,
        "trials": 1000, "solver": SolverOptions(),
        "verify_draws": RateExperimentConfig.verify_draws,
    },
    "tail": {
        "master_seed": 0, "delta": REQUIRED, "varsigma2": REQUIRED,
        "profile_points": _PROFILE_DEFAULTS["n_points"].default,
        "profile_targets": _PROFILE_DEFAULTS["n_targets"].default,
        "family": REQUIRED, "n_grid": REQUIRED, "trials": 1000, "solver": SolverOptions(),
        "verify_draws": RateExperimentConfig.verify_draws,
    },
    # the arguments of sweeps.hugging_sweep
    "hugging": {
        "master_seed": 0, "family": REQUIRED, "n_support": 30, "n_cases": 200,
        "solver": SolverOptions(),
    },
    # the arguments of sweeps.curvature_sweep
    "curvature": {
        "master_seed": 0, "space": REQUIRED, "kappa": REQUIRED, "grid": (0.25, 0.5, 0.75, 1.0),
        "quadruples": 1000, "triples": 50,
    },
    "barycenter": {"points": REQUIRED, "weights": None, "solver": SolverOptions()},
    # a plot's csv may come from --csv instead, which _cmd_plot prefers
    "plot": {"csv": None, "title": ""},
}


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
    elif not isinstance(experiment, str) or experiment not in EXPERIMENTS:
        violations.append(f"experiment {experiment!r} not one of {sorted(EXPERIMENTS)}")
    elif expected_experiment and experiment != expected_experiment:
        violations.append(
            f"config declares experiment {experiment!r} but the "
            f"{expected_experiment!r} subcommand was invoked"
        )
    if violations:
        raise ValidationError(violations)
    section = {key: value for key, value in obj.items() if key != "experiment"}
    values = _read(section, "config", EXPERIMENTS[experiment], violations)
    if seed is not None and "master_seed" in values:
        values["master_seed"] = seed  # the config's own is still read and checked
    master_seed = values.get("master_seed", 0)
    if experiment in _CROSS_CHECKS:
        values = _CROSS_CHECKS[experiment](values, violations)
    if violations:
        raise ValidationError(violations)
    return ParsedConfig(values, obj, master_seed)


# -- readers ------------------------------------------------------------------
# A reader takes a present key's value, the key and the name of the object
# that holds it, and returns the value to use, or None with its violation.


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


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _read(section: dict, ctx: str, keys: dict, violations) -> dict:
    """The value of each of ``keys`` in the object ``section`` named ``ctx``:
    a present key's from its ``_FIELDS`` reader, an absent key's default, and
    None for an absent required key, whose one violation says it is missing.
    Each unknown key is a violation too."""
    required = {key for key, default in keys.items() if default is REQUIRED}
    violations += [f"{ctx}: unknown key {key!r}" for key in sorted(set(section) - set(keys))]
    violations += [
        f"{ctx}: missing required key {key!r}" for key in sorted(required - set(section))
    ]
    return {
        key: (_FIELDS[key](section[key], key, ctx, violations) if key in section
              else None if key in required else default)
        for key, default in keys.items()
    }


def _rule(message: str, ok, convert=None):
    """The reader of a value that ``ok`` admits, returned through ``convert``
    if one is given; any other value is the violation ``message``, in which
    ``{key!r}`` and ``{ctx}`` name the key and its object."""

    def read(value, key, ctx, violations):
        if ok(value):
            return value if convert is None else convert(value)
        violations.append(message.format(key=key, ctx=ctx))
        return None

    return read


def _positive_int(value, key, ctx, violations, minimum=1):
    """A count or size from ``minimum`` to COUNT_CEILING."""
    if not _is_int(value) or value < minimum:
        violations.append(f"{ctx}: {key!r} must be an integer >= {minimum}")
    elif value > COUNT_CEILING:
        violations.append(f"{ctx}: {key!r} must be at most {COUNT_CEILING}")
    else:
        return value
    return None


def _points(value, key, ctx, violations):
    """The space of the tagged point payloads ``value``, and one entry per
    payload: its point, or None where the payload is refused.  Reading stops
    at the first payload that is not an object, its one violation."""
    if not isinstance(value, list) or not value:
        violations.append(f"{key!r} must be a nonempty list of tagged point payloads")
        return None
    space, points = None, []
    for i, payload in enumerate(value):
        if not isinstance(payload, dict):
            violations.append(f"points[{i}]: a point payload must be an object, got {payload!r}")
            return None
        points.append(None)
        try:
            this_space, point = point_from_payload(payload)
        except (ValueError, NotPositiveDefinite) as exc:
            violations.append(f"points[{i}]: {exc}")
            continue
        if space is None:
            space = this_space
        elif repr(this_space) != repr(space):
            violations.append(f"points[{i}]: space {this_space!r} differs from {space!r}")
            continue
        points[-1] = point
    return space, points


def _construct(cls, section: dict, ctx: str, violations):
    """``cls`` built from the object ``section`` named ``ctx``, whose keys are
    the constructor's parameters, required where it gives no default.  The
    constructor checks the values' ranges and shapes; what it refuses is a
    violation."""
    count = len(violations)
    params = inspect.signature(cls).parameters
    values = _read(section, ctx, {name: p.default for name, p in params.items()}, violations)
    if len(violations) > count:
        return None
    try:
        return cls(**values)
    except (TypeError, ValueError, BadFamilyParams, NotPositiveDefinite) as exc:
        violations.append(f"{ctx}: {exc}")
        return None


def _solver(value, key, ctx, violations):
    if not isinstance(value, dict):
        violations.append(f"{key!r} must be an object")
        return None
    return _construct(SolverOptions, value, key, violations)


def _instance(value, key, ctx, violations, kinds):
    """The instance that the object ``value`` describes: its ``kind`` picks
    the class from ``kinds``, and its other keys are that class's."""
    if not isinstance(value, dict) or "kind" not in value:
        violations.append(f"{key!r} must be an object with a 'kind'")
        return None
    params = dict(value)
    kind = params.pop("kind")
    # a JSON list or object as the kind is unhashable
    if not isinstance(kind, str) or kind not in kinds:
        violations.append(f"{key}: unknown kind {kind!r}")
        return None
    return _construct(kinds[kind], params, key, violations)


def _space(value, key, ctx, violations):
    space = _instance(value, key, ctx, violations, SPACE_KINDS)
    if space is not None and space.tangent_dim < 2:
        # side rounding moves a degenerate triangle's angles by about sqrt(eps) > cli.PROBE_TOL
        violations.append(f"{key}: {space!r} has dimension {space.tangent_dim}, but the "
                          "curvature probes need dimension >= 2: every triangle in one "
                          "dimension is degenerate")
        return None
    return space


# the reader of every key, of a config, a solver, a family or a space, by name;
# a list's items are checked before the list is compared with its sorted copy
_FIELDS = {
    **dict.fromkeys(
        ("trials", "verify_draws", "profile_points", "profile_targets", "n_cases",
         "quadruples", "triples", "max_iters", "dim", "grid_size"),
        _positive_int,
    ),
    "n_support": partial(_positive_int, minimum=2),
    **dict.fromkeys(
        ("varsigma2", "tol", "sd", "radius", "scale", "alpha", "beta"),
        _rule("{ctx}: {key!r} must be a positive number", lambda x: _is_numeric(x) and x > 0,
              float),
    ),
    **dict.fromkeys(
        ("mean", "anchor"),
        _rule("{ctx}: {key!r} must be a list of numbers", partial(_is_numeric, depth=1)),
    ),
    "base_cov": _rule("{ctx}: {key!r} must be a list of lists of numbers",
                      partial(_is_numeric, depth=2)),
    "master_seed": _rule("'master_seed' must be a nonnegative integer",
                         lambda seed: _is_int(seed) and seed >= 0),
    "theorem": _rule(f"'theorem' must be one of {list(_RATE_THEOREMS)}",
                     lambda theorem: theorem in _RATE_THEOREMS),
    "family": partial(_instance, kinds=FAMILY_KINDS),
    "n_grid": _rule(
        f"'n_grid' must be an ascending list of integers from 2 to {COUNT_CEILING}",
        lambda grid: isinstance(grid, list) and bool(grid)
        and all(_is_int(n) and 2 <= n <= COUNT_CEILING for n in grid) and grid == sorted(grid),
        tuple,
    ),
    "solver": _solver,
    "delta": _rule(
        "'delta' must be a number or list of numbers in (0, 1)",
        lambda delta: _is_numeric(delta) and 0 < delta < 1
        or _is_numeric(delta, 1) and bool(delta) and all(0 < d < 1 for d in delta),
        lambda delta: [float(d) for d in (delta if isinstance(delta, list) else [delta])],
    ),
    "space": _space,
    "kappa": _rule("'kappa' must be a number", _is_numeric, float),
    "grid": _rule(
        "'grid' must be a nonempty ascending list of numbers in (0, 1]",
        lambda grid: _is_numeric(grid, 1) and bool(grid)
        and all(0 < g <= 1 for g in grid) and grid == sorted(grid),
        lambda grid: tuple(float(g) for g in grid),
    ),
    "points": _points,
    # null weights are the uniform ones; _barycenter_payload counts the others
    "weights": _rule("'weights' must be positive numbers, one per point",
                     lambda weights: weights is None
                     or _is_numeric(weights, 1) and all(w > 0 for w in weights)),
    "csv": _rule("'csv' must be a path string", lambda csv: isinstance(csv, str) and bool(csv)),
    "title": _rule("'title' must be a string", lambda title: isinstance(title, str)),
}


# -- checks that span keys ------------------------------------------------------


def _rate_payload(values: dict, violations) -> dict:
    """A rates or tail config's keys that RateExperimentConfig does not hold,
    and ``config``, the RateExperimentConfig of the others, once the family
    meets the theorem's premise."""
    values.setdefault("theorem", "tail")
    fields = {key: values.pop(key) for key in inspect.signature(RateExperimentConfig).parameters}
    if fields["family"] is not None and fields["theorem"] is not None:
        try:
            require_premise(fields["theorem"], fields["family"])
        except HypothesisViolated as exc:
            violations.append(str(exc))
    if not violations:
        values["config"] = RateExperimentConfig(**fields)
    return values


def _barycenter_payload(values: dict, violations) -> dict:
    """A barycenter config's space and points, and its weights counted
    against the points given and divided by their sum."""
    values["space"], values["points"] = values["points"] or (None, [])
    weights = values["weights"]
    if weights is None:
        return values
    if len(weights) != len(values["points"]):
        violations.append("'weights' must be positive numbers, one per point")
        return values
    # a sum beyond the double range, or a weight far below the others,
    # normalizes to 0, which the distribution would refuse untyped
    with np.errstate(over="ignore"):
        weights = np.asarray(weights, float)
        values["weights"] = weights / weights.sum()
    if not np.all(values["weights"] > 0):
        violations.append("'weights' must stay positive when divided by their sum")
    return values


# the payload of each experiment whose keys are checked together, from the
# values of its keys; any other experiment's payload is those values
_CROSS_CHECKS = {
    "rates": _rate_payload,
    "tail": _rate_payload,
    "barycenter": _barycenter_payload,
}
