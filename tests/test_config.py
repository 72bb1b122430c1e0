"""Strict config parsing: defaults, unknown keys, the theorem premise matrix."""

import inspect
import json

import pytest

from barylab.barycenter import SolverOptions
from barylab.config import parse_config
from barylab.errors import ParseError, ValidationError
from barylab.families import FAMILY_KINDS
from barylab.spaces import SPACE_KINDS
from barylab.ratelab import (
    COUNT_CEILING,
    THEOREMS,
    RateExperimentConfig,
    estimate_hugging_profile,
)

from conftest import BAD_FAMILIES


def write(tmp_path, obj, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(obj), encoding="utf-8")
    return path


MINIMAL_RATES = {
    "experiment": "rates",
    "family": {"kind": "euclidean_gaussian", "dim": 3, "sd": 1.0},
    "theorem": "negcurv",
    "n_grid": [4, 16],
}


MINIMAL_TAIL = {
    "experiment": "tail",
    "family": MINIMAL_RATES["family"],
    "n_grid": [4, 16],
    "delta": 0.1,
    "varsigma2": 3.0,
}

# the parameters each family kind needs beyond its defaults
PREMISE_FAMILIES = {
    "euclidean_gaussian": {},
    "sphere_cap": {"radius": 0.3},
    "hyperbolic_gaussian": {"scale": 0.5},
    "gaussian_ensemble": {"alpha": 0.8, "beta": 1.6},
}
# curvature <= 0 pinched below (euclidean, hyperbolic), curvature >= 0
# (euclidean, sphere, Bures-Wasserstein), declared transport bounds (ensemble)
ADMITTED = {
    "negcurv": {"euclidean_gaussian", "hyperbolic_gaussian"},
    "master_extendible": {"euclidean_gaussian", "sphere_cap", "gaussian_ensemble"},
    "wasserstein": {"gaussian_ensemble"},
    "tail": {"euclidean_gaussian", "sphere_cap", "gaussian_ensemble"},
}
MISSING_PREMISE = {
    "negcurv": "curvature <= 0 with a finite lower bound",
    "master_extendible": "curvature >= 0",
    "wasserstein": "alpha-convex, beta-smooth transport potentials",
    "tail": "curvature >= 0",
}


SOLVER_DEFAULTS = SolverOptions(max_iters=10_000, tol=1e-10)
# a minimal config of each experiment, and the values of the keys it omits,
# as the README documents them
DEFAULTS = {
    "rates": (MINIMAL_RATES, {
        "trials": 1000, "master_seed": 0, "solver": SOLVER_DEFAULTS, "verify_draws": 100_000,
    }),
    "tail": (MINIMAL_TAIL, {
        "trials": 1000, "master_seed": 0, "solver": SOLVER_DEFAULTS, "verify_draws": 100_000,
        "profile_points": 200, "profile_targets": 100,
    }),
    "hugging": ({"experiment": "hugging", "family": {"kind": "sphere_cap", "radius": 0.3}}, {
        "n_support": 30, "n_cases": 200, "master_seed": 0, "solver": SOLVER_DEFAULTS,
    }),
    "curvature": ({"experiment": "curvature", "space": {"kind": "sphere"}, "kappa": 1.0}, {
        "quadruples": 1000, "triples": 50, "grid": (0.25, 0.5, 0.75, 1.0), "master_seed": 0,
    }),
    "barycenter": ({"experiment": "barycenter",
                    "points": [{"space": "euclidean", "coords": [0.0, 0.0]}]},
                   {"weights": None, "solver": SOLVER_DEFAULTS}),
    "plot": ({"experiment": "plot", "csv": "rates.csv"}, {"title": ""}),
}
PROFILE = inspect.signature(estimate_hugging_profile).parameters
# the library's own defaults of a key, each of which a config omitting it must take
LIBRARY_DEFAULTS = {
    "solver": (SolverOptions(), RateExperimentConfig.solver),
    "verify_draws": (RateExperimentConfig.verify_draws,),
    "profile_points": (PROFILE["n_points"].default,),
    "profile_targets": (PROFILE["n_targets"].default,),
}


class TestParsing:
    @pytest.mark.parametrize("experiment", sorted(DEFAULTS))
    def test_minimal_config_gets_the_documented_defaults(self, tmp_path, experiment):
        """Each omitted key takes its documented default, the library's own
        where the library has one; the manifest's seed is the default 0."""
        obj, defaults = DEFAULTS[experiment]
        parsed = parse_config(write(tmp_path, obj), experiment)
        values = dict(parsed.payload)
        if "config" in values:  # rates and tail: the keys RateExperimentConfig holds
            values.update(vars(values.pop("config")))
        assert {key: values[key] for key in defaults} == defaults
        for key in defaults.keys() & LIBRARY_DEFAULTS.keys():
            assert all(values[key] == library for library in LIBRARY_DEFAULTS[key])
        assert parsed.master_seed == 0

    def test_bad_theorem_hides_no_other_violation(self, tmp_path):
        """An unknown theorem is one violation among the config's others, each
        reported in the order of the experiment's keys."""
        family = dict(MINIMAL_RATES["family"], sd=-1)
        obj = dict(MINIMAL_RATES, theorem="bogus", trials=0, n_grid=[1], family=family)
        with pytest.raises(ValidationError) as err:
            parse_config(write(tmp_path, obj), "rates")
        assert err.value.violations == [
            "'theorem' must be one of ['master_extendible', 'negcurv', 'wasserstein']",
            "family: 'sd' must be a positive number",
            f"'n_grid' must be an ascending list of integers from 2 to {COUNT_CEILING}",
            "config: 'trials' must be an integer >= 1",
        ]

    def test_syntax_error_reports_position(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"experiment": "rates",}', encoding="utf-8")
        with pytest.raises(ParseError, match="line 1"):
            parse_config(path, "rates")

    def test_non_finite_constant_rejected(self, tmp_path):
        path = tmp_path / "nan.json"
        path.write_text(json.dumps(dict(MINIMAL_RATES, trials=float("nan"))), encoding="utf-8")
        with pytest.raises(ParseError, match="NaN"):
            parse_config(path, "rates")

    def test_missing_file(self, tmp_path):
        with pytest.raises(ParseError):
            parse_config(tmp_path / "nope.json", "rates")

    def test_unknown_key_rejected(self, tmp_path):
        obj = dict(MINIMAL_RATES, typo_key=3)
        with pytest.raises(ValidationError, match="typo_key"):
            parse_config(write(tmp_path, obj), "rates")

    def test_zero_trials_names_field(self, tmp_path):
        obj = dict(MINIMAL_RATES, trials=0)
        with pytest.raises(ValidationError, match="trials"):
            parse_config(write(tmp_path, obj), "rates")

    def test_counts_above_the_ceiling_are_violations(self, tmp_path):
        """Points per trial, trials and verify draws beyond COUNT_CEILING are
        refused by name, each as its own violation; the ceiling itself passes."""
        over = COUNT_CEILING + 1
        obj = dict(MINIMAL_RATES, n_grid=[4, over], trials=over, verify_draws=10**30)
        with pytest.raises(ValidationError) as err:
            parse_config(write(tmp_path, obj), "rates")
        assert err.value.violations == [
            f"'n_grid' must be an ascending list of integers from 2 to {COUNT_CEILING}",
            f"config: 'trials' must be at most {COUNT_CEILING}",
            f"config: 'verify_draws' must be at most {COUNT_CEILING}",
        ]
        obj = dict(MINIMAL_RATES, n_grid=[4, COUNT_CEILING], trials=COUNT_CEILING)
        config = parse_config(write(tmp_path, obj), "rates").payload["config"]
        assert config.n_grid[-1] == config.trials == COUNT_CEILING

    @pytest.mark.parametrize("kind", sorted(FAMILY_KINDS))
    @pytest.mark.parametrize("theorem", THEOREMS)
    def test_premise_matrix(self, tmp_path, theorem, kind):
        """A pair is admitted exactly when the space's curvature, or for
        wasserstein the family's declared transport bounds, meet the theorem's
        premise; a refused pair names the premise it misses."""
        family = dict(PREMISE_FAMILIES[kind], kind=kind)
        if theorem == "tail":
            obj = dict(MINIMAL_TAIL, family=family)
        else:
            obj = dict(MINIMAL_RATES, family=family, theorem=theorem)
        path = write(tmp_path, obj)
        if kind in ADMITTED[theorem]:
            assert parse_config(path).payload["config"].family.kind == kind
            return
        with pytest.raises(ValidationError) as err:
            parse_config(path)
        assert err.value.violations == [
            f"theorem {theorem!r} is incompatible with family {kind!r}: "
            f"it needs {MISSING_PREMISE[theorem]}"
        ]

    @pytest.mark.parametrize("theorem", ["tail", "banana", ["negcurv"], {"a": 1}])
    def test_rates_theorem_rejected(self, tmp_path, theorem):
        obj = dict(MINIMAL_RATES, theorem=theorem)
        with pytest.raises(ValidationError) as err:
            parse_config(write(tmp_path, obj), "rates")
        assert str(err.value).count(
            "'theorem' must be one of ['master_extendible', 'negcurv', 'wasserstein']"
        ) == 1

    def test_all_violations_collected(self, tmp_path):
        obj = dict(MINIMAL_RATES, trials=0, n_grid=[16, 4], bogus=1)
        with pytest.raises(ValidationError) as err:
            parse_config(write(tmp_path, obj), "rates")
        text = str(err.value)
        assert "trials" in text and "n_grid" in text and "bogus" in text

    @pytest.mark.parametrize("family", BAD_FAMILIES.values(), ids=list(BAD_FAMILIES))
    def test_bad_family_params_are_collected(self, tmp_path, family):
        """A family the constructor rejects is one violation among the
        config's others, not an exception out of parsing."""
        obj = dict(MINIMAL_RATES, family=family, trials=0)
        with pytest.raises(ValidationError) as err:
            parse_config(write(tmp_path, obj), "rates")
        violations = err.value.violations
        assert len(violations) == 2
        assert violations[0].startswith("family: ")
        assert "trials" in violations[1]

    @pytest.mark.parametrize(
        "family, key",
        [
            ({"kind": "sphere_cap", "radius": "a"}, "radius"),
            ({"kind": "euclidean_gaussian", "dim": 2.5}, "dim"),
            ({"kind": "hyperbolic_gaussian", "scale": [1]}, "scale"),
            ({"kind": "gaussian_ensemble", "alpha": "0.8", "beta": 1.6}, "alpha"),
            ({"kind": "euclidean_gaussian", "dim": True}, "dim"),
            ({"kind": "euclidean_gaussian", "mean": "ab"}, "mean"),
            ({"kind": "gaussian_ensemble", "alpha": 0.5, "beta": 2, "base_cov": [1, 0]},
             "base_cov"),
        ],
        ids=["radius-str", "dim-float", "scale-list", "alpha-str", "dim-bool", "mean-str",
             "base-cov-flat"],
    )
    def test_family_key_of_the_wrong_type_is_named(self, tmp_path, family, key):
        """A family key of the wrong JSON type is one violation that names
        the key, among the config's others."""
        obj = dict(MINIMAL_RATES, family=family, trials=0)
        with pytest.raises(ValidationError) as err:
            parse_config(write(tmp_path, obj), "rates")
        violations = err.value.violations
        assert len(violations) == 2
        assert violations[0].startswith(f"family: {key!r} must be ")
        assert "trials" in violations[1]

    @pytest.mark.parametrize(
        "family, lines",
        [
            ({"kind": "donut"}, ["family: unknown kind 'donut'"]),
            ({"radius": 0.2}, ["'family' must be an object with a 'kind'"]),
            ({"kind": "sphere_cap", "radius": 0.2, "spin": 3, "bend": 1},
             ["family: unknown key 'bend'", "family: unknown key 'spin'"]),
            # the shared Gaussian base adds no config key to either isotropic kind
            ({"kind": "euclidean_gaussian", "scale": 0.5}, ["family: unknown key 'scale'"]),
            ({"kind": "euclidean_gaussian", "anchor": [1.0, 0.0, 0.0]},
             ["family: unknown key 'anchor'"]),
            ({"kind": "hyperbolic_gaussian", "scale": 0.5, "sd": 1.0},
             ["family: unknown key 'sd'"]),
            ({"kind": "hyperbolic_gaussian", "scale": 0.5, "mean": [0.0, 0.0]},
             ["family: unknown key 'mean'"]),
        ],
        ids=["unknown-kind", "no-kind", "unknown-keys", "euclidean-scale", "euclidean-anchor",
             "hyperbolic-sd", "hyperbolic-mean"],
    )
    def test_family_kind_and_keys(self, tmp_path, family, lines):
        """A family's kind names its class and its other keys are that class's
        constructor parameters; each unknown key is one violation."""
        obj = dict(MINIMAL_RATES, family=family)
        with pytest.raises(ValidationError) as err:
            parse_config(write(tmp_path, obj), "rates")
        assert err.value.violations == lines

    def test_experiment_subcommand_mismatch(self, tmp_path):
        with pytest.raises(ValidationError, match="subcommand"):
            parse_config(write(tmp_path, MINIMAL_RATES), "tail")

    def test_solver_overrides(self, tmp_path):
        obj = dict(MINIMAL_RATES, solver={"tol": 1e-8, "max_iters": 50})
        config = parse_config(write(tmp_path, obj), "rates").payload["config"]
        assert config.solver.tol == 1e-8
        assert config.solver.max_iters == 50

    def test_solver_unknown_key(self, tmp_path):
        obj = dict(MINIMAL_RATES, solver={"tol": 1e-8, "momentum": 0.9})
        with pytest.raises(ValidationError, match="momentum"):
            parse_config(write(tmp_path, obj), "rates")


class TestTailConfig:
    def test_scalar_delta_promoted(self, tmp_path):
        obj = {
            "experiment": "tail",
            "family": {"kind": "euclidean_gaussian", "dim": 3, "sd": 1.0},
            "n_grid": [50],
            "delta": 0.1,
            "varsigma2": 3.0,
        }
        parsed = parse_config(write(tmp_path, obj), "tail")
        assert parsed.payload["delta"] == [0.1]

    def test_delta_range_checked(self, tmp_path):
        obj = {
            "experiment": "tail",
            "family": {"kind": "euclidean_gaussian", "dim": 3, "sd": 1.0},
            "n_grid": [50],
            "delta": [0.1, 1.5],
            "varsigma2": 3.0,
        }
        with pytest.raises(ValidationError, match="delta"):
            parse_config(write(tmp_path, obj), "tail")


class TestOtherExperiments:
    def test_curvature_config(self, tmp_path):
        obj = {
            "experiment": "curvature",
            "space": {"kind": "sphere", "dim": 2},
            "kappa": 1.0,
        }
        payload = parse_config(write(tmp_path, obj), "curvature").payload
        assert payload["space"].tag == "sphere"

    def test_curvature_empty_grid_is_collected(self, tmp_path):
        obj = {
            "experiment": "curvature",
            "space": {"kind": "sphere", "dim": 2},
            "kappa": 1.0,
            "grid": [],
            "triples": 0,
        }
        with pytest.raises(ValidationError) as err:
            parse_config(write(tmp_path, obj), "curvature")
        assert err.value.violations == [
            "'grid' must be a nonempty ascending list of numbers in (0, 1]",
            "config: 'triples' must be an integer >= 1",
        ]

    @pytest.mark.parametrize("kind", sorted(SPACE_KINDS))
    def test_space_sizes_default_to_the_constructors(self, tmp_path, kind):
        obj = {"experiment": "curvature", "space": {"kind": kind}, "kappa": 0.0}
        space = parse_config(write(tmp_path, obj), "curvature").payload["space"]
        assert repr(space) == repr(SPACE_KINDS[kind]())

    def test_curvature_unknown_space(self, tmp_path):
        obj = {"experiment": "curvature", "space": {"kind": "torus"}, "kappa": 0.0}
        with pytest.raises(ValidationError, match="torus"):
            parse_config(write(tmp_path, obj), "curvature")

    def test_barycenter_config_points(self, tmp_path):
        obj = {
            "experiment": "barycenter",
            "points": [
                {"space": "euclidean", "coords": [0.0, 0.0]},
                {"space": "euclidean", "coords": [1.0, 0.0]},
            ],
        }
        payload = parse_config(write(tmp_path, obj), "barycenter").payload
        assert payload["space"].tag == "euclidean"
        assert len(payload["points"]) == 2

    def test_barycenter_mixed_spaces_rejected(self, tmp_path):
        obj = {
            "experiment": "barycenter",
            "points": [
                {"space": "euclidean", "coords": [0.0, 0.0]},
                {"space": "sphere", "coords": [0.0, 0.0, 1.0]},
            ],
        }
        with pytest.raises(ValidationError):
            parse_config(write(tmp_path, obj), "barycenter")

    @pytest.mark.parametrize("point,key", [
        ({"space": "sphere"}, "coords"),
        ({"space": "sphere", "coords": 5}, "coords"),
        ({"space": "gaussian", "mean": 5, "cov": [[1.0]]}, "mean"),
        ({"space": "gaussian", "mean": [0.0]}, "cov"),
    ])
    def test_barycenter_malformed_payload_is_one_violation(self, tmp_path, point, key):
        """A payload missing its key, or with a key that is not a list of
        numbers, is one violation that names the space and the key, not
        Python's own KeyError or TypeError text."""
        obj = {"experiment": "barycenter", "points": [point]}
        with pytest.raises(ValidationError) as err:
            parse_config(write(tmp_path, obj), "barycenter")
        [violation] = err.value.violations
        assert violation.startswith("points[0]: ") and violation != f"points[0]: {key!r}"
        assert f"{point['space']} point payload" in violation and repr(key) in violation
        assert "has no len()" not in violation

    def test_plot_csv_may_come_from_the_flag(self, tmp_path):
        """A plot config without 'csv' parses, for --csv to stand in."""
        parsed = parse_config(write(tmp_path, {"experiment": "plot"}), "plot")
        assert parsed.payload == {"csv": None, "title": ""}
