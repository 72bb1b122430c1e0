"""Strict config parsing: defaults, unknown keys, compatibility matrix."""

import inspect
import json

import pytest

from barylab.barycenter import SolverOptions
from barylab.config import parse_config
from barylab.errors import ParseError, ValidationError
from barylab.ratelab import COUNT_CEILING, RateExperimentConfig, estimate_hugging_profile

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


class TestParsing:
    def test_minimal_config_gets_defaults(self, tmp_path):
        parsed = parse_config(write(tmp_path, MINIMAL_RATES), "rates")
        config = parsed.payload["config"]
        assert config.trials == 1000
        assert config.solver.tol == 1e-10
        assert config.solver.max_iters == 10_000
        assert config.solver.step == 1.0
        assert config.master_seed == 0

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

    def test_family_theorem_mismatch(self, tmp_path):
        obj = dict(
            MINIMAL_RATES,
            family={"kind": "sphere_cap", "radius": 0.3},
            theorem="wasserstein",
        )
        with pytest.raises(ValidationError, match="incompatible"):
            parse_config(write(tmp_path, obj), "rates")

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
        assert parsed.payload["deltas"] == [0.1]

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

    def test_omitted_keys_take_the_library_defaults(self, tmp_path):
        """A tail config without solver, verify or profile keys gets the
        defaults of SolverOptions, RateExperimentConfig and
        estimate_hugging_profile, the one source of each."""
        obj = {
            "experiment": "tail",
            "family": {"kind": "sphere_cap", "dim": 2, "radius": 0.3},
            "n_grid": [50],
            "delta": 0.1,
            "varsigma2": 3.0,
        }
        payload = parse_config(write(tmp_path, obj), "tail").payload
        config = payload["config"]
        library = RateExperimentConfig(
            family=config.family, theorem="tail", n_grid=(50,), trials=1, master_seed=0
        )
        assert config.solver == SolverOptions() == library.solver
        assert config.verify_draws == library.verify_draws
        profile = inspect.signature(estimate_hugging_profile).parameters
        assert payload["profile_points"] == profile["n_points"].default
        assert payload["profile_targets"] == profile["n_targets"].default


class TestOtherExperiments:
    def test_curvature_config(self, tmp_path):
        obj = {
            "experiment": "curvature",
            "space": {"kind": "sphere", "dim": 2},
            "kappa": 1.0,
        }
        payload = parse_config(write(tmp_path, obj), "curvature").payload
        assert payload["space"].tag == "sphere"
        assert payload["quadruples"] == 1000

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

    def test_hugging_defaults(self, tmp_path):
        obj = {
            "experiment": "hugging",
            "family": {"kind": "sphere_cap", "radius": 0.3},
        }
        payload = parse_config(write(tmp_path, obj), "hugging").payload
        assert payload["n_support"] == 30
        assert payload["n_cases"] == 200

    def test_plot_requires_csv(self, tmp_path):
        with pytest.raises(ValidationError, match="csv"):
            parse_config(write(tmp_path, {"experiment": "plot"}), "plot")
