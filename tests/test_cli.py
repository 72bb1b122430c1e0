"""End-to-end CLI runs: artifacts, manifests, exit codes, determinism."""

import dataclasses
import json
import math
import os
import platform
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from barylab import cli, ratelab, reporting
from barylab.cli import main
from barylab.reporting import RATES_HEADER, write_manifest

from conftest import BAD_FAMILIES

RATES_CONFIG = {
    "experiment": "rates",
    "family": {"kind": "euclidean_gaussian", "dim": 3, "sd": 1.0},
    "theorem": "negcurv",
    "n_grid": [4, 16],
    "trials": 100,
    "master_seed": 5,
    "verify_draws": 10000,
}


def write_config(tmp_path, obj, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(obj), encoding="utf-8")
    return str(path)


def run(args):
    return main([str(a) for a in args])


class TestRates:
    def test_writes_csv_and_manifest(self, tmp_path):
        cfg = write_config(tmp_path, RATES_CONFIG)
        out = tmp_path / "out"
        assert run(["rates", "--config", cfg, "--out", out]) == 0
        csv_path = out / "rates.csv"
        lines = csv_path.read_text().splitlines()
        assert lines[0] == ",".join(RATES_HEADER)
        assert len(lines) == 1 + len(RATES_CONFIG["n_grid"])
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["master_seed"] == 5
        assert manifest["config"]["theorem"] == "negcurv"
        assert manifest["results"]["sigma2"] == 3.0  # exact: dim * sd^2
        assert "sigma2_stderr" not in manifest["results"]
        for listed in manifest["outputs"]:
            assert (out / listed.split("/")[-1]).exists()

    def test_manifest_is_strict_json_on_a_two_point_grid(self, tmp_path):
        def reject(constant):
            raise ValueError(f"non-finite JSON constant {constant}")

        cfg = write_config(tmp_path, RATES_CONFIG)  # 2 grid points: no slope
        out = tmp_path / "out"
        assert run(["rates", "--config", cfg, "--out", out]) == 0
        text = (out / "manifest.json").read_text()
        manifest = json.loads(text, parse_constant=reject)
        assert manifest["results"]["slope"] is None

    def test_manifest_starts_no_subprocess(self, tmp_path, monkeypatch):
        """platform.platform() runs `uname -p` for the processor name; the
        manifest's platform string must not.  The platform module's caches are
        emptied so that an earlier call in this process cannot hide one, and
        the spy raises what the module would not swallow (it swallows OSError)."""

        def refuse(*args, **kwargs):
            raise AssertionError(f"manifest started a subprocess: {args}")

        monkeypatch.setattr(platform, "_uname_cache", None, raising=False)
        monkeypatch.setattr(platform, "_platform_cache", {}, raising=False)
        monkeypatch.setattr(subprocess, "Popen", refuse)
        path = write_manifest(tmp_path, {}, 5, [], "start")
        manifest = json.loads(path.read_text())
        assert manifest["platform"].startswith(platform.system())

    def test_manifest_finishes_at_utc_now(self, tmp_path, monkeypatch):
        monkeypatch.setattr(reporting, "utc_now", lambda: "finish")
        path = write_manifest(tmp_path, {}, 5, [], "start")
        manifest = json.loads(path.read_text())
        assert (manifest["started_at"], manifest["finished_at"]) == ("start", "finish")

    def test_repeat_run_is_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path, RATES_CONFIG)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert run(["rates", "--config", cfg, "--out", out1]) == 0
        assert run(["rates", "--config", cfg, "--out", out2]) == 0
        assert (out1 / "rates.csv").read_bytes() == (out2 / "rates.csv").read_bytes()

    def test_seed_flag_overrides_config(self, tmp_path):
        cfg = write_config(tmp_path, RATES_CONFIG)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert run(["rates", "--config", cfg, "--out", out1, "--seed", 5]) == 0
        assert run(["rates", "--config", cfg, "--out", out2, "--seed", 6]) == 0
        assert (out1 / "rates.csv").read_bytes() != (out2 / "rates.csv").read_bytes()

    def test_hypothesis_violation_exit_code(self, tmp_path):
        bad = dict(
            RATES_CONFIG,
            family={"kind": "gaussian_ensemble", "dim": 2, "alpha": 0.5, "beta": 1.6},
            theorem="wasserstein",
        )
        cfg = write_config(tmp_path, bad)
        assert run(["rates", "--config", cfg, "--out", tmp_path / "o"]) == 2

    def test_bad_config_exit_code(self, tmp_path):
        cfg = write_config(tmp_path, dict(RATES_CONFIG, trials=0))
        assert run(["rates", "--config", cfg, "--out", tmp_path / "o"]) == 1

    def test_point_mass_ensemble_is_a_config_error(self, tmp_path, capsys):
        """alpha = beta = 1 makes every draw the anchor, so every bound is 0:
        the family is refused before anything runs."""
        bad = dict(
            RATES_CONFIG,
            family={"kind": "gaussian_ensemble", "dim": 2, "alpha": 1.0, "beta": 1.0},
            theorem="wasserstein",
            n_grid=[4, 8, 16],
        )
        cfg = write_config(tmp_path, bad)
        assert run(["rates", "--config", cfg, "--out", tmp_path / "o"]) == 1
        assert "error[config]: family: need 0 < alpha < 1 < beta" in capsys.readouterr().err

    @pytest.mark.parametrize("family", BAD_FAMILIES.values(), ids=list(BAD_FAMILIES))
    def test_bad_family_params_exit_1_without_a_traceback(self, tmp_path, family):
        """A family the constructor rejects (wrong dimension, an anchor off the
        space, a non-SPD covariance) is reported as a config error."""
        root = Path(__file__).resolve().parents[1]
        env = {**os.environ, "PYTHONPATH": str(root / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
        cfg = write_config(tmp_path, dict(RATES_CONFIG, family=family))
        done = subprocess.run(
            [sys.executable, "-m", "barylab.cli", "rates", "--config", cfg,
             "--out", str(tmp_path / "o")],
            cwd=root, env=env, capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 1
        assert "Traceback" not in done.stderr
        assert done.stderr.startswith("error[config]: family: ")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", ["rates", "tail"])
    def test_sigma2_draws_is_an_unknown_key(self, tmp_path, capsys, command):
        base = RATES_CONFIG if command == "rates" else TAIL_CONFIG
        cfg = write_config(tmp_path, dict(base, sigma2_draws=20000))
        assert run([command, "--config", cfg, "--out", tmp_path / "o"]) == 1
        assert "error[config]: config: unknown key 'sigma2_draws'" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["rates", "tail"])
    def test_subgaussian_draws_is_an_unknown_key(self, tmp_path, capsys, command):
        """The subgaussian moment is exact, so no key sizes a Monte Carlo pass."""
        base = RATES_CONFIG if command == "rates" else TAIL_CONFIG
        cfg = write_config(tmp_path, dict(base, subgaussian_draws=20000))
        assert run([command, "--config", cfg, "--out", tmp_path / "o"]) == 1
        assert "error[config]: config: unknown key 'subgaussian_draws'" in capsys.readouterr().err

    def test_strict_bounds_exit_code(self, tmp_path):
        # seed chosen so some ratio sits above 1 but inside 3 stderr: the
        # default run passes while --strict-bounds flags it
        cfg = write_config(tmp_path, dict(RATES_CONFIG, master_seed=1))
        assert run(["rates", "--config", cfg, "--out", tmp_path / "a"]) == 0
        code = run(
            ["rates", "--config", cfg, "--out", tmp_path / "b", "--strict-bounds"]
        )
        assert code == 3

    def test_threads_env_var(self, tmp_path, monkeypatch):
        cfg = write_config(tmp_path, RATES_CONFIG)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert run(["rates", "--config", cfg, "--out", out1]) == 0
        monkeypatch.setenv("BARYLAB_THREADS", "3")
        assert run(["rates", "--config", cfg, "--out", out2]) == 0
        assert (out1 / "rates.csv").read_bytes() == (out2 / "rates.csv").read_bytes()


class TestBarycenter:
    def test_sphere_axis_solve(self, tmp_path):
        cfg = write_config(
            tmp_path,
            {
                "experiment": "barycenter",
                "points": [
                    {"space": "sphere", "coords": [1.0, 0.0, 0.0]},
                    {"space": "sphere", "coords": [0.0, 1.0, 0.0]},
                    {"space": "sphere", "coords": [0.0, 0.0, 1.0]},
                ],
            },
        )
        out = tmp_path / "out"
        assert run(["barycenter", "--config", cfg, "--out", out]) == 0
        doc = json.loads((out / "barycenter.json").read_text())
        assert doc["converged"] is True
        assert doc["grad_norm"] <= 1e-10
        expected = 1.0 / np.sqrt(3.0)
        assert np.allclose(doc["point"]["coords"], expected, atol=1e-6)

    def test_gaussian_commuting_solve(self, tmp_path):
        """N(0, diag(1, 4)) and N(0, diag(4, 1)) meet at N(0, 2.25 I): the
        point payload is the mean and covariance of that Gaussian."""
        cfg = write_config(
            tmp_path,
            {
                "experiment": "barycenter",
                "points": [
                    {"space": "gaussian", "mean": [0.0, 0.0], "cov": [[1.0, 0.0], [0.0, 4.0]]},
                    {"space": "gaussian", "mean": [0.0, 0.0], "cov": [[4.0, 0.0], [0.0, 1.0]]},
                ],
            },
        )
        out = tmp_path / "out"
        assert run(["barycenter", "--config", cfg, "--out", out]) == 0
        doc = json.loads((out / "barycenter.json").read_text())
        assert doc["point"] == {
            "space": "gaussian", "mean": [0.0, 0.0], "cov": [[2.25, 0.0], [0.0, 2.25]],
        }
        assert doc["objective"] == 0.5
        assert doc["converged"] is True

    def test_weights_are_normalized(self, tmp_path):
        """Weights 1 and 3 are read as 1/4 and 3/4."""
        cfg = write_config(
            tmp_path,
            {
                "experiment": "barycenter",
                "points": [
                    {"space": "euclidean", "coords": [0.0]},
                    {"space": "euclidean", "coords": [4.0]},
                ],
                "weights": [1, 3],
            },
        )
        out = tmp_path / "out"
        assert run(["barycenter", "--config", cfg, "--out", out]) == 0
        doc = json.loads((out / "barycenter.json").read_text())
        assert doc["point"] == {"space": "euclidean", "coords": [3.0]}
        assert doc["objective"] == 3.0

    def test_barycenter_json_is_written_as_the_manifest_is(self, tmp_path, monkeypatch):
        """barycenter.json is indented, key-sorted strict JSON with a trailing
        newline; a NaN objective raises, and no file is written."""
        cfg = write_config(tmp_path, BARYCENTER_CONFIG)
        assert run(["barycenter", "--config", cfg, "--out", tmp_path / "a"]) == 0
        text = (tmp_path / "a" / "barycenter.json").read_text()
        assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"
        solve = cli.barycenter
        monkeypatch.setattr(cli, "barycenter", lambda dist, solver: dataclasses.replace(
            solve(dist, solver), objective=math.nan))
        with pytest.raises(ValueError, match="not JSON compliant"):
            run(["barycenter", "--config", cfg, "--out", tmp_path / "b"])
        assert not (tmp_path / "b" / "barycenter.json").exists()

    def test_every_bad_point_is_a_config_violation(self, tmp_path, capsys):
        """A non-SPD covariance is reported with the config's other faults,
        not raised ahead of them."""
        cfg = write_config(
            tmp_path,
            {
                "experiment": "barycenter",
                "points": [
                    {"space": "gaussian", "mean": [0.0], "cov": [[-1.0]]},
                    {"space": "gaussian", "mean": [0.0, 0.0], "cov": [[1.0]]},
                ],
                "bogus": 1,
            },
        )
        out = tmp_path / "out"
        assert run(["barycenter", "--config", cfg, "--out", out]) == 1
        err = capsys.readouterr().err
        assert "error[config]: config: unknown key 'bogus'" in err
        assert "error[config]: points[0]: covariance has eigenvalue" in err
        assert "error[config]: points[1]: inconsistent shapes" in err
        assert "NotPositiveDefinite" not in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "coords, weights, expected",
        [
            ([[0.0, 0.0], [1.0], [0.0, 2.0]], [0.2, 0.3, 0.5],
             ["points[1]: space Euclidean(dim=1) differs from Euclidean(dim=2)"]),
            ([[0.0, 0.0], [1.0], [0.0, 2.0]], [0.5, 0.5],
             ["points[1]: space Euclidean(dim=1) differs from Euclidean(dim=2)",
              "'weights' must be positive numbers, one per point"]),
            ([[0.0, 0.0], [1.0, 0.0], [0.0, 2.0]], [0.5, 0.5],
             ["'weights' must be positive numbers, one per point"]),
        ],
        ids=["refused-point", "refused-point-short-weights", "short-weights"],
    )
    def test_weights_count_the_points_given(self, tmp_path, capsys, coords, weights, expected):
        """The weights are checked against the point payloads given, so a
        refused point leaves one positive weight per point unflagged, and a
        weights list of the wrong length is refused either way."""
        points = [{"space": "euclidean", "coords": c} for c in coords]
        cfg = write_config(
            tmp_path, {"experiment": "barycenter", "points": points, "weights": weights}
        )
        out = tmp_path / "out"
        assert run(["barycenter", "--config", cfg, "--out", out]) == 1
        assert capsys.readouterr().err.splitlines() == [f"error[config]: {e}" for e in expected]
        assert not out.exists()

    def test_master_seed_is_an_unknown_key(self, tmp_path, capsys):
        """A solve draws nothing, so a seed in its config is refused (exit 1)
        rather than accepted, ignored and recorded in the manifest as 0."""
        cfg = write_config(
            tmp_path,
            {
                "experiment": "barycenter",
                "points": [{"space": "euclidean", "coords": [0.0, 1.0]}],
                "master_seed": 7,
            },
        )
        out = tmp_path / "out"
        assert run(["barycenter", "--config", cfg, "--out", out]) == 1
        assert "error[config]: config: unknown key 'master_seed'" in capsys.readouterr().err
        assert not out.exists()


TAIL_CONFIG = {
    "experiment": "tail",
    "family": {"kind": "euclidean_gaussian", "dim": 3, "sd": 1.0},
    "n_grid": [50],
    "trials": 200,
    "delta": [0.2],
    "varsigma2": 3.0,
    "master_seed": 11,
    "verify_draws": 10000,
    "profile_points": 20,
    "profile_targets": 10,
}


class TestTailCommand:
    def test_small_tail_run(self, tmp_path):
        cfg = write_config(tmp_path, TAIL_CONFIG)
        out = tmp_path / "out"
        assert run(["tail", "--config", cfg, "--out", out]) == 0
        lines = (out / "tail.csv").read_text().splitlines()
        assert lines[0].startswith("space,n,trials,delta")
        assert len(lines) == 2
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["results"]["discarded_trials"] == 0
        # exact: (1 - sd^2 / varsigma2)^(-dim/2) = (2/3)^(-3/2)
        assert manifest["results"]["subgaussian_estimate"] == pytest.approx(1.5**1.5, rel=1e-15)
        assert "subgaussian_stderr" not in manifest["results"]
        # the Bures-Wasserstein space has curvature >= 0, so the ensemble serves the tail bound
        ensemble = {"kind": "gaussian_ensemble", "alpha": 0.8, "beta": 1.6}
        cfg = write_config(
            tmp_path, dict(TAIL_CONFIG, family=ensemble, n_grid=[16], trials=20, varsigma2=0.2)
        )
        assert run(["tail", "--config", cfg, "--out", tmp_path / "ensemble"]) == 0

    def test_infinite_moment_exits_2_without_writing_infinity(self, tmp_path, capsys):
        """sd^2 >= varsigma2: the moment diverges, the hypothesis gate fails
        (exit 2), and no output holds a non-JSON Infinity."""
        cfg = write_config(tmp_path, dict(TAIL_CONFIG, varsigma2=1.0))
        out = tmp_path / "out"
        assert run(["tail", "--config", cfg, "--out", out]) == 2
        assert "error[hypothesis]: subgaussian moment inf > 2" in capsys.readouterr().err
        for path in out.glob("*") if out.exists() else ():
            assert "Infinity" not in path.read_text()

    def test_failed_gate_draws_no_profile(self, tmp_path, monkeypatch):
        """An infinite moment fails the gate (exit 2) before any hugging
        profile is drawn, by the CLI or by the tail run."""
        calls = []

        def spy(*args, **kwargs):
            calls.append(args)

        monkeypatch.setattr(cli, "estimate_hugging_profile", spy)
        monkeypatch.setattr(ratelab, "estimate_hugging_profile", spy)
        cfg = write_config(tmp_path, dict(TAIL_CONFIG, varsigma2=1.0))
        assert run(["tail", "--config", cfg, "--out", tmp_path / "out"]) == 2
        assert calls == []

    def test_anchor_verified_once_per_run(self, tmp_path, monkeypatch):
        """Two deltas share one verify pass and one solve per (n, trial)."""
        calls = []
        trials = []
        verify = ratelab.population_barycenter
        solve = ratelab.barycenter_batch

        def counting(config):
            calls.append(config.master_seed)
            return verify(config)

        def counting_solve(space, batch, weights, options):
            count, n = weights.shape
            trials.extend([n] * count)
            return solve(space, batch, weights, options)

        monkeypatch.setattr(ratelab, "population_barycenter", counting)
        monkeypatch.setattr(ratelab, "barycenter_batch", counting_solve)
        cfg = write_config(tmp_path, dict(TAIL_CONFIG, delta=[0.2, 0.1], trials=20))
        out = tmp_path / "out"
        assert run(["tail", "--config", cfg, "--out", out]) == 0
        assert calls == [11]
        assert trials == [TAIL_CONFIG["n_grid"][0]] * 20
        assert len((out / "tail.csv").read_text().splitlines()) == 1 + 2


# numpy.linalg's LAPACK-backed routines; with all of them refused, only runs in
# the Bures-Wasserstein space, which needs them for its SPD roots, would fail
DECOMPOSITIONS = (
    "eigh", "eigvalsh", "eig", "eigvals", "svd", "qr", "inv", "solve",
    "cholesky", "det", "slogdet", "lstsq", "pinv",
)
_SMALL_RATES = dict(RATES_CONFIG, n_grid=[4, 16], trials=10, verify_draws=2000)
_SMALL_TAIL = dict(TAIL_CONFIG, trials=20, verify_draws=2000)
_CAP = {"kind": "sphere_cap", "radius": 0.3}
LAPACK_FREE_RUNS = {
    "rates-cap-d2": dict(_SMALL_RATES, family=dict(_CAP, dim=2), theorem="master_extendible"),
    "rates-cap-d3": dict(_SMALL_RATES, family=dict(_CAP, dim=3), theorem="master_extendible"),
    "rates-hyperbolic": dict(
        _SMALL_RATES, family={"kind": "hyperbolic_gaussian", "dim": 2, "scale": 0.5}
    ),
    "rates-euclidean": _SMALL_RATES,
    "rates-euclidean-master": dict(_SMALL_RATES, theorem="master_extendible"),
    "tail-cap": dict(_SMALL_TAIL, family=dict(_CAP, dim=2), varsigma2=0.1),
    "tail-euclidean": _SMALL_TAIL,
}


class TestLinearAlgebra:
    @pytest.mark.parametrize("name", list(LAPACK_FREE_RUNS))
    def test_runs_off_the_gaussian_space_call_no_decomposition(
        self, tmp_path, monkeypatch, fresh_rule, name
    ):
        def refuse(*args, **kwargs):
            raise AssertionError("a decomposition ran outside the Gaussian space")

        for decomposition in DECOMPOSITIONS:
            monkeypatch.setattr(np.linalg, decomposition, refuse)
        obj = LAPACK_FREE_RUNS[name]
        cfg = write_config(tmp_path, obj)
        assert run([obj["experiment"], "--config", cfg, "--out", tmp_path / "out"]) == 0
        if name == "rates-euclidean-master":  # curvature 0 and unbounded extension: k = 1
            manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
            assert manifest["results"]["k_used"] == 1.0


class TestSweepCommands:
    def test_hugging_sweep(self, tmp_path):
        cfg = write_config(
            tmp_path,
            {
                "experiment": "hugging",
                "family": {"kind": "sphere_cap", "radius": 0.3},
                "n_support": 10,
                "n_cases": 20,
                "master_seed": 2,
            },
        )
        out = tmp_path / "out"
        assert run(["hugging", "--config", cfg, "--out", out]) == 0
        lines = (out / "hugging.csv").read_text().splitlines()
        assert len(lines) == 21
        k_values = [float(line.split(",")[2]) for line in lines[1:]]
        assert all(k <= 1.0 + 1e-9 for k in k_values)

    def test_hugging_manifest_writes_unbounded_extension_as_null(self, tmp_path):
        cfg = write_config(
            tmp_path,
            {
                "experiment": "hugging",
                "family": {"kind": "euclidean_gaussian", "dim": 2},
                "n_support": 10,
                "n_cases": 5,
                "master_seed": 2,
            },
        )
        out = tmp_path / "out"
        assert run(["hugging", "--config", cfg, "--out", out]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["results"]["lambda_in"] is None
        assert manifest["results"]["lambda_out"] is None

    def test_curvature_sweep(self, tmp_path):
        cfg = write_config(
            tmp_path,
            {
                "experiment": "curvature",
                "space": {"kind": "hyperbolic", "dim": 2},
                "kappa": -1.0,
                "quadruples": 25,
                "triples": 5,
                "master_seed": 2,
            },
        )
        out = tmp_path / "out"
        assert run(["curvature", "--config", cfg, "--out", out]) == 0
        lines = (out / "curvature.csv").read_text().splitlines()
        assert len(lines) == 1 + 25 + 5 + 5


HUGGING_CONFIG = {
    "experiment": "hugging",
    "family": {"kind": "sphere_cap", "radius": 0.3},
    "n_support": 10,
    "n_cases": 2,
    "master_seed": 2,
}
CURVATURE_CONFIG = {
    "experiment": "curvature",
    "space": {"kind": "hyperbolic", "dim": 2},
    "kappa": -1.0,
    "quadruples": 2,
    "triples": 2,
    "master_seed": 2,
}
BARYCENTER_CONFIG = {
    "experiment": "barycenter",
    "points": [{"space": "euclidean", "coords": [0.0]}, {"space": "euclidean", "coords": [4.0]}],
}

# the subcommands that take --seed, each with a small config of its own master_seed
SEEDED_CONFIGS = {
    "rates": RATES_CONFIG, "tail": dict(TAIL_CONFIG, trials=20),
    "hugging": HUGGING_CONFIG, "curvature": CURVATURE_CONFIG,
}


class TestSeedFlag:
    @pytest.mark.parametrize("command", sorted(SEEDED_CONFIGS))
    def test_negative_seed_is_a_config_error(self, tmp_path, capsys, command):
        """A negative --seed exits 1 with a typed message, like a negative
        master_seed in the config, and writes nothing."""
        cfg = write_config(tmp_path, SEEDED_CONFIGS[command])
        out = tmp_path / "out"
        assert run([command, "--config", cfg, "--out", out, "--seed", -1]) == 1
        assert "error[config]: --seed must be a nonnegative integer" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", sorted(SEEDED_CONFIGS))
    def test_seed_flag_is_the_config_seed(self, tmp_path, command):
        """--seed s writes the CSV bytes and the manifest seed of a config
        whose master_seed is s."""
        base = SEEDED_CONFIGS[command]
        flagged = write_config(tmp_path, base, "flagged.json")
        seeded = write_config(tmp_path, dict(base, master_seed=7), "seeded.json")
        code = run([command, "--config", flagged, "--out", tmp_path / "flag", "--seed", 7])
        assert run([command, "--config", seeded, "--out", tmp_path / "config"]) == code
        for out in ("flag", "config"):
            manifest = json.loads((tmp_path / out / "manifest.json").read_text())
            assert manifest["master_seed"] == 7
        csv = OUTPUTS[command]
        assert (tmp_path / "flag" / csv).read_bytes() == (tmp_path / "config" / csv).read_bytes()


def without(obj, key):
    return {k: v for k, v in obj.items() if k != key}


# every triangle of a one-dimensional space is degenerate, so its probes read noise
ONE_DIM = (
    "has dimension 1, but the curvature probes need dimension >= 2: "
    "every triangle in one dimension is degenerate"
)


class TestConfigRefusals:
    @pytest.mark.parametrize(
        "command, obj, line",
        [
            ("rates", [RATES_CONFIG],
             "error[ParseError]: {path}: top level must be a JSON object"),
            ("rates", {k: v for k, v in RATES_CONFIG.items() if k != "experiment"},
             "error[config]: missing required key 'experiment'"),
            ("rates", dict(RATES_CONFIG, experiment="ratez"),
             "error[config]: experiment 'ratez' not one of "
             "['barycenter', 'curvature', 'hugging', 'plot', 'rates', 'tail']"),
            ("rates", dict(RATES_CONFIG, master_seed=-3),
             "error[config]: 'master_seed' must be a nonnegative integer"),
            ("rates", dict(RATES_CONFIG, solver=[1e-10]),
             "error[config]: 'solver' must be an object"),
            # descent reads its step from the space's curvature, so no key sets it
            ("rates", dict(RATES_CONFIG, solver={"step": 1.0}),
             "error[config]: solver: unknown key 'step'"),
            ("rates", dict(RATES_CONFIG, family="euclidean_gaussian"),
             "error[config]: 'family' must be an object with a 'kind'"),
            ("curvature", dict(CURVATURE_CONFIG, space="hyperbolic"),
             "error[config]: 'space' must be an object with a 'kind'"),
            ("curvature", dict(CURVATURE_CONFIG, kappa="-1"),
             "error[config]: 'kappa' must be a number"),
            ("curvature", dict(CURVATURE_CONFIG, space={"kind": "euclidean", "dim": 1}),
             f"error[config]: space: Euclidean(dim=1) {ONE_DIM}"),
            ("curvature", dict(CURVATURE_CONFIG, space={"kind": "quantile", "grid_size": 1}),
             f"error[config]: space: QuantileSpace(grid_size=1) {ONE_DIM}"),
            ("curvature", dict(CURVATURE_CONFIG, space={"kind": "sphere", "dim": 1}, kappa=1.0),
             f"error[config]: space: Sphere(dim=1) {ONE_DIM}"),
            ("curvature", dict(CURVATURE_CONFIG, space={"kind": "hyperbolic", "dim": 1}),
             f"error[config]: space: Hyperboloid(dim=1) {ONE_DIM}"),
            # a space's keys are its constructor's parameters, each of its JSON type
            ("curvature", dict(CURVATURE_CONFIG, space={"kind": "sphere", "grid_size": 3}),
             "error[config]: space: unknown key 'grid_size'"),
            ("curvature", dict(CURVATURE_CONFIG, space={"kind": "quantile", "grid_size": 2.5}),
             "error[config]: space: 'grid_size' must be an integer >= 1"),
            ("barycenter", {"experiment": "barycenter", "points": []},
             "error[config]: 'points' must be a nonempty list of tagged point payloads"),
            # the sum overflows, or the smaller weight underflows, when normalized
            ("barycenter", dict(BARYCENTER_CONFIG, weights=[1e308, 1e308]),
             "error[config]: 'weights' must stay positive when divided by their sum"),
            ("barycenter", dict(BARYCENTER_CONFIG, weights=[1e-320, 1e10]),
             "error[config]: 'weights' must stay positive when divided by their sum"),
            # reading stops at the first payload that is not an object
            ("barycenter", {"experiment": "barycenter", "points": [1, 2]},
             "error[config]: points[0]: a point payload must be an object, got 1"),
            # one coordinate sizes no sphere or hyperboloid of dim >= 1
            ("barycenter", {"experiment": "barycenter",
                            "points": [{"space": "sphere", "coords": [1.0]}]},
             "error[config]: points[0]: 'coords' of a sphere point payload must be a list "
             "of at least 2 numbers, got [1.0]"),
            ("barycenter", {"experiment": "barycenter",
                            "points": [{"space": "hyperbolic", "coords": [1.0]}]},
             "error[config]: points[0]: 'coords' of a hyperbolic point payload must be a list "
             "of at least 2 numbers, got [1.0]"),
            # squares that overflow make the Minkowski form NaN
            ("barycenter", {"experiment": "barycenter",
                            "points": [{"space": "hyperbolic", "coords": [1e200, 1e200, 0.0]}]},
             "error[config]: points[0]: not on the upper hyperboloid sheet: <x,x>_M = nan"),
            ("plot", {"experiment": "plot", "csv": "rates.csv", "title": 3},
             "error[config]: 'title' must be a string"),
            # a missing required key is its one line, and no reader runs on it
            ("rates", without(RATES_CONFIG, "family"),
             "error[config]: config: missing required key 'family'"),
            ("tail", without(TAIL_CONFIG, "delta"),
             "error[config]: config: missing required key 'delta'"),
            ("hugging", without(HUGGING_CONFIG, "family"),
             "error[config]: config: missing required key 'family'"),
            ("curvature", without(CURVATURE_CONFIG, "space"),
             "error[config]: config: missing required key 'space'"),
            ("barycenter", without(BARYCENTER_CONFIG, "points"),
             "error[config]: config: missing required key 'points'"),
            # a key that the experiment does not read is unknown, whatever its value
            ("barycenter", dict(BARYCENTER_CONFIG, master_seed=-1),
             "error[config]: config: unknown key 'master_seed'"),
            ("plot", {"experiment": "plot", "csv": "rates.csv", "master_seed": -1},
             "error[config]: config: unknown key 'master_seed'"),
            # a family's constructor parameter without a default is a required key
            ("hugging", dict(HUGGING_CONFIG, family={"kind": "sphere_cap"}),
             "error[config]: family: missing required key 'radius'"),
        ],
        ids=["top-level-list", "missing-experiment", "unknown-experiment", "negative-master-seed",
             "solver-list", "solver-step", "family-string", "space-string", "kappa-string",
             "euclidean-dim1", "quantile-grid1", "sphere-dim1", "hyperbolic-dim1",
             "sphere-grid-size", "quantile-grid-float", "empty-points", "weights-overflow",
             "weights-underflow", "points-not-objects", "sphere-one-coord",
             "hyperbolic-one-coord", "hyperbolic-overflow", "title-number", "rates-no-family",
             "tail-no-delta", "hugging-no-family", "curvature-no-space", "barycenter-no-points",
             "barycenter-master-seed", "plot-master-seed", "sphere-cap-no-radius"],
    )
    def test_refused_before_any_work(self, tmp_path, capsys, command, obj, line):
        """Each refusal exits 1 with its one ``error[...]`` line and writes nothing."""
        cfg = write_config(tmp_path, obj)
        out = tmp_path / "out"
        assert run([command, "--config", cfg, "--out", out]) == 1
        assert capsys.readouterr().err.splitlines() == [line.format(path=cfg)]
        assert not out.exists()


def run_subprocess(args):
    """The CLI in a fresh interpreter, as a user runs it."""
    root = Path(__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(root / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    return subprocess.run(
        [sys.executable, "-m", "barylab.cli", *map(str, args)],
        cwd=root, env=env, capture_output=True, text=True, timeout=120,
    )


class TestOutputDirectory:
    @pytest.mark.parametrize("below", [False, True], ids=["file", "below-a-file"])
    def test_out_at_a_file_exits_1_without_a_traceback(self, tmp_path, below):
        """An --out that names a file, or a path below one, is a typed error
        (exit 1), and the file is left as it was."""
        blocker = tmp_path / "f"
        blocker.write_text("kept", encoding="utf-8")
        cfg = write_config(tmp_path, RATES_CONFIG)
        done = run_subprocess(
            ["rates", "--config", cfg, "--out", blocker / "sub" if below else blocker]
        )
        assert done.returncode == 1
        assert "Traceback" not in done.stderr
        assert done.stderr.startswith("error[OutputError]: cannot create output directory")
        assert blocker.read_text(encoding="utf-8") == "kept"

    def test_out_is_made_before_the_experiment_runs(self, tmp_path, monkeypatch, capsys):
        calls = []
        monkeypatch.setattr(cli, "run_rate_experiment", calls.append)
        blocker = tmp_path / "f"
        blocker.write_text("", encoding="utf-8")
        cfg = write_config(tmp_path, RATES_CONFIG)
        assert run(["rates", "--config", cfg, "--out", blocker]) == 1
        assert "error[OutputError]" in capsys.readouterr().err
        assert calls == []

    def test_empty_curvature_grid_exits_1_without_a_traceback(self, tmp_path):
        cfg = write_config(tmp_path, dict(CURVATURE_CONFIG, grid=[]))
        done = run_subprocess(["curvature", "--config", cfg, "--out", tmp_path / "out"])
        assert done.returncode == 1
        assert "Traceback" not in done.stderr
        assert done.stderr.startswith("error[config]: 'grid' must be a nonempty")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "old, new, message",
        [
            ('"sd": 1.0', '"sd": 1e999', "error[ParseError]"),
            ('"verify_draws"', '"solver": {"tol": 1e999}, "verify_draws"', "error[ParseError]"),
            ('"sd": 1.0', '"sd": 1' + "0" * 400, "error[config]: family: 'sd' must be"),
        ],
        ids=["float-literal", "solver-tol", "long-integer"],
    )
    def test_number_beyond_a_double_exits_1_without_a_traceback(
        self, tmp_path, old, new, message
    ):
        """A float literal that overflows to inf, or an integer no double
        holds, is a config error before the run, and no manifest is written."""
        cfg = tmp_path / "config.json"
        text = json.dumps(RATES_CONFIG)
        assert old in text
        cfg.write_text(text.replace(old, new), encoding="utf-8")
        done = run_subprocess(["rates", "--config", cfg, "--out", tmp_path / "out"])
        assert done.returncode == 1
        assert "Traceback" not in done.stderr
        assert done.stderr.startswith(message)
        assert not (tmp_path / "out" / "manifest.json").exists()

    def test_count_above_the_ceiling_exits_1_without_a_traceback(self, tmp_path):
        """An n beyond the count ceiling is a config error before any trial
        runs, and no manifest is written."""
        cfg = write_config(tmp_path, dict(RATES_CONFIG, n_grid=[4, 10**30]))
        done = run_subprocess(["rates", "--config", cfg, "--out", tmp_path / "out"])
        assert done.returncode == 1
        assert "Traceback" not in done.stderr
        assert done.stderr.startswith("error[config]: 'n_grid' must be an ascending list")
        assert not (tmp_path / "out" / "manifest.json").exists()

    @pytest.mark.parametrize(
        "command, config, message",
        [
            ("rates", dict(RATES_CONFIG, family={"kind": [1]}),
             "error[config]: family: unknown kind [1]"),
            ("curvature", dict(CURVATURE_CONFIG, space={"kind": [1]}),
             "error[config]: space: unknown kind [1]"),
            ("hugging", dict(HUGGING_CONFIG, family={"kind": {"a": 1}}),
             "error[config]: family: unknown kind {'a': 1}"),
        ],
        ids=["rates-family-list", "curvature-space-list", "hugging-family-object"],
    )
    def test_unhashable_kind_exits_1_without_a_traceback(
        self, tmp_path, command, config, message
    ):
        """A JSON list or object as a family or space kind is an unknown kind."""
        cfg = write_config(tmp_path, config)
        done = run_subprocess([command, "--config", cfg, "--out", tmp_path / "out"])
        assert done.returncode == 1
        assert "Traceback" not in done.stderr
        assert done.stderr.startswith(message)
        assert not (tmp_path / "out").exists()


HEADER_LINE = ",".join(RATES_HEADER) + "\n"


class TestPlot:
    def test_renders_svg_from_rates_csv(self, tmp_path):
        cfg = write_config(tmp_path, RATES_CONFIG)
        out = tmp_path / "out"
        assert run(["rates", "--config", cfg, "--out", out]) == 0
        assert run(["plot", "--csv", out / "rates.csv", "--out", out]) == 0
        svg = (out / "rates.svg").read_text()
        assert svg.count("<polyline") == 2
        assert "guide slope -1" in svg
        assert "stroke-dasharray" in svg

    def test_plot_via_config(self, tmp_path):
        cfg = write_config(tmp_path, RATES_CONFIG)
        out = tmp_path / "out"
        assert run(["rates", "--config", cfg, "--out", out]) == 0
        plot_cfg = write_config(
            tmp_path,
            {"experiment": "plot", "csv": str(out / "rates.csv"), "title": "demo"},
            name="plot.json",
        )
        assert run(["plot", "--config", plot_cfg, "--out", out]) == 0
        assert "demo" in (out / "rates.svg").read_text()

    def test_csv_flag_stands_in_for_the_config_key(self, tmp_path, capsys):
        """A plot config without 'csv' plots the --csv file, and without
        --csv either it exits 1 with plot's one error[config] line."""
        csv_path = tmp_path / "rates.csv"
        csv_path.write_text(RATES_ROWS, encoding="utf-8")
        cfg = write_config(tmp_path, {"experiment": "plot", "title": "demo"})
        out = tmp_path / "out"
        assert run(["plot", "--config", cfg, "--csv", csv_path, "--out", out]) == 0
        assert "demo" in (out / "rates.svg").read_text()
        capsys.readouterr()
        assert run(["plot", "--config", cfg, "--out", tmp_path / "refused"]) == 1
        assert capsys.readouterr().err.splitlines() == [
            "error[config]: plot needs --csv or a config with a 'csv' key"
        ]

    @pytest.mark.parametrize(
        "text, kind, message",
        [
            (None, "ParseError", "cannot read rates CSV"),
            (HEADER_LINE, "ParseError", "no rates rows"),
            ("space,n,trials\neuclidean,4,100\n", "ParseError", "missing rates columns"),
            (HEADER_LINE + "euclidean,4,many,0.7,0.01,3,0.75,0.9,5\n", "ParseError",
             "line 2: trials is 'many', not a number"),
            (HEADER_LINE + "euclidean,4,100,0.7\n", "ParseError", "seed is None, not a number"),
            (HEADER_LINE + "euclidean,4,100,0,0,3,0.75,0,5\n", "PlotError",
             "log-log chart needs finite positive values, got 0.0"),
        ],
        ids=["missing-file", "header-only", "missing-columns", "non-numeric-cell",
             "short-row", "zero-mean-sq-dist"],
    )
    def test_bad_csv_is_a_typed_error(self, tmp_path, capsys, text, kind, message):
        """Unusable input exits 1 with a typed error line, not a traceback."""
        csv_path = tmp_path / "rates.csv"
        if text is not None:
            csv_path.write_text(text, encoding="utf-8")
        assert run(["plot", "--csv", csv_path, "--out", tmp_path / "out"]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error[{kind}]: ") and message in err


RATES_ROWS = (
    HEADER_LINE + "euclidean,4,100,0.7,0.01,3,0.75,0.9,5\n"
    "euclidean,16,100,0.2,0.01,3,0.19,0.9,5\n"
)
# (command, config or None, extra flags, manifest seed, results written, exit code)
RUNS = {
    # seed 1 puts a ratio above 1 inside the slack, which --strict-bounds flags
    "rates-strict": ("rates", RATES_CONFIG, ["--seed", 1, "--strict-bounds"], 1, True, 3),
    "tail": ("tail", dict(TAIL_CONFIG, trials=20), [], 11, True, 0),
    "hugging-seed": ("hugging", HUGGING_CONFIG, ["--seed", 4], 4, True, 0),
    # the (m, s) half-plane: two dimensions, so the probes run
    "curvature-gaussian-dim1": (
        "curvature", dict(CURVATURE_CONFIG, space={"kind": "gaussian", "dim": 1}, kappa=0.0),
        [], 2, True, 0,
    ),
    "barycenter": ("barycenter", BARYCENTER_CONFIG, [], 0, False, 0),
    "plot-config": ("plot", {"experiment": "plot", "csv": "{csv}"}, [], 0, False, 0),
    "plot-csv": ("plot", None, ["--csv", "{csv}"], 0, False, 0),
}
OUTPUTS = {
    "rates": "rates.csv", "tail": "tail.csv", "hugging": "hugging.csv",
    "curvature": "curvature.csv", "barycenter": "barycenter.json", "plot": "rates.svg",
}


class TestManifest:
    @pytest.mark.parametrize("name", list(RUNS))
    def test_every_run_ends_in_one_manifest(self, tmp_path, capsys, name):
        """Every subcommand ends alike: one manifest that echoes the config
        file as read (or the --csv of a plot without one) with the run's seed,
        the files written and the results, one stderr line per bound
        violation, and exit 3 on a violation, else 0."""
        command, obj, flags, seed, has_results, code = RUNS[name]
        csv_path = tmp_path / "rates.csv"
        csv_path.write_text(RATES_ROWS, encoding="utf-8")
        flags = [str(f).format(csv=csv_path) for f in flags]
        args = [command, "--out", tmp_path / "out", *flags]
        if obj is not None:
            obj = {k: (v.format(csv=csv_path) if k == "csv" else v) for k, v in obj.items()}
            args += ["--config", write_config(tmp_path, obj)]
        assert run(args) == code
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert manifest["config"] == (obj if obj is not None else {"csv": str(csv_path)})
        assert manifest["master_seed"] == seed
        assert manifest["outputs"] == [str(tmp_path / "out" / OUTPUTS[command])]
        assert ("results" in manifest) == has_results
        violations = manifest.get("results", {}).get("bound_violations", [])
        assert bool(violations) == (code == 3)
        err = capsys.readouterr().err.splitlines()
        assert err == [f"bound violation: {line}" for line in violations]


# the flags each subcommand reads, beyond --config, --out and the ignored --threads
OWN_FLAGS = {
    "rates": {"--seed", "--strict-bounds"},
    "tail": {"--seed", "--strict-bounds"},
    "hugging": {"--seed"},
    "curvature": {"--seed"},
    "barycenter": set(),
    "plot": {"--csv"},
}


class TestHelp:
    @pytest.mark.parametrize("command", sorted(OWN_FLAGS))
    def test_help_mentions_flags(self, command, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main([command, "--help"])
        assert exit_info.value.code == 0
        text = capsys.readouterr().out
        offered = set(re.findall(r"--[a-z][a-z-]*", text)) - {"--help"}
        assert offered == {"--config", "--out", "--threads"} | OWN_FLAGS[command]

    @pytest.mark.parametrize(
        "command, flag", [("barycenter", ["--seed", "5"]), ("plot", ["--strict-bounds"])]
    )
    def test_flag_a_subcommand_ignores_is_a_usage_error(self, tmp_path, capsys, command, flag):
        """A flag the subcommand would not read fails in argparse (exit 2)
        before anything runs, instead of being accepted and dropped."""
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exit_info:
            main([command, "--config", str(tmp_path / "c.json"), "--out", str(out), *flag])
        assert exit_info.value.code == 2
        assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err
        assert not out.exists()


class TestImports:
    def test_every_public_name_resolves(self):
        """Each name in ``barylab.__all__`` is an attribute of the package, the
        comparison names that load on first access included."""
        import barylab

        assert barylab._COMPARISON <= set(barylab.__all__)
        missing = [name for name in barylab.__all__ if not hasattr(barylab, name)]
        assert missing == []

    def test_cli_import_leaves_scipy_out(self):
        """The runtime needs numpy only; scipy is a test dependency.  Nor does
        the CLI import the standard library's network and XML stacks."""
        root = Path(__file__).resolve().parents[1]
        env = {**os.environ, "PYTHONPATH": str(root / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
        code = (
            "import sys, barylab.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy' "
            "or m in ('urllib.request', 'http.client', 'xml.sax')))"
        )
        done = subprocess.run(
            [sys.executable, "-c", code], cwd=root, env=env,
            capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "[]"

    def test_cli_import_leaves_single_command_modules_out(self):
        """The plot and sweep modules, and the standard library modules only
        they use, load inside their own subcommands; the comparison module
        loads on first use."""
        root = Path(__file__).resolve().parents[1]
        env = {**os.environ, "PYTHONPATH": str(root / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
        code = (
            "import sys, barylab.cli; "
            "print(sorted(m for m in ('barylab.svgplot', 'barylab.sweeps', "
            "'barylab.comparison', 'statistics', 'html', 'numpy.polynomial') "
            "if m in sys.modules))"
        )
        done = subprocess.run(
            [sys.executable, "-c", code], cwd=root, env=env,
            capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "[]"

    @pytest.mark.parametrize("preset", [None, "2"])
    def test_blas_thread_default(self, preset):
        """Importing barylab defaults OpenBLAS to one thread before numpy loads,
        so no idle worker thread starts; a value already set wins."""
        root = Path(__file__).resolve().parents[1]
        env = {**os.environ, "PYTHONPATH": str(root / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
        env.pop("OPENBLAS_NUM_THREADS", None)
        if preset is not None:
            env["OPENBLAS_NUM_THREADS"] = preset
        code = (
            "import os, barylab.cli; "
            "tasks = '/proc/self/task'; "
            "print(os.environ['OPENBLAS_NUM_THREADS'], "
            "len(os.listdir(tasks)) if os.path.isdir(tasks) else -1)"
        )
        done = subprocess.run(
            [sys.executable, "-c", code], cwd=root, env=env,
            capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        value, threads = done.stdout.split()
        expected = preset or "1"
        assert value == expected
        if threads == "-1":
            pytest.skip("no /proc/self/task to count threads")
        if int(expected) > (os.cpu_count() or 1):
            pytest.skip("OpenBLAS starts no more threads than there are CPUs")
        assert int(threads) == int(expected)


class TestBenchmarkTracer:
    def test_tracer_installs_on_the_cli(self):
        """Every name the benchmark's tracer patches still exists: a fresh
        interpreter imports the CLI and installs the tracer without error."""
        root = Path(__file__).resolve().parents[1]
        path = os.pathsep.join([str(root / "src"), str(root / "perfbench")])
        # no bytecode written into the benchmark's directory
        env = {**os.environ, "PYTHONPATH": path, "PYTHONDONTWRITEBYTECODE": "1"}
        code = "import barylab.cli, tracer; tracer.Tracer().install()"
        done = subprocess.run(
            [sys.executable, "-c", code], cwd=root, env=env,
            capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr
