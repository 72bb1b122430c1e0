"""End-to-end CLI runs: artifacts, manifests, exit codes, determinism."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from barylab import ratelab
from barylab.cli import main
from barylab.reporting import RATES_HEADER

RATES_CONFIG = {
    "experiment": "rates",
    "family": {"kind": "euclidean_gaussian", "dim": 3, "sd": 1.0},
    "theorem": "negcurv",
    "n_grid": [4, 16],
    "trials": 100,
    "master_seed": 5,
    "sigma2_draws": 20000,
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


TAIL_CONFIG = {
    "experiment": "tail",
    "family": {"kind": "euclidean_gaussian", "dim": 3, "sd": 1.0},
    "n_grid": [50],
    "trials": 200,
    "delta": [0.2],
    "varsigma2": 3.0,
    "master_seed": 11,
    "sigma2_draws": 20000,
    "verify_draws": 10000,
    "subgaussian_draws": 20000,
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


class TestHelp:
    @pytest.mark.parametrize(
        "command", ["rates", "tail", "hugging", "curvature", "barycenter", "plot"]
    )
    def test_help_mentions_flags(self, command, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main([command, "--help"])
        assert exit_info.value.code == 0
        text = capsys.readouterr().out
        for flag in ("--config", "--out", "--seed", "--threads", "--strict-bounds"):
            assert flag in text


class TestImports:
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
