"""The benchmark's workloads and the checks on what each CLI run writes.

Every workload is one closed-loop `barylab` CLI run at a time, fed a config
generated from the benchmark seed (the seed becomes the config's
``master_seed``).  NOTES.md says why each workload exists.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path

RATES_GRID = [16, 64, 256, 1024]

RATES_HEADER = [
    "space", "n", "trials", "mean_sq_dist", "stderr", "sigma2", "bound", "ratio", "seed",
]
TAIL_HEADER = [
    "space", "n", "trials", "delta", "varsigma2", "threshold", "empirical_exceedance",
    "bound_probability", "c1", "c2", "pk_estimate", "pk_used", "kmin_estimate", "seed",
]

# the CLI's own statistical slack: 3 standard errors (ratelab.rate_violations
# and ratelab.tail_violations without --strict-bounds)
SLACK_SE = 3.0


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # CLI subcommand
    space: str  # space tag written in the CSV
    threads: int  # always passed as --threads
    config: dict  # the generated config, less master_seed

    def config_for(self, seed: int) -> dict:
        return {**self.config, "master_seed": seed}

    @property
    def n_grid(self) -> list:
        return self.config["n_grid"]

    @property
    def deltas(self) -> list:
        return self.config.get("delta", [None])

    @property
    def trials_per_n(self) -> int:
        """Trial timings one run yields per n (the tail repeats them per delta)."""
        return self.config["trials"] * len(self.deltas)


_HYPERBOLIC = {
    "experiment": "rates",
    "family": {"kind": "hyperbolic_gaussian", "dim": 2, "scale": 0.5},
    "theorem": "negcurv",
    "n_grid": RATES_GRID,
    "trials": 40,
}
_GAUSSIAN = {
    "experiment": "rates",
    "family": {"kind": "gaussian_ensemble", "dim": 3, "alpha": 0.8, "beta": 1.6},
    "theorem": "wasserstein",
    "n_grid": RATES_GRID,
    "trials": 20,
}
_TAIL = {
    "experiment": "tail",
    "family": {"kind": "sphere_cap", "dim": 2, "radius": 0.3},
    "n_grid": [100, 400],
    "delta": [0.05, 0.2],
    "varsigma2": 0.1,
    "trials": 50,
}

WORKLOADS = {
    w.name: w
    for w in (
        Workload("rates-hyperbolic", "rates", "hyperbolic", 1, _HYPERBOLIC),
        Workload("rates-gaussian", "rates", "gaussian", 1, _GAUSSIAN),
        Workload("tail-sphere", "tail", "sphere", 1, _TAIL),
        Workload("rates-gaussian-t2", "rates", "gaussian", 2, _GAUSSIAN),
    )
}


def check_outputs(workload: Workload, seed: int, out_dir: Path) -> tuple[str | None, list]:
    """sha256 of the run's CSV and every way its outputs are wrong."""
    csv_path = out_dir / f"{workload.command}.csv"
    try:
        data = csv_path.read_bytes()
        manifest = json.loads((out_dir / "manifest.json").read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        return None, [f"missing or unreadable output: {exc}"]
    errors = []
    violations = manifest.get("results", {}).get("bound_violations")
    if violations != []:
        errors.append(f"manifest bound_violations = {violations!r}")
    if manifest.get("master_seed") != seed:
        errors.append(f"manifest master_seed = {manifest.get('master_seed')!r}")
    rows = list(csv.reader(data.decode("utf-8").splitlines()))
    header = RATES_HEADER if workload.command == "rates" else TAIL_HEADER
    if not rows or rows[0] != header:
        errors.append(f"CSV header {rows[:1]!r}")
        return hashlib.sha256(data).hexdigest(), errors
    expected = [(d, n) for d in workload.deltas for n in workload.n_grid]
    body = [dict(zip(header, row)) for row in rows[1:]]
    if len(body) != len(expected):
        errors.append(f"{len(body)} CSV rows, expected {len(expected)}")
    for (delta, n), row in zip(expected, body):
        errors.extend(_check_row(workload, seed, delta, n, row))
    return hashlib.sha256(data).hexdigest(), errors


def _check_row(workload: Workload, seed: int, delta, n: int, row: dict) -> list:
    where = f"row n={n}" + ("" if delta is None else f" delta={delta}")
    try:
        values = {k: float(v) for k, v in row.items() if k != "space"}
    except ValueError as exc:
        return [f"{where}: {exc}"]
    errors = [f"{where}: {k} = {v!r}" for k, v in values.items() if not math.isfinite(v)]
    if errors:
        return errors
    if row["space"] != workload.space:
        errors.append(f"{where}: space {row['space']!r}")
    if values["n"] != n or values["seed"] != seed or values["trials"] != workload.config["trials"]:
        errors.append(f"{where}: n/trials/seed columns {row['n']}/{row['trials']}/{row['seed']}")
    if workload.command == "rates":
        mean, bound, ratio = values["mean_sq_dist"], values["bound"], values["ratio"]
        if not (mean > 0 and bound > 0 and values["stderr"] >= 0):
            errors.append(f"{where}: mean {mean!r}, bound {bound!r}, stderr {values['stderr']!r}")
        elif abs(ratio - mean / bound) > 1e-12 * ratio:
            errors.append(f"{where}: ratio {ratio!r} is not mean/bound")
        elif ratio > 1.0 + SLACK_SE * values["stderr"] / bound:
            errors.append(f"{where}: ratio {ratio!r} above 1 + {SLACK_SE} stderr/bound")
    else:
        p, bound = values["empirical_exceedance"], values["bound_probability"]
        if values["delta"] != delta or not 0 <= p <= 1:
            errors.append(f"{where}: delta {row['delta']}, "
                          f"exceedance {row['empirical_exceedance']}")
        elif p > bound + SLACK_SE * math.sqrt(p * (1.0 - p) / values["trials"]):
            errors.append(f"{where}: exceedance {p!r} above bound {bound!r} + slack")
    return errors
