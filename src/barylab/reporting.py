"""CSV and run-manifest emission.

Numbers are printed with 17 significant digits so CSV output round-trips
doubles exactly and repeated seeded runs are byte-identical.
"""

from __future__ import annotations

import csv
import json
import platform
from datetime import datetime, timezone
from pathlib import Path

from . import __version__
from .errors import OutputError, ParseError
from .ratelab import RateCurve, TailExperimentResult

RATES_HEADER = ["space", "n", "trials", "mean_sq_dist", "stderr", "sigma2", "bound", "ratio", "seed"]
TAIL_HEADER = [
    "space", "n", "trials", "delta", "varsigma2", "threshold", "empirical_exceedance",
    "bound_probability", "c1", "c2", "pk_estimate", "pk_used", "kmin_estimate", "seed",
]
HUGGING_HEADER = [
    "space", "case", "k_value", "lambda_in", "lambda_out", "k_min_bound",
    "variance_eq_residual", "seed",
]
CURVATURE_HEADER = ["space", "kappa", "probe", "index", "value", "seed"]


def fmt(value) -> str:
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def _write_csv(path: Path, header, rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([fmt(v) for v in row])


def write_rates_csv(path, curve: RateCurve) -> None:
    rows = [
        (curve.space, p.n, p.trials, p.mean_sq_dist, p.stderr, p.sigma2, p.bound,
         p.ratio, curve.master_seed)
        for p in curve.points
    ]
    _write_csv(Path(path), RATES_HEADER, rows)


def read_rates_csv(path):
    """Rows of a rates CSV as dicts with numeric fields parsed.

    A file that cannot be read, lacks a rates column, has no rows or holds a
    cell that does not parse raises `ParseError`."""
    try:
        with open(path, newline="", encoding="utf-8") as handle:
            reader = csv.DictReader(handle)
            missing = set(RATES_HEADER) - set(reader.fieldnames or ())
            if missing:
                raise ParseError(f"{path}: missing rates columns {sorted(missing)}")
            rows = [_parse_rates_row(path, reader.line_num, row) for row in reader]
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise ParseError(f"{path}: cannot read rates CSV: {exc}") from exc
    if not rows:
        raise ParseError(f"{path}: no rates rows")
    return rows


def _parse_rates_row(path, line: int, row: dict) -> dict:
    parsed = dict(row)
    try:
        for key in ("n", "trials", "seed"):
            parsed[key] = int(row[key])
        for key in ("mean_sq_dist", "stderr", "sigma2", "bound", "ratio"):
            parsed[key] = float(row[key])
    except (TypeError, ValueError):  # a short row reads None, a bad cell raises
        raise ParseError(f"{path}, line {line}: {key} is {row[key]!r}, not a number") from None
    return parsed


def write_tail_csv(path, space_tag: str, results: list[TailExperimentResult], seed: int) -> None:
    rows = [
        (space_tag, r.n, r.trials, r.delta, r.varsigma2, r.threshold,
         r.empirical_exceedance, r.bound_probability, r.c1_used, r.c2_used,
         r.pk_estimate, r.pk_used, r.kmin_estimate, seed)
        for r in results
    ]
    _write_csv(Path(path), TAIL_HEADER, rows)


def write_hugging_csv(path, space_tag: str, reports, seed: int) -> None:
    out = [
        (space_tag, case, r.k_value, r.lambda_in, r.lambda_out,
         r.k_min_bound, r.variance_eq_residual, seed)
        for case, r in enumerate(reports)
    ]
    _write_csv(Path(path), HUGGING_HEADER, out)


def write_curvature_csv(path, rows, seed: int) -> None:
    out = [
        (r["space"], r["kappa"], r["probe"], r["index"], r["value"], seed)
        for r in rows
    ]
    _write_csv(Path(path), CURVATURE_HEADER, out)


def write_manifest(out_dir, config_echo: dict, master_seed, outputs, started_at,
                   extra: dict | None = None) -> Path:
    manifest = {
        "library": "barylab",
        "version": __version__,
        # not platform.platform(): its uname().processor runs `uname -p`
        "platform": "-".join((platform.system(), platform.release(), platform.machine())),
        "python": platform.python_version(),
        "master_seed": master_seed,
        "started_at": started_at,
        "finished_at": utc_now(),
        "config": config_echo,
        "outputs": [str(p) for p in outputs],
    }
    if extra:
        manifest["results"] = extra
    return write_json(Path(out_dir) / "manifest.json", manifest)


def write_json(path, doc) -> Path:
    """Write ``doc`` as strict JSON, indented, keys sorted, with a trailing
    newline; a NaN or infinity raises `OutputError` before the file is opened."""
    path = Path(path)
    try:
        text = json.dumps(doc, indent=2, sort_keys=True, allow_nan=False)
    except ValueError as exc:
        raise OutputError(f"cannot write {path}: {exc}") from exc
    path.write_text(text + "\n", encoding="utf-8")
    return path


def utc_now() -> str:
    return datetime.now(timezone.utc).isoformat()
