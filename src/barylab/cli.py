"""Command-line entry points for experiments and plots.

Every run writes its outputs plus a manifest.json echoing the configuration,
library version, platform, seed and output paths.  Exit codes: 0 success,
2 a theorem hypothesis failed its numerical gate, 3 a verified bound was
violated by the data, 1 any other error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

from .barycenter import barycenter
from .config import parse_config
from .distributions import DiscreteDistribution
from .errors import BarylabError, HypothesisViolated, ValidationError
from .ratelab import (
    estimate_hugging_profile,
    run_rate_experiment,
    run_tail_experiment,
    subgaussian_proxy_check,
    rate_violations,
    tail_violations,
)
from .reporting import (
    fmt,
    read_rates_csv,
    utc_now,
    write_curvature_csv,
    write_hugging_csv,
    write_manifest,
    write_rates_csv,
    write_tail_csv,
)
from .svgplot import render_loglog_svg
from .sweeps import curvature_sweep, hugging_sweep

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_HYPOTHESIS = 2
EXIT_BOUND = 3

# numeric tolerance for curvature probe violations
PROBE_TOL = 1e-9


def _add_common(parser: argparse.ArgumentParser, config_required: bool = True):
    parser.add_argument(
        "--config", required=config_required, help="path to the JSON experiment config"
    )
    parser.add_argument(
        "--out", default="barylab-out", help="output directory (created if missing)"
    )
    parser.add_argument(
        "--seed", type=int, default=None, help="override the config master seed"
    )
    parser.add_argument(
        "--threads",
        type=int,
        default=None,
        help="accepted and ignored, like BARYLAB_THREADS: trials run in one thread",
    )
    parser.add_argument(
        "--strict-bounds",
        action="store_true",
        help="exit 3 on any bound violation, without statistical slack",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="barylab",
        description="Barycenter geometry diagnostics and Monte Carlo rate experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("rates", help="rate-vs-bound Monte Carlo experiment (CSV)")
    _add_common(p)
    p = sub.add_parser("tail", help="high-probability tail bound experiment (CSV)")
    _add_common(p)
    p = sub.add_parser("hugging", help="hugging diagnostic sweep (CSV)")
    _add_common(p)
    p = sub.add_parser("curvature", help="comparison-geometry probe sweep (CSV)")
    _add_common(p)
    p = sub.add_parser("barycenter", help="single barycenter solve (JSON)")
    _add_common(p)
    p = sub.add_parser("plot", help="render a rates CSV as an SVG log-log chart")
    _add_common(p, config_required=False)
    p.add_argument("--csv", default=None, help="rates CSV to plot (or set it in the config)")
    return parser


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _echo(path) -> dict:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def _finish(args, out: Path, seed: int, csv_path: Path, started: str, extra: dict) -> int:
    """Write the manifest, report its bound violations and pick the exit code."""
    write_manifest(out, _echo(args.config), seed, [csv_path], started, extra)
    for line in extra["bound_violations"]:
        print(f"bound violation: {line}", file=sys.stderr)
    return EXIT_BOUND if extra["bound_violations"] else EXIT_OK


def _cmd_rates(args) -> int:
    started = utc_now()
    parsed = parse_config(args.config, "rates")
    config = parsed.payload["config"]
    if args.seed is not None:
        config = dataclasses.replace(config, master_seed=args.seed)
    curve = run_rate_experiment(config)
    out = _out_dir(args)
    csv_path = out / "rates.csv"
    write_rates_csv(csv_path, curve)
    extra = {
        "theorem": curve.theorem,
        "k_used": curve.k_used,
        "slope": curve.slope,
        "sigma2": curve.sigma2,
        "discarded_trials": curve.discarded,
        "bound_violations": rate_violations(curve, strict=args.strict_bounds),
    }
    return _finish(args, out, config.master_seed, csv_path, started, extra)


def _cmd_tail(args) -> int:
    started = utc_now()
    parsed = parse_config(args.config, "tail")
    payload = parsed.payload
    config = payload["config"]
    if args.seed is not None:
        config = dataclasses.replace(config, master_seed=args.seed)
    subg = subgaussian_proxy_check(config, payload["varsigma2"], payload["subgaussian_draws"])
    profile = estimate_hugging_profile(
        config, payload["profile_points"], payload["profile_targets"]
    )
    results = run_tail_experiment(config, payload["deltas"], payload["varsigma2"], profile, subg)
    out = _out_dir(args)
    csv_path = out / "tail.csv"
    write_tail_csv(csv_path, config.family.space.tag, results, config.master_seed)
    extra = {
        "subgaussian_estimate": subg.estimate,
        "subgaussian_stderr": subg.stderr,
        "pk_estimate": profile.pk,
        "pk_stderr": profile.pk_stderr,
        "kmin_estimate": profile.k_min,
        "discarded_trials": results[0].discarded,
        "bound_violations": tail_violations(results, strict=args.strict_bounds),
    }
    return _finish(args, out, config.master_seed, csv_path, started, extra)


def _cmd_hugging(args) -> int:
    started = utc_now()
    parsed = parse_config(args.config, "hugging")
    payload = parsed.payload
    seed = args.seed if args.seed is not None else payload["master_seed"]
    reports, meta = hugging_sweep(
        payload["family"], payload["n_support"], payload["n_cases"], seed,
        payload["solver"],
    )
    out = _out_dir(args)
    csv_path = out / "hugging.csv"
    write_hugging_csv(csv_path, payload["family"].space.tag, reports, seed)
    write_manifest(out, _echo(args.config), seed, [csv_path], started, meta)
    return EXIT_OK


def _cmd_curvature(args) -> int:
    started = utc_now()
    parsed = parse_config(args.config, "curvature")
    payload = parsed.payload
    seed = args.seed if args.seed is not None else payload["master_seed"]
    rows = curvature_sweep(
        payload["space"], payload["kappa"], payload["quadruples"],
        payload["triples"], payload["grid"], seed,
    )
    out = _out_dir(args)
    csv_path = out / "curvature.csv"
    write_curvature_csv(csv_path, rows, seed)
    violations = []
    for row in rows:
        if row["probe"] == "monotonicity_violation":
            bad = row["value"] > PROBE_TOL
        else:  # quadruple_defect and cone_gap must be nonnegative up to noise
            bad = row["value"] < -PROBE_TOL
        if bad:
            violations.append(f"{row['probe']}[{row['index']}] = {row['value']:.3e}")
    return _finish(args, out, seed, csv_path, started, {"bound_violations": violations})


def _cmd_barycenter(args) -> int:
    started = utc_now()
    parsed = parse_config(args.config, "barycenter")
    payload = parsed.payload
    space = payload["space"]
    if payload["weights"] is None:
        dist = DiscreteDistribution.uniform(space, payload["points"])
    else:
        import numpy as np

        weights = np.asarray(payload["weights"], float)
        dist = DiscreteDistribution(space, payload["points"], weights / weights.sum())
    result = barycenter(dist, payload["solver"])
    out = _out_dir(args)
    json_path = out / "barycenter.json"
    doc = {
        "space": space.tag,
        "point": space.point_payload(result.point),
        "objective": float(result.objective),
        "grad_norm": float(result.grad_norm),
        "iters": result.iters,
        "converged": bool(result.converged),
    }
    with open(json_path, "w", encoding="utf-8") as handle:
        json.dump(doc, handle, indent=2, sort_keys=True)
        handle.write("\n")
    write_manifest(out, _echo(args.config), 0, [json_path], started)
    print(f"grad_norm={fmt(result.grad_norm)} converged={result.converged}")
    return EXIT_OK


def _cmd_plot(args) -> int:
    started = utc_now()
    title = ""
    csv_path = args.csv
    config_echo: dict = {}
    if args.config:
        parsed = parse_config(args.config, "plot")
        csv_path = csv_path or parsed.payload["csv"]
        title = parsed.payload["title"]
        config_echo = _echo(args.config)
    if not csv_path:
        raise ValidationError(["plot needs --csv or a config with a 'csv' key"])
    rows = read_rates_csv(csv_path)
    ns = [row["n"] for row in rows]
    series = [
        ("mean_sq_dist", ns, [row["mean_sq_dist"] for row in rows]),
        ("bound", ns, [row["bound"] for row in rows]),
    ]
    svg = render_loglog_svg(series, title=title or f"rates: {rows[0]['space']}")
    out = _out_dir(args)
    svg_path = out / (Path(csv_path).stem + ".svg")
    svg_path.write_text(svg, encoding="utf-8")
    write_manifest(out, config_echo or {"csv": str(csv_path)}, 0, [svg_path], started)
    return EXIT_OK


_COMMANDS = {
    "rates": _cmd_rates,
    "tail": _cmd_tail,
    "hugging": _cmd_hugging,
    "curvature": _cmd_curvature,
    "barycenter": _cmd_barycenter,
    "plot": _cmd_plot,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except HypothesisViolated as exc:
        print(f"error[hypothesis]: {exc}", file=sys.stderr)
        return EXIT_HYPOTHESIS
    except ValidationError as exc:
        for violation in exc.violations:
            print(f"error[config]: {violation}", file=sys.stderr)
        return EXIT_ERROR
    except BarylabError as exc:
        print(f"error[{type(exc).__name__}]: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
