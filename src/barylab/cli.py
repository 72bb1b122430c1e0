"""Command-line entry points for experiments and plots.

Every run writes its outputs plus a manifest.json echoing the configuration,
library version, platform, seed and output paths.  Exit codes: 0 success,
2 a theorem hypothesis failed its numerical gate, 3 a verified bound was
violated by the data, 1 any other error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .barycenter import barycenter
from .config import EXPERIMENTS, ParsedConfig, parse_config
from .distributions import DiscreteDistribution
from .errors import BarylabError, HypothesisViolated, OutputError, ValidationError
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
    write_json,
    write_manifest,
    write_rates_csv,
    write_tail_csv,
)

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_HYPOTHESIS = 2
EXIT_BOUND = 3

# numeric tolerance for curvature probe violations
PROBE_TOL = 1e-9


def _add_subcommand(
    sub, command: str, help: str, config_required: bool = True, strict_bounds: bool = False
) -> argparse.ArgumentParser:
    """One subcommand's parser: --config, --out and --threads on every one,
    --seed where its config has a master_seed, and --strict-bounds only where
    the subcommand reads it."""
    parser = sub.add_parser(command, help=help)
    parser.add_argument(
        "--config", required=config_required, help="path to the JSON experiment config"
    )
    parser.add_argument(
        "--out", default="barylab-out", help="output directory (created if missing)"
    )
    if "master_seed" in EXPERIMENTS[command]:
        parser.add_argument(
            "--seed", type=int, default=None, help="override the config master seed"
        )
    parser.add_argument(
        "--threads",
        type=int,
        default=None,
        help="accepted and ignored, like BARYLAB_THREADS: trials run in one thread",
    )
    if strict_bounds:
        parser.add_argument(
            "--strict-bounds",
            action="store_true",
            help="exit 3 on any bound violation, without statistical slack",
        )
    return parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="barylab",
        description="Barycenter geometry diagnostics and Monte Carlo rate experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    _add_subcommand(sub, "rates", "rate-vs-bound Monte Carlo experiment (CSV)",
                    strict_bounds=True)
    _add_subcommand(sub, "tail", "high-probability tail bound experiment (CSV)",
                    strict_bounds=True)
    _add_subcommand(sub, "hugging", "hugging diagnostic sweep (CSV)")
    _add_subcommand(sub, "curvature", "comparison-geometry probe sweep (CSV)")
    _add_subcommand(sub, "barycenter", "single barycenter solve (JSON)")
    plot = _add_subcommand(sub, "plot", "render a rates CSV as an SVG log-log chart",
                           config_required=False)
    plot.add_argument("--csv", default=None, help="rates CSV to plot (or set it in the config)")
    return parser


def _out_dir(args) -> Path:
    out = Path(args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise OutputError(f"cannot create output directory {out}: {exc}") from exc
    return out


def _cmd_rates(args, payload: dict, out: Path):
    curve = run_rate_experiment(payload["config"])
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
    return [csv_path], extra


def _cmd_tail(args, payload: dict, out: Path):
    config = payload["config"]
    subg = subgaussian_proxy_check(config, payload["varsigma2"])
    # a failed gate raises in run_tail_experiment, before any profile is drawn
    points, targets = payload["profile_points"], payload["profile_targets"]
    profile = estimate_hugging_profile(config, points, targets) if subg.passed else None
    results = run_tail_experiment(config, payload["delta"], payload["varsigma2"], profile, subg)
    csv_path = out / "tail.csv"
    write_tail_csv(csv_path, config.family.space.tag, results, config.master_seed)
    extra = {
        "subgaussian_estimate": subg.estimate,
        "pk_estimate": profile.pk,
        "pk_stderr": profile.pk_stderr,
        "kmin_estimate": profile.k_min,
        "discarded_trials": results[0].discarded,
        "bound_violations": tail_violations(results, strict=args.strict_bounds),
    }
    return [csv_path], extra


def _cmd_hugging(args, payload: dict, out: Path):
    from .sweeps import hugging_sweep

    reports, meta = hugging_sweep(**payload)
    csv_path = out / "hugging.csv"
    write_hugging_csv(csv_path, payload["family"].space.tag, reports, payload["master_seed"])
    return [csv_path], meta


def _cmd_curvature(args, payload: dict, out: Path):
    from .sweeps import curvature_sweep

    rows = curvature_sweep(**payload)
    csv_path = out / "curvature.csv"
    write_curvature_csv(csv_path, rows, payload["master_seed"])
    # a monotonicity violation may reach PROBE_TOL; quadruple_defect and cone_gap
    # must be nonnegative up to -PROBE_TOL
    violations = [
        f"{row['probe']}[{row['index']}] = {row['value']:.3e}" for row in rows
        if (row["value"] > PROBE_TOL if row["probe"] == "monotonicity_violation"
            else row["value"] < -PROBE_TOL)
    ]
    return [csv_path], {"bound_violations": violations}


def _cmd_barycenter(args, payload: dict, out: Path):
    space = payload["space"]
    dist = DiscreteDistribution(space, payload["points"], payload["weights"])
    result = barycenter(dist, payload["solver"])
    json_path = out / "barycenter.json"
    doc = {
        "space": space.tag,
        "point": space.point_payload(result.point),
        "objective": float(result.objective),
        "grad_norm": float(result.grad_norm),
        "iters": result.iters,
        "converged": bool(result.converged),
    }
    write_json(json_path, doc)
    print(f"grad_norm={fmt(result.grad_norm)} converged={result.converged}")
    return [json_path], None


def _cmd_plot(args, payload: dict, out: Path):
    from .svgplot import render_loglog_svg

    csv_path = args.csv or payload.get("csv")
    title = payload.get("title", "")
    if not csv_path:
        raise ValidationError(["plot needs --csv or a config with a 'csv' key"])
    rows = read_rates_csv(csv_path)
    ns = [row["n"] for row in rows]
    series = [
        ("mean_sq_dist", ns, [row["mean_sq_dist"] for row in rows]),
        ("bound", ns, [row["bound"] for row in rows]),
    ]
    svg = render_loglog_svg(series, title=title or f"rates: {rows[0]['space']}")
    svg_path = out / (Path(csv_path).stem + ".svg")
    svg_path.write_text(svg, encoding="utf-8")
    return [svg_path], None


# a handler runs its subcommand into ``out`` and returns the files it wrote and
# the manifest's results (None for none); main ends every run
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
        started = utc_now()
        # the config is validated and the output directory made before any
        # work, so that neither fails at the end of a long run; only a plot
        # runs without a config, and its manifest echoes the --csv; only the
        # subcommands that draw have a --seed
        parsed = (parse_config(args.config, args.command, getattr(args, "seed", None))
                  if args.config else ParsedConfig({}, {"csv": args.csv}))
        out = _out_dir(args)
        outputs, results = _COMMANDS[args.command](args, parsed.payload, out)
        write_manifest(out, parsed.config, parsed.master_seed, outputs, started, results)
        violations = (results or {}).get("bound_violations", [])
        for line in violations:
            print(f"bound violation: {line}", file=sys.stderr)
        return EXIT_BOUND if violations else EXIT_OK
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
