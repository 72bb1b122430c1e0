#!/usr/bin/env python3
"""Benchmark of the barylab rate lab, end to end and layer by layer.

usage: python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Run from the root of a source tree (it imports `src/barylab`, never an
installed copy).  Every measured repeat is a fresh `barylab` CLI process
with an explicit ``--threads``, fed a config generated from ``--seed``.

``--trace 0`` repeats the CLI run for ``--seconds`` seconds (at least three
times) and reports the medians of the end-to-end metrics; every CLI run comes
with two set-up-only launches, and every process times its own set-up.
``--trace 1`` alternates runs under the tracer with untraced runs (for the
tracing overhead) until at least 100 trials per n are traced and
``--seconds`` have passed, and reports the per-layer metrics.  Every run's
outputs are checked (exit code, manifest, CSV header, rows and bounds) and
its CSV sha256 must match every other run of the same config (seed included)
and source tree, whatever its ``--threads``.
The last line of standard output is the JSON result; a copy with provenance
and every sample goes to perfbench/results/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from tracer import MIN_TRIALS_PER_N, PER_LAYER, counts_of, layer_metrics
from workloads import WORKLOADS, Workload, check_outputs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"
RESULTS = HERE / "results"

END_TO_END = [("wall_s", "s"), ("setup_s", "s"), ("cpu_s", "s"), ("peak_rss_mb", "MB")]
MIN_REPEATS = 3
SETUPS_PER_ROUND = 2  # set-up-only launches next to each measured CLI run
BUDGET_S = 170.0  # per workload: every invocation must end within 180 s
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BARYLAB_THREADS")


@dataclass
class Sample:
    """One child process: what the OS and the child reported, and its checks."""

    mode: str
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    exit_code: int
    setup_s: float | None = None
    report: dict = field(default_factory=dict)
    digest: str | None = None
    errors: list = field(default_factory=list)


def launch(workload: Workload, seed: int, mode: str, rep_dir: Path, deadline: float) -> Sample:
    """Run child.py once in ``rep_dir`` and reap it with its own rusage.

    A child still running at ``deadline`` (CLOCK_MONOTONIC) is killed."""
    rep_dir.mkdir(parents=True)
    (rep_dir / "config.json").write_text(json.dumps(workload.config_for(seed)), encoding="utf-8")
    argv = [
        sys.executable, str(HERE / "child.py"), "report.json", mode, "--",
        workload.command, "--config", "config.json", "--out", "out",
        "--threads", str(workload.threads),
    ]
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    with open(rep_dir / "stdout.log", "wb") as out, open(rep_dir / "stderr.log", "wb") as err:
        start = time.monotonic()
        proc = subprocess.Popen(argv, cwd=rep_dir, env=env, stdout=out, stderr=err)
        timer = threading.Timer(max(deadline - start, 1.0), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        end = time.monotonic()
    proc.returncode = os.waitstatus_to_exitcode(status)
    sample = Sample(
        mode=mode,
        wall_s=end - start,
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mb=usage.ru_maxrss / 1024.0,  # ru_maxrss is in KiB on Linux
        exit_code=proc.returncode,
    )
    try:
        sample.report = json.loads((rep_dir / "report.json").read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        sample.errors.append(f"no child report: {exc}")
    if "setup_done" in sample.report:
        sample.setup_s = sample.report["setup_done"] - start
    if proc.returncode != 0:
        tail = (rep_dir / "stderr.log").read_text(encoding="utf-8", errors="replace")[-500:]
        sample.errors.append(f"exit code {proc.returncode}: {tail.strip()}")
    if sample.report and not Path(sample.report["barylab"]).resolve().is_relative_to(SRC):
        sample.errors.append(f"imported barylab from {sample.report['barylab']}")
    if mode != "setup" and not sample.errors:
        sample.digest, errors = check_outputs(workload, seed, rep_dir / "out")
        sample.errors.extend(errors)
    return sample


def repeat(workload, seed, modes, seconds, min_repeats, work, deadline) -> list:
    """Closed loop of rounds of one run per entry of ``modes``; a run starts
    when the previous one has ended.  Returns the samples of each entry.

    Fewer than ``min_repeats`` rounds by the deadline is an error."""
    rounds: list = []
    started = time.monotonic()
    while True:
        rounds.append([
            launch(workload, seed, mode, work / f"{mode}{len(rounds)}-{i}", deadline)
            for i, mode in enumerate(modes)
        ])
        typical = statistics.median(sum(s.wall_s for s in r) for r in rounds)
        now = time.monotonic()
        if now + typical > deadline or (
            len(rounds) >= min_repeats and now - started + typical > seconds
        ):
            break
    if len(rounds) < min_repeats:
        rounds[-1][0].errors.append(
            f"{len(rounds)} rounds by the deadline, at least {min_repeats} needed")
    return [list(samples) for samples in zip(*rounds)]


def source_digest() -> str:
    """sha256 over the package sources: the commit identity without git."""
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def check_digests(samples: list, key: str) -> None:
    """Every CSV of one seed and source tree must be the same bytes."""
    store_path = RESULTS / "digests.json"
    store = json.loads(store_path.read_text(encoding="utf-8")) if store_path.exists() else {}
    first = store.get(key)
    for s in samples:
        if s.digest is None:
            continue
        if first is None:
            first = store[key] = s.digest
            store_path.write_text(json.dumps(store, indent=1, sort_keys=True), encoding="utf-8")
        elif s.digest != first:
            s.errors.append(f"CSV sha256 {s.digest} differs from {first}")


def _command_output(argv) -> str | None:
    try:
        return subprocess.run(argv, capture_output=True, text=True, cwd=ROOT,
                              check=True).stdout.strip() or None
    except (OSError, subprocess.CalledProcessError):
        return None


def provenance(seed: int, src_sha: str) -> dict:
    import importlib.metadata

    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_sha": _command_output(["git", "rev-parse", "HEAD"])
        if (ROOT / ".git").exists() else None,
        "src_sha256": src_sha,
        "seed": seed,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "l2_bytes": _command_output(["getconf", "LEVEL2_CACHE_SIZE"]),
        "l3_bytes": _command_output(["getconf", "LEVEL3_CACHE_SIZE"]),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": importlib.metadata.version("scipy"),
        "blas": blas.get("openblas configuration") or f"{blas.get('name')} {blas.get('version')}",
        "env": {name: os.environ.get(name) for name in BLAS_ENV},
    }


def _quartiles(values: list) -> list:
    return statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3


def warm_up(workload: Workload, seed: int, work: Path, deadline: float) -> Sample:
    """An unmeasured set-up: fills the page cache and __pycache__."""
    return launch(workload, seed, "setup", work / "warmup", deadline)


def measure(workload: Workload, seed: int, seconds: float, work: Path, deadline: float):
    """Trace off: the closed loop of CLI runs."""
    warm = warm_up(workload, seed, work, deadline)
    *setups, runs = repeat(
        workload, seed, ("setup",) * SETUPS_PER_ROUND + ("run",), seconds, MIN_REPEATS,
        work, deadline,
    )
    measured = [s for group in setups for s in group] + runs
    samples = [warm] + measured
    values = {
        "wall_s": [s.wall_s for s in runs],
        # every measured process times its own set-up, set-up-only launches too
        "setup_s": [s.setup_s for s in measured if s.setup_s is not None] or [0.0],
        "cpu_s": [s.cpu_s for s in runs],
        "peak_rss_mb": [s.peak_rss_mb for s in runs],
    }
    metrics = {name: statistics.median(values[name]) for name, _ in END_TO_END}
    for name, unit in END_TO_END:
        q1, _, q3 = _quartiles(values[name])
        print(f"{workload.name} {name} = {metrics[name]:.6g} {unit} "
              f"(median of {len(values[name])}, quartiles {q1:.6g} .. {q3:.6g})")
    return samples, metrics, values


def trace(workload: Workload, seed: int, seconds: float, work: Path, deadline: float):
    """Trace on: traced runs, each followed by an untraced one, until enough
    trials are timed."""
    warm = warm_up(workload, seed, work, deadline)
    min_repeats = math.ceil(MIN_TRIALS_PER_N / workload.trials_per_n)
    traced, untraced = repeat(
        workload, seed, ("trace", "run"), seconds, min_repeats, work, deadline
    )
    samples = [warm] + traced + untraced
    summaries = [s.report["trace"] for s in traced if "trace" in s.report]
    if len(summaries) != len(traced):
        return samples, {}, {}
    reference = counts_of(summaries[0])
    for s, summary in zip(traced[1:], summaries[1:]):
        if counts_of(summary) != reference:
            s.errors.append("per-layer counts differ from the first traced run")
    overhead = (statistics.median(s.wall_s for s in traced)
                - statistics.median(s.wall_s for s in untraced))
    metrics = layer_metrics(summaries, overhead)
    for name, unit in PER_LAYER:
        print(f"{workload.name} {name} = {metrics[name]:.6g} {unit}")
    return samples, metrics, {"trials": [s["trials"] for s in summaries]}


def declared_metrics() -> tuple:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return tuple([(m["name"], m["unit"]) for m in spec[key]] for key in ("end_to_end", "per_layer"))


def run_workload(workload: Workload, seed: int, seconds: float, trace_on: bool) -> dict:
    deadline = time.monotonic() + BUDGET_S
    work = WORK / f"{workload.name}-trace{int(trace_on)}"
    shutil.rmtree(work, ignore_errors=True)
    RESULTS.mkdir(exist_ok=True)
    src_sha = source_digest()
    run = trace if trace_on else measure
    samples, metrics, raw = run(workload, seed, seconds, work, deadline)
    # keyed by what determines the CSV, so --threads 1 and 2 must agree too
    config = json.dumps(workload.config_for(seed), sort_keys=True).encode()
    check_digests(samples, f"{src_sha}:{hashlib.sha256(config).hexdigest()}")
    failed = sum(1 for s in samples if s.errors)
    for s in samples:
        for error in s.errors:
            print(f"{workload.name} error ({s.mode}): {error}", file=sys.stderr)
    digests = sorted({s.digest for s in samples if s.digest})
    print(f"{workload.name} failed_frac = {failed / len(samples):.6g} ratio "
          f"({failed} of {len(samples)} processes)")
    print(f"{workload.name} csv_sha256 = {' '.join(digests) or 'none'}")
    result = {
        "correct": failed == 0 and bool(metrics),
        "attempted": len(samples),
        "failed": failed,
        "metrics": {name: {"value": metrics.get(name, 0.0), "unit": unit}
                    for name, unit in (PER_LAYER if trace_on else END_TO_END)},
    }
    repeats = sum(1 for s in samples if s.mode != "setup")
    setups = len(samples) - repeats
    record = {
        "workload": workload.name,
        "trace": int(trace_on),
        "repeats": repeats,
        "setup_launches": setups,
        "provenance": provenance(seed, src_sha),
        "csv_sha256": digests,
        "result": result,
        "samples": [
            {"mode": s.mode, "wall_s": s.wall_s, "setup_s": s.setup_s, "cpu_s": s.cpu_s,
             "peak_rss_mb": s.peak_rss_mb, "exit_code": s.exit_code, "errors": s.errors}
            for s in samples
        ],
        "raw": raw,
    }
    out = RESULTS / f"{workload.name}-seed{seed}-trace{int(trace_on)}.json"
    out.write_text(json.dumps(record, indent=1), encoding="utf-8")
    p = record["provenance"]
    print(f"{workload.name} provenance: src {src_sha[:12]} git {p['git_sha']} seed {seed} "
          f"repeats {repeats} setup launches {setups} nproc {p['nproc']} "
          f"python {p['python']} numpy {p['numpy']} scipy {p['scipy']} "
          f"blas {p['blas']!r} env {p['env']}")
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (SRC / "barylab" / "cli.py").is_file():
        print(f"error: no barylab sources under {SRC}", file=sys.stderr)
        return 2
    if declared_metrics() != (END_TO_END, PER_LAYER):
        print("error: BENCHMARK.json does not declare the metrics this benchmark reports",
              file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {
        name: run_workload(WORKLOADS[name], args.seed, args.seconds, bool(args.trace))
        for name in names
    }
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
