"""Outside-in tracing of one barylab CLI run, and the per-layer metrics.

`Tracer.install` wraps the functions of each layer at the names their callers
look them up by, so no source file of the package changes.  Every wrapped
call adds its count and time to its metric (time only for the outermost call
of a metric, so a scalar `log` that calls `distance` is timed once) and its
duration to its caller's child time.  Trials are kept as spans in memory:
their phase, n, start, end, the time their child calls (sample, solve,
distance) cover, and their redraws.  Per-point boundaries such as
`GaussianPoint` are kept only as count plus time.  The child process writes
`Tracer.summary()` out when the run ends; `layer_metrics` turns the summaries
of one or more traced runs into the per-layer metrics.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import math
import statistics
import threading
import time
from collections import defaultdict
from pathlib import Path

TRIAL_NS = (16, 64, 256, 1024, 100, 400)  # every n of every workload grid
TRIAL_PERCENTILES = (50, 90)  # 90 is the highest with >= 10 trials beyond it at >= 100 trials
MIN_TRIALS_PER_N = 100

PER_LAYER = [
    ("setup.import_s", "s"),
    ("config.parse_s", "s"),
    ("ratelab.verify_s", "s"),
    ("ratelab.verify_calls", "count"),
    ("ratelab.sigma2_s", "s"),
    ("ratelab.subgaussian_s", "s"),
    ("ratelab.profile_s", "s"),
    ("ratelab.trials_s", "s"),
    *[
        (f"ratelab.trial_ms.n{n}.p{p}", "ms")
        for n in TRIAL_NS
        for p in TRIAL_PERCENTILES
    ],
    ("ratelab.redraws", "count"),
    ("ratelab.trial_parallelism", "ratio"),
    ("ratelab.trial_child_share_p10", "ratio"),
    ("families.sample_s", "s"),
    ("families.sample_batch_s", "s"),
    ("families.points_drawn", "count"),
    ("families.sqdist_anchor_s", "s"),
    ("spaces.pairwise_sqdist_s", "s"),
    ("spaces.pairwise_entries", "count"),
    ("spaces.pairwise_bytes", "bytes_computed"),
    ("spaces.log_batch_calls", "count"),
    ("spaces.log_batch_points", "count"),
    ("spaces.log_batch_s", "s"),
    ("spaces.exp_calls", "count"),
    ("spaces.exp_s", "s"),
    ("spaces.scalar_calls", "count"),
    ("spaces.scalar_s", "s"),
    ("spaces.stack_s", "s"),
    ("spaces.sqdist_batch_s", "s"),
    ("spaces.gaussian_points", "count"),
    ("spaces.gaussian_point_s", "s"),
    ("linalg.spd_sqrt_batch_calls", "count"),
    ("linalg.spd_sqrt_batch_matrices", "count"),
    ("linalg.spd_sqrt_batch_s", "s"),
    ("linalg.spd_check_calls", "count"),
    ("linalg.spd_check_s", "s"),
    ("barycenter.solves", "count"),
    ("barycenter.solve_s", "s"),
    ("barycenter.warm_start_s", "s"),
    ("barycenter.descent_s", "s"),
    ("barycenter.descent_iters", "count"),
    ("barycenter.step_accept_ratio", "ratio"),
    ("barycenter.fixed_point_s", "s"),
    ("barycenter.fixed_point_iters", "count"),
    ("barycenter.nonconverged", "count"),
    ("hugging.value_calls", "count"),
    ("hugging.value_s", "s"),
    ("reporting.csv_s", "s"),
    ("reporting.manifest_s", "s"),
    ("reporting.bytes_written", "bytes"),
    ("trace.overhead_s", "s"),
]

# the scalar tangent-cone and metric calls; nested ones count but are timed once
_SCALAR = ("log", "distance", "tangent_inner")
_SPACE_METHODS = {
    "log_batch": "spaces.log_batch",
    "exp": "spaces.exp",
    "stack": "spaces.stack",
    "sqdist_batch": "spaces.sqdist_batch",
    "pairwise_sqdist": "spaces.pairwise_sqdist",
    **{name: "spaces.scalar" for name in _SCALAR},
}


def _batch_len(batch) -> int:
    if isinstance(batch, tuple):  # Bures-Wasserstein (means, covs)
        batch = batch[0]
    return len(batch)


class _ThreadState:
    """One thread's stack and accumulators, merged when the run ends."""

    def __init__(self):
        self.stack: list = []  # one [child_time] cell per open wrapped call
        self.depth: dict = defaultdict(int)
        self.calls: dict = defaultdict(int)
        self.time: dict = defaultdict(float)
        self.counts: dict = defaultdict(int)
        self.trials: list = []
        self.last_exp = None  # the latest `exp` result inside a descent


class Tracer:
    def __init__(self):
        self._states: list = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._phases = itertools.count()
        self._phase = -1

    def _state(self) -> _ThreadState:
        try:
            return self._local.state
        except AttributeError:
            st = self._local.state = _ThreadState()
            with self._lock:
                self._states.append(st)
            return st

    def _wrap(self, func, metric: str, after=None, before=None):
        state_of = self._state

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            st = state_of()
            if before is not None:
                before()
            cell = [0.0]
            st.stack.append(cell)
            st.depth[metric] += 1
            t0 = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                st.stack.pop()
                st.depth[metric] -= 1
            dt = t1 - t0
            if st.stack:
                st.stack[-1][0] += dt
            st.calls[metric] += 1
            if st.depth[metric] == 0:
                st.time[metric] += dt
            if after is not None:
                after(st, args, result, t0, t1, cell[0])
            return result

        return wrapper

    def _patch(self, owner, attr: str, metric: str, after=None, before=None):
        setattr(owner, attr, self._wrap(getattr(owner, attr), metric, after, before))

    # -- per-call extras ---------------------------------------------------------

    def _next_phase(self):
        self._phase = next(self._phases)

    def _trial(self, st, args, result, t0, t1, child):
        config, _, n_index, _ = args
        _, redraw = result
        st.counts["ratelab.redraws"] += redraw
        st.trials.append((self._phase, config.n_grid[n_index], t0, t1, child))

    @staticmethod
    def _sample_batch(st, args, result, t0, t1, child):
        st.counts["families.points_drawn"] += args[2]
        if st.depth["families.sample"]:
            st.time["families.sample_batch_in_sample"] += t1 - t0

    @staticmethod
    def _log_batch(st, args, result, t0, t1, child):
        st.counts["spaces.log_batch_points"] += _batch_len(args[2])

    @staticmethod
    def _pairwise(st, args, result, t0, t1, child):
        st.counts["spaces.pairwise_entries"] += _batch_len(args[1]) ** 2

    @staticmethod
    def _exp(st, args, result, t0, t1, child):
        if st.depth["barycenter.descent"]:
            st.counts["barycenter.descent_exp_calls"] += 1
            st.last_exp = result

    @staticmethod
    def _sqrt_batch(st, args, result, t0, t1, child):
        st.counts["linalg.spd_sqrt_batch_matrices"] += len(args[0])

    @staticmethod
    def _solve(st, args, result, t0, t1, child):
        st.counts["barycenter.nonconverged"] += not result.converged

    @staticmethod
    def _descent(st, args, result, t0, t1, child):
        st.counts["barycenter.descent_iters"] += result.iters
        # every iteration but the last takes a step; the last takes one only
        # when the run stops at max_iters, and then its point is the last
        # candidate that `exp` returned
        took_last = not result.converged and result.point is st.last_exp
        st.counts["barycenter.accepted_steps"] += result.iters - 1 + took_last
        st.last_exp = None

    @staticmethod
    def _fixed_point(st, args, result, t0, t1, child):
        st.counts["barycenter.fixed_point_iters"] += result.iters

    @staticmethod
    def _csv_bytes(st, args, result, t0, t1, child):
        st.counts["reporting.bytes_written"] += Path(args[0]).stat().st_size

    @staticmethod
    def _manifest_bytes(st, args, result, t0, t1, child):
        st.counts["reporting.bytes_written"] += Path(result).stat().st_size

    # -- installation ------------------------------------------------------------

    def install(self):
        """Wrap every traced function; call after importing `barylab.cli`."""
        # importlib returns the modules themselves: `barylab.barycenter` as an
        # attribute is the function that the package __init__ re-exports
        cli = importlib.import_module("barylab.cli")
        ratelab = importlib.import_module("barylab.ratelab")
        bary = importlib.import_module("barylab.barycenter")
        families = importlib.import_module("barylab.families")
        spaces = importlib.import_module("barylab.spaces")
        gaussian = importlib.import_module("barylab.spaces.gaussian")

        self._patch(cli, "parse_config", "config.parse")
        self._patch(cli, "subgaussian_proxy_check", "ratelab.subgaussian")
        self._patch(cli, "estimate_hugging_profile", "ratelab.profile")
        for name in ("run_rate_experiment", "run_tail_experiment"):
            self._patch(cli, name, "ratelab.experiment", before=self._next_phase)
        for name in ("write_rates_csv", "write_tail_csv"):
            self._patch(cli, name, "reporting.csv", self._csv_bytes)
        self._patch(cli, "write_manifest", "reporting.manifest", self._manifest_bytes)

        # seeding is a child of each trial, so trial spans account for it
        self._patch(ratelab, "_stream", "ratelab.stream")
        self._patch(ratelab, "population_barycenter", "ratelab.verify")
        self._patch(ratelab, "estimate_sigma2", "ratelab.sigma2")
        self._patch(ratelab, "_one_trial", "ratelab.trial", self._trial)
        self._patch(ratelab, "empirical_barycenter", "barycenter.solve", self._solve)
        self._patch(ratelab, "hugging_value", "hugging.value")

        self._patch(bary, "best_support_init", "barycenter.warm_start")
        self._patch(bary, "frechet_mean_descent", "barycenter.descent", self._descent)
        self._patch(bary, "bures_fixed_point", "barycenter.fixed_point", self._fixed_point)
        for module in (bary, gaussian):
            self._patch(module, "spd_sqrt_batch", "linalg.spd_sqrt_batch", self._sqrt_batch)
        self._patch(gaussian, "spd_check", "linalg.spd_check")
        self._patch(gaussian.GaussianPoint, "__post_init__", "spaces.gaussian_point")

        self._patch(families.Family, "sample", "families.sample")
        for cls in families.FAMILY_KINDS.values():
            self._patch(cls, "sample_batch", "families.sample_batch", self._sample_batch)
            self._patch(cls, "sqdist_anchor", "families.sqdist_anchor")

        extras = {"log_batch": self._log_batch, "pairwise_sqdist": self._pairwise,
                  "exp": self._exp}
        classes = [spaces.Space] + [
            getattr(spaces, name)
            for name in ("Euclidean", "Sphere", "Hyperboloid", "QuantileSpace", "BuresWasserstein")
        ]
        for cls in classes:
            for attr, metric in _SPACE_METHODS.items():
                if attr in vars(cls):
                    self._patch(cls, attr, metric, extras.get(attr))

    def summary(self) -> dict:
        """JSON-ready totals of every thread."""
        calls, times, counts, trials = defaultdict(int), defaultdict(float), defaultdict(int), []
        with self._lock:
            states = list(self._states)
        for st in states:
            for out, part in ((calls, st.calls), (times, st.time), (counts, st.counts)):
                for key, value in part.items():
                    out[key] += value
            trials.extend(st.trials)
        return {"calls": calls, "time": times, "counts": counts, "trials": trials}


def _percentile(values: list, p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(math.ceil(p / 100.0 * len(ordered)) - 1, 0)]


def _run_metrics(summary: dict) -> dict:
    """Metrics of one traced run that are not pooled across runs."""
    calls, t, counts = summary["calls"], summary["time"], summary["counts"]
    trials = summary["trials"]
    groups = defaultdict(list)
    for phase, n, t0, t1, _ in trials:
        groups[(phase, n)].append((t0, t1))
    trial_wall = sum(
        max(e for _, e in spans) - min(s for s, _ in spans) for spans in groups.values()
    )
    trial_busy = sum(t1 - t0 for _, _, t0, t1, _ in trials)
    exp_in_descent = counts.get("barycenter.descent_exp_calls", 0)
    entries = counts.get("spaces.pairwise_entries", 0)
    return {
        "setup.import_s": summary["import_s"],
        "config.parse_s": t.get("config.parse", 0.0),
        "ratelab.verify_s": t.get("ratelab.verify", 0.0),
        "ratelab.verify_calls": calls.get("ratelab.verify", 0),
        "ratelab.sigma2_s": t.get("ratelab.sigma2", 0.0),
        "ratelab.subgaussian_s": t.get("ratelab.subgaussian", 0.0),
        "ratelab.profile_s": t.get("ratelab.profile", 0.0),
        "ratelab.trials_s": trial_wall,
        "ratelab.redraws": counts.get("ratelab.redraws", 0),
        "ratelab.trial_parallelism": trial_busy / trial_wall if trial_wall else 0.0,
        "families.sample_s": t.get("families.sample", 0.0),
        "families.sample_batch_s": t.get("families.sample_batch_in_sample", 0.0),
        "families.points_drawn": counts.get("families.points_drawn", 0),
        "families.sqdist_anchor_s": t.get("families.sqdist_anchor", 0.0),
        "spaces.pairwise_sqdist_s": t.get("spaces.pairwise_sqdist", 0.0),
        "spaces.pairwise_entries": entries,
        "spaces.pairwise_bytes": 8 * entries,
        "spaces.log_batch_calls": calls.get("spaces.log_batch", 0),
        "spaces.log_batch_points": counts.get("spaces.log_batch_points", 0),
        "spaces.log_batch_s": t.get("spaces.log_batch", 0.0),
        "spaces.exp_calls": calls.get("spaces.exp", 0),
        "spaces.exp_s": t.get("spaces.exp", 0.0),
        "spaces.scalar_calls": calls.get("spaces.scalar", 0),
        "spaces.scalar_s": t.get("spaces.scalar", 0.0),
        "spaces.stack_s": t.get("spaces.stack", 0.0),
        "spaces.sqdist_batch_s": t.get("spaces.sqdist_batch", 0.0),
        "spaces.gaussian_points": calls.get("spaces.gaussian_point", 0),
        "spaces.gaussian_point_s": t.get("spaces.gaussian_point", 0.0),
        "linalg.spd_sqrt_batch_calls": calls.get("linalg.spd_sqrt_batch", 0),
        "linalg.spd_sqrt_batch_matrices": counts.get("linalg.spd_sqrt_batch_matrices", 0),
        "linalg.spd_sqrt_batch_s": t.get("linalg.spd_sqrt_batch", 0.0),
        "linalg.spd_check_calls": calls.get("linalg.spd_check", 0),
        "linalg.spd_check_s": t.get("linalg.spd_check", 0.0),
        "barycenter.solves": calls.get("barycenter.solve", 0),
        "barycenter.solve_s": t.get("barycenter.solve", 0.0),
        "barycenter.warm_start_s": t.get("barycenter.warm_start", 0.0),
        "barycenter.descent_s": t.get("barycenter.descent", 0.0),
        "barycenter.descent_iters": counts.get("barycenter.descent_iters", 0),
        "barycenter.step_accept_ratio": (
            counts.get("barycenter.accepted_steps", 0) / exp_in_descent if exp_in_descent else 0.0
        ),
        "barycenter.fixed_point_s": t.get("barycenter.fixed_point", 0.0),
        "barycenter.fixed_point_iters": counts.get("barycenter.fixed_point_iters", 0),
        "barycenter.nonconverged": counts.get("barycenter.nonconverged", 0),
        "hugging.value_calls": calls.get("hugging.value", 0),
        "hugging.value_s": t.get("hugging.value", 0.0),
        "reporting.csv_s": t.get("reporting.csv", 0.0),
        "reporting.manifest_s": t.get("reporting.manifest", 0.0),
        "reporting.bytes_written": counts.get("reporting.bytes_written", 0),
    }


def counts_of(summary: dict) -> dict:
    """The parts of a summary that must repeat exactly under a fixed seed."""
    counts = {k: v for k, v in summary["counts"].items() if k != "reporting.bytes_written"}
    return {"calls": dict(summary["calls"]), "counts": counts, "trials": len(summary["trials"])}


def layer_metrics(summaries: list, overhead_s: float) -> dict:
    """Per-layer metrics of several traced runs of one config.

    Counts come from the first run (the caller checks that they repeat);
    times are medians over runs; trial percentiles pool every run's trials.
    """
    per_run = [_run_metrics(s) for s in summaries]
    out = {
        name: statistics.median(run[name] for run in per_run)
        if isinstance(per_run[0][name], float) else per_run[0][name]
        for name in per_run[0]
    }
    by_n = defaultdict(list)
    shares = []  # per trial: the share of its time that its child spans cover
    for summary in summaries:
        for _, n, t0, t1, child in summary["trials"]:
            by_n[n].append(1e3 * (t1 - t0))
            shares.append(child / (t1 - t0))
    for n in TRIAL_NS:
        for p in TRIAL_PERCENTILES:
            out[f"ratelab.trial_ms.n{n}.p{p}"] = _percentile(by_n[n], p) if by_n[n] else 0.0
    # the low tail, with >= 10 trials below it; single trials fall further
    # when a collection or preemption lands in the trial's own code
    out["ratelab.trial_child_share_p10"] = _percentile(shares, 10) if shares else 0.0
    out["trace.overhead_s"] = overhead_s
    return out
