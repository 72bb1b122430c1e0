"""Geodesic metric spaces, Frechet barycenters, and rate experiments."""

import os as _os

# Every BLAS and LAPACK call here works on one problem at a time and is too
# small to split across threads: stacked 3x3 matmuls, (1, n) @ (n, k) weighted
# sums, eigh of small matrices.  A second OpenBLAS thread only adds a worker
# that spin-waits on another core, so default to one; a value already set wins.
# This must run before the first import that loads numpy.
_os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

__version__ = "0.1.0"

from .barycenter import (
    BarycenterResult,
    BatchResult,
    SolverOptions,
    barycenter_batch,
    bures_fixed_point,
    empirical_barycenter,
    frechet_mean_descent,
    variance,
)
from .distributions import DiscreteDistribution
from .families import (
    EuclideanGaussian,
    Family,
    GaussianEnsemble,
    HyperbolicGaussian,
    SphereCap,
)
from .hugging import (
    HuggingReport,
    extendibility_kmin,
    hugging_value,
    hugging_values,
    variance_equality_residual,
    wasserstein_kmin,
)
from .ratelab import (
    RateCurve,
    RateExperimentConfig,
    TailExperimentResult,
    estimate_sigma2,
    population_barycenter,
    run_rate_experiment,
    run_tail_experiment,
    subgaussian_proxy_check,
)
from .spaces import (
    BuresWasserstein,
    Euclidean,
    Extendibility,
    GaussianPoint,
    Hyperboloid,
    QuantileSpace,
    Space,
    Sphere,
    point_from_payload,
)

# no rates or tail run reads comparison geometry, so it loads on first access
_COMPARISON = {
    "MonotonicityReport", "TriangleSides", "angle_monotonicity_probe", "comparison_angle",
    "cone_distance", "model_diameter", "quadruple_defect",
}


def __getattr__(name):
    if name in _COMPARISON:
        from . import comparison

        return getattr(comparison, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = sorted({name for name in dir() if not name.startswith("_")} | _COMPARISON)
