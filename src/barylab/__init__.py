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
    barycenter,
    barycenter_batch,
    bures_fixed_point,
    empirical_barycenter,
    frechet_mean_descent,
    quantile_mean,
    variance,
)
from .comparison import (
    MonotonicityReport,
    TriangleSides,
    angle_monotonicity_probe,
    c_kappa,
    comparison_angle,
    cone_distance,
    model_diameter,
    quadruple_defect,
    s_kappa,
    tangent_inner,
)
from .distributions import DiscreteDistribution
from .families import (
    EuclideanGaussian,
    Family,
    GaussianEnsemble,
    HyperbolicGaussian,
    SphereCap,
    family_from_config,
)
from .hugging import (
    HuggingReport,
    bures_potential_bounds,
    exp_barycenter_residual,
    extendibility_kmin,
    hugging_value,
    hugging_values,
    support_extendibility,
    variance_equality_residual,
    wasserstein_kmin,
)
from .ratelab import (
    RateCurve,
    RateExperimentConfig,
    TailExperimentResult,
    estimate_sigma2,
    fit_loglog_slope,
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

__all__ = [name for name in dir() if not name.startswith("_")]
