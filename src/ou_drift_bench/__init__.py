"""Monte Carlo benchmarks for drift estimation of an Ornstein-Uhlenbeck process.

Library layout:

* `ou_core`: exact AR(1) simulation of the observed and stationary processes,
  including coupled (X, Z) pairs driven by one innovation stream.
* `estimators`: the moment-based (AMCE) and likelihood-based (AMLE) drift
  estimators, the second-chaos statistic F_n, and the martingale term Lambda_n.
* `oracles`: exact closed-form moments and cumulants of F_n(Z) and Lambda_n,
  plus the first-order values they are usually replaced with.
* `metrics`: exact Wasserstein-1 and Kolmogorov distances to N(0, 1), sample
  cumulants with jackknife standard errors, bootstrap distance reports.
* `harness`: schedules, per-cell Monte Carlo summaries with oracle gating,
  the coupling check, log-log rate fits.
* `cli`: the `ou-bench` command (simulate | estimate | oracle | verify | rates).
"""

from .errors import (
    ConfigError,
    DegenerateDenominator,
    EmptySample,
    ExcessiveDegeneracy,
    InsufficientCells,
    MissingInnovations,
    NonFiniteValue,
    NonPositiveValue,
    OuBenchError,
    TooSmall,
)
from .estimators import (
    EPS_DEN,
    EstimateRecord,
    Estimator,
    IndexConvention,
    amce,
    amle,
    big_f_n,
    f_n,
    lambda_n,
    normalized_error,
)
from .harness import (
    CouplingRow,
    CouplingReport,
    McSummary,
    OracleCheck,
    RateFit,
    RateResponse,
    Schedule,
    ScheduleCell,
    ScheduleResult,
    bound_terms,
    coupling_check,
    fit_rate,
    preset_names,
    preset_schedule,
    run_cell,
    run_schedule,
)
from .metrics import (
    DistanceReport,
    SampleCumulants,
    distance_report,
    kolmogorov_to_std_normal,
    sample_cumulants,
    w1_to_std_normal,
)
from .oracles import (
    MomentQuantity,
    MomentReport,
    exact_k3_lambda,
    exact_k4_lambda,
    exact_var_fn_z,
    exact_var_lambda,
    k3_fn_z,
    k3_lambda_is_zero,
    k4_fn_z_bound,
    k4_lambda,
    moment_report,
)
from .ou_core import (
    OuParams,
    SamplePath,
    Variant,
    path_rng,
    rho,
    simulate_coupled,
    simulate_path,
    transition_coefficients,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # errors
    "OuBenchError",
    "ConfigError",
    "DegenerateDenominator",
    "EmptySample",
    "ExcessiveDegeneracy",
    "InsufficientCells",
    "MissingInnovations",
    "NonFiniteValue",
    "NonPositiveValue",
    "TooSmall",
    # ou_core
    "OuParams",
    "SamplePath",
    "Variant",
    "path_rng",
    "rho",
    "simulate_coupled",
    "simulate_path",
    "transition_coefficients",
    # estimators
    "EPS_DEN",
    "EstimateRecord",
    "Estimator",
    "IndexConvention",
    "amce",
    "amle",
    "big_f_n",
    "f_n",
    "lambda_n",
    "normalized_error",
    # oracles
    "MomentQuantity",
    "MomentReport",
    "exact_k3_lambda",
    "exact_k4_lambda",
    "exact_var_fn_z",
    "exact_var_lambda",
    "k3_fn_z",
    "k3_lambda_is_zero",
    "k4_fn_z_bound",
    "k4_lambda",
    "moment_report",
    # metrics
    "DistanceReport",
    "SampleCumulants",
    "distance_report",
    "kolmogorov_to_std_normal",
    "sample_cumulants",
    "w1_to_std_normal",
    # harness
    "CouplingReport",
    "CouplingRow",
    "McSummary",
    "OracleCheck",
    "RateFit",
    "RateResponse",
    "Schedule",
    "ScheduleCell",
    "ScheduleResult",
    "bound_terms",
    "coupling_check",
    "fit_rate",
    "preset_names",
    "preset_schedule",
    "run_cell",
    "run_schedule",
]
