"""Drift estimators for the discretely observed OU process.

Two estimators of theta from a path X_{t_0}..X_{t_n}:

* moment-based (AMCE): theta = 1 / (2 f_n) where f_n is the empirical second
  moment of the observations;
* least-squares / discretized likelihood (AMLE):
  theta = -sum X_{t_{i-1}} (X_{t_i} - X_{t_{i-1}}) / (delta sum X_{t_{i-1}}^2).

The AMLE error decomposes pathwise as
    -theta_hat = (e^{-theta delta} - 1)/delta + Lambda_n / S_n
with S_n = delta sum X_{t_{i-1}}^2 and Lambda_n the martingale part recovered
from the stored innovations; the identity is algebraic and holds to float
round-off, which the harness checks on every run.

Each statistic comes twice, coded apart: per path (`f_n`, `big_f_n`,
`lambda_n`, `amce`, `amle`), the references the tests check against, and on
a cell's per-path sums (`ou_core.BlockSums`) for every path at once (the
`_of_sums` functions and `decomposition_residual`), which the harness and
`ou-bench estimate` use.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateDenominator, MissingInnovations
from .ou_core import BlockSums, OuParams, SamplePath, transition_coefficients

__all__ = [
    "EPS_DEN",
    "Estimator",
    "IndexConvention",
    "EstimateRecord",
    "f_n",
    "big_f_n",
    "amce",
    "amle",
    "lambda_n",
    "normalized_error",
    "f_n_of_sums",
    "big_f_n_of_sums",
    "lambda_n_of_sums",
    "estimates_of_sums",
    "decomposition_residual",
]

# Degeneracy guard on estimator denominators.
EPS_DEN = 1e-30


class Estimator(enum.Enum):
    AMCE = "amce"
    AMLE = "amle"


class IndexConvention(enum.Enum):
    """Which n observations enter the empirical second moment.

    BODY averages X_{t_0}..X_{t_{n-1}}; ABSTRACT averages X_{t_1}..X_{t_n}.
    For a stationary path both have the same law; for the from-zero path they
    differ by (X_{t_n}^2 - X_{t_0}^2) / n.
    """

    BODY = "body"
    ABSTRACT = "abstract"


@dataclass(frozen=True)
class EstimateRecord:
    """One estimator evaluation on one path."""

    estimator: Estimator
    estimate: float
    denominator: float
    normalized_error: float | None = None


def f_n(path: SamplePath, convention: IndexConvention = IndexConvention.BODY) -> float:
    """Empirical second moment (1/n) sum X_{t_i}^2 over the chosen index window."""
    n = path.params.n
    if convention is IndexConvention.BODY:
        window = path.values[:n]
    else:
        window = path.values[1:]
    return float(np.dot(window, window)) / n


def big_f_n(
    path: SamplePath,
    theta_true: float,
    convention: IndexConvention = IndexConvention.BODY,
) -> float:
    """Scaled fluctuation sqrt(T) (f_n - 1/(2 theta_true)) of the second moment.

    Centered at the stationary second moment for the given theta_true, so on a
    stationary path simulated at that theta this is the exact second-chaos
    statistic whose moments the oracle module computes.
    """
    if theta_true <= 0.0:
        raise ValueError(f"theta_true must be positive, got {theta_true}")
    center = 1.0 / (2.0 * theta_true)
    return math.sqrt(path.params.horizon) * (f_n(path, convention) - center)


def normalized_error(
    estimate: float | np.ndarray, params: OuParams, theta_true: float
) -> float | np.ndarray:
    """CLT scaling sqrt(T / (2 theta_true)) * (estimate - theta_true), of one
    estimate or elementwise of an array of them."""
    return math.sqrt(params.horizon / (2.0 * theta_true)) * (estimate - theta_true)


def amce(
    path: SamplePath,
    theta_true: float | None = None,
    convention: IndexConvention = IndexConvention.BODY,
) -> EstimateRecord:
    """Moment-based estimate theta = 1 / (2 f_n).

    Raises DegenerateDenominator when f_n is below the guard, which for the
    from-zero path happens structurally at n = 1 under the body convention
    (the only observation in the window is X_{t_0} = 0).
    """
    den = f_n(path, convention)
    if den <= EPS_DEN:
        raise DegenerateDenominator(
            f"f_n = {den!r} below guard {EPS_DEN} (n={path.params.n}, "
            f"convention={convention.value})"
        )
    est = 1.0 / (2.0 * den)
    err = None if theta_true is None else normalized_error(est, path.params, theta_true)
    return EstimateRecord(
        estimator=Estimator.AMCE,
        estimate=est,
        denominator=den,
        normalized_error=err,
    )


def amle(path: SamplePath, theta_true: float | None = None) -> EstimateRecord:
    """Least-squares estimate from lagged increments.

    theta_hat = -sum X_{t_{i-1}} (X_{t_i} - X_{t_{i-1}}) / S_n with
    S_n = delta sum X_{t_{i-1}}^2.  The record's denominator is S_n / T, which
    equals the body-convention f_n and so shares the AMCE degeneracy scale.
    """
    params = path.params
    x_prev = path.values[:-1]
    increments = path.values[1:] - x_prev
    s_n = params.delta * float(np.dot(x_prev, x_prev))
    den = s_n / params.horizon
    if den <= EPS_DEN:
        raise DegenerateDenominator(
            f"S_n / T = {den!r} below guard {EPS_DEN} (n={params.n})"
        )
    est = -float(np.dot(x_prev, increments)) / s_n
    err = None if theta_true is None else normalized_error(est, params, theta_true)
    return EstimateRecord(
        estimator=Estimator.AMLE,
        estimate=est,
        denominator=den,
        normalized_error=err,
    )


def lambda_n(path: SamplePath) -> float:
    """Martingale part of the AMLE error, from the stored innovations.

    Lambda_n = sum_i e^{-theta t_i} X_{t_{i-1}} (zeta_{t_i} - zeta_{t_{i-1}})
    where zeta_t is the exponential martingale driving the process.  Because
    X_t = e^{-theta t} zeta_t, each zeta increment equals e^{theta t_i} sqrt(s2)
    xi_i, so the exponentials cancel and the sum reduces to
    sqrt(s2) * sum_i X_{t_{i-1}} xi_i.  The cancellation is exact and avoids
    overflow of e^{theta t} at large horizons.
    """
    if path.innovations is None:
        raise MissingInnovations(
            "lambda_n needs the path's innovation increments; simulate the path "
            "rather than constructing it from values only"
        )
    _, s2 = transition_coefficients(path.params.theta, path.params.delta)
    x_prev = path.values[:-1]
    return math.sqrt(s2) * float(np.dot(x_prev, path.innovations))


def f_n_of_sums(sums: BlockSums, params: OuParams, convention: IndexConvention):
    """f_n of X and of Z on every path, over the convention's window of the
    sums: head t_0..t_{n-1} for BODY, tail t_1..t_n for ABSTRACT."""
    if convention is IndexConvention.BODY:
        return sums.x_head_sq / params.n, sums.z_head_sq / params.n
    return sums.x_tail_sq / params.n, sums.z_tail_sq / params.n


def big_f_n_of_sums(sums: BlockSums, params: OuParams, convention: IndexConvention):
    """big_f_n of Z on every path, centered at params.theta."""
    fz = f_n_of_sums(sums, params, convention)[1]
    return math.sqrt(params.horizon) * (fz - 1.0 / (2.0 * params.theta))


def lambda_n_of_sums(sums: BlockSums, params: OuParams) -> np.ndarray:
    """lambda_n of X on every path."""
    _, s2 = transition_coefficients(params.theta, params.delta)
    return math.sqrt(s2) * sums.x_xi


def _amle_of_sums(sums: BlockSums, params: OuParams):
    """AMLE estimates, S_n / T and S_n on the paths where S_n / T is above
    EPS_DEN, and the mask of those paths."""
    s_n = params.delta * sums.x_head_sq
    den = s_n / params.horizon
    good = den > EPS_DEN
    return sums.amle_num[good] / s_n[good], den[good], s_n[good], good


def estimates_of_sums(
    sums: BlockSums, params: OuParams, estimator: Estimator, convention: IndexConvention
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Estimates and their `amce` / `amle` denominators (f_n, or S_n / T) on
    the paths whose denominator is above EPS_DEN, and the mask of those
    paths."""
    if estimator is Estimator.AMLE:
        est, den, _, good = _amle_of_sums(sums, params)
        return est, den, good
    if estimator is not Estimator.AMCE:
        raise TypeError(f"estimator must be an Estimator, got {estimator!r}")
    den = f_n_of_sums(sums, params, convention)[0]
    good = den > EPS_DEN
    return 1.0 / (2.0 * den[good]), den[good], good


def decomposition_residual(sums: BlockSums, params: OuParams) -> float:
    """Largest relative residual |-theta_hat - ((a - 1)/delta + Lambda_n / S_n)|
    / (1 + |theta_hat|) of the AMLE decomposition over the paths where the
    AMLE is defined (0 if there are none)."""
    a, _ = transition_coefficients(params.theta, params.delta)
    est, _, s_n, good = _amle_of_sums(sums, params)
    lam = lambda_n_of_sums(sums, params)[good]
    rel = np.abs(-est - ((a - 1.0) / params.delta + lam / s_n)) / (1.0 + np.abs(est))
    return float(np.max(rel)) if rel.size else 0.0
