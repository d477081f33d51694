"""Exact moment and cumulant oracles for the simulated statistics.

Everything here is closed-form and deterministic; the Monte Carlo harness
compares its empirical moments against these values.

Two families of statistics are covered, both quadratic forms of a Gaussian
vector, so kappa_p = 2^{p-1} (p-1)! tr(A^p) for a symmetric weight matrix A.
Each oracle is one scale factor times a scale-free sum (x = 2 theta delta):

* ``F_n(Z) = sqrt(T) (f_n(Z) - 1/(2 theta))`` for the stationary path Z.  Its
  covariance matrix is c K, c = 1/(2 theta), K_ij = e^{-theta delta |i-j|},
  so kappa_p = 2^{p-1} (p-1)! g^p tr(K^p) / n^{p/2} with g = sqrt(delta) c
  and tr(K^p) in [n, n^p].  K is a Kac-Murdock-Szego Toeplitz matrix, so each
  trace reduces to an O(n) sum of nonnegative terms over lags
  (`exact_var_fn_z`, `k3_fn_z`, `k4_fn_z_bound`); no n x n matrix is formed.
* ``Lambda_n / sqrt(T)``, the scaled martingale part of the AMLE error.  The
  full Wick expansion gives its exact variance, third and fourth cumulants
  (`exact_var_lambda`, `exact_k3_lambda`, `exact_k4_lambda`) in O(n) as sums
  over the grid Var X_{t_k} / T = (1 - e^{-x k}) / (x n) in [0, 1], times the
  one-step variance s2 (the variance is s2 times the grid's sum).

The scale factors are multiplied in last, so an oracle raises NonFiniteValue
only where the cumulant itself overflows a double.

Two additional operations, `k3_lambda_is_zero` and `k4_lambda`, return widely
quoted first-order values for the Lambda cumulants that keep only the
conditionally independent terms of the expansion.  They are part of the
contracted surface and are reported by the harness next to the exact values;
at desk scale the dropped cross terms dominate, so Monte Carlo agrees with the
exact oracles and not with these.  Tests document the gap quantitatively.
"""

from __future__ import annotations

import enum
import functools
import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import NonFiniteValue, at_cell
from .ou_core import OuParams, transition_coefficients

__all__ = [
    "MomentQuantity",
    "MomentReport",
    "exact_var_fn_z",
    "k3_fn_z",
    "k4_fn_z_bound",
    "exact_var_lambda",
    "exact_k3_lambda",
    "exact_k4_lambda",
    "k3_lambda_is_zero",
    "k4_lambda",
    "moment_report",
]


class MomentQuantity(enum.Enum):
    VAR_FN_Z = "var_fn_z"
    K3_FN_Z = "k3_fn_z"
    K4_FN_Z_ABS_BOUND = "k4_fn_z_abs_bound"
    VAR_LAMBDA = "var_lambda"
    K4_LAMBDA = "k4_lambda"


@dataclass(frozen=True)
class MomentReport:
    """One oracle quantity with its exact value and reference scales.

    ``asymptotic_value`` is the large-sample limit; ``bound_value`` is the
    associated control quantity evaluated with the unknown constant set to 1
    (rates and ratios are what experiments compare, never absolute constants).
    """

    quantity: MomentQuantity
    exact_value: float
    asymptotic_value: float
    bound_value: float


def _finite(name: str, params: OuParams, compute, parts=("",)) -> list[float]:
    """compute()'s values as floats, or NonFiniteValue naming the quantity and the cell.

    numpy's overflow and division warnings are silenced here: such a value
    shows up as inf or nan, a Python float overflow or division by zero as an
    exception, and both end in the same error.
    """
    where = at_cell(params)
    try:
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            values = [float(v) for v in compute()]
    except (OverflowError, ZeroDivisionError) as exc:
        raise NonFiniteValue(f"{name} is not finite {where}: {exc.args[-1]}") from exc
    for part, value in zip(parts, values):
        if not math.isfinite(value):
            raise NonFiniteValue(f"{name} {part}".rstrip() + f" is {value!r} {where}")
    return values


def _finite_oracle(oracle):
    """Make an oracle return a finite value or raise NonFiniteValue."""

    @functools.wraps(oracle)
    def checked(params: OuParams) -> float:
        return _finite(oracle.__name__, params, lambda: [oracle(params)])[0]

    return checked


def _rate(params: OuParams) -> float:
    """x = 2 theta delta, capped at the largest double so that x * 0 is 0."""
    return min(2.0 * params.theta * params.delta, sys.float_info.max)


def _fn_z_cumulant(params: OuParams, order: int, trace: float) -> float:
    """2^{p-1} (p-1)! g^p tr(K^p) / n^{p/2}.  The scale-free part is multiplied
    by g once per order, so every partial product lies between it and the
    result: none overflows or underflows unless the cumulant does."""
    value = 2 ** (order - 1) * math.factorial(order - 1) * trace / params.n ** (order / 2)
    g = 0.5 * math.sqrt(params.delta) / params.theta
    for _ in range(order):
        value *= g
    return value


@_finite_oracle
def exact_var_fn_z(params: OuParams) -> float:
    """Exact variance of F_n(Z), 2 g^2 tr(K^2) / n.

    K_ij^2 = e^{-x |i-j|}, and n - s index pairs sit at each lag s >= 1 in
    either order, so tr(K^2) = n + sum_{s=1}^{n-1} 2 (n-s) e^{-x s}: no
    cancellation in any regime, unlike the closed-form geometric sums.
    """
    n, x = params.n, _rate(params)
    s = np.arange(1, n, dtype=np.float64)
    return _fn_z_cumulant(params, 2, n + float(np.sum(2.0 * (n - s) * np.exp(-x * s))))


@_finite_oracle
def k3_fn_z(params: OuParams) -> float:
    """Exact third cumulant of F_n(Z), 8 g^3 tr(K^3) / n^{3/2}.

    Around any index triple the cyclic gap sum |i-j| + |j-k| + |k-i| is
    twice the triple's span, and 6 s (n-s) ordered triples have span s >= 1,
    so tr(K^3) = n + sum_{s=1}^{n-1} 6 s (n-s) e^{-x s}.
    """
    n, x = params.n, _rate(params)
    s = np.arange(1, n, dtype=np.float64)
    return _fn_z_cumulant(params, 3, n + float(np.sum(6.0 * s * (n - s) * np.exp(-x * s))))


@_finite_oracle
def k4_fn_z_bound(params: OuParams) -> float:
    """Contraction-norm bound on |kappa4(F_n(Z))|, which it attains exactly.

    48 g^4 tr(K^4) / n^2 with tr(K^4) = ||K^2||_F^2.  For a symmetric
    second-chaos kernel the usual 16(||.||^2 + 2||~||^2) expression collapses
    to exactly this value, so the bound holds with equality and Monte Carlo
    fourth cumulants should match it, not merely stay below it.

    Evaluated in O(n) from the entries of K^2 on each diagonal d, with
    m = n - d, h = e^{-x}/(1 - e^{-x}) and p_k = 1 - e^{-x k}:

        (K^2)_{i,i+d} = e^{-x d/2} [(d+1) + h (p_i + p_{m-1-i})].

    Summing the square over i gives, with weight 1 at d = 0 and 2 above it,

        e^{-x d} [m (d+1)^2 + 4 (d+1) h P1(m) + h^2 (2 P2(m) + 2 C(m))],

    where P1, P2 are prefix sums of p and p^2 and C(m) = sum_i p_i p_{m-1-i}
    = (1 - e^{-x})^2 D(m-3), D the double prefix sum of (k+1) e^{-x k}
    (C = 0 for m < 3).  Every term is nonnegative; closed-form geometric sums
    instead lose about 8 digits at theta*delta = 1e-6.  At small x, h is
    about 1/x and the p-terms about x, so h = h' 2^E is split: the p-terms
    and 1 - e^{-x} carry the power of two and only h' is squared.  Below the
    smallest normal x, K is all ones and tr(K^4) = n^4.
    """
    n, x = params.n, _rate(params)
    if x < sys.float_info.min:
        return _fn_z_cumulant(params, 4, float(n) ** 4)
    k = np.arange(n, dtype=np.float64)
    decay = np.exp(-x * k)
    u = -math.expm1(-x)
    h, exponent = math.frexp(math.exp(-x) / u)
    p = np.ldexp(-np.expm1(-x * k), exponent)
    u = math.ldexp(u, exponent)
    # prefix sums indexed by m = 0..n
    p1 = np.concatenate(([0.0], np.cumsum(p)))
    p2 = np.concatenate(([0.0], np.cumsum(p * p)))
    cross = np.zeros(n + 1)
    cross[3:] = u * u * np.cumsum(np.cumsum((k + 1.0) * decay))[: max(n - 2, 0)]
    m = n - np.arange(n)  # diagonal d = k has m = n - d entries
    lead = k + 1.0
    diagonals = decay * (
        m * lead**2 + 4.0 * lead * h * p1[m] + h * h * (2.0 * p2[m] + 2.0 * cross[m])
    )
    trace4 = float(diagonals[0]) + 2.0 * float(np.sum(diagonals[1:]))
    return _fn_z_cumulant(params, 4, trace4)


def _lambda_grid(params: OuParams) -> tuple[np.ndarray, float, float, float]:
    """(v, scale, a, s2): v_k scale = Var X_{t_k} / T = (1 - q^k) / (x n) for
    k = 0..n-1, and the AR(1) coefficients from `transition_coefficients`.

    v_k = 2^E (1 - q^k), with the power of two putting the largest in
    [1/2, 1): sums over v are scale-free, and terms equal to 2^E add without
    rounding.  Below the smallest normal x, v_k scale is its limit k / n.
    """
    n, x = params.n, _rate(params)
    coefficients = transition_coefficients(params.theta, params.delta)
    k = np.arange(n, dtype=np.float64)
    if x < sys.float_info.min:
        return k, 1.0 / n, *coefficients
    u = -np.expm1(-x * k)
    exponent = -math.frexp(u[-1])[1]
    # 1 / (x n) with x uncapped, dividing by the larger of theta and delta first
    scale = 0.5 / max(params.theta, params.delta) / min(params.theta, params.delta) / n
    return np.ldexp(u, exponent, out=u), math.ldexp(scale, -exponent), *coefficients


@_finite_oracle
def exact_var_lambda(params: OuParams) -> float:
    """Exact variance of Lambda_n / sqrt(T), s2 sum_{i=1}^n VarX_{t_{i-1}} / T:
    no summand is negative, so nothing cancels.  Zero at n = 1 (X_{t_0} = 0)."""
    v, scale, _, s2 = _lambda_grid(params)
    return float(np.sum(v)) * (s2 * scale)


@_finite_oracle
def exact_k3_lambda(params: OuParams) -> float:
    """Exact third cumulant of Lambda_n / sqrt(T).

    Lambda_n is quadratic in the innovations, so its odd cumulants need not
    vanish: the surviving Wick terms give

        kappa3(Lambda_n) = 6 s2^2 sum_{i=2}^{n-1} VarX_{t_{i-1}}
                           * a (1 - q^{n-i}) / (1 - q),

    so, as s2 (1 - q^k) / (1 - q) = VarX_{t_k} = v_k scale T, scaled by
    T^{-3/2} it is 6 a s2 sqrt(T) scale^2 sum_{i=2}^{n-1} v_{i-1} v_{n-i}.
    Positive for n >= 3, zero for n <= 2, and of order 1/sqrt(T).  Where
    a = e^{-theta delta} underflows, s2 sqrt(T) may overflow: logs are used.
    """
    n = params.n
    if n <= 2:
        return 0.0
    v, scale, a, s2 = _lambda_grid(params)
    pairs = float(np.sum(v[1 : n - 1] * v[n - 2 : 0 : -1]))
    w, root = s2 * scale, math.sqrt(params.horizon) * scale
    if a < sys.float_info.min:
        return 6.0 * pairs * math.exp(np.log(w) + np.log(root) - params.theta * params.delta)
    return 6.0 * pairs * a * w * root


@_finite_oracle
def exact_k4_lambda(params: OuParams) -> float:
    """Exact fourth cumulant of Lambda_n / sqrt(T).

    Full Wick expansion over the martingale increments m_i = X_{t_{i-1}} eta_i:

        kappa4(Lambda_n) = 6 s2^2 sum_i VX_{i-1}^2
                         + 12 s2^2 sum_{i<k} q^{k-i} VX_{i-1}^2
                         + 12 s2^3 sum_{i<k} q^{k-i-1} VX_{i-1}
                         + 48 s2^3 sum_{i<k} (k-i-1) q^{k-i-1} VX_{i-1}.

    Scaled by T^{-2}, with VX / T = v scale, w = s2 scale and s2 / T =
    v_1 scale, it is w^2 times the scale-free sum 6 sum v^2
    + 12 sum q^{k-i} v^2 + 12 v_1 sum (4 (k-i) - 3) q^{k-i-1} v, whose lag
    sums collapse to O(n) via prefix sums (empty at n = 1).  No term is
    negative; the first is 6 * `k4_lambda` (to rounding), and the cross terms
    dominate it at desk scale.  q^{k-i-1} is formed directly: once q
    underflows, q^{k-i} / q is 0/0.
    """
    n = params.n
    q = math.exp(-_rate(params))
    v, scale, _, s2 = _lambda_grid(params)  # v_{i-1}, i = 1..n
    lag = np.arange(1, n, dtype=np.float64)
    q_prev = q ** (lag - 1.0)
    # sum_{i<k} f(k-i) h(i) = sum_lag f(lag) * prefix_h[n - lag - 1]
    cross_v2 = float(np.sum(q * q_prev * np.cumsum(v * v)[n - 2 :: -1]))
    cross_v = float(np.sum((4.0 * lag - 3.0) * q_prev * np.cumsum(v)[n - 2 :: -1]))
    total = 6.0 * float(np.sum(v * v)) + 12.0 * cross_v2 + 12.0 * v[min(1, n - 1)] * cross_v
    w = s2 * scale
    return total * w * w


def k3_lambda_is_zero(params: OuParams) -> float:
    """First-order value 0 for the third cumulant of Lambda_n / sqrt(T).

    Returns 0 identically so the harness can report the empirical third moment
    against it.  The value keeps only expansion terms whose top martingale
    index appears once; the dropped cross terms are of order 1/sqrt(T) and are
    what `exact_k3_lambda` computes, so at desk scale the empirical cumulant
    matches the exact oracle and sits many standard errors from this one.
    """
    del params
    return 0.0


@_finite_oracle
def k4_lambda(params: OuParams) -> float:
    """First-order diagonal value for the fourth cumulant of Lambda_n / sqrt(T).

    s2^2 sum_{i=1}^n (VarX_{t_{i-1}} / T)^2, the conditionally independent
    part of the expansion.  Nonnegative and at most (s2 / delta / (2 theta))^2
    / n.  Six times this value equals the first term of `exact_k4_lambda` (to
    rounding); the exact cumulant including cross terms is `exact_k4_lambda`,
    and the harness reports both.
    """
    v, scale, _, s2 = _lambda_grid(params)
    w = s2 * scale
    return float(np.sum(v * v)) * w * w


def _report_values(quantity: MomentQuantity, params: OuParams) -> tuple[float, ...]:
    theta, delta, n = params.theta, params.delta, params.n
    if quantity is MomentQuantity.VAR_FN_Z:
        return exact_var_fn_z(params), 1.0 / (2.0 * theta**3), delta**2 + 1.0 / (n * delta)
    if quantity is MomentQuantity.K3_FN_Z:
        return k3_fn_z(params), 0.0, math.sqrt(delta) / n**1.5
    if quantity is MomentQuantity.K4_FN_Z_ABS_BOUND:
        return k4_fn_z_bound(params), 0.0, 1.0 / (n * delta)
    if quantity is MomentQuantity.VAR_LAMBDA:
        return exact_var_lambda(params), 1.0 / (2.0 * theta), delta + 1.0 / (n * delta)
    if quantity is MomentQuantity.K4_LAMBDA:
        _, s2 = transition_coefficients(theta, delta)
        return k4_lambda(params), 0.0, (s2 / delta / (2.0 * theta)) ** 2 / n
    raise ValueError(f"unknown quantity {quantity!r}")  # pragma: no cover - enum is closed


def moment_report(quantity: MomentQuantity, params: OuParams) -> MomentReport:
    """Assemble one oracle quantity with its asymptotic limit and control scale.

    Raises NonFiniteValue if any of the three is not finite at this cell.
    """
    exact, asym, bound = _finite(
        quantity.value, params, lambda: _report_values(quantity, params),
        parts=("exact", "asymptotic", "bound"),
    )
    return MomentReport(quantity, exact, asym, bound)
