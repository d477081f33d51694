"""Exact moment and cumulant oracles for the simulated statistics.

Everything here is closed-form and deterministic; the Monte Carlo harness
compares its empirical moments against these values.

Two families of statistics are covered, both quadratic forms of a Gaussian
vector, which is what makes exact cumulants available:

* ``F_n(Z) = sqrt(T) (f_n(Z) - 1/(2 theta))`` for the stationary path Z.  With
  M the n x n covariance matrix M_ij = rho((i-j) delta), the cumulants are
  var = 2 (delta/n) tr(M^2), kappa3 = 8 (delta/n)^{3/2} tr(M^3) and
  kappa4 = 48 (delta/n)^2 tr(M^4).  M_ij = c e^{-theta delta |i-j|} is a
  Kac-Murdock-Szego Toeplitz matrix, so each trace reduces to an O(n) sum of
  nonnegative terms (`exact_var_fn_z`, `k3_fn_z`, `k4_fn_z_bound`); no n x n
  matrix is formed and no grid size is refused.
* ``Lambda_n / sqrt(T)``, the scaled martingale part of the AMLE error.  Its
  variance has a first-order closed form (`exact_var_lambda`), and the full
  Wick expansion gives exact third and fourth cumulants (`exact_k3_lambda`,
  `exact_k4_lambda`) in O(n).

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
from dataclasses import dataclass

import numpy as np

from .errors import NonFiniteValue
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
    where = f"at cell (theta={params.theta!r}, delta={params.delta!r}, n={params.n})"
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


@_finite_oracle
def exact_var_fn_z(params: OuParams) -> float:
    """Exact variance of F_n(Z).

    var = 2 (delta/n) tr(M^2).  With c = 1/(2 theta) and x = 2 theta delta,
    M_ij^2 = c^2 e^{-x |i-j|}, and n - s index pairs sit at each lag s >= 1
    in either order, so

        tr(M^2) = c^2 [n + sum_{s=1}^{n-1} 2 (n-s) e^{-x s}].

    An O(n) sum of nonnegative terms, accurate in every regime including
    theta*delta -> 0, where the closed-form geometric sums cancel.
    """
    theta, delta, n = params.theta, params.delta, params.n
    c = 1.0 / (2.0 * theta)
    x = 2.0 * theta * delta
    s = np.arange(1, n, dtype=np.float64)
    trace2 = c**2 * (n + float(np.sum(2.0 * (n - s) * np.exp(-x * s))))
    return 2.0 * (delta / n) * trace2


@_finite_oracle
def k3_fn_z(params: OuParams) -> float:
    """Exact third cumulant of F_n(Z).

    kappa3 = 8 (delta/n)^{3/2} tr(M^3).  Around any index triple the cyclic
    gap sum |i-j| + |j-k| + |k-i| is twice the triple's span, and 6 s (n-s)
    ordered triples have span s >= 1, so

        tr(M^3) = c^3 [n + sum_{s=1}^{n-1} 6 s (n-s) e^{-x s}],

    an O(n) sum of nonnegative terms (c = 1/(2 theta), x = 2 theta delta).
    """
    theta, delta, n = params.theta, params.delta, params.n
    c = 1.0 / (2.0 * theta)
    x = 2.0 * theta * delta
    s = np.arange(1, n, dtype=np.float64)
    trace3 = c**3 * (n + float(np.sum(6.0 * s * (n - s) * np.exp(-x * s))))
    return 8.0 * (delta / n) ** 1.5 * trace3


@_finite_oracle
def k4_fn_z_bound(params: OuParams) -> float:
    """Contraction-norm bound on |kappa4(F_n(Z))|, which it attains exactly.

    48 (delta/n)^2 sum over four indices of the pairwise-linked rho products;
    the quadruple sum is tr(M^4) = ||M^2||_F^2.  For a symmetric second-chaos
    kernel the usual 16(||.||^2 + 2||~||^2) expression collapses to exactly
    this value, so the bound holds with equality and Monte Carlo fourth
    cumulants should match it, not merely stay below it.

    Evaluated in O(n) from the entries of M^2 on each diagonal d, with
    m = n - d, g = e^{-x}/(1 - e^{-x}) and p_k = 1 - e^{-x k}:

        (M^2)_{i,i+d} = c^2 e^{-x d/2} [(d+1) + g (p_i + p_{m-1-i})].

    Summing the square over i gives, with weight 1 at d = 0 and 2 above it,

        e^{-x d} [m (d+1)^2 + 4 (d+1) g P1(m) + g^2 (2 P2(m) + 2 C(m))],

    where P1, P2 are prefix sums of p and p^2 and C(m) = sum_i p_i p_{m-1-i}
    = (1 - e^{-x})^2 D(m-3), D the double prefix sum of (k+1) e^{-x k}
    (C = 0 for m < 3).  Every term is nonnegative; expanding the square into
    closed-form geometric sums instead loses about 8 digits at
    theta*delta = 1e-6.  Below x of about 1e-154, g^2 overflows while p^2
    underflows, so g = h 2^E is split: the p-terms and 1 - e^{-x} carry the
    power of two, which scales them exactly, and only h is squared.
    """
    theta, delta, n = params.theta, params.delta, params.n
    c = 1.0 / (2.0 * theta)
    x = 2.0 * theta * delta
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
    trace4 = c**4 * (float(diagonals[0]) + 2.0 * float(np.sum(diagonals[1:])))
    return 48.0 * (delta / n) ** 2 * trace4


def _var_x_grid(params: OuParams) -> np.ndarray:
    """Var X_{t_{i-1}} = (1 - q^{i-1}) / (2 theta) for i = 1..n."""
    theta, delta, n = params.theta, params.delta, params.n
    i = np.arange(n, dtype=np.float64)
    return -np.expm1(-2.0 * theta * delta * i) / (2.0 * theta)


@_finite_oracle
def exact_var_lambda(params: OuParams) -> float:
    """Exact variance of Lambda_n / sqrt(T).

    E[(Lambda_n/sqrt T)^2] = ((1-q)/((2 theta)^2 delta)) * (1/n) sum_{i=1}^n
    (1 - q^{i-1}), q = e^{-2 theta delta}.  Evaluated as the O(n) mean of
    expm1 terms: every summand is nonnegative, so there is no cancellation in
    any parameter regime.  Zero at n = 1 (the single summand has X_{t_0} = 0).
    """
    theta, delta, n = params.theta, params.delta, params.n
    u = -math.expm1(-2.0 * theta * delta)
    i = np.arange(n, dtype=np.float64)
    mean_term = float(np.mean(-np.expm1(-2.0 * theta * delta * i)))
    return u / ((2.0 * theta) ** 2 * delta) * mean_term


@_finite_oracle
def exact_k3_lambda(params: OuParams) -> float:
    """Exact third cumulant of Lambda_n / sqrt(T).

    Lambda_n is quadratic in the innovations, so its odd cumulants need not
    vanish: the surviving Wick terms give

        kappa3(Lambda_n) = 6 s2^2 sum_{i=2}^{n-1} VarX_{t_{i-1}}
                           * a (1 - q^{n-i}) / (1 - q),

    scaled here by T^{-3/2}.  Strictly positive for n >= 3, identically zero
    for n <= 2, and of order 1/sqrt(T) after scaling.  Both 1 - q^k factors
    are taken with expm1, so small theta*delta loses no digits, and T^{-3/2}
    enters as (s2 / T) (s2 / sqrt(T)), as s2^2 underflows at tiny delta.
    """
    theta, delta, n = params.theta, params.delta, params.n
    if n <= 2:
        return 0.0
    a, s2 = transition_coefficients(theta, delta)
    u = -math.expm1(-2.0 * theta * delta)
    i = np.arange(2, n, dtype=np.float64)
    var_x = -np.expm1(-2.0 * theta * delta * (i - 1.0)) / (2.0 * theta)
    tail = a * -np.expm1(-2.0 * theta * delta * (n - i)) / u
    horizon = params.horizon
    return 6.0 * (s2 / horizon) * (s2 / math.sqrt(horizon)) * float(np.sum(var_x * tail))


@_finite_oracle
def exact_k4_lambda(params: OuParams) -> float:
    """Exact fourth cumulant of Lambda_n / sqrt(T).

    Full Wick expansion over the martingale increments m_i = X_{t_{i-1}} eta_i:

        kappa4(Lambda_n) = 6 s2^2 sum_i VX_{i-1}^2
                         + 12 s2^2 sum_{i<k} q^{k-i} VX_{i-1}^2
                         + 12 s2^3 sum_{i<k} q^{k-i-1} VX_{i-1}
                         + 48 s2^3 sum_{i<k} (k-i-1) q^{k-i-1} VX_{i-1},

    scaled here by T^{-2}.  The lag sums collapse to O(n) via prefix sums.
    All terms are nonnegative; the first line alone equals 6 * `k4_lambda`
    (to rounding), and the cross terms dominate it at desk scale.  q^{k-i-1}
    is formed directly, as q / q is 0/0 once q underflows, and T^{-2} enters
    as (s2 / T)^2, as T^2 underflows at tiny delta.
    """
    theta, delta, n = params.theta, params.delta, params.n
    _, s2 = transition_coefficients(theta, delta)
    q = math.exp(-2.0 * theta * delta)
    var_x = _var_x_grid(params)  # VX_{i-1}, i = 1..n
    diag = float(np.sum(var_x**2))
    if n >= 2:
        prefix_v = np.cumsum(var_x)
        prefix_v2 = np.cumsum(var_x**2)
        lag = np.arange(1, n, dtype=np.float64)
        q_prev = q ** (lag - 1.0)
        # sum_{i<k} g(k-i) h(i) = sum_lag g(lag) * prefix_h[n - lag - 1]
        head_v = prefix_v[n - 2 :: -1]
        head_v2 = prefix_v2[n - 2 :: -1]
        cross_v2 = float(np.sum(q * q_prev * head_v2))
        cross_v = float(np.sum(q_prev * head_v))
        cross_v_weighted = float(np.sum((lag - 1.0) * q_prev * head_v))
    else:
        cross_v2 = cross_v = cross_v_weighted = 0.0
    r = s2 / params.horizon
    return r * r * (
        6.0 * diag + 12.0 * cross_v2 + 12.0 * s2 * cross_v + 48.0 * s2 * cross_v_weighted
    )


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

    ((1-q)^2 / ((2 theta)^4 delta^2)) * (1/n^2) sum_{i=1}^n (1 - q^{i-1})^2,
    the conditionally independent part of the expansion.  Nonnegative and at
    most ((1-q)^2 / ((2 theta)^4 delta^2)) / n.  Six times this value equals
    the diagonal first line of `exact_k4_lambda` (to rounding); the exact
    cumulant including cross terms is `exact_k4_lambda`, and the harness
    reports both.
    """
    theta, delta, n = params.theta, params.delta, params.n
    i = np.arange(n, dtype=np.float64)
    terms = (_lambda_scale(theta, delta) * -np.expm1(-2.0 * theta * delta * i)) ** 2
    return float(np.sum(terms)) / n**2


def _lambda_scale(theta: float, delta: float) -> float:
    """(1 - q) / ((2 theta)^2 delta), divided in steps: at tiny theta*delta
    (1 - q)^2 and delta^2 underflow while the ratio is of order 1/theta."""
    return -math.expm1(-2.0 * theta * delta) / delta / (2.0 * theta) / (2.0 * theta)


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
        return k4_lambda(params), 0.0, _lambda_scale(theta, delta) ** 2 / n
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
