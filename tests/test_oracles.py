"""Closed-form moment oracles against independent eigenvalue references.

The reference implementations here share no code with the package: both
statistics are quadratic forms in a Gaussian vector, so their cumulants are
kappa_r = 2^{r-1} (r-1)! tr(W^r) for the symmetric weight matrix W, evaluated
through an eigendecomposition built directly from the definitions.
"""

import functools
import math
import sys
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ou_drift_bench import (
    NonFiniteValue,
    OuParams,
    exact_k3_lambda,
    exact_k4_lambda,
    exact_var_fn_z,
    exact_var_lambda,
    k3_fn_z,
    k3_lambda_is_zero,
    k4_fn_z_bound,
    k4_lambda,
    moment_report,
    MomentQuantity,
)

GRID = [
    (1.0, 0.05, 1),
    (1.0, 0.05, 2),
    (1.0, 0.05, 3),
    (0.7, 0.2, 7),
    (1.0, 0.1, 64),
    (2.5, 0.01, 201),
    (0.3, 0.5, 40),
    (1.0, 1e-6, 100),
    (0.25, 1e-5, 300),
    (1.0, 0.05, 513),
    (1.0, 0.03125, 1024),
]


def _fn_z_spectrum(theta, delta, n):
    # F_n(Z) = Z^T A Z - E with A = sqrt(T)/n I on the window 0..n-1 and
    # Z ~ N(0, Sigma), Sigma_ij = e^{-theta delta |i-j|}/(2 theta); the
    # cumulants depend on the spectrum of A Sigma
    idx = np.arange(n)
    sigma = np.exp(-theta * delta * np.abs(idx[:, None] - idx[None, :])) / (2.0 * theta)
    horizon = n * delta
    scaled = (math.sqrt(horizon) / n) * sigma
    return np.linalg.eigvals(scaled).real


def _lambda_spectrum(theta, delta, n):
    # Lambda_n = xi^T W xi in the iid innovations xi_1..xi_n, with
    # coefficient s2 a^{i-1-j} for j < i, symmetrized
    a = math.exp(-theta * delta)
    s2 = -math.expm1(-2.0 * theta * delta) / (2.0 * theta)
    coeff = np.zeros((n, n))
    for i in range(1, n + 1):
        j = np.arange(1, i)
        coeff[i - 1, j - 1] = s2 * a ** ((i - 1) - j)
    sym = 0.5 * (coeff + coeff.T)
    return np.linalg.eigvalsh(sym)


# 1 - e^{-x} keeps about 200 digits at x = 1e-600, the smallest 2 theta delta
# the property test below reaches
_DECIMAL_DIGITS = 800


def _decimal_cumulant(weights, order, scale):
    """2^{r-1} (r-1)! tr(W^r) * scale in decimal, r = 2, 3 or 4, for a
    symmetric n x n nested list W."""
    n = len(weights)
    square = [
        [sum(weights[i][k] * weights[k][j] for k in range(n)) for j in range(n)]
        for i in range(n)
    ]
    left = weights if order == 2 else square
    right = square if order == 4 else weights
    trace = sum(left[i][j] * right[j][i] for i in range(n) for j in range(n))
    return 2 ** (order - 1) * math.factorial(order - 1) * trace * scale


@functools.lru_cache(maxsize=64)
def _decimal_powers(theta, delta, n):
    """a^0..a^n for a = e^{-theta delta}, by products so that 0^0 is 1."""
    a = (-Decimal(theta) * Decimal(delta)).exp()
    powers = [Decimal(1)]
    for _ in range(n):
        powers.append(powers[-1] * a)
    return tuple(powers)


def _decimal_fn_z(theta, delta, n, order=4):
    # F_n(Z) against M_ij = e^{-theta delta |i-j|} / (2 theta)
    with localcontext() as ctx:
        ctx.prec = _DECIMAL_DIGITS
        th, de = Decimal(theta), Decimal(delta)
        a = _decimal_powers(theta, delta, n)
        m = [[a[abs(i - j)] / (2 * th) for j in range(n)] for i in range(n)]
        return _decimal_cumulant(m, order, (de / n).sqrt() ** order)


def _decimal_lambda(theta, delta, n, order=4):
    # Lambda_n / sqrt(T) against the symmetrized weights of _lambda_spectrum
    with localcontext() as ctx:
        ctx.prec = _DECIMAL_DIGITS
        th, de = Decimal(theta), Decimal(delta)
        a = _decimal_powers(theta, delta, n)
        s2 = (1 - a[1] * a[1]) / (2 * th)
        w = [
            [s2 * a[abs(i - j) - 1] / 2 if i != j else Decimal(0) for j in range(n)]
            for i in range(n)
        ]
        return _decimal_cumulant(w, order, 1 / (n * de).sqrt() ** order)


_VAR_FN_Z = functools.partial(_decimal_fn_z, order=2)
_K3_FN_Z = functools.partial(_decimal_fn_z, order=3)
_VAR_LAMBDA = functools.partial(_decimal_lambda, order=2)
_K3_LAMBDA = functools.partial(_decimal_lambda, order=3)


@pytest.mark.parametrize(
    "oracle, reference, cell",
    [
        # g^2 overflowed against p^2 underflowing: nan
        (k4_fn_z_bound, _decimal_fn_z, (1.0, 1e-200, 4)),
        (k4_fn_z_bound, _decimal_fn_z, (1e-60, 1e-140, 4)),
        # q underflows to 0 and q^lag / q was 0/0
        (exact_k4_lambda, _decimal_lambda, (1.0, 400.0, 3)),
        # T^2 underflowed: a division by zero, or 0 where the value is 1e-200
        (exact_k4_lambda, _decimal_lambda, (1.0, 1e-200, 4)),
        (exact_k4_lambda, _decimal_lambda, (1.0, 1e-100, 4)),
        # s2^2 underflowed to 0 before the division by T^1.5
        (exact_k3_lambda, _K3_LAMBDA, (1.0, 1e-200, 4)),
        # (2 theta)^2 delta underflowed: a division by zero
        (exact_var_lambda, _VAR_LAMBDA, (1e-200, 1e-200, 4)),
        # 1 - q underflowed: 0/0 in the tail factor
        (exact_k3_lambda, _K3_LAMBDA, (1e-200, 1e-200, 4)),
        # 2 theta delta is subnormal, so 1 - q^k lost digits
        (exact_k3_lambda, _K3_LAMBDA, (1e-160, 1e-160, 4)),
        # 2 theta delta is subnormal, so 1 / (1 - e^{-x}) overflowed: nan
        (k4_fn_z_bound, _decimal_fn_z, (1e-60, 1e-250, 4)),
        # c^2 = 1 / (2 theta)^2 overflowed though delta c^2 does not
        (exact_var_fn_z, _VAR_FN_Z, (1e-172, 1e-249, 4)),
        # (delta / n)^{3/2} underflowed to 0 though c^3 (delta / n)^{3/2} does not
        (k3_fn_z, _K3_FN_Z, (1e-81, 1e-266, 5)),
    ],
    ids=["fn-z-tiny-delta", "fn-z-tiny-theta-delta", "lambda-huge-delta",
         "lambda-tiny-delta", "lambda-small-delta", "lambda-k3-tiny-delta",
         "lambda-var-tiny-theta-delta", "lambda-k3-tiny-theta-delta",
         "lambda-k3-subnormal-x", "fn-z-k4-subnormal-x", "fn-z-var-huge-c",
         "fn-z-k3-tiny-delta"],
)
def test_fourth_cumulants_against_decimal_reference_at_extreme_cells(oracle, reference, cell):
    want = float(reference(*cell))
    assert math.isclose(oracle(OuParams(*cell)), want, rel_tol=1e-12)


# Each exact oracle with its decimal reference; the two share no code.
_EXACT = [
    (exact_var_fn_z, _VAR_FN_Z),
    (k3_fn_z, _K3_FN_Z),
    (k4_fn_z_bound, _decimal_fn_z),
    (exact_var_lambda, _VAR_LAMBDA),
    (exact_k3_lambda, _K3_LAMBDA),
    (exact_k4_lambda, _decimal_lambda),
]


@settings(max_examples=300, deadline=None, database=None)
@given(
    log_theta=st.floats(-300.0, 300.0),
    log_delta=st.floats(-300.0, 300.0),
    n=st.integers(1, 5),
)
def test_exact_oracles_refuse_only_what_overflows(log_theta, log_delta, n):
    # NonFiniteValue if and only if the cumulant exceeds the largest double;
    # otherwise rel 1e-12, or a few ulps where it is subnormal.
    theta, delta = 10.0**log_theta, 10.0**log_delta
    for oracle, reference in _EXACT:
        want = reference(theta, delta, n)
        overflows = abs(want) > Decimal(sys.float_info.max)
        try:
            got = oracle(OuParams(theta, delta, n))
        except NonFiniteValue:
            assert overflows, (oracle.__name__, float(want))
            continue
        assert not overflows, (oracle.__name__, got)
        want = float(want)
        if want >= sys.float_info.min:
            assert math.isclose(got, want, rel_tol=1e-12), (oracle.__name__, got, want)
        else:
            assert abs(got - want) <= 4 * math.ulp(0.0), (oracle.__name__, got, want)


@pytest.mark.parametrize("theta,delta,n", GRID)
def test_var_fn_z_against_eigen_reference(theta, delta, n):
    lam = _fn_z_spectrum(theta, delta, n)
    ref = 2.0 * float(np.sum(lam**2))
    got = exact_var_fn_z(OuParams(theta=theta, delta=delta, n=n))
    assert got == pytest.approx(ref, rel=1e-12)


@pytest.mark.parametrize("theta,delta,n", GRID)
def test_k3_fn_z_against_eigen_reference(theta, delta, n):
    lam = _fn_z_spectrum(theta, delta, n)
    ref = 8.0 * float(np.sum(lam**3))
    got = k3_fn_z(OuParams(theta=theta, delta=delta, n=n))
    assert got == pytest.approx(ref, rel=1e-12)


@pytest.mark.parametrize("theta,delta,n", GRID)
def test_k4_fn_z_bound_is_exact_fourth_cumulant(theta, delta, n):
    # the weight matrix is PSD, so the Frobenius bound on |kappa_4| is
    # attained with equality
    lam = _fn_z_spectrum(theta, delta, n)
    ref = 48.0 * float(np.sum(lam**4))
    got = k4_fn_z_bound(OuParams(theta=theta, delta=delta, n=n))
    assert got == pytest.approx(ref, rel=1e-12)
    assert got >= 0.0


@pytest.mark.parametrize("theta,delta,n", GRID)
def test_lambda_cumulants_against_eigen_reference(theta, delta, n):
    lam = _lambda_spectrum(theta, delta, n)
    horizon = n * delta
    p = OuParams(theta=theta, delta=delta, n=n)
    var_ref = 2.0 * float(np.sum(lam**2)) / horizon
    k3_ref = 8.0 * float(np.sum(lam**3)) / horizon**1.5
    k4_ref = 48.0 * float(np.sum(lam**4)) / horizon**2
    assert exact_var_lambda(p) == pytest.approx(var_ref, rel=1e-12, abs=1e-15)
    assert exact_k3_lambda(p) == pytest.approx(k3_ref, rel=1e-12, abs=1e-15)
    assert exact_k4_lambda(p) == pytest.approx(k4_ref, rel=1e-12, abs=1e-15)


def test_var_fn_z_single_observation():
    # n=1: F_1 = sqrt(delta)(Z_0^2 - 1/(2 theta)), variance 2 delta/(2 theta)^2
    assert exact_var_fn_z(OuParams(theta=2.0, delta=0.3, n=1)) == pytest.approx(
        2.0 * 0.3 / 16.0, rel=1e-14
    )


def test_lambda_cumulants_degenerate_sizes():
    # Lambda_1 = 0 identically; kappa_3 needs at least two nonzero terms
    p1 = OuParams(theta=1.0, delta=0.1, n=1)
    assert exact_var_lambda(p1) == 0.0
    assert exact_k3_lambda(p1) == 0.0
    assert exact_k4_lambda(p1) == 0.0
    assert exact_k3_lambda(OuParams(theta=1.0, delta=0.1, n=2)) == 0.0


FROZEN = {
    # (theta, delta, n) -> (var_fn_z, k3_fn_z, k4_fn_z_bound,
    #                       var_lambda, k3_lambda, k4_lambda_exact, k4_lambda_first_order)
    (1.0, 0.05, 1000): (
        0.4954207618229123,
        0.20806626048379134,
        0.14579831338362373,
        0.47081290982020213,
        0.1879892646721956,
        0.12922774538476525,
        0.00022288875542731277,
    ),
    (1.0, 0.1, 64): (
        0.4627331124260688,
        0.5022650810120246,
        0.9106646770751277,
        0.41411072514772396,
        0.4024304446257941,
        0.7017028299408351,
        0.0028077347625209462,
    ),
    (0.7, 0.2, 64): (
        1.3864204087983976,
        2.23252879624753,
        6.015787936460018,
        0.5831409663317926,
        0.5657723882152259,
        1.0146700142975946,
        0.005509498654721947,
    ),
    (2.5, 0.01, 201): (
        0.028823387532140938,
        0.008680885471409765,
        0.004352371509903677,
        0.17518266390259793,
        0.12819604002197424,
        0.15891821415030177,
        0.00016060997708046665,
    ),
}


@pytest.mark.parametrize("cell", sorted(FROZEN))
def test_frozen_oracle_values(cell):
    theta, delta, n = cell
    p = OuParams(theta=theta, delta=delta, n=n)
    var_z, k3_z, k4_z, var_l, k3_l, k4_l, k4_first = FROZEN[cell]
    assert exact_var_fn_z(p) == pytest.approx(var_z, rel=1e-13)
    assert k3_fn_z(p) == pytest.approx(k3_z, rel=1e-13)
    assert k4_fn_z_bound(p) == pytest.approx(k4_z, rel=1e-13)
    assert exact_var_lambda(p) == pytest.approx(var_l, rel=1e-13)
    assert exact_k3_lambda(p) == pytest.approx(k3_l, rel=1e-13)
    assert exact_k4_lambda(p) == pytest.approx(k4_l, rel=1e-13)
    assert k4_lambda(p) == pytest.approx(k4_first, rel=1e-13)


def test_k3_lambda_is_zero_returns_zero():
    assert k3_lambda_is_zero(OuParams(theta=1.0, delta=0.05, n=1000)) == 0.0


def test_first_order_k4_omits_dominant_cross_terms():
    # the first-order diagonal value keeps only i=k pairings; at desk scale
    # the dropped cross terms dominate by orders of magnitude
    p = OuParams(theta=1.0, delta=0.05, n=1000)
    assert exact_k4_lambda(p) > 100.0 * k4_lambda(p)


def test_variance_gap_shrinks_on_root_n_schedule():
    # |var - 1/(2 theta^3)| decreasing on delta = n^{-1/2}, n in 1e2..1e4
    theta = 1.0
    gaps = []
    for n in (100, 1000, 10_000):
        p = OuParams(theta=theta, delta=n**-0.5, n=n)
        gaps.append(abs(exact_var_fn_z(p) - 1.0 / (2.0 * theta**3)))
    assert gaps[0] > gaps[1] > gaps[2]


def test_fn_z_cumulants_have_no_size_cap():
    # the O(n) forms take any n; at n = 2^20 on delta = n^{-1/2} they sit
    # within 1% of their large-T limits sqrt(T) k3 -> 3/(2 theta^5) and
    # T k4 -> 15/(2 theta^7), derived from the same traces at delta -> 0
    theta, n = 1.0, 2**20
    p = OuParams(theta=theta, delta=n**-0.5, n=n)
    assert math.sqrt(p.horizon) * k3_fn_z(p) == pytest.approx(1.5 / theta**5, rel=1e-2)
    assert p.horizon * k4_fn_z_bound(p) == pytest.approx(7.5 / theta**7, rel=1e-2)


def test_moment_report_fields():
    p = OuParams(theta=1.0, delta=0.05, n=500)
    rep = moment_report(MomentQuantity.VAR_FN_Z, p)
    assert rep.quantity is MomentQuantity.VAR_FN_Z
    assert rep.exact_value == pytest.approx(exact_var_fn_z(p), rel=1e-15)
    assert rep.asymptotic_value == pytest.approx(0.5, rel=1e-15)
    assert rep.bound_value > 0.0
    rep4 = moment_report(MomentQuantity.K4_LAMBDA, p)
    assert rep4.exact_value == pytest.approx(k4_lambda(p), rel=1e-15)
    assert rep4.exact_value <= rep4.bound_value


@settings(max_examples=300, deadline=None, database=None)
@given(
    log_theta=st.floats(-300.0, 300.0),
    log_delta=st.floats(-300.0, 300.0),
    n=st.integers(1, 8) | st.sampled_from([64, 65]),
    quantity=st.sampled_from(MomentQuantity),
)
def test_moment_report_is_finite_or_refused(log_theta, log_delta, n, quantity):
    # Extreme cells once ended in OverflowError or ZeroDivisionError, or
    # reported inf and nan without a word.
    params = OuParams(theta=10.0**log_theta, delta=10.0**log_delta, n=n)
    try:
        report = moment_report(quantity, params)
    except NonFiniteValue as exc:
        assert f"at cell (theta={params.theta!r}, delta={params.delta!r}, n={n})" in str(exc)
        return
    values = (report.exact_value, report.asymptotic_value, report.bound_value)
    assert all(math.isfinite(v) for v in values), values
