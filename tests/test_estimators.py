"""f_n, F_n, both estimators, Lambda_n, and the error decomposition."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ou_drift_bench import (
    DegenerateDenominator,
    Estimator,
    IndexConvention,
    MissingInnovations,
    OuParams,
    SamplePath,
    Variant,
    amce,
    amle,
    big_f_n,
    big_f_n_of_sums,
    decomposition_residual,
    estimates_of_sums,
    exact_k3_lambda,
    exact_k4_lambda,
    exact_var_fn_z,
    exact_var_lambda,
    f_n,
    f_n_of_sums,
    k3_fn_z,
    k4_fn_z_bound,
    lambda_n,
    lambda_n_of_sums,
    normalized_error,
    simulate_coupled,
    simulate_path,
    transition_coefficients,
)

from reference import cell_sums


def _hand_path(values, theta=1.0, delta=0.1, innovations=None):
    values = np.asarray(values, dtype=float)
    p = OuParams(theta=theta, delta=delta, n=values.size - 1)
    return SamplePath(
        params=p,
        variant=Variant.STATIONARY,
        values=values,
        innovations=None if innovations is None else np.asarray(innovations, float),
    )


def test_f_n_zero_path():
    assert f_n(_hand_path(np.zeros(5))) == 0.0


def test_f_n_two_point_example():
    # body window i = 0..n-1; the last value never enters
    for last in (0.0, 3.0, -17.5):
        assert f_n(_hand_path([1.0, 2.0, last])) == pytest.approx(2.5, rel=1e-15)


def test_f_n_conventions_differ_by_boundary_term():
    vals = np.array([1.5, -0.2, 0.7, 2.0, -1.0])
    path = _hand_path(vals)
    body = f_n(path, IndexConvention.BODY)
    abstract = f_n(path, IndexConvention.ABSTRACT)
    n = vals.size - 1
    assert body - abstract == pytest.approx((vals[0] ** 2 - vals[-1] ** 2) / n, rel=1e-12)


def test_big_f_n_centered_is_zero():
    # f_n = 1/(2 theta) exactly, so F_n = 0
    theta = 0.8
    c = math.sqrt(1.0 / (2.0 * theta))
    path = _hand_path([c, c, c, c], theta=theta)
    assert big_f_n(path, theta) == pytest.approx(0.0, abs=1e-15)


def test_big_f_n_single_observation():
    # n=1: F_1 = sqrt(delta) (Z_0^2 - 1/(2 theta))
    theta, delta, z0 = 2.0, 0.3, 1.7
    path = _hand_path([z0, 0.4], theta=theta, delta=delta)
    expect = math.sqrt(delta) * (z0**2 - 1.0 / (2.0 * theta))
    assert big_f_n(path, theta) == pytest.approx(expect, rel=1e-14)


def test_big_f_n_rejects_nonpositive_theta():
    path = _hand_path([1.0, 2.0, 0.5])
    with pytest.raises(ValueError):
        big_f_n(path, 0.0)
    with pytest.raises(ValueError):
        big_f_n(path, -1.0)


def _from_zero(values, theta=1.0, delta=0.1, innovations=None):
    values = np.asarray(values, dtype=float)
    p = OuParams(theta=theta, delta=delta, n=values.size - 1)
    return SamplePath(
        params=p,
        variant=Variant.FROM_ZERO,
        values=values,
        innovations=None if innovations is None else np.asarray(innovations, float),
    )


def test_amce_arithmetic_inversion():
    # f_n = (0 + 1)/2 = 0.5, so estimate = 1/(2*0.5) = 1
    rec = amce(_from_zero([0.0, 1.0, 5.0]), theta_true=1.0)
    assert rec.estimate == pytest.approx(1.0, rel=1e-15)
    assert rec.denominator == pytest.approx(0.5, rel=1e-15)
    assert rec.estimator is Estimator.AMCE


def test_amce_fixed_point():
    theta = 1.7
    c = math.sqrt(1.0 / (2.0 * theta))
    # body window (0, c, c, c) has mean c^2 * 3/4; build so the window mean
    # equals 1/(2 theta) exactly: use a stationary-style hand path instead
    vals = np.array([c, c, c, c])
    p = OuParams(theta=theta, delta=0.1, n=3)
    path = SamplePath(params=p, variant=Variant.STATIONARY, values=vals)
    rec = amce(path, theta_true=theta)
    assert rec.estimate == pytest.approx(theta, rel=1e-14)


def test_amce_degenerate_zero_path():
    with pytest.raises(DegenerateDenominator):
        amce(_from_zero(np.zeros(4)), theta_true=1.0)


def test_amce_single_step_from_zero_is_degenerate():
    # n=1 body window holds only X_0 = 0
    with pytest.raises(DegenerateDenominator):
        amce(_from_zero([0.0, 0.9]), theta_true=1.0)


def test_amce_normalized_error_recomputes():
    p = OuParams(theta=1.0, delta=0.05, n=200)
    path = simulate_path(p, Variant.FROM_ZERO, seed=31, stream=2)
    rec = amce(path, theta_true=1.0)
    assert rec.normalized_error == pytest.approx(
        normalized_error(rec.estimate, p, 1.0), rel=1e-14
    )
    assert rec.normalized_error == pytest.approx(
        math.sqrt(p.horizon / 2.0) * (rec.estimate - 1.0), rel=1e-14
    )


def test_amle_constant_path_gives_zero():
    # increments are all zero, numerator is zero, denominator is not
    rec = amle(_from_zero([0.0, 2.0, 2.0, 2.0]), theta_true=1.0)
    assert rec.estimate == 0.0


def test_amle_single_step_from_zero_is_degenerate():
    with pytest.raises(DegenerateDenominator):
        amle(_from_zero([0.0, 1.2]), theta_true=1.0)


def test_amle_denominator_is_sn_over_horizon():
    p = OuParams(theta=1.0, delta=0.05, n=300)
    path = simulate_path(p, Variant.FROM_ZERO, seed=8, stream=1)
    rec = amle(path, theta_true=1.0)
    x_prev = path.values[:-1]
    s_n = p.delta * float(np.sum(x_prev**2))
    assert rec.denominator == pytest.approx(s_n / p.horizon, rel=1e-13)
    # S_n/T coincides with the body-convention f_n
    assert rec.denominator == pytest.approx(f_n(path), rel=1e-13)


def test_amle_matches_direct_formula():
    p = OuParams(theta=1.0, delta=0.05, n=300)
    path = simulate_path(p, Variant.FROM_ZERO, seed=8, stream=9)
    rec = amle(path, theta_true=1.0)
    x = path.values
    num = -float(np.sum(x[:-1] * np.diff(x)))
    den = p.delta * float(np.sum(x[:-1] ** 2))
    assert rec.estimate == pytest.approx(num / den, rel=1e-13)


def test_lambda_n_requires_innovations():
    with pytest.raises(MissingInnovations):
        lambda_n(_from_zero([0.0, 1.0, 0.5]))


def test_lambda_n_single_step_is_zero():
    # Lambda_1 has the factor X_0 = 0
    path = _from_zero([0.0, 0.7], innovations=[0.7])
    assert lambda_n(path) == 0.0


def test_lambda_n_direct_sum():
    p = OuParams(theta=1.0, delta=0.1, n=60)
    path = simulate_path(p, Variant.FROM_ZERO, seed=13, stream=0)
    _, s2 = transition_coefficients(p.theta, p.delta)
    direct = math.sqrt(s2) * float(np.sum(path.values[:-1] * path.innovations))
    assert lambda_n(path) == pytest.approx(direct, rel=1e-13)


def test_lambda_n_even_under_path_negation():
    # negating all innovations negates the path, and Lambda_n is the product
    # of both, so it is invariant, not negated
    p = OuParams(theta=1.0, delta=0.1, n=50)
    path = simulate_path(p, Variant.FROM_ZERO, seed=19, stream=3)
    flipped = SamplePath(
        params=p,
        variant=Variant.FROM_ZERO,
        values=-path.values,
        innovations=-path.innovations,
    )
    assert lambda_n(flipped) == pytest.approx(lambda_n(path), rel=1e-14)


def test_decomposition_identity_on_simulated_paths():
    p = OuParams(theta=1.0, delta=0.05, n=400)
    a, _ = transition_coefficients(p.theta, p.delta)
    drift = (a - 1.0) / p.delta
    for stream in range(200):
        path = simulate_path(p, Variant.FROM_ZERO, seed=1000, stream=stream)
        rec = amle(path, theta_true=p.theta)
        s_n = p.delta * float(np.sum(path.values[:-1] ** 2))
        resid = abs(-rec.estimate - (drift + lambda_n(path) / s_n))
        assert resid <= 1e-10 * (1.0 + abs(rec.estimate))


@pytest.mark.parametrize("convention", list(IndexConvention))
def test_sum_side_statistics_match_the_per_path_references(convention):
    # The harness and `estimate` see only the sum-side forms; each must agree
    # with its independently coded per-path reference on every path.
    p = OuParams(theta=1.3, delta=0.05, n=300)
    reps = 40
    sums = cell_sums(p, reps, 17)
    fx, fz = f_n_of_sums(sums, p, convention)
    big_f = big_f_n_of_sums(sums, p, convention)
    lam = lambda_n_of_sums(sums, p)
    by_estimator = {e: estimates_of_sums(sums, p, e, convention) for e in Estimator}
    for e, (_, _, good) in by_estimator.items():
        assert good.all(), e
    for i in range(reps):
        x, z = simulate_coupled(p, 17, stream=i)
        assert fx[i] == pytest.approx(f_n(x, convention), rel=1e-12)
        assert fz[i] == pytest.approx(f_n(z, convention), rel=1e-12)
        assert big_f[i] == pytest.approx(big_f_n(z, p.theta, convention), rel=1e-9, abs=1e-12)
        assert lam[i] == pytest.approx(lambda_n(x), rel=1e-12)
        for e, record in (
            (Estimator.AMCE, amce(x, convention=convention)), (Estimator.AMLE, amle(x))
        ):
            est, den, _ = by_estimator[e]
            assert est[i] == pytest.approx(record.estimate, rel=1e-12), e
            assert den[i] == pytest.approx(record.denominator, rel=1e-12), e
    assert 0.0 <= decomposition_residual(sums, p) <= 1e-10
    with pytest.raises(TypeError):
        estimates_of_sums(sums, p, "amce", convention)


def test_sum_side_estimates_skip_degenerate_paths():
    # n = 1 from zero: X_{t_0} = 0 is the whole body window and the whole
    # AMLE denominator, so every path is degenerate there; the abstract AMCE
    # window X_{t_1} is not.
    p = OuParams(theta=1.0, delta=0.1, n=1)
    sums = cell_sums(p, 5, 3)
    for estimator, convention, kept in (
        (Estimator.AMLE, IndexConvention.BODY, 0),
        (Estimator.AMCE, IndexConvention.BODY, 0),
        (Estimator.AMCE, IndexConvention.ABSTRACT, 5),
    ):
        est, den, good = estimates_of_sums(sums, p, estimator, convention)
        assert est.size == den.size == int(good.sum()) == kept
    assert decomposition_residual(sums, p) == 0.0


def test_estimator_consistency_monte_carlo():
    # theta=1, delta=0.01, n=1e5: Monte Carlo mean of both estimators near 1,
    # and closer than at n=1e4 (T grows 100 -> 1000)
    theta = 1.0
    reps = 400
    gaps = {}
    for n in (10_000, 100_000):
        p = OuParams(theta=theta, delta=0.01, n=n)
        for fn, label in ((amce, "amce"), (amle, "amle")):
            ests = np.array(
                [
                    fn(simulate_path(p, Variant.FROM_ZERO, seed=500 + n, stream=s),
                       theta_true=theta).estimate
                    for s in range(reps)
                ]
            )
            mean = float(np.mean(ests))
            se = float(np.std(ests, ddof=1)) / math.sqrt(reps)
            gaps[(label, n)] = (abs(mean - theta), se)
    for label in ("amce", "amle"):
        big_gap, big_se = gaps[(label, 10_000)]
        small_gap, small_se = gaps[(label, 100_000)]
        assert small_gap <= 4.0 * small_se + 0.005
        assert small_gap < big_gap


# Each exact oracle and its power of c under (theta, delta) -> (c theta, delta / c).
_SCALED_ORACLES = (
    (exact_var_fn_z, -3.0), (k3_fn_z, -4.5), (k4_fn_z_bound, -6.0),
    (exact_var_lambda, -1.0), (exact_k3_lambda, -1.5), (exact_k4_lambda, -2.0),
)


@settings(deadline=None)
@given(
    theta=st.floats(0.25, 4.0),
    delta=st.floats(1e-3, 1.0),
    n=st.integers(2, 200),
    c=st.sampled_from([0.5, 2.0, 3.0, 4.0]),
    seed=st.integers(0, 2**64 - 1),
)
def test_normalized_errors_invariant_under_time_scaling(theta, delta, n, c, seed):
    # Under (theta, delta) -> (c theta, delta / c), a is unchanged and s2
    # scales as 1/c: on the same draws every path scales as c^{-1/2} and
    # every estimate as c, so each normalized error is unchanged.  Rounding
    # apart: the gap measured at most 25 eps max |error| over 6000 draws,
    # and 0 at c = 4, where every factor is a power of two.  32 paths are
    # one block, simulated in this process.
    p, q = OuParams(theta, delta, n), OuParams(c * theta, delta / c, n)
    sums_p, sums_q = cell_sums(p, 32, seed), cell_sums(q, 32, seed)
    for estimator in Estimator:
        est_p, _, good_p = estimates_of_sums(sums_p, p, estimator, IndexConvention.BODY)
        est_q, _, good_q = estimates_of_sums(sums_q, q, estimator, IndexConvention.BODY)
        assert np.array_equal(good_p, good_q)
        err_p, err_q = normalized_error(est_p, p, theta), normalized_error(est_q, q, c * theta)
        scale = np.finfo(float).eps * float(np.max(np.abs(err_p)))
        assert float(np.max(np.abs(err_q - err_p))) <= 128 * scale, estimator
    # F_n(Z) = sqrt(T) (f_n(Z) - 1/(2 theta)) scales as c^{-3/2} and
    # Lambda_n / sqrt(T) as c^{-1/2}, so a cumulant of order k scales by the
    # k-th power of that
    for oracle, power in _SCALED_ORACLES:
        want = c**power * oracle(p)
        assert abs(oracle(q) - want) <= 1e-12 * abs(want), oracle.__name__
