"""Distance engine exactness and cumulant/jackknife correctness.

The W1 reference here is adaptive quadrature of |F_emp - Phi| with each
integration piece split at the CDF crossing, so every piece is smooth and
quad's tolerance is honest.  It shares nothing with the closed form under
test except the normal CDF itself.
"""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import ndtr, ndtri
from scipy.stats import kstest

from ou_drift_bench import (
    EmptySample,
    NonFiniteValue,
    TooSmall,
    distance_report,
    kolmogorov_to_std_normal,
    sample_cumulants,
    w1_to_std_normal,
)
from ou_drift_bench.metrics import (
    _BOOTSTRAP_STREAM,
    _big_phi,
    _big_phi_inv,
    _bootstrap_se,
    _resample_blocks,
)
from ou_drift_bench.ou_core import path_rng


def _w1_by_quadrature(sample):
    x = np.sort(np.asarray(sample, dtype=float))
    n = x.size
    eps = dict(epsabs=1e-13, epsrel=1e-11, limit=200)
    total = quad(ndtr, -np.inf, x[0], **eps)[0]
    total += quad(lambda t: 1.0 - ndtr(t), x[-1], np.inf, **eps)[0]
    for i in range(1, n):
        lo, hi, c = x[i - 1], x[i], i / n
        if lo == hi:
            continue
        f = lambda t, c=c: abs(c - ndtr(t))
        if ndtr(lo) < c < ndtr(hi):
            mid = float(ndtri(c))
            total += quad(f, lo, mid, **eps)[0] + quad(f, mid, hi, **eps)[0]
        else:
            total += quad(f, lo, hi, **eps)[0]
    return total


def test_big_phi_and_its_inverse_match_scipy():
    # The package's Phi and Phi^{-1} come from the standard library; scipy's
    # ndtr and ndtri are an independent reference.  erfc's argument x / sqrt 2
    # is rounded once, and Phi's relative condition number, about 1 + x^2 in
    # the lower tail, magnifies that rounding in either implementation.
    eps = np.finfo(np.float64).eps
    x = np.linspace(-40.0, 40.0, 160_001)
    got, ref = _big_phi(x), ndtr(x)
    # below about x = -37.5 both are subnormal: a few of their spacings
    tol = 4.0 * eps * (1.0 + x * x) * ref + 4.0 * np.nextafter(0.0, 1.0)
    # ndtr flushes to 0 below about x = -37.68, where math.erfc carries on in
    # subnormals down to about x = -38.48
    both = ref > 0.0
    assert np.all(np.abs(got - ref)[both] <= tol[both])
    assert np.all(got[~both] < np.finfo(np.float64).tiny)
    assert np.any((0.0 < ref) & (ref < np.finfo(np.float64).tiny))
    # Phi^{-1} is well conditioned: one relative tolerance from 1e-300 to 1 - 1e-16
    p = np.concatenate(
        [
            np.logspace(-300.0, -1.0, 20_001),
            np.linspace(0.1, 0.9, 20_001),
            1.0 - np.logspace(-16.0, -1.0, 20_001),
        ]
    )
    got, ref = _big_phi_inv(p), ndtri(p)
    assert np.all(np.abs(got - ref) <= 8.0 * eps * np.abs(ref))


def test_w1_point_mass_at_zero():
    assert w1_to_std_normal([0.0]) == pytest.approx(math.sqrt(2.0 / math.pi), abs=1e-12)


def test_w1_point_mass_displacement_monotone():
    assert w1_to_std_normal([3.0]) > w1_to_std_normal([0.0])


def test_w1_matches_quadrature_on_random_samples():
    # 100 random samples of size <= 100, mixed scales and shifts so the
    # empirical CDF crosses Phi in varied patterns, and rounded ones whose ties
    # give zero-width gaps
    rng = np.random.default_rng(20260822)
    worst = 0.0
    for trial in range(100):
        size = int(rng.integers(1, 101))
        kind = trial % 5
        if kind == 0:
            sample = rng.normal(size=size)
        elif kind == 1:
            sample = rng.normal(loc=1.5, size=size)
        elif kind == 2:
            sample = 3.0 * rng.normal(size=size)
        elif kind == 3:
            sample = rng.standard_t(df=3, size=size) - 0.5
        else:
            sample = np.round(rng.normal(size=size), 1)
        got = w1_to_std_normal(sample)
        ref = _w1_by_quadrature(sample)
        worst = max(worst, abs(got - ref))
    assert worst <= 1e-9


def test_w1_exact_quantile_sample_is_small():
    m = 10_000
    levels = (np.arange(m) + 0.5) / m
    assert w1_to_std_normal(ndtri(levels)) < 1e-3


def test_w1_translation_lipschitz():
    rng = np.random.default_rng(4)
    x = rng.normal(size=300)
    base = w1_to_std_normal(x)
    for c in (-2.0, -0.1, 0.3, 5.0):
        assert abs(w1_to_std_normal(x + c) - base) <= abs(c) + 1e-12


def test_distances_permutation_invariant():
    rng = np.random.default_rng(9)
    x = rng.normal(size=101)
    perm = rng.permutation(x)
    assert w1_to_std_normal(perm) == w1_to_std_normal(x)
    assert kolmogorov_to_std_normal(perm) == kolmogorov_to_std_normal(x)


_SAMPLE = st.lists(st.floats(-50.0, 50.0), min_size=1, max_size=300)


@settings(max_examples=200, deadline=None, database=None)
@given(sample=_SAMPLE, c=st.floats(-50.0, 50.0))
def test_w1_translation_lipschitz_property(sample, c):
    x = np.asarray(sample)
    # W1 is a sum of terms of order max|x|, each rounded
    slack = 1e-12 * (1.0 + float(np.max(np.abs(x))) + abs(c))
    assert abs(w1_to_std_normal(x + c) - w1_to_std_normal(x)) <= abs(c) + slack


@settings(max_examples=200, deadline=None, database=None)
@given(data=st.data(), sample=_SAMPLE)
def test_distances_permutation_invariant_property(data, sample):
    perm = data.draw(st.permutations(sample))
    assert w1_to_std_normal(perm) == w1_to_std_normal(sample)
    assert kolmogorov_to_std_normal(perm) == kolmogorov_to_std_normal(sample)


@settings(max_examples=300, deadline=None, database=None)
@given(c=st.floats(allow_nan=False, allow_infinity=False))
def test_point_mass_closed_forms(c):
    phi_c = math.exp(-0.5 * c * c) / math.sqrt(2.0 * math.pi)
    big_phi = float(ndtr(c))
    w1 = 2.0 * phi_c + c * (2.0 * big_phi - 1.0)
    assert w1_to_std_normal([c]) == pytest.approx(w1, rel=1e-12, abs=1e-12)
    own = float(_big_phi(np.array([c]))[0])
    assert kolmogorov_to_std_normal([c]) == max(own, 1.0 - own)
    # half the mass at -|c| and half at |c|: near the largest double the gap
    # between them is wider than any double
    a = abs(c)
    pair = a * (4.0 * float(ndtr(a)) - 3.0) + 4.0 * phi_c - 2.0 / math.sqrt(2.0 * math.pi)
    assert w1_to_std_normal([-c, c]) == pytest.approx(pair, rel=1e-12, abs=1e-12)


def test_kolmogorov_point_mass_at_zero():
    assert kolmogorov_to_std_normal([0.0]) == 0.5


def test_kolmogorov_exact_quantile_sample():
    m = 10_000
    levels = (np.arange(m) + 0.5) / m
    assert kolmogorov_to_std_normal(ndtri(levels)) == pytest.approx(1.0 / (2 * m), rel=1e-9)


def test_kolmogorov_matches_scipy_kstest():
    rng = np.random.default_rng(123)
    for size in (1, 2, 17, 400):
        x = rng.normal(size=size) * 1.3 + 0.2
        got = kolmogorov_to_std_normal(x)
        ref = kstest(x, "norm").statistic
        assert got == pytest.approx(ref, abs=1e-12)
        assert 0.0 <= got <= 1.0


@settings(max_examples=200, deadline=None, database=None)
@given(sample=st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=60))
def test_kolmogorov_in_unit_interval(sample):
    assert 0.0 <= kolmogorov_to_std_normal(sample) <= 1.0


def test_kolmogorov_dkw_scale():
    rng = np.random.default_rng(77)
    assert kolmogorov_to_std_normal(rng.normal(size=10_000)) < 0.03


@pytest.mark.parametrize("func", [w1_to_std_normal, kolmogorov_to_std_normal])
def test_distance_input_validation(func):
    with pytest.raises(EmptySample):
        func([])
    with pytest.raises(NonFiniteValue):
        func([0.0, np.nan])
    with pytest.raises(NonFiniteValue):
        func([np.inf, 1.0])


def test_sample_cumulants_constant_sample():
    sc = sample_cumulants([2.5] * 6)
    assert (sc.mean, sc.var, sc.k3, sc.k4) == (2.5, 0.0, 0.0, 0.0)


def test_sample_cumulants_balanced_signs():
    sc = sample_cumulants([1.0, -1.0, 1.0, -1.0])
    assert sc.mean == 0.0
    assert sc.var == pytest.approx(1.0, rel=1e-15)
    assert sc.k3 == pytest.approx(0.0, abs=1e-15)
    assert sc.k4 == pytest.approx(-2.0, rel=1e-15)


def test_sample_cumulants_match_naive_moments():
    rng = np.random.default_rng(5)
    x = rng.normal(size=500) * 2.0 + 3.0
    sc = sample_cumulants(x)
    y = x - np.mean(x)
    m2, m3, m4 = (float(np.mean(y**p)) for p in (2, 3, 4))
    assert sc.var == pytest.approx(m2, rel=1e-12)
    assert sc.k3 == pytest.approx(m3, rel=1e-12)
    assert sc.k4 == pytest.approx(m4 - 3 * m2 * m2, rel=1e-12)


def test_sample_cumulants_translation_invariant_shape():
    rng = np.random.default_rng(6)
    x = rng.normal(size=200)
    a, b = sample_cumulants(x), sample_cumulants(x + 100.0)
    assert b.mean == pytest.approx(a.mean + 100.0, rel=1e-12)
    assert b.var == pytest.approx(a.var, rel=1e-9)
    assert b.k3 == pytest.approx(a.k3, abs=1e-7)
    assert b.k4 == pytest.approx(a.k4, abs=1e-7)


def test_jackknife_matches_brute_force():
    rng = np.random.default_rng(8)
    x = rng.normal(size=150) ** 2
    sc = sample_cumulants(x)
    n = x.size
    reps = {"var": [], "k3": [], "k4": [], "mean": []}
    for i in range(n):
        sub = np.delete(x, i)
        y = sub - np.mean(sub)
        m2, m3, m4 = (float(np.mean(y**p)) for p in (2, 3, 4))
        reps["mean"].append(float(np.mean(sub)))
        reps["var"].append(m2)
        reps["k3"].append(m3)
        reps["k4"].append(m4 - 3 * m2 * m2)

    def jack_se(vals):
        vals = np.asarray(vals)
        return math.sqrt((n - 1) / n * float(np.sum((vals - vals.mean()) ** 2)))

    assert sc.se_mean == pytest.approx(jack_se(reps["mean"]), rel=1e-9)
    assert sc.se_var == pytest.approx(jack_se(reps["var"]), rel=1e-9)
    assert sc.se_k3 == pytest.approx(jack_se(reps["k3"]), rel=1e-9)
    assert sc.se_k4 == pytest.approx(jack_se(reps["k4"]), rel=1e-9)


def test_sample_cumulants_normal_sample_shape():
    rng = np.random.default_rng(11)
    sc = sample_cumulants(rng.normal(size=50_000))
    assert abs(sc.k3) <= 4.0 * sc.se_k3
    assert abs(sc.k4) <= 4.0 * sc.se_k4
    assert abs(sc.var - 1.0) <= 4.0 * sc.se_var


def test_sample_cumulants_minimum_size():
    with pytest.raises(TooSmall):
        sample_cumulants([1.0, 2.0, 3.0])
    with pytest.raises(EmptySample):
        sample_cumulants([])
    with pytest.raises(NonFiniteValue):
        sample_cumulants([1.0, 2.0, np.nan, 4.0])
    sample_cumulants([1.0, 2.0, 3.0, 4.0])


def test_distance_report_deterministic_and_consistent():
    rng = np.random.default_rng(15)
    x = rng.normal(size=400)
    a = distance_report(x, n_bootstrap=100, seed=3)
    b = distance_report(x, n_bootstrap=100, seed=3)
    c = distance_report(x, n_bootstrap=100, seed=4)
    assert a == b
    assert a.w1_se != c.w1_se
    assert a.w1 == w1_to_std_normal(x)
    assert a.kolmogorov == kolmogorov_to_std_normal(x)
    assert a.w1_se > 0.0 and a.kolmogorov_se > 0.0


def test_distance_report_rejects_tiny_bootstrap():
    with pytest.raises(ValueError):
        distance_report([0.0, 1.0], n_bootstrap=1)
    # the count is checked before the sample is even looked at
    with pytest.raises(ValueError):
        distance_report([np.nan], n_bootstrap=1)
    for bad in (2.0, 200.5, True, "200", None):
        with pytest.raises(TypeError):
            distance_report([np.nan], n_bootstrap=bad)
    assert distance_report([0.0, 1.0], n_bootstrap=np.int64(3)) == distance_report(
        [0.0, 1.0], n_bootstrap=3
    )


def _one_shot_idx(size, n_bootstrap, seed):
    return path_rng(seed, _BOOTSTRAP_STREAM).integers(0, size, size=(n_bootstrap, size))


def _bootstrap_reference(x, n_bootstrap, seed):
    """Standard errors from the per-sample functions on each resample."""
    idx = _one_shot_idx(x.size, n_bootstrap, seed)
    w1 = np.std([w1_to_std_normal(x[i]) for i in idx], ddof=1)
    kolm = np.std([kolmogorov_to_std_normal(x[i]) for i in idx], ddof=1)
    return float(w1), float(kolm)


def _reference_samples():
    rng = np.random.default_rng(20261018)
    return {
        "normal-1e4": rng.normal(size=10_000),
        "student-t3": rng.standard_t(df=3, size=5_000),
        "ties": np.round(rng.normal(size=3_000), 1),
        "n1": np.array([0.3]),
        "n2": np.array([-0.2, 0.7]),
        "constant": np.full(50, 1.25),
        "beyond-40": np.concatenate(
            [rng.uniform(41.0, 60.0, size=60), -rng.uniform(41.0, 60.0, size=60)]
        ),
    }


@pytest.mark.parametrize("name", list(_reference_samples()))
def test_bootstrap_matches_per_resample_reference(name):
    x = _reference_samples()[name]
    report = distance_report(x, n_bootstrap=200, seed=11)
    w1_se, kolmogorov_se = _bootstrap_reference(x, 200, 11)
    assert report.kolmogorov_se == kolmogorov_se
    assert abs(report.w1_se - w1_se) <= 1e-12 * abs(w1_se)


def test_bootstrap_se_of_a_far_sample_is_finite():
    # np.std of the W1 replicates once overflowed squaring them, an error
    # under the commands' errstate, though every replicate was finite.
    # Scaling by a power of two is exact, so the reference scales by hand.
    x = np.array([-1e200, 1.0, 2.0])
    with np.errstate(over="raise", divide="raise", invalid="raise"):
        report = distance_report(x, n_bootstrap=200, seed=11)
    idx = _one_shot_idx(x.size, 200, 11)
    w1 = np.array([w1_to_std_normal(x[i]) for i in idx])
    kolm = np.array([kolmogorov_to_std_normal(x[i]) for i in idx])
    want = 2.0**664 * float(np.std(w1 / 2.0**664, ddof=1))
    assert math.isfinite(report.w1_se) and abs(report.w1_se - want) <= 1e-12 * want
    assert report.kolmogorov_se == float(np.std(kolm, ddof=1))


@pytest.mark.parametrize("scale", [1e-5, 1.0, 0.5, 1.0 / 3.0, 1e5, 1e100, 1e150])
def test_bootstrap_se_keeps_the_bits_of_np_std(scale):
    # below about 1e150 no square overflows, and the scaled standard
    # deviation is np.std's to the bit
    replicates = np.random.default_rng(9).uniform(0.0, 1.0, size=200) * scale
    assert _bootstrap_se(replicates) == float(np.std(replicates, ddof=1))


@settings(max_examples=200, deadline=None, database=None)
@given(
    sample=st.lists(
        st.one_of(
            st.floats(-45.0, 45.0),
            st.sampled_from([-1.0, 0.0, 0.5, 2.0]),
        ),
        min_size=1,
        max_size=40,
    ),
    seed=st.integers(0, 2**64 - 1),
)
def test_bootstrap_matches_reference_property(sample, seed):
    x = np.asarray(sample)
    report = distance_report(x, n_bootstrap=20, seed=seed)
    w1_se, kolmogorov_se = _bootstrap_reference(x, 20, seed)
    assert report.kolmogorov_se == kolmogorov_se
    # each replicate carries rounding of order eps * max|x|
    tol = 1e-12 * w1_se + 1e-14 * (1.0 + float(np.max(np.abs(x))))
    assert abs(report.w1_se - w1_se) <= tol


@pytest.mark.parametrize(
    "size, n_bootstrap", [(7, 80_000), (1001, 600), (1024, 600)]
)
def test_chunked_resample_draws_equal_one_shot_draw(size, n_bootstrap):
    blocks = list(_resample_blocks(size, n_bootstrap, seed=5))
    assert len(blocks) > 1
    assert np.array_equal(np.concatenate(blocks), _one_shot_idx(size, n_bootstrap, 5))


def test_bootstrap_memory_bounded_in_n_bootstrap():
    # all of idx at once would be 2500 x 2000 x 8 bytes = 40 MB
    x = np.random.default_rng(3).normal(size=2_000)
    tracemalloc.start()
    try:
        distance_report(x, n_bootstrap=2_500, seed=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20
