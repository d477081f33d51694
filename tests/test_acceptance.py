"""Acceptance suite: nine numbered end-to-end checks, one verdict line each.

Monte Carlo checks 1-3 draw their samples from the package's one simulation
kernel, `ou_core.simulate_block`: check 1 as one block of whole paths,
checks 2 and 3 as per-path sums through the harness's cell walk, whose
worker processes run the kernel block by block, reduced by the package's
sum-side statistics (big_f_n_of_sums, lambda_n_of_sums).  A spot-check
against the per-path API (simulate_path with big_f_n or lambda_n), the
independent reference, runs inside each test that reduces paths to sums.
The kernel's draw layout is pinned against path_rng in test_ou_core.  Every
random quantity is keyed to one fixed master seed, which makes each verdict
deterministic.

Check 3 pins the Lambda_n / sqrt(T) cumulants to the exact closed forms and
asserts that the same sample rejects the first-order values (0 and
k4_lambda), which drop cross terms that dominate at desk scale; a failure
message carries both distances.
"""

import json
import math
import os
import time
from importlib import resources

import numpy as np
import pytest

from ou_drift_bench import (
    Estimator,
    IndexConvention,
    OuParams,
    Variant,
    amle,
    big_f_n,
    big_f_n_of_sums,
    cell_sums,
    exact_k3_lambda,
    exact_k4_lambda,
    exact_var_fn_z,
    fit_rate,
    k3_fn_z,
    k3_lambda_is_zero,
    k4_fn_z_bound,
    k4_lambda,
    kolmogorov_to_std_normal,
    lambda_n,
    lambda_n_of_sums,
    preset_schedule,
    run_schedule,
    sample_cumulants,
    simulate_path,
    w1_to_std_normal,
)
from ou_drift_bench.cli import main
from ou_drift_bench.ou_core import simulate_block

from reference import rho
from test_metrics import _w1_by_quadrature

SEED = 20260822


def _row_sums(params, variant, reps):
    """Kernel row sums of streams 0..reps-1, from the harness's worker pool."""
    return cell_sums(params, variant, reps, SEED)


def test_01_stationary_covariance_matches_rho_grid():
    """Empirical Cov(Z_s, Z_t) vs rho on a 5x5 time grid, 3 thetas, 3 SE.

    10^5 stationary paths per theta; budget one minute.
    """
    start = time.perf_counter()
    reps, n, delta = 100_000, 4, 0.5
    for idx, theta in enumerate((0.5, 1.0, 2.0)):
        params = OuParams(theta=theta, delta=delta, n=n)
        (block,) = simulate_block(
            (params,), Variant.STATIONARY, SEED, idx * reps, (idx + 1) * reps, paths=True
        )
        batch = block.values
        for i in range(n + 1):
            for j in range(n + 1):
                prod = batch[:, i] * batch[:, j]
                emp = float(np.mean(prod))
                se = float(np.std(prod, ddof=1)) / math.sqrt(reps)
                exact = rho(theta, abs(i - j) * delta)
                assert abs(emp - exact) <= 3.0 * se, (
                    f"theta={theta} pair=({i},{j}): empirical {emp:.6f} vs "
                    f"exact {exact:.6f}, {abs(emp - exact) / se:.2f} se"
                )
    assert time.perf_counter() - start < 60.0


def test_02_var_fn_z_parity_and_monotone_asymptotic_gap():
    """Monte Carlo Var F_n(Z) vs the exact oracle, then the asymptotic gap.

    Parity within 3 jackknife SE at (theta=1, delta=0.05, n=1000) with 10^5
    replications; |exact - 1/(2 theta^3)| strictly decreasing on the square
    root schedule n in {100, 1000, 10000}.  Budget two minutes.
    """
    start = time.perf_counter()
    theta, delta, n, reps = 1.0, 0.05, 1000, 100_000
    params = OuParams(theta=theta, delta=delta, n=n)
    sums = _row_sums(params, Variant.STATIONARY, reps)
    f = big_f_n_of_sums(sums, params, IndexConvention.BODY)
    probe = simulate_path(params, Variant.STATIONARY, SEED, stream=7)
    probe_f = big_f_n(probe, theta)
    assert f[7] == pytest.approx(probe_f, rel=1e-12, abs=1e-12)
    sc = sample_cumulants(f)
    exact = exact_var_fn_z(params)
    assert abs(sc.var - exact) <= 3.0 * sc.se_var, (
        f"var {sc.var:.6f} vs exact {exact:.6f}, "
        f"{abs(sc.var - exact) / sc.se_var:.2f} se"
    )
    limit = 1.0 / (2.0 * theta**3)
    gaps = [
        abs(exact_var_fn_z(OuParams(theta=theta, delta=m**-0.5, n=m)) - limit)
        for m in (100, 1000, 10_000)
    ]
    assert gaps[0] > gaps[1] > gaps[2], gaps
    assert time.perf_counter() - start < 120.0


def test_03_cumulant_oracles_fn_z_and_lambda():
    """Cumulant oracles against 10^6-replication Monte Carlo; budget 5 min.

    F_n(Z) at (theta=1, delta=0.1, n=64): kappa3 matches k3_fn_z within 3 SE
    and |kappa4| stays below k4_fn_z_bound + 3 SE.  Lambda_n / sqrt(T) at
    (theta=1, delta=0.05, n=256): kappa3 and kappa4 within 3 SE of
    exact_k3_lambda and exact_k4_lambda, while the first-order values
    k3_lambda_is_zero and k4_lambda sit more than 3 SE away, so the sample
    tells the two apart.  The gap is the dropped cross terms: sqrt(T) *
    exact_k3_lambda stays within a factor 1.2 along n in {256, 1024, 4096}
    at delta = 0.05 (order 1/sqrt(T)), and 6 * k4_lambda is the diagonal
    first line of the exact_k4_lambda expansion, whose other lines are
    nonnegative.
    """
    start = time.perf_counter()
    reps = 1_000_000

    theta, delta, n = 1.0, 0.1, 64
    params = OuParams(theta=theta, delta=delta, n=n)
    sums = _row_sums(params, Variant.STATIONARY, reps)
    f = big_f_n_of_sums(sums, params, IndexConvention.BODY)
    probe = simulate_path(params, Variant.STATIONARY, SEED, stream=5)
    assert f[5] == pytest.approx(big_f_n(probe, theta), rel=1e-12, abs=1e-12)
    sc_f = sample_cumulants(f)
    k3_exact = k3_fn_z(params)
    assert abs(sc_f.k3 - k3_exact) <= 3.0 * sc_f.se_k3, (
        f"k3 {sc_f.k3:.5f} vs k3_fn_z {k3_exact:.5f}, "
        f"{abs(sc_f.k3 - k3_exact) / sc_f.se_k3:.2f} se"
    )
    bound = k4_fn_z_bound(params)
    assert abs(sc_f.k4) <= bound + 3.0 * sc_f.se_k4, (
        f"|k4| {abs(sc_f.k4):.5f} above k4_fn_z_bound {bound:.5f} + 3 se"
    )

    theta, delta, n = 1.0, 0.05, 256
    params = OuParams(theta=theta, delta=delta, n=n)
    sums = _row_sums(params, Variant.FROM_ZERO, reps)
    lam = lambda_n_of_sums(sums, params) / math.sqrt(n * delta)
    probe = simulate_path(params, Variant.FROM_ZERO, SEED, stream=3)
    probe_lam = lambda_n(probe) / math.sqrt(params.horizon)
    assert lam[3] == pytest.approx(probe_lam, rel=1e-12, abs=1e-12)
    sc_l = sample_cumulants(lam)
    claimed3 = k3_lambda_is_zero(params)
    claimed4 = k4_lambda(params)
    exact3 = exact_k3_lambda(params)
    exact4 = exact_k4_lambda(params)
    z3_claimed = abs(sc_l.k3 - claimed3) / sc_l.se_k3
    z3_exact = abs(sc_l.k3 - exact3) / sc_l.se_k3
    z4_claimed = abs(sc_l.k4 - claimed4) / sc_l.se_k4
    z4_exact = abs(sc_l.k4 - exact4) / sc_l.se_k4
    assert time.perf_counter() - start < 300.0
    detail = (
        f"Lambda_n/sqrt(T) at (theta={theta}, delta={delta}, n={n}), "
        f"{reps} replications:\n"
        f"  k3 measured {sc_l.k3:.5f} (se {sc_l.se_k3:.5f}); first-order "
        f"value {claimed3} is {z3_claimed:.1f} se away; exact closed form "
        f"{exact3:.5f} is {z3_exact:.2f} se away\n"
        f"  k4 measured {sc_l.k4:.5f} (se {sc_l.se_k4:.5f}); first-order "
        f"value {claimed4:.6f} is {z4_claimed:.1f} se away; exact closed "
        f"form {exact4:.5f} is {z4_exact:.2f} se away"
    )
    assert z3_exact <= 3.0 and z4_exact <= 3.0, f"exact oracles off; {detail}"
    assert z3_claimed > 3.0 and z4_claimed > 3.0, (
        f"sample does not separate the first-order values; {detail}"
    )

    # The k3 gap is of order T^{-1/2}: sqrt(T) * exact_k3_lambda is nearly
    # flat along n at fixed delta.
    k3_root_t = [
        math.sqrt(m * delta) * exact_k3_lambda(OuParams(theta=theta, delta=delta, n=m))
        for m in (256, 1024, 4096)
    ]
    assert min(k3_root_t) > 0.0 and max(k3_root_t) <= 1.2 * min(k3_root_t), k3_root_t

    # k4_lambda keeps only the diagonal first line of the Wick expansion, up
    # to its factor 6; the other lines are nonnegative.
    assert 0.0 <= claimed4 <= exact4 / 6.0, (claimed4, exact4)


def test_04_amle_decomposition_identity_every_path():
    """(-theta_hat) equals (e^{-theta delta} - 1)/delta + Lambda_n/S_n.

    10^3 from-zero paths across three thetas, relative error at most 1e-10 on
    every single path.  Budget well under a minute.
    """
    start = time.perf_counter()
    thetas = (0.5, 1.0, 2.0)
    delta, n = 0.05, 1000
    for stream in range(1000):
        theta = thetas[stream % len(thetas)]
        params = OuParams(theta=theta, delta=delta, n=n)
        path = simulate_path(params, Variant.FROM_ZERO, SEED, stream=stream)
        rec = amle(path)
        a = math.exp(-theta * delta)
        s_n = rec.denominator * params.horizon
        lhs = -rec.estimate
        rhs = (a - 1.0) / delta + lambda_n(path) / s_n
        assert abs(lhs - rhs) <= 1e-10 * (1.0 + abs(rec.estimate)), (
            f"stream {stream}: lhs {lhs!r} rhs {rhs!r}"
        )
    assert time.perf_counter() - start < 60.0


def test_05_w1_engine_exact_values_and_quadrature_parity():
    """W1({0}) = sqrt(2/pi) to 1e-12, K({0}) = 1/2, quadrature to 1e-9.

    The closed-form W1 must match adaptive quadrature of |F_hat - Phi| to
    1e-9 on 100 random samples of size at most 100.
    """
    assert abs(w1_to_std_normal(np.zeros(1)) - math.sqrt(2.0 / math.pi)) <= 1e-12
    assert kolmogorov_to_std_normal(np.zeros(1)) == 0.5

    rng = np.random.default_rng(SEED + 100)
    worst = 0.0
    for case in range(100):
        size = int(rng.integers(1, 101))
        kind = case % 4
        if kind == 0:
            sample = rng.standard_normal(size)
        elif kind == 1:
            sample = 0.6 + 1.7 * rng.standard_normal(size)
        elif kind == 2:
            sample = rng.uniform(-2.5, 2.5, size)
        else:
            sample = rng.laplace(0.0, 0.8, size)
        gap = abs(w1_to_std_normal(sample) - _w1_by_quadrature(sample))
        worst = max(worst, gap)
        assert gap <= 1e-9, f"case {case} (size {size}): gap {gap:.3e}"
    assert worst <= 1e-9


@pytest.fixture(scope="module")
def clt_results():
    """Both estimators on the square-root schedule, 10^4 replications."""
    schedule = preset_schedule("amce-gamma-half")
    start = time.perf_counter()
    results, _ = run_schedule(schedule, (Estimator.AMCE, Estimator.AMLE), 10_000, SEED)
    return {r.estimator: r for r in results}, time.perf_counter() - start


def test_06_w1_clt_decrease_with_pilot_baseline(clt_results):
    """W1 to N(0,1) strictly decreasing along the schedule for both
    estimators, first and last cell separated by 3 bootstrap SE, and the
    largest cell no worse than the recorded pilot baseline plus 10 percent.
    Budget fifteen minutes.
    """
    results, elapsed = clt_results
    baseline = json.loads(
        resources.files("ou_drift_bench")
        .joinpath("data/pilot_baselines.json")
        .read_text()
    )
    schedule = preset_schedule("amce-gamma-half")
    last_cell = schedule.cells[-1]
    assert baseline["schedule"] == "amce-gamma-half"
    assert baseline["theta"] == 1.0
    assert baseline["replications"] == 10_000
    assert baseline["master_seed"] == SEED
    assert baseline["convention"] == "body"
    assert baseline["largest_cell"]["n"] == last_cell.n
    assert baseline["largest_cell"]["delta"] == pytest.approx(last_cell.delta, rel=1e-15)

    for est, result in results.items():
        w1 = [s.distance.w1 for s in result.summaries]
        assert all(b < a for a, b in zip(w1, w1[1:])), (est.value, w1)

        first, last = result.summaries[0].distance, result.summaries[-1].distance
        sep = (first.w1 - last.w1) / math.hypot(first.w1_se, last.w1_se)
        assert sep >= 3.0, f"{est.value}: first-last separation {sep:.1f} se"

        cap = baseline["w1"][est.value] * 1.1
        assert last.w1 < cap, (
            f"{est.value}: largest-cell w1 {last.w1:.6f} above pilot "
            f"baseline + 10% = {cap:.6f}"
        )
    assert elapsed < 900.0


def test_07_rate_envelope_positive_slope_and_exact_synthetic_fits(clt_results):
    """Log-log W1 against the bound expression has positive slope, r2 in
    [0, 1]; fit_rate recovers synthetic slopes 1 and 2 exactly."""
    results, _ = clt_results
    for est, result in results.items():
        fit = result.bound_fit
        assert fit is not None
        assert fit.slope > 0.0, f"{est.value}: slope {fit.slope:.3f}"
        assert math.isfinite(fit.r2) and 0.0 <= fit.r2 <= 1.0
        print(f"{est.value}: slope={fit.slope:.3f} r2={fit.r2:.4f}")

    x = np.array([0.01, 0.02, 0.05, 0.1, 0.4])
    linear = fit_rate([(b, 3.0 * b) for b in x])
    quadratic = fit_rate([(b, 0.5 * b * b) for b in x])
    assert linear.slope == pytest.approx(1.0, abs=1e-12)
    assert quadratic.slope == pytest.approx(2.0, abs=1e-12)
    assert linear.r2 == pytest.approx(1.0, abs=1e-12)
    assert quadratic.r2 == pytest.approx(1.0, abs=1e-12)


def test_08_coupling_l2_scaled_within_factor_10():
    """||F_n(X) - F_n(Z)||_L2 * (n delta) stable across n in {256, 1024,
    4096} at delta = 0.05: max/min below 10.  Budget two minutes.
    """
    start = time.perf_counter()
    _, report = run_schedule(preset_schedule("coupling-sweep"), (), 2000, SEED)
    assert [row.n for row in report.rows] == [256, 1024, 4096]
    assert all(row.delta == 0.05 for row in report.rows)
    assert all(row.l2 > 0.0 for row in report.rows)
    scaled = [row.l2_scaled for row in report.rows]
    assert report.within_factor_10 and report.spread < 10.0, (
        f"l2 * (n delta) = {scaled}, spread {report.spread:.2f}"
    )
    assert time.perf_counter() - start < 120.0


def test_09_csv_byte_determinism_workers_and_reruns(tmp_path, monkeypatch):
    """Each subcommand writes byte-identical CSVs with 1 worker, all
    workers, and on a rerun."""
    max_workers = str(os.cpu_count() or 1)
    cases = [
        ["simulate", "--n", "64", "--seed", "11"],
        ["estimate", "--n", "300", "--delta", "0.05", "--reps", "12", "--seed", "11"],
        # 40 rows of n = 20000 span three blocks and two scan chunks each
        ["estimate", "--n", "20000", "--delta", "0.05", "--reps", "40", "--seed", "11"],
        ["oracle", "--theta", "2.0", "--n", "128", "--delta", "0.1"],
        ["rates", "--preset", "coupling-sweep", "--reps", "300", "--seed", "11"],
    ]
    for idx, argv in enumerate(cases):
        outs = []
        for tag, workers in (("one", "1"), ("max", max_workers), ("rerun", "1")):
            out = tmp_path / f"case{idx}-{tag}"
            monkeypatch.setenv("OU_BENCH_THREADS", workers)
            assert main(argv + ["--out", str(out)]) == 0, argv
            outs.append(out)
        names = sorted(p.name for p in outs[0].glob("*.csv"))
        assert names, f"{argv[0]} wrote no csv"
        for other in outs[1:]:
            assert sorted(p.name for p in other.glob("*.csv")) == names
            for name in names:
                assert (outs[0] / name).read_bytes() == (other / name).read_bytes(), (
                    f"{argv[0]}: {name} differs between {outs[0].name} and {other.name}"
                )
