"""Exact discretization, path simulation, and the stationary coupling."""

import math
from dataclasses import fields
from decimal import Decimal, localcontext
from types import SimpleNamespace

import numpy as np
import pytest

from ou_drift_bench import (
    OuParams,
    SamplePath,
    Variant,
    ou_core,
    path_rng,
    simulate_coupled,
    simulate_path,
    transition_coefficients,
)
from ou_drift_bench.ou_core import simulate_block

from reference import PAIR_FIELDS, rho, row_scan


def test_transition_coefficients_closed_form():
    # theta=1, delta=ln 2: a = 1/2, s2 = (1 - 1/4)/2 = 3/8
    a, s2 = transition_coefficients(1.0, math.log(2.0))
    assert a == pytest.approx(0.5, rel=1e-15)
    assert s2 == pytest.approx(0.375, rel=1e-15)


def test_transition_coefficients_small_step_limit():
    # a -> 1 and s2 -> delta as delta -> 0, with s2 stable at tiny theta*delta
    a, s2 = transition_coefficients(1e-8, 1e-8)
    assert a == pytest.approx(1.0, abs=1e-12)
    assert s2 == pytest.approx(1e-8, rel=1e-10)


@pytest.mark.parametrize("theta, delta", [(1e-200, 1e-200), (1e-160, 1e-160)])
def test_transition_coefficients_where_two_theta_delta_underflows(theta, delta):
    # 2 theta delta is 0.0 at the first cell and subnormal at the second;
    # s2 was 0 there, and 1.1e-5 off in relative terms here
    with localcontext() as ctx:
        ctx.prec = 500  # 1 - e^{-2e-400} keeps 100 digits
        th, de = Decimal(theta), Decimal(delta)
        want = float((1 - (-2 * th * de).exp()) / (2 * th))
    a, s2 = transition_coefficients(theta, delta)
    assert a == 1.0
    assert math.isclose(s2, want, rel_tol=1e-15)


@pytest.mark.parametrize("theta,delta", [(0.0, 0.1), (-1.0, 0.1), (1.0, 0.0), (1.0, -0.5)])
def test_transition_coefficients_rejects_nonpositive(theta, delta):
    with pytest.raises(ValueError):
        transition_coefficients(theta, delta)


def test_rho_values_and_symmetry():
    assert rho(0.5, 0.0) == pytest.approx(1.0, rel=1e-15)
    # theta=1, t=ln 4: e^{-ln 4}/2 = 1/8
    assert rho(1.0, math.log(4.0)) == pytest.approx(0.125, rel=1e-14)
    for t in (-2.0, -0.3, 0.0, 0.3, 2.0):
        assert rho(1.3, t) == rho(1.3, -t)


def test_ou_params_validation():
    p = OuParams(theta=2.0, delta=0.25, n=8)
    assert p.horizon == pytest.approx(2.0, rel=1e-15)
    assert np.allclose(p.times(), 0.25 * np.arange(9))
    for bad in (dict(theta=0.0), dict(delta=0.0), dict(n=0)):
        kwargs = dict(theta=1.0, delta=0.1, n=4)
        kwargs.update(bad)
        with pytest.raises(ValueError):
            OuParams(**kwargs)


def test_from_zero_starts_at_zero_and_keeps_innovations():
    p = OuParams(theta=1.0, delta=0.05, n=32)
    path = simulate_path(p, Variant.FROM_ZERO, seed=11, stream=0)
    assert path.values[0] == 0.0
    assert path.values.shape == (33,)
    assert path.innovations is not None and path.innovations.shape == (32,)
    assert path.z0 is None


def test_simulated_path_follows_ar1_recursion():
    p = OuParams(theta=0.8, delta=0.1, n=50)
    path = simulate_path(p, Variant.FROM_ZERO, seed=3, stream=5)
    a, s2 = transition_coefficients(p.theta, p.delta)
    scale = math.sqrt(s2)
    x = path.values
    xi = path.innovations
    recursed = a * x[:-1] + scale * xi
    assert np.max(np.abs(x[1:] - recursed)) <= 1e-14


def test_determinism_same_key_bitwise_same_path():
    p = OuParams(theta=1.0, delta=0.05, n=64)
    one = simulate_path(p, Variant.STATIONARY, seed=9, stream=123)
    two = simulate_path(p, Variant.STATIONARY, seed=9, stream=123)
    other = simulate_path(p, Variant.STATIONARY, seed=9, stream=124)
    assert np.array_equal(one.values, two.values)
    assert np.array_equal(one.innovations, two.innovations)
    assert one.z0 == two.z0
    assert not np.array_equal(one.values, other.values)


def test_stationary_initial_variance():
    # values[0] = Z_0 ~ N(0, 1/(2 theta)); check the sample variance at 4 SE
    theta = 0.5
    p = OuParams(theta=theta, delta=0.1, n=1)
    z0 = np.array(
        [simulate_path(p, Variant.STATIONARY, seed=77, stream=s).z0 for s in range(4000)]
    )
    target = 1.0 / (2.0 * theta)
    var = float(np.var(z0))
    # SE of the variance of a normal sample: target * sqrt(2/m)
    se = target * math.sqrt(2.0 / z0.size)
    assert abs(var - target) <= 4.0 * se


def test_stationary_lag_covariance_matches_rho():
    # Cov(Z_s, Z_t) = e^{-theta|t-s|}/(2 theta), checked on one column pair
    theta, delta, n = 1.0, 0.1, 8
    p = OuParams(theta=theta, delta=delta, n=n)
    a, s2 = transition_coefficients(theta, delta)
    rng = np.random.default_rng(2026)
    m = 200_000
    z = np.empty((m, n + 1))
    z[:, 0] = rng.normal(size=m) / math.sqrt(2.0 * theta)
    for i in range(n):
        z[:, i + 1] = a * z[:, i] + math.sqrt(s2) * rng.normal(size=m)
    for lag in (1, 4, 8):
        emp = float(np.mean(z[:, 0] * z[:, lag]))
        exact = rho(theta, lag * delta)
        prod = z[:, 0] * z[:, lag]
        se = float(np.std(prod)) / math.sqrt(m)
        assert abs(emp - exact) <= 4.0 * se


def test_coupling_identity_pathwise():
    # X_t = Z_t - e^{-theta t} Z_0 exactly, shared innovations
    p = OuParams(theta=1.3, delta=0.07, n=40)
    x_path, z_path = simulate_coupled(p, seed=21, stream=4)
    decay = np.exp(-p.theta * p.times())
    recon = z_path.values - decay * z_path.z0
    assert np.max(np.abs(x_path.values - recon)) <= 1e-13
    assert np.array_equal(x_path.innovations, z_path.innovations)


def test_sample_path_invariants():
    p = OuParams(theta=1.0, delta=0.1, n=2)
    good = np.array([0.0, 1.0, -0.5])
    SamplePath(params=p, variant=Variant.FROM_ZERO, values=good)
    with pytest.raises(ValueError):
        SamplePath(params=p, variant=Variant.FROM_ZERO, values=np.array([0.1, 1.0, -0.5]))
    with pytest.raises(ValueError):
        SamplePath(params=p, variant=Variant.FROM_ZERO, values=np.array([0.0, np.nan, 0.2]))
    with pytest.raises(ValueError):
        SamplePath(params=p, variant=Variant.FROM_ZERO, values=np.zeros(4))


def test_path_rng_streams_are_reproducible_and_distinct():
    a1 = path_rng(42, 7).normal(size=4)
    a2 = path_rng(42, 7).normal(size=4)
    b = path_rng(42, 8).normal(size=4)
    c = path_rng(43, 7).normal(size=4)
    assert np.array_equal(a1, a2)
    assert not np.array_equal(a1, b)
    assert not np.array_equal(a1, c)


_U64 = 2**64


def _reference_rows(p, seed, lo, hi):
    """Z_0, innovations and from-zero X of streams [lo, hi), one path_rng each."""
    a, s2 = transition_coefficients(p.theta, p.delta)
    z0, xi, x = [], [], np.zeros((hi - lo, p.n + 1))
    for k, stream in enumerate(range(lo, hi)):
        rng = path_rng(seed, stream)
        z0.append(rng.standard_normal() * math.sqrt(1.0 / (2.0 * p.theta)))
        xi.append(rng.standard_normal(p.n))
        for i in range(p.n):
            x[k, i + 1] = a * x[k, i] + math.sqrt(s2) * xi[k][i]
    return np.array(z0), np.array(xi), x


@pytest.mark.parametrize("variant", list(Variant))
@pytest.mark.parametrize(
    "seed, lo, hi",
    [(11, 0, 5), (11, 1000, 1007), (_U64 - 1, _U64 - 3, _U64)],
    ids=["from-stream-0", "offset-block", "streams-near-2^64"],
)
def test_block_draw_layout_matches_path_rng(variant, seed, lo, hi):
    # Z_0 then the innovations, bit for bit as path_rng draws them; the one
    # scan gives X and Z = X + e^{-theta t} Z_0, and simulate_path the
    # variant's path of each row.
    p = OuParams(theta=0.7, delta=0.1, n=40)
    (block,) = simulate_block((p,), seed, lo, hi, paths=True)
    z0, xi, x = _reference_rows(p, seed, lo, hi)
    assert np.array_equal(block.innovations, xi)
    if variant is Variant.STATIONARY:
        assert np.array_equal(block.z0, z0)
        decay = np.exp(-p.theta * p.times())
        np.testing.assert_allclose(block.z, x + np.outer(z0, decay), rtol=1e-12, atol=1e-14)
        assert np.array_equal(block.z[:, 0], z0)
        rows = block.z
    else:
        np.testing.assert_allclose(block.x, x, rtol=1e-12, atol=1e-14)
        assert np.all(block.x[:, 0] == 0.0)
        rows = block.x
    for k, stream in enumerate(range(lo, hi)):
        path = simulate_path(p, variant, seed, stream)
        assert path.values.tobytes() == rows[k].tobytes()
        assert path.innovations.tobytes() == xi[k].tobytes()


@pytest.mark.parametrize("variant", list(Variant))
def test_block_sums_of_long_rows_split_across_chunks(monkeypatch, variant):
    # Rows of 3 chunks of 8 steps and a partial one: the generator state, the
    # scan state and (for Z) the decay offsets must carry across chunk
    # boundaries, in the sums of the variant's path of the pair.
    monkeypatch.setattr(ou_core, "_SCAN_CHUNK", 8)
    p = OuParams(theta=1.3, delta=0.07, n=3 * 8 + 5)
    seed, lo, hi = 5, 17, 21
    (sums,) = simulate_block((p,), seed, lo, hi)
    z0, xi, x = _reference_rows(p, seed, lo, hi)
    z = x + np.outer(z0, np.exp(-p.theta * p.times()))
    head, tail = x[:, :-1], x[:, 1:]
    expected = {
        "x_head_sq": np.sum(head**2, axis=1),
        "x_tail_sq": np.sum(tail**2, axis=1),
        "z_head_sq": np.sum(z[:, :-1] ** 2, axis=1),
        "z_tail_sq": np.sum(z[:, 1:] ** 2, axis=1),
        "amle_num": -np.sum(head * (tail - head), axis=1),
        "x_xi": np.sum(head * xi, axis=1),
    }
    for name in PAIR_FIELDS[variant]:
        if name in expected:
            np.testing.assert_allclose(getattr(sums, name), expected[name], rtol=1e-12,
                                       err_msg=name)


def _scan_by_chunks(p, xi, chunk):
    """X of the rows xi, scanned by ou_core._scan a chunk at a time with the state carried."""
    a, a_pow, weights, _ = ou_core._scan_tables(p)
    x, w = np.zeros((xi.shape[0], p.n + 1)), np.empty(((xi.shape[0] + 1) // 2, chunk), complex)
    for start in range(0, p.n, chunk):
        m = min(chunk, p.n - start)
        ou_core._scan(xi[:, start : start + m], w[:, :m], x[:, start : start + m + 1],
                      a, a_pow, weights)
    return x


@pytest.mark.parametrize(
    "theta, delta",
    [
        (1.0, 1e-300), (1.0, 1e-18), (1.0, 1e-9), (1.0, 1e-6), (1.0, 1 / 128),
        (1.0, 0.05), (1.0, 0.5), (1.0, 4.0), (1.0, 100.0), (1.0, 800.0), (1e-200, 1e-200),
    ],
    ids=lambda v: repr(v),
)
def test_scan_matches_long_double_recursion(monkeypatch, theta, delta):
    # theta*delta from 1e-300 to 800: a = 1 from 1e-18 down, a = 0 at 800,
    # and theta*delta = 0.0 at theta = delta = 1e-200.  Rows of 5 chunks of
    # 1024 steps, of 1 to 512 segments each, scanned with the state carried.
    monkeypatch.setattr(ou_core, "_SCAN_CHUNK", 1024)
    p = OuParams(theta=theta, delta=delta, n=4 * 1024 + 500)
    _, a_pow, weights, _ = ou_core._scan_tables(p)
    span = a_pow.size
    assert span & (span - 1) == 0 and span <= 1024
    assert theta * delta * span <= 300.0 or span == 1
    assert np.all(np.isfinite(weights))
    xi = np.random.default_rng(7).standard_normal((3, p.n))
    x = _scan_by_chunks(p, xi, 1024)
    # the same recursion, coefficients rounded as the kernel's, in long double
    a, s2 = transition_coefficients(theta, delta)
    a_ld, scale_ld = np.longdouble(a), np.sqrt(np.longdouble(s2))
    ref = np.zeros((3, p.n + 1), dtype=np.longdouble)
    for i in range(p.n):
        ref[:, i + 1] = a_ld * ref[:, i] + scale_ld * xi[:, i]
    path_scale = float(np.max(np.abs(ref)))
    # lfilter's own error was 6e-17 to 1.3e-14 of the path scale over this range
    assert float(np.max(np.abs(x - ref))) <= 64 * np.finfo(np.float64).eps * path_scale


@pytest.mark.parametrize("variant", list(Variant))
@pytest.mark.parametrize(
    "theta, delta", [(1.3, 0.07), (5.0, 1.0)], ids=["1-segment", "2-segments"]
)
def test_whole_rows_scan_as_chunks_bit_for_bit(monkeypatch, variant, theta, delta):
    # paths=True scans each row whole; the sums path scans it chunk by chunk.
    # Scan segments start at multiples of their span in absolute time, so
    # both give the same X bits, whether a chunk is one segment or two, and
    # the sums of the variant's path of the pair are those of the whole rows.
    monkeypatch.setattr(ou_core, "_SCAN_CHUNK", 64)
    p = OuParams(theta=theta, delta=delta, n=3 * 64 + 17)
    seed, lo, hi = 5, 17, 21
    (block,) = simulate_block((p,), seed, lo, hi, paths=True)
    x = _scan_by_chunks(p, block.innovations, 64)
    assert np.array_equal(x, block.x)

    (sums,) = simulate_block((p,), seed, lo, hi)
    z = block.z
    head, tail = x[:, :-1], x[:, 1:]
    expected = {
        "x_head_sq": np.sum(head**2, axis=1),
        "x_tail_sq": np.sum(tail**2, axis=1),
        "z_head_sq": np.sum(z[:, :-1] ** 2, axis=1),
        "z_tail_sq": np.sum(z[:, 1:] ** 2, axis=1),
        "amle_num": -np.sum(head * (tail - head), axis=1),
        "x_xi": np.sum(head * block.innovations, axis=1),
    }
    for name in PAIR_FIELDS[variant]:
        if name in expected:
            np.testing.assert_allclose(getattr(sums, name), expected[name], rtol=1e-12,
                                       err_msg=name)


@pytest.mark.parametrize("rows", [1, 2, 3, 16, 17])
def test_paired_scan_matches_row_scan_bit_for_bit(rows):
    # Rows are scanned in complex pairs, each with exactly its own additions.
    # The work buffer starts stale here: an odd last row's partner must be
    # zeroed, or its cumulative sum of 1e308s overflows.  At theta*delta = 5
    # a span is 32 steps, so 200 steps are seven segments, the last partial.
    p = OuParams(theta=5.0, delta=1.0, n=200)
    a, a_pow, weights, _ = ou_core._scan_tables(p)
    assert a_pow.size == 32
    rng = np.random.default_rng(rows)
    xi = rng.standard_normal((rows, p.n))
    x, want = np.zeros((2, rows, p.n + 1))
    x[:, 0] = want[:, 0] = rng.standard_normal(rows)
    stale = np.full(((rows + 1) // 2, p.n), 1e308 + 1e308j)
    with np.errstate(over="raise", invalid="raise"):
        ou_core._scan(xi, stale, x, a, a_pow, weights)
    row_scan(xi, np.empty(xi.shape), want, a, a_pow, weights)
    assert x.tobytes() == want.tobytes()


@pytest.mark.parametrize("paths", [False, True], ids=["sums", "paths"])
@pytest.mark.parametrize("variant", list(Variant))
@pytest.mark.parametrize("rows", [1, 2, 3, 16, 17])
def test_block_of_paired_scans_matches_row_scans(monkeypatch, rows, variant, paths):
    # The kernel's every output for the variant's path of the pair, byte for
    # byte as with each row scanned alone: 3 chunks of 64 steps and a partial
    # one, of two 32-step spans each at theta*delta = 5, and a cell shorter
    # than a chunk.
    monkeypatch.setattr(ou_core, "_SCAN_CHUNK", 64)
    cells = (OuParams(theta=5.0, delta=1.0, n=3 * 64 + 17), OuParams(theta=1.0, delta=0.05, n=40))
    got = simulate_block(cells, 5, 17, 17 + rows, paths=paths)
    monkeypatch.setattr(
        ou_core, "_scan", lambda xi, w, x, *tables: row_scan(xi, np.empty(xi.shape), x, *tables)
    )
    want = simulate_block(cells, 5, 17, 17 + rows, paths=paths)
    for got_cell, want_cell in zip(got, want, strict=True):
        names = [f.name for f in fields(want_cell) if f.name in PAIR_FIELDS[variant]]
        for name in names:
            assert getattr(got_cell, name).tobytes() == getattr(want_cell, name).tobytes(), name


def test_block_buffers_reused_across_calls_leak_nothing(monkeypatch):
    # A worker process keeps its block buffers and scan tables from call to
    # call; each call must give the bits a fresh process gives, whatever the
    # previous call left behind, also after the chunk length changed: the
    # tables of a 64-step chunk cut a 300-step row into other segments.
    p = OuParams(theta=0.7, delta=0.1, n=40)
    long = OuParams(theta=0.7, delta=0.1, n=300)
    calls = [
        ((p,), 3, 0, 5),
        ((OuParams(theta=1.3, delta=0.2, n=40),), 3, 5, 10),
        ((OuParams(theta=0.7, delta=0.1, n=33),), 9, 0, 7),
        ((p,), 3, 0, 5),
        ((p, long), 3, 0, 5),
    ]
    in_turn = [simulate_block(*call) for call in calls[:-1]]
    with monkeypatch.context() as patch:
        patch.setattr(ou_core, "_SCAN_CHUNK", 64)
        simulate_block(*calls[-1])
    in_turn.append(simulate_block(*calls[-1]))
    fresh = dict.fromkeys(vars(ou_core._scratch))  # what a new process starts with
    for call, got in zip(calls, in_turn):
        monkeypatch.setattr(ou_core, "_scratch", SimpleNamespace(**fresh))
        want = simulate_block(*call)
        for got_cell, want_cell in zip(got, want, strict=True):
            for f in fields(want_cell):
                assert np.array_equal(getattr(got_cell, f.name), getattr(want_cell, f.name)), f.name


@pytest.mark.parametrize(
    "seed, lo, hi",
    [(_U64, 0, 1), (-1, 0, 1), (3, -1, 1), (3, _U64 - 1, _U64 + 1)],
    ids=["seed-2^64", "seed-negative", "stream-negative", "stream-2^64"],
)
def test_block_rejects_out_of_range_keys(seed, lo, hi):
    p = OuParams(theta=1.0, delta=0.1, n=4)
    for paths in (False, True):
        with pytest.raises(ValueError, match="uint64"):
            simulate_block((p,), seed, lo, hi, paths=paths)
