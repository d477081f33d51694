"""Distribution distances and sample cumulants for Monte Carlo output.

The distances compare an empirical sample against the standard normal law:

* `w1_to_std_normal` integrates |F_emp - Phi| exactly, piecewise between
  order statistics, using the closed antiderivative G(x) = x Phi(x) + phi(x).
  No quadrature, no binning; the only error is floating point.
* `kolmogorov_to_std_normal` is the usual sup-distance evaluated at the order
  statistics from both sides.

`sample_cumulants` returns bias-uncorrected central-moment cumulants (var,
kappa3, kappa4) with leave-one-out jackknife standard errors, vectorized via
power sums on the pre-centered sample.  `distance_report` pairs both distances
with deterministic bootstrap standard errors.

Every W1 goes through one kernel, `_distances(xs, g, phi, count)`: both
distances of the sample holding the sorted value xs[k] count[k] times, read off
the tables g = G(xs) and phi = Phi(xs); only the gaps where the empirical CDF
crosses Phi need Phi^{-1}.  `w1_to_std_normal` passes all-ones counts.
`distance_report` sorts once and builds the tables once, then passes all-ones
counts for the point distances and each bootstrap resample's index counts, so
no resample is sorted or transformed.  The kernel takes the Kolmogorov
candidates of `kolmogorov_to_std_normal`, so it agrees with it to the bit.

Phi and Phi^{-1} come from the standard library: Phi(x) = erfc(-x / sqrt 2) / 2
with `math.erfc`, and `statistics.NormalDist.inv_cdf` (Wichura's AS241).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from .errors import EmptySample, NonFiniteValue, TooSmall
from .ou_core import path_rng

__all__ = [
    "CUMULANT_MIN_SAMPLE",
    "DistanceReport",
    "SampleCumulants",
    "distance_report",
    "kolmogorov_to_std_normal",
    "sample_cumulants",
    "w1_to_std_normal",
]

_SQRT_2PI = math.sqrt(2.0 * math.pi)
_SQRT_HALF = math.sqrt(0.5)
_INV_CDF = NormalDist().inv_cdf
# Smallest sample sample_cumulants accepts (the jackknife needs 4).
CUMULANT_MIN_SAMPLE = 4
# Stream id for bootstrap resampling, far above any per-path stream index so a
# (seed, stream) pair never collides with a simulation stream.
_BOOTSTRAP_STREAM = (0xB007 << 32) | 0x57EA
# Resample indices drawn per generator call, so the index block holds about
# 2^18 values (2 MiB) whatever the sample size and n_bootstrap are.
_BOOTSTRAP_BLOCK_VALUES = 1 << 18


def _as_clean_1d(sample, what: str) -> np.ndarray:
    arr = np.asarray(sample, dtype=np.float64).ravel()
    if arr.size == 0:
        raise EmptySample(f"{what} needs a nonempty sample")
    if not np.all(np.isfinite(arr)):
        bad = int(np.count_nonzero(~np.isfinite(arr)))
        raise NonFiniteValue(f"{what} got {bad} non-finite values")
    return arr


def _big_phi(x: np.ndarray) -> np.ndarray:
    """Phi(x) = erfc(-x / sqrt 2) / 2, elementwise."""
    return 0.5 * np.fromiter(map(math.erfc, (x * -_SQRT_HALF).tolist()), np.float64, x.size)


def _big_phi_inv(p: np.ndarray) -> np.ndarray:
    """Phi^{-1}(p) for p in (0, 1), elementwise."""
    return np.fromiter(map(_INV_CDF, p.tolist()), np.float64, p.size)


def _big_phi_antideriv(x: np.ndarray, big_phi: np.ndarray) -> np.ndarray:
    """G(x) = x Phi(x) + phi(x), the antiderivative of Phi with G(-inf) = 0,
    given the table big_phi = Phi(x)."""
    # -0.5 * x * x overflows for |x| above about 1.9e154, where phi(x) is 0 anyway
    with np.errstate(over="ignore"):
        phi = np.exp(-0.5 * x * x) / _SQRT_2PI
    return x * big_phi + phi


def _distances(xs: np.ndarray, g: np.ndarray, phi: np.ndarray, count: np.ndarray):
    """(W1, Kolmogorov) to N(0, 1) of the sample holding xs[k] count[k] times.

    xs is sorted, g = G(xs) and phi = Phi(xs).  Between consecutive occupied
    values F_emp is the constant c = (cumulative count) / N, and c - Phi
    changes sign at most once, at Phi^{-1}(c); splitting there reduces every
    piece to differences of G.  The tails contribute G(x_(1)) and G(x_(N)) - x_(N).
    """
    occ = np.flatnonzero(count > 0)
    occ_count = count[occ]
    cum = np.cumsum(occ_count)
    n = float(cum[-1])
    xv, gv, pv = xs.take(occ), g.take(occ), phi.take(occ)
    level = cum / n
    # the lower candidates rounded as kolmogorov_to_std_normal rounds them
    below_level = (cum - occ_count + 1) / n - 1.0 / n
    kolmogorov = max(np.max(level - pv), np.max(pv - below_level))

    levels = level[:-1]
    # |F_emp - Phi| keeps one sign on a gap unless the level crosses Phi; a gap
    # too wide for a double runs from Phi = 0 to 1, so its piece is replaced
    with np.errstate(over="ignore"):
        piece = np.abs(levels * np.diff(xv) - np.diff(gv))
    j = np.flatnonzero((pv[:-1] < levels) & (levels < pv[1:]))
    # resamples of a shifted sample often never cross Phi
    if j.size:
        lv, lo, hi = levels[j], xv[j], xv[j + 1]
        cross = np.clip(_big_phi_inv(lv), lo, hi)
        g_cross = _big_phi_antideriv(cross, _big_phi(cross))
        below = lv * (cross - lo) - (g_cross - gv[j])
        above = (gv[j + 1] - g_cross) - lv * (hi - cross)
        piece[j] = np.maximum(below, 0.0) + np.maximum(above, 0.0)
    w1 = float(gv[0]) + float(gv[-1] - xv[-1]) + float(np.sum(piece))
    return w1, float(kolmogorov)


def w1_to_std_normal(sample) -> float:
    """Exact Wasserstein-1 distance between the empirical law and N(0, 1).

    Integrates |F_emp(x) - Phi(x)| in closed form, piecewise between order
    statistics (see `_distances`).
    """
    x = np.sort(_as_clean_1d(sample, "w1_to_std_normal"))
    phi = _big_phi(x)
    return _distances(x, _big_phi_antideriv(x, phi), phi, np.ones(x.size, dtype=np.intp))[0]


def kolmogorov_to_std_normal(sample) -> float:
    """Kolmogorov sup-distance between the empirical law and N(0, 1)."""
    x = np.sort(_as_clean_1d(sample, "kolmogorov_to_std_normal"))
    n = x.size
    phi = _big_phi(x)
    steps = np.arange(1, n + 1, dtype=np.float64) / n
    upper = np.max(steps - phi)
    lower = np.max(phi - (steps - 1.0 / n))
    return float(max(upper, lower))


@dataclass(frozen=True)
class SampleCumulants:
    """Cumulants of one Monte Carlo sample with jackknife standard errors.

    var is the biased central second moment m2, k3 = m3, k4 = m4 - 3 m2^2.
    Standard errors are leave-one-out jackknife estimates.
    """

    mean: float
    var: float
    k3: float
    k4: float
    se_mean: float
    se_var: float
    se_k3: float
    se_k4: float


def _jackknife_se(replicates: np.ndarray) -> float:
    """Jackknife standard error; inf once the squared deviations overflow,
    which no gate then accepts."""
    n = replicates.size
    center = replicates.mean()
    with np.errstate(over="ignore"):
        return math.sqrt((n - 1) / n * float(np.sum((replicates - center) ** 2)))


def sample_cumulants(sample) -> SampleCumulants:
    """Cumulants through order four with jackknife standard errors, O(N).

    The sample is pre-centered by its mean before forming power sums; var, k3
    and k4 are translation invariant, so this costs nothing and keeps the
    leave-one-out updates free of large-mean cancellation.
    """
    x = _as_clean_1d(sample, "sample_cumulants")
    n = x.size
    if n < CUMULANT_MIN_SAMPLE:
        raise TooSmall(
            f"sample_cumulants needs at least {CUMULANT_MIN_SAMPLE} observations"
        )
    mean = float(np.mean(x))
    y = x - mean
    s2_full, s3_full, s4_full = (float(np.sum(y**p)) for p in (2, 3, 4))
    m2 = s2_full / n
    m3 = s3_full / n
    m4 = s4_full / n
    var = m2
    k3 = m3
    k4 = m4 - 3.0 * m2 * m2

    # leave-one-out power sums; sum(y) = 0 so s1_i = -y_i
    nl = n - 1
    s1 = -y
    s2 = s2_full - y**2
    s3 = s3_full - y**3
    s4 = s4_full - y**4
    m1_i = s1 / nl
    m2_i = s2 / nl - m1_i**2
    m3_i = s3 / nl - 3.0 * m1_i * s2 / nl + 2.0 * m1_i**3
    m4_i = s4 / nl - 4.0 * m1_i * s3 / nl + 6.0 * m1_i**2 * s2 / nl - 3.0 * m1_i**4
    k4_i = m4_i - 3.0 * m2_i**2

    return SampleCumulants(
        mean=mean,
        var=var,
        k3=k3,
        k4=k4,
        se_mean=_jackknife_se(mean + s1 / nl),
        se_var=_jackknife_se(m2_i),
        se_k3=_jackknife_se(m3_i),
        se_k4=_jackknife_se(k4_i),
    )


@dataclass(frozen=True)
class DistanceReport:
    """Both distances to N(0, 1) with bootstrap standard errors."""

    w1: float
    kolmogorov: float
    w1_se: float
    kolmogorov_se: float


def _resample_blocks(size: int, n_bootstrap: int, seed: int):
    """Resample indices in blocks of rows; together they are the one-shot draw.

    One generator serves every block, and Philox carries its state (the
    spare 32-bit half included) across calls, so the concatenated blocks
    equal integers(0, size, size=(n_bootstrap, size)) in a single call.
    """
    rng = path_rng(seed, _BOOTSTRAP_STREAM)
    rows = max(1, _BOOTSTRAP_BLOCK_VALUES // size)
    for lo in range(0, n_bootstrap, rows):
        yield rng.integers(0, size, size=(min(rows, n_bootstrap - lo), size))


def _bootstrap_se(replicates) -> float:
    """Sample standard deviation of the replicates, taken on them scaled by a
    power of two (exact) to at most 1, so no square overflows."""
    r = np.asarray(replicates)
    exponent = max(int(np.frexp(np.max(np.abs(r)))[1]), 0)
    return math.ldexp(float(np.std(np.ldexp(r, -exponent), ddof=1)), exponent)


def distance_report(sample, n_bootstrap: int = 200, seed: int = 0) -> DistanceReport:
    """Distances to N(0, 1) with nonparametric bootstrap standard errors.

    Resampling uses a counter-based generator keyed on (seed, fixed stream),
    so reports are reproducible and independent of simulation draws.  The
    resample indices are drawn in blocks of about 2^18 values, so memory does
    not grow with n_bootstrap.  The sample is sorted once; each resample is
    its counts over the sorted positions (see the module docstring), and the
    standard errors equal those of `w1_to_std_normal` and
    `kolmogorov_to_std_normal` applied to every resample, Kolmogorov to the
    bit and W1 up to summation order.
    """
    if isinstance(n_bootstrap, bool) or not isinstance(n_bootstrap, (int, np.integer)):
        raise TypeError(f"n_bootstrap must be an int, got {n_bootstrap!r}")
    if n_bootstrap < 2:
        raise ValueError(f"n_bootstrap must be at least 2, got {n_bootstrap!r}")
    x = _as_clean_1d(sample, "distance_report")
    n = x.size
    order = np.argsort(x, kind="stable")
    xs = x[order]
    rank = np.empty(n, dtype=np.intp)
    rank[order] = np.arange(n)
    phi = _big_phi(xs)
    g = _big_phi_antideriv(xs, phi)
    w1, kolmogorov = _distances(xs, g, phi, np.ones(n, dtype=np.intp))
    w1_rep, k_rep = zip(
        *(
            _distances(xs, g, phi, np.bincount(ranks, minlength=n))
            for block in _resample_blocks(n, n_bootstrap, seed)
            for ranks in rank[block]
        )
    )
    return DistanceReport(
        w1=w1,
        kolmogorov=kolmogorov,
        w1_se=_bootstrap_se(w1_rep),
        kolmogorov_se=_bootstrap_se(k_rep),
    )
