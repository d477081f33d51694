"""Monte Carlo harness: schedules, per-cell summaries, oracle gating, rate fits.

A Schedule is a sequence of (n, delta) cells encoding an asymptotic regime;
`run_cell` simulates one cell and returns an McSummary holding the estimator's
error distribution, its distance to N(0, 1), and a list of oracle
cross-checks; `run_schedule` adds log-log rate fits of W1 against the rate
bound for the chosen estimator.  `coupling_check` measures the pathwise
coupling of F_n(X) and F_n(Z).  Per-path statistics come from
`_compute_cell_stats`, and every estimate from `_CellStats.estimates`, the
one estimator selection and degeneracy guard; `ou-bench estimate` uses both
too, on paths in the from-zero layout instead of the stationary one.

Determinism contract: every result is a pure function of (arguments,
master_seed).  Path i of a cell draws from the counter-based stream
(master_seed, i), blocks of paths are filled into disjoint slices of
preallocated arrays, and reductions run in index order, so results are
bit-identical across runs and across worker counts.  OU_BENCH_THREADS caps
the worker pool without affecting values; anything but a positive integer
there is a ConfigError.  Cells share streams (common random
numbers): comparisons across cells and between estimators on the same cell
reuse the same paths, which tightens monotonicity comparisons.

Memory: each block of paths goes through `ou_core.simulate_block`, which
scans along time in chunks of 16384 steps and keeps only per-path sums.  A
block has `ou_core.block_rows(n)` rows, about 2^18 values per rows x chunk
array (2 MiB), so memory per worker is bounded whatever n and the
replication count are.  Block size changes no path's values.

Oracle gating: rows marked gated compare Monte Carlo moments against exact
closed forms (and the pathwise decomposition identity) and must pass at 4
standard errors; `cmd_verify` turns them into an exit code.  A cell takes
its oracle values before any sample statistic, and one that is not finite
ends it in NonFiniteValue.  Every oracle is O(n), so a cell with at least
CUMULANT_MIN_SAMPLE replications gates the variance, third and fourth
cumulants of F_n(Z) and the exact Lambda_n cumulants at any n; below that
only the second moment of Lambda_n and the decomposition identity are
checked.  Rows for the first-order values `k3_lambda_is_zero` and
`k4_lambda` are reported but not gated: at desk scale the terms those values
drop are dominant, the empirical cumulants match the exact oracles instead,
and gating on them would fail every run.  The report keeps both so the gap
is visible, not hidden.
"""

from __future__ import annotations

import enum
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields
from functools import lru_cache

import numpy as np

from . import oracles
from .errors import ConfigError, ExcessiveDegeneracy, InsufficientCells, NonPositiveValue
from .estimators import EPS_DEN, Estimator, IndexConvention, normalized_error
from .metrics import (
    CUMULANT_MIN_SAMPLE,
    DistanceReport,
    SampleCumulants,
    distance_report,
    sample_cumulants,
)
from .ou_core import OuParams, Variant, block_rows, simulate_block, transition_coefficients

__all__ = [
    "DECOMP_TOL",
    "DEGENERACY_ABORT_FRACTION",
    "FIT_MIN_REPLICATIONS",
    "GATE_SE",
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
    "clear_caches",
    "coupling_check",
    "fit_rate",
    "preset_schedule",
    "preset_names",
    "run_cell",
    "run_schedule",
]

# Gating tolerances and the degeneracy abort threshold.
GATE_SE = 4.0
DECOMP_TOL = 1e-10
DEGENERACY_ABORT_FRACTION = 1e-3
# Rate fits are CLT statements; below this many replications per cell the W1
# estimates are too noisy to fit.
FIT_MIN_REPLICATIONS = 100


@dataclass(frozen=True)
class ScheduleCell:
    """One (n, delta) cell with its regime control quantities."""

    n: int
    delta: float

    def __post_init__(self) -> None:
        if self.n < 2:
            raise ValueError(f"schedule cells need n >= 2, got {self.n}")
        if not (math.isfinite(self.delta) and self.delta > 0.0):
            raise ValueError(f"schedule cells need delta > 0, got {self.delta!r}")

    @property
    def horizon(self) -> float:
        return self.n * self.delta

    def params(self, theta: float) -> OuParams:
        return OuParams(theta=theta, delta=self.delta, n=self.n)


@dataclass(frozen=True)
class Schedule:
    """Named sequence of cells; clt_valid asserts the joint regime.

    A CLT-valid schedule must have delta strictly decreasing and horizon
    T = n * delta strictly increasing across cells; marking any other shape
    CLT-valid is rejected at construction.
    """

    name: str
    cells: tuple[ScheduleCell, ...]
    clt_valid: bool = False

    def __post_init__(self) -> None:
        if not self.cells:
            raise ValueError("schedule needs at least one cell")
        object.__setattr__(self, "cells", tuple(self.cells))
        if self.clt_valid and not (self.delta_decreasing and self.horizon_increasing):
            raise ValueError(
                f"schedule {self.name!r} marked CLT-valid but delta is not strictly "
                "decreasing with strictly increasing horizon"
            )

    @property
    def delta_decreasing(self) -> bool:
        deltas = [c.delta for c in self.cells]
        return all(b < a for a, b in zip(deltas, deltas[1:]))

    @property
    def horizon_increasing(self) -> bool:
        horizons = [c.horizon for c in self.cells]
        return all(b > a for a, b in zip(horizons, horizons[1:]))


def _gamma_schedule(name: str, gamma: float, exponents: range) -> Schedule:
    cells = tuple(
        ScheduleCell(n=2**k, delta=float(2**k) ** -gamma) for k in exponents
    )
    return Schedule(name=name, cells=cells, clt_valid=True)


def _preset_map() -> dict[str, Schedule]:
    return {
        "amce-gamma-half": _gamma_schedule("amce-gamma-half", 0.5, range(8, 15)),
        "amle-gamma-3q": _gamma_schedule("amle-gamma-3q", 0.75, range(8, 15)),
        "coupling-sweep": Schedule(
            name="coupling-sweep",
            cells=tuple(ScheduleCell(n=2**k, delta=0.05) for k in (8, 10, 12)),
            clt_valid=False,
        ),
        "negative-control-fixed-T": Schedule(
            name="negative-control-fixed-T",
            cells=tuple(ScheduleCell(n=2**k, delta=16.0 / 2**k) for k in range(8, 15)),
            clt_valid=False,
        ),
    }


def preset_names() -> tuple[str, ...]:
    return tuple(_preset_map())


def preset_schedule(name: str) -> Schedule:
    presets = _preset_map()
    if name not in presets:
        raise KeyError(
            f"unknown preset {name!r}; available: {', '.join(sorted(presets))}"
        )
    return presets[name]


def bound_terms(cell: ScheduleCell, estimator: Estimator) -> tuple[float, float]:
    """The two terms of the estimator's rate bound at this cell (constant 1)."""
    inv_sqrt_t = 1.0 / math.sqrt(cell.horizon)
    if estimator is Estimator.AMCE:
        return cell.delta**2, inv_sqrt_t
    return inv_sqrt_t, math.sqrt(cell.n * cell.delta**3)


@dataclass(frozen=True)
class OracleCheck:
    """One exact-vs-empirical comparison.

    Gated checks must pass (|empirical - exact| <= GATE_SE * standard_error,
    or the stated absolute tolerance for the decomposition row); ungated rows
    are informational and their pass flag records the honest outcome.
    """

    name: str
    exact: float
    empirical: float
    standard_error: float
    passed: bool
    gated: bool
    note: str = ""


@dataclass(frozen=True)
class McSummary:
    """Monte Carlo summary of one estimator on one cell."""

    cell: tuple[int, float]
    estimator: Estimator
    replications: int
    theta: float
    convention: IndexConvention
    distance: DistanceReport
    # None when fewer than 4 usable replications (jackknife needs 4).
    cumulants: SampleCumulants | None
    mean_error: float
    rmse: float
    mae: float
    degenerate_count: int
    oracle_checks: tuple[OracleCheck, ...]

    @property
    def gated_pass(self) -> bool:
        return all(c.passed for c in self.oracle_checks if c.gated)

    @property
    def failed_gates(self) -> tuple[str, ...]:
        return tuple(c.name for c in self.oracle_checks if c.gated and not c.passed)


class RateResponse(enum.Enum):
    W1_AMCE = "w1_amce"
    W1_AMLE = "w1_amle"


@dataclass(frozen=True)
class RateFit:
    """Log-log least-squares fit of a distance against a bound expression.

    Slopes are reported, never asserted against thresholds by this type; the
    unknown constant in the bound makes absolute levels meaningless.
    """

    schedule: str
    response: RateResponse | None
    predictor: str
    slope: float
    intercept: float
    r2: float
    n_cells: int


@dataclass(frozen=True)
class ScheduleResult:
    schedule: Schedule
    estimator: Estimator
    summaries: tuple[McSummary, ...]
    bound_fit: RateFit | None
    dominant_fit: RateFit | None


@dataclass(frozen=True)
class _CellStats:
    """Per-path scalar statistics of one simulated cell, all shape (reps,).

    Arrays are cached and shared between calls, so they are marked read-only
    once filled.
    """

    f_body: np.ndarray
    f_abs: np.ndarray
    fz_body: np.ndarray
    fz_abs: np.ndarray
    amle_num: np.ndarray
    s_n: np.ndarray
    lam: np.ndarray

    def estimates(
        self, estimator: Estimator, convention: IndexConvention, horizon: float
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Estimates and their `amce` / `amle` denominators (f_n, or S_n / T)
        on the paths whose denominator is above EPS_DEN, and the mask of
        those paths."""
        if estimator is Estimator.AMCE:
            den = self.f_body if convention is IndexConvention.BODY else self.f_abs
            good = den > EPS_DEN
            return 1.0 / (2.0 * den[good]), den[good], good
        if estimator is Estimator.AMLE:
            den = self.s_n / horizon
            good = den > EPS_DEN
            return self.amle_num[good] / self.s_n[good], den[good], good
        raise TypeError(f"estimator must be an Estimator, got {estimator!r}")


def _worker_count() -> int:
    """Worker pool size: OU_BENCH_THREADS if set, else min(cores, 8)."""
    raw = os.environ.get("OU_BENCH_THREADS")
    cores = os.cpu_count() or 1
    if raw is None:
        return min(cores, 8)
    try:
        workers = int(raw)
    except ValueError as exc:
        raise ConfigError(f"OU_BENCH_THREADS must be an integer, got {raw!r}") from exc
    if workers < 1:
        raise ConfigError(f"OU_BENCH_THREADS must be >= 1, got {workers}")
    return workers


def _compute_cell_stats(
    params: OuParams, variant: Variant, reps: int, master_seed: int
) -> _CellStats:
    """Statistics of paths 0..reps-1, path i on stream (master_seed, i) in the
    variant's draw layout.  In the stationary layout X and Z are the exact
    coupling; in the from-zero layout Z is X."""
    stats = _CellStats(*(np.empty(reps) for _ in fields(_CellStats)))
    _, s2 = transition_coefficients(params.theta, params.delta)

    def fill(lo: int, hi: int) -> None:
        sums = simulate_block(params, variant, master_seed, lo, hi)
        stats.f_body[lo:hi] = sums.x_head_sq / params.n
        stats.f_abs[lo:hi] = sums.x_tail_sq / params.n
        stats.fz_body[lo:hi] = sums.z_head_sq / params.n
        stats.fz_abs[lo:hi] = sums.z_tail_sq / params.n
        stats.amle_num[lo:hi] = sums.amle_num
        stats.s_n[lo:hi] = params.delta * sums.x_head_sq
        stats.lam[lo:hi] = math.sqrt(s2) * sums.x_xi

    block = block_rows(params.n)
    los = range(0, reps, block)
    his = [min(lo + block, reps) for lo in los]
    with ThreadPoolExecutor(max_workers=_worker_count()) as pool:
        list(pool.map(fill, los, his))
    for field in fields(stats):
        getattr(stats, field.name).flags.writeable = False
    return stats


@lru_cache(maxsize=8)
def _cell_stats_cached(
    theta: float, delta: float, n: int, reps: int, master_seed: int
) -> _CellStats:
    params = OuParams(theta=theta, delta=delta, n=n)
    return _compute_cell_stats(params, Variant.STATIONARY, reps, master_seed)


def clear_caches() -> None:
    """Drop cached cell statistics (tests use this around determinism checks)."""
    _cell_stats_cached.cache_clear()


def _se_check(name, exact, empirical, se, *, gated, note="", tol_se=GATE_SE):
    passed = abs(empirical - exact) <= tol_se * se
    return OracleCheck(
        name=name,
        exact=float(exact),
        empirical=float(empirical),
        standard_error=float(se),
        passed=bool(passed),
        gated=gated,
        note=note,
    )


# Every oracle a cell is checked against; each check is named after its oracle.
_CELL_ORACLES = (
    "exact_var_fn_z", "k3_fn_z", "k4_fn_z_bound", "exact_var_lambda",
    "exact_k3_lambda", "exact_k4_lambda", "k3_lambda_is_zero", "k4_lambda",
)
# First-order values, reported next to the exact ones but not gated.
_FIRST_ORDER = ("k3_lambda_is_zero", "k4_lambda")
_NOTES = {
    "k4_fn_z_bound": "bound attained exactly for this kernel; checked as parity",
    "k3_lambda_is_zero": "first-order value; dropped cross terms are O(1/sqrt(T)) and "
    "dominate at this scale, see exact_k3_lambda",
    "k4_lambda": "first-order diagonal value; see exact_k4_lambda",
}


def _exact_oracles(params: OuParams) -> dict[str, float]:
    """The cell's oracle values by check name.  `run_cell` takes them before
    any sample statistic, so a cell where one is not finite ends in
    NonFiniteValue rather than in overflowing sample statistics."""
    return {name: getattr(oracles, name)(params) for name in _CELL_ORACLES}


def _oracle_checks(
    params: OuParams,
    convention: IndexConvention,
    stats: _CellStats,
    exact: dict[str, float],
    nerr_cumulants: SampleCumulants | None,
) -> tuple[OracleCheck, ...]:
    theta = params.theta
    horizon = params.horizon
    sqrt_t = math.sqrt(horizon)
    fz = stats.fz_body if convention is IndexConvention.BODY else stats.fz_abs
    lam_scaled = stats.lam / sqrt_t
    # exact_var_lambda is the raw second moment; E[Lambda_n] = 0 exactly.
    sq = lam_scaled**2
    se_sq = float(np.std(sq, ddof=1)) / math.sqrt(sq.size)
    rows = [("exact_var_lambda", float(np.mean(sq)), se_sq)]
    # Jackknife cumulants need 4 observations; below that only the raw second
    # moment and the pathwise decomposition are checked.
    if stats.lam.size >= CUMULANT_MIN_SAMPLE:
        sc_f = sample_cumulants(sqrt_t * (fz - 1.0 / (2.0 * theta)))
        sc_l = sample_cumulants(lam_scaled)
        rows = [
            ("exact_var_fn_z", sc_f.var, sc_f.se_var),
            ("k3_fn_z", sc_f.k3, sc_f.se_k3),
            ("k4_fn_z_bound", sc_f.k4, sc_f.se_k4),
            *rows,
            ("exact_k3_lambda", sc_l.k3, sc_l.se_k3),
            ("exact_k4_lambda", sc_l.k4, sc_l.se_k4),
            ("k3_lambda_is_zero", sc_l.k3, sc_l.se_k3),
            ("k4_lambda", sc_l.k4, sc_l.se_k4),
        ]
    checks = [
        _se_check(
            name, exact[name], empirical, se,
            gated=name not in _FIRST_ORDER, note=_NOTES.get(name, ""),
        )
        for name, empirical, se in rows
    ]

    # Pathwise decomposition: -theta_hat = (e^{-theta delta} - 1)/delta
    # + Lambda_n / S_n, checked on every non-degenerate path.
    a, _ = transition_coefficients(theta, params.delta)
    drift_term = (a - 1.0) / params.delta
    est, _, good = stats.estimates(Estimator.AMLE, convention, horizon)
    resid = np.abs(-est - (drift_term + stats.lam[good] / stats.s_n[good]))
    rel = resid / (1.0 + np.abs(est))
    worst = float(np.max(rel)) if rel.size else 0.0
    checks.append(
        OracleCheck(
            name="decomposition_identity",
            exact=0.0,
            empirical=worst,
            standard_error=0.0,
            passed=worst <= DECOMP_TOL,
            gated=True,
            note=f"max relative residual over paths, tolerance {DECOMP_TOL:g}",
        )
    )

    # Finite-size cumulant screen on the normalized errors, informational: the
    # third cumulant decays like the rate bound, not faster, so it sits many
    # standard errors from 0 at desk scale.
    if nerr_cumulants is not None:
        c = nerr_cumulants
        for order, k, se in ((3, c.k3, c.se_k3), (4, c.k4, c.se_k4)):
            checks.append(
                _se_check(
                    f"screen_k{order}_normalized_errors", 0.0, k, se, gated=False,
                    note="finite-size cumulant; decays with the rate bound",
                )
            )
    return tuple(checks)


def run_cell(
    params: OuParams,
    estimator: Estimator,
    replications: int,
    master_seed: int,
    *,
    convention: IndexConvention = IndexConvention.BODY,
    n_bootstrap: int = 200,
) -> McSummary:
    """Simulate one cell and summarize one estimator's error distribution.

    Deterministic given master_seed regardless of worker count.  Degenerate
    paths (denominator at or below the guard) are excluded and counted; more
    than DEGENERACY_ABORT_FRACTION of them aborts the cell.
    """
    if replications < 2:
        raise ValueError(f"replications must be >= 2, got {replications}")
    theta = params.theta
    stats = _cell_stats_cached(
        params.theta, params.delta, params.n, replications, master_seed
    )
    # After the simulation: taken before it, the oracles' temporary arrays
    # raised verify's peak RSS at n = 262144 from 133 to 153 MiB.
    exact = _exact_oracles(params)
    estimates, _, good = stats.estimates(estimator, convention, params.horizon)
    degenerate = replications - int(np.count_nonzero(good))
    if degenerate > DEGENERACY_ABORT_FRACTION * replications:
        raise ExcessiveDegeneracy(
            f"{degenerate} of {replications} paths degenerate at cell "
            f"(n={params.n}, delta={params.delta}); exceeds "
            f"{DEGENERACY_ABORT_FRACTION:.1%}"
        )

    errors = estimates - theta
    nerr = normalized_error(estimates, params, theta)
    cumulants = sample_cumulants(nerr) if nerr.size >= CUMULANT_MIN_SAMPLE else None
    distance = distance_report(nerr, n_bootstrap=n_bootstrap, seed=master_seed)
    checks = _oracle_checks(params, convention, stats, exact, cumulants)
    return McSummary(
        cell=(params.n, params.delta),
        estimator=estimator,
        replications=replications,
        theta=theta,
        convention=convention,
        distance=distance,
        cumulants=cumulants,
        mean_error=float(np.mean(errors)),
        rmse=float(np.sqrt(np.mean(errors**2))),
        mae=float(np.mean(np.abs(errors))),
        degenerate_count=degenerate,
        oracle_checks=checks,
    )


def fit_rate(
    cells,
    *,
    schedule: str = "",
    response: RateResponse | None = None,
    predictor: str = "",
) -> RateFit:
    """Log-log least squares of distance against a bound expression.

    cells is an iterable of (bound_value, distance) pairs; needs at least 3,
    all strictly positive.  A slope near 1 supports the bound as an envelope;
    slopes are reported, never asserted here (the constant is unknown).
    """
    pairs = [(float(b), float(d)) for b, d in cells]
    if len(pairs) < 3:
        raise InsufficientCells(f"rate fit needs >= 3 cells, got {len(pairs)}")
    if any(b <= 0.0 or d <= 0.0 for b, d in pairs):
        raise NonPositiveValue("rate fit needs strictly positive bounds and distances")
    x = np.log([b for b, _ in pairs])
    y = np.log([d for _, d in pairs])
    dx = x - x.mean()
    dy = y - y.mean()
    sxx = float(np.dot(dx, dx))
    if sxx == 0.0:
        raise NonPositiveValue("bound values are all equal; no rate to fit")
    slope = float(np.dot(dx, dy)) / sxx
    intercept = float(y.mean() - slope * x.mean())
    ss_res = float(np.sum((y - (intercept + slope * x)) ** 2))
    ss_tot = float(np.dot(dy, dy))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return RateFit(
        schedule=schedule,
        response=response,
        predictor=predictor,
        slope=slope,
        intercept=intercept,
        r2=r2,
        n_cells=len(pairs),
    )


def run_schedule(
    schedule: Schedule,
    estimator: Estimator,
    replications: int,
    master_seed: int,
    *,
    theta: float = 1.0,
    convention: IndexConvention = IndexConvention.BODY,
    n_bootstrap: int = 200,
) -> ScheduleResult:
    """Run every cell of a schedule and fit W1 against the rate bound.

    Rate fits are CLT statements, so they are produced only for CLT-valid
    schedules (with >= 3 cells and >= FIT_MIN_REPLICATIONS replications); other
    schedules get summaries with no fit.
    """
    summaries = tuple(
        run_cell(
            cell.params(theta),
            estimator,
            replications,
            master_seed,
            convention=convention,
            n_bootstrap=n_bootstrap,
        )
        for cell in schedule.cells
    )
    bound_fit = dominant_fit = None
    if schedule.clt_valid:
        if replications < FIT_MIN_REPLICATIONS:
            raise ValueError(
                f"rate fits need replications >= {FIT_MIN_REPLICATIONS}, "
                f"got {replications}"
            )
        response = (
            RateResponse.W1_AMCE if estimator is Estimator.AMCE else RateResponse.W1_AMLE
        )
        w1 = [s.distance.w1 for s in summaries]
        terms = [bound_terms(cell, estimator) for cell in schedule.cells]
        if estimator is Estimator.AMCE:
            predictor = "delta^2 + (n delta)^(-1/2)"
        else:
            predictor = "(n delta)^(-1/2) + (n delta^3)^(1/2)"
        bound_fit = fit_rate(
            [(t1 + t2, d) for (t1, t2), d in zip(terms, w1)],
            schedule=schedule.name,
            response=response,
            predictor=predictor,
        )
        dominant_fit = fit_rate(
            [(max(t1, t2), d) for (t1, t2), d in zip(terms, w1)],
            schedule=schedule.name,
            response=response,
            predictor="dominant bound term",
        )
    return ScheduleResult(
        schedule=schedule,
        estimator=estimator,
        summaries=summaries,
        bound_fit=bound_fit,
        dominant_fit=dominant_fit,
    )


@dataclass(frozen=True)
class CouplingRow:
    n: int
    delta: float
    l2: float
    l4: float
    l2_scaled: float  # l2 * (n * delta)


@dataclass(frozen=True)
class CouplingReport:
    rows: tuple[CouplingRow, ...]
    spread: float  # max / min of l2_scaled across rows
    within_factor_10: bool


def coupling_check(
    schedule: Schedule,
    replications: int,
    master_seed: int,
    *,
    theta: float = 1.0,
    convention: IndexConvention = IndexConvention.BODY,
) -> CouplingReport:
    """Empirical L2/L4 norms of F_n(X) - F_n(Z) on coupled paths, per cell.

    The scaled column l2 * (n delta) is the quantity whose spread across cells
    the factor-10 check constrains.
    """
    rows = []
    for cell in schedule.cells:
        params = cell.params(theta)
        stats = _cell_stats_cached(
            params.theta, params.delta, params.n, replications, master_seed
        )
        if convention is IndexConvention.BODY:
            fx, fz = stats.f_body, stats.fz_body
        else:
            fx, fz = stats.f_abs, stats.fz_abs
        diff = math.sqrt(params.horizon) * (fx - fz)
        l2 = float(np.sqrt(np.mean(diff**2)))
        l4 = float(np.mean(diff**4) ** 0.25)
        rows.append(
            CouplingRow(
                n=cell.n,
                delta=cell.delta,
                l2=l2,
                l4=l4,
                l2_scaled=l2 * cell.horizon,
            )
        )
    scaled = [r.l2_scaled for r in rows]
    if any(s == 0.0 for s in scaled):
        spread = 1.0 if all(s == 0.0 for s in scaled) else math.inf
    else:
        spread = max(scaled) / min(scaled)
    return CouplingReport(
        rows=tuple(rows),
        spread=spread,
        within_factor_10=spread <= 10.0,
    )
