"""Monte Carlo harness: schedules, per-cell summaries, oracle gating, rate fits.

A cell is one OuParams (theta, delta, n).  A Schedule is a sequence of
cells encoding an asymptotic regime; `preset_schedule` builds a preset's
cells at a given theta.  `run_cell` simulates one cell once and returns one
McSummary per estimator, each holding the estimator's error distribution,
its distance to N(0, 1), and a list of oracle cross-checks; `run_schedule`
walks a schedule's cells once, adds log-log rate fits of W1 against each
estimator's rate bound, and measures the pathwise coupling of F_n(X) and
F_n(Z) on the same paths (with no estimators, it measures only that coupling,
as `ou-bench verify` does).  Per-path sums come from `map_cells`, and
every statistic on them from `estimators`' `_of_sums` functions; `ou-bench
estimate` uses both too, on the same paths.

Workers: each of `run_cell`, `run_schedule` and `ou-bench estimate` is one
`map_cells` call, which opens one pool of forked worker processes.  The walk
is one map of `simulate_block` over blocks of rows, each block simulated at
every cell of the call: a row draws its normals once and each cell scans
its own prefix of them.  The map is the pool's, which sends the blocks'
row spans in chunks, or with one worker the builtin.  A block writes its
sums into its rows of one table of every cell's sums, which the workers
share with the calling process, and sends nothing back.  Once the last
block is written, the caller's function runs on each cell, one pool task a
cell (in the calling process with one worker), on read-only views of the
cell's rows of the table, and its results come back in cell order; as it
runs in a worker, its side effects do not reach the caller.

Determinism contract: every result is a pure function of (arguments,
master_seed).  Path i of a cell draws from the counter-based stream
(master_seed, i), blocks of paths are filled into disjoint slices of
preallocated arrays, and reductions run in index order, so results are
bit-identical across runs and across worker counts.  OU_BENCH_THREADS sets
the number of worker processes (default min(cores, 8), counting the cores
the process may run on) without affecting values; anything there but a
positive integer in ASCII digits (`parse_int`) is a ConfigError.  Cells
share streams (common random numbers): comparisons across cells and between
estimators on the same cell reuse the same paths, which tightens
monotonicity comparisons.

Memory: each block of paths goes through `ou_core.simulate_block`, which
scans along time in chunks of 16384 steps and keeps only per-path sums.  A
block has `ou_core.block_rows(n)` rows at the largest n of its cells, about
2^18 values per rows x chunk array (2 MiB).  A worker keeps one set of block
buffers, so beyond the pages it shares with the process it was forked from,
its memory is bounded whatever n and the replication count are.  Block size
changes no path's values.  The sums table, 6 x reps doubles a cell, is an
anonymous shared mapping: its pages exist once, however many processes map
them, and with workers the calling process touches none of them, so its
memory does not grow with the replication count.

Replication floors: given estimators, `run_cell` and `run_schedule` refuse
fewer than CUMULANT_MIN_SAMPLE replications, or FIT_MIN_REPLICATIONS on a
CLT-valid schedule, with a ConfigError before simulating.  Below 1000
replications one degenerate path aborts the cell, so every summary has its
jackknife cumulants.

Oracle gating: rows marked gated (`_CELL_CHECKS`) compare Monte Carlo moments against exact
closed forms (and the pathwise decomposition identity) and must pass at 4
standard errors; `cmd_verify` turns them into an exit code.  A cell takes
its oracle values before any sample statistic, and one that is not finite
ends it in NonFiniteValue.  Every oracle is O(n), so a cell gates the
variance, third and fourth cumulants of F_n(Z) and the exact Lambda_n
cumulants at any n.  Rows for the first-order values `k3_lambda_is_zero` and
`k4_lambda` are reported but not gated: at desk scale the terms those values
drop are dominant, the empirical cumulants match the exact oracles instead,
and gating on them would fail every run.  The report keeps both so the gap
is visible, not hidden.
"""

from __future__ import annotations

import math
import mmap
import multiprocessing
import os
from collections.abc import Callable, Sequence
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields
from functools import partial

import numpy as np

from . import oracles
from .errors import (
    ConfigError,
    ExcessiveDegeneracy,
    InsufficientCells,
    NonFiniteValue,
    NonPositiveValue,
    at_cell,
)
from .estimators import (
    Estimator,
    IndexConvention,
    big_f_n_of_sums,
    decomposition_residual,
    estimates_of_sums,
    f_n_of_sums,
    lambda_n_of_sums,
    normalized_error,
)
from .metrics import (
    CUMULANT_MIN_SAMPLE,
    DistanceReport,
    SampleCumulants,
    distance_report,
    sample_cumulants,
)
from .ou_core import (
    BlockSums,
    OuParams,
    block_rows,
    simulate_block,
)

__all__ = [
    "DECOMP_TOL",
    "DEGENERACY_ABORT_FRACTION",
    "FIT_MIN_REPLICATIONS",
    "GATE_SE",
    "CouplingReport",
    "CouplingRow",
    "RATE_BOUNDS",
    "McSummary",
    "OracleCheck",
    "RateBound",
    "RateFit",
    "Schedule",
    "ScheduleResult",
    "fit_rate",
    "map_cells",
    "parse_int",
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
class Schedule:
    """Named sequence of cells; clt_valid asserts the joint regime.

    A CLT-valid schedule must have delta strictly decreasing and horizon
    T = n * delta strictly increasing across cells; marking any other shape
    CLT-valid is rejected at construction.
    """

    name: str
    cells: tuple[OuParams, ...]
    clt_valid: bool = False

    def __post_init__(self) -> None:
        if not self.cells:
            raise ValueError("schedule needs at least one cell")
        object.__setattr__(self, "cells", tuple(self.cells))
        steps = zip(self.cells, self.cells[1:])
        regime = all(b.delta < a.delta and b.horizon > a.horizon for a, b in steps)
        if self.clt_valid and not regime:
            raise ValueError(
                f"schedule {self.name!r} marked CLT-valid but delta is not strictly "
                "decreasing with strictly increasing horizon"
            )


def _gamma_schedule(name: str, gamma: float, exponents: range, theta: float) -> Schedule:
    cells = tuple(
        OuParams(theta=theta, delta=float(2**k) ** -gamma, n=2**k) for k in exponents
    )
    return Schedule(name=name, cells=cells, clt_valid=True)


def _preset_map(theta: float = 1.0) -> dict[str, Schedule]:
    return {
        "amce-gamma-half": _gamma_schedule("amce-gamma-half", 0.5, range(8, 15), theta),
        "amle-gamma-3q": _gamma_schedule("amle-gamma-3q", 0.75, range(8, 15), theta),
        "coupling-sweep": Schedule(
            name="coupling-sweep",
            cells=tuple(OuParams(theta=theta, delta=0.05, n=2**k) for k in (8, 10, 12)),
            clt_valid=False,
        ),
        "negative-control-fixed-T": Schedule(
            name="negative-control-fixed-T",
            cells=tuple(
                OuParams(theta=theta, delta=16.0 / 2**k, n=2**k) for k in range(8, 15)
            ),
            clt_valid=False,
        ),
    }


def preset_names() -> tuple[str, ...]:
    return tuple(_preset_map())


def preset_schedule(name: str, theta: float = 1.0) -> Schedule:
    """The named preset's cells at drift theta."""
    presets = _preset_map(theta)
    if name not in presets:
        raise KeyError(
            f"unknown preset {name!r}; available: {', '.join(sorted(presets))}"
        )
    return presets[name]


@dataclass(frozen=True)
class RateBound:
    """An estimator's rate bound: the error it bounds, expression, terms."""

    error: str
    expression: str
    terms: Callable[[OuParams], tuple[float, float]]


# Each estimator's rate bound; its terms give the two terms at a cell (constant 1).
RATE_BOUNDS = {
    Estimator.AMCE: RateBound(
        "moment-estimator", "delta^2 + (n delta)^(-1/2)",
        lambda cell: (cell.delta**2, 1.0 / math.sqrt(cell.horizon)),
    ),
    Estimator.AMLE: RateBound(
        "likelihood-estimator", "(n delta)^(-1/2) + (n delta^3)^(1/2)",
        lambda cell: (1.0 / math.sqrt(cell.horizon), math.sqrt(cell.n * cell.delta**3)),
    ),
}


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

    estimator: Estimator
    replications: int
    distance: DistanceReport
    cumulants: SampleCumulants
    mean_error: float
    rmse: float
    mae: float
    degenerate_count: int
    oracle_checks: tuple[OracleCheck, ...]

    @property
    def gated_pass(self) -> bool:
        return all(c.passed for c in self.oracle_checks if c.gated)


@dataclass(frozen=True)
class RateFit:
    """Log-log least-squares fit of a distance against a bound expression.

    Slopes are reported, never asserted against thresholds by this type; the
    unknown constant in the bound makes absolute levels meaningless.
    """

    slope: float
    intercept: float
    r2: float
    n_cells: int


@dataclass(frozen=True)
class ScheduleResult:
    estimator: Estimator
    summaries: tuple[McSummary, ...]
    bound_fit: RateFit | None
    dominant_fit: RateFit | None


def parse_int(value) -> int:
    """The one rule for an integer setting: an int, or a string of ASCII digits
    (int() would also take 2.9, True, "1_0", " 7", "+7" and full-width digits)."""
    if isinstance(value, str) and value.isascii() and value.isdigit():
        return int(value)
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    raise TypeError("expected an integer or a string of ASCII digits")


def _worker_count() -> int:
    """Worker processes: OU_BENCH_THREADS if set, else min(cores, 8), where
    the cores are those this process may run on, where the platform says."""
    raw = os.environ.get("OU_BENCH_THREADS")
    if raw is None:
        if hasattr(os, "sched_getaffinity"):
            return min(len(os.sched_getaffinity(0)), 8)
        return min(os.cpu_count() or 1, 8)
    try:
        workers = parse_int(raw)
    except TypeError:
        raise ConfigError(f"OU_BENCH_THREADS must be an integer, got {raw!r}") from None
    if workers < 1:
        raise ConfigError(f"OU_BENCH_THREADS must be >= 1, got {workers}")
    return workers


# A worker's job, from its fork: the cells, the master seed, the function
# `map_cells` runs on each cell and the shared table of every cell's sums.
_worker_each: tuple = ()


def _take_each(*job) -> None:
    global _worker_each
    _worker_each = job


def _write_block(job: tuple, lo: int, hi: int) -> None:
    """Simulate rows [lo, hi) at every cell into the table's columns lo..hi-1."""
    cells, master_seed, _, table = job
    for slab, block in zip(table, simulate_block(cells, master_seed, lo, hi)):
        slab[:, lo:hi] = [getattr(block, f.name) for f in fields(BlockSums)]


def _each_of_cell(job: tuple, c: int):
    """`each` on cell c, given read-only views of the cell's sums."""
    cells, _, each, table = job
    slab = table[c].view()
    slab.flags.writeable = False
    return each(cells[c], BlockSums(*slab))


def _block_in_worker(lo: int, hi: int) -> None:
    _write_block(_worker_each, lo, hi)


def _each_in_worker(c: int):
    return _each_of_cell(_worker_each, c)


def map_cells(
    cells: Sequence[OuParams],
    reps: int,
    master_seed: int,
    each: Callable[[OuParams, BlockSums], object],
) -> list:
    """[each(params, sums) for each cell], where sums are the cell's paths
    0..reps-1: path i is the coupled pair (X, Z) of stream (master_seed, i).

    One map runs `simulate_block` over the blocks of rows, each block at
    every cell: a row draws its normals once, up to the largest n, and each
    cell scans its own prefix of them.  Every cell's sums live in one
    (cells, 6, reps) table in an anonymous shared mapping, made before the
    workers are forked, so the workers share it: a block writes its sums
    into its own rows of the table and sends nothing back.  The pool's map
    gives every block to the worker processes on entry, in chunks of
    blocks, each job only its row span: the workers have the cells, the
    seed, `each` and the table from their fork.  Once the last block is
    written, `each` runs in the workers, one task a cell, each task only the
    cell's index; `each` gets read-only views of the cell's rows of the
    table, so it cannot write into them.  As it comes from the fork, a
    closure serves, but its side effects stay in the worker and only its
    result (which must pickle) comes back.  An error in a block is raised
    for the first failing block in row order, and one in `each` for the
    first failing cell in cell order.  Leaving the map cancels the tasks
    not yet started and ends the workers.  With one worker, or one block,
    the builtin map runs each block here when the loop reaches it, into the
    same table, and `each` runs here in cell order on the same read-only
    views.  The calling process touches the table's pages only then, so
    with workers its memory does not grow with reps.

    A value that leaves the range of a double, in a block or in `each`, ends
    the map in NonFiniteValue naming the cell, not in a warning and inf or
    nan in its sums or results.
    """
    if reps < 2:
        raise ValueError(f"replications must be >= 2, got {reps}")
    step = block_rows(max(params.n for params in cells))
    spans = [(lo, min(lo + step, reps)) for lo in range(0, reps, step)]
    workers = min(_worker_count(), len(spans))
    shape = (len(cells), len(fields(BlockSums)), reps)
    # Shared, so that what a forked worker writes is what the caller reads.
    table = np.frombuffer(mmap.mmap(-1, math.prod(shape) * 8), dtype=np.float64).reshape(shape)
    job = (cells, master_seed, each, table)
    # Forked, not spawned: a spawned or forkserver worker imports the package
    # first (0.44 s on a 2-core host), more than a small cell takes to
    # simulate.  The harness starts no thread; OpenBLAS stops its own around
    # a fork, and from Python 3.11 the executor forks all its workers before
    # it starts its own.  The fork also hands them the job unpickled.
    context = multiprocessing.get_context("fork")
    pool = None
    if workers > 1:
        pool = ProcessPoolExecutor(
            workers, mp_context=context, initializer=_take_each, initargs=job
        )
    results = []
    try:
        # The workers are forked inside this state, so they raise too; the
        # kernel names the cell of a value out of range in a block.
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            if pool:
                # About 64 messages a worker at most: each costs the parent a
                # round trip, and the work left when the last chunk starts,
                # the map's imbalance, is at most one chunk.
                chunk = -(-len(spans) // (64 * workers))
                blocks = pool.map(_block_in_worker, *zip(*spans), chunksize=chunk)
            else:
                blocks = map(partial(_write_block, job), *zip(*spans))
            for _ in blocks:
                pass
            if pool:
                tasks = [pool.submit(_each_in_worker, c) for c in range(len(cells))]
            for c, params in enumerate(cells):
                results.append(tasks[c].result() if pool else _each_of_cell(job, c))
    except FloatingPointError as exc:
        where = at_cell(params)
        raise NonFiniteValue(f"a value leaves the range of a double {where}: {exc}") from exc
    finally:
        if pool is not None:
            pool.shutdown(cancel_futures=True)
    return results


def _se_check(name, exact, empirical, se, *, gated, note=""):
    # Against an infinite SE any value would pass, so a value or SE that is
    # not finite fails.
    passed = (
        math.isfinite(empirical) and math.isfinite(se) and abs(empirical - exact) <= GATE_SE * se
    )
    return OracleCheck(name, float(exact), float(empirical), float(se), bool(passed), gated, note)


# Every oracle row of a cell, named after its oracle: the sample statistic it
# is checked against (var, m2 the raw second moment, k3 or k4, of F = F_n(Z)
# or L = Lambda_n / sqrt(T)), whether it gates and its note.  The first-order
# values are reported next to the exact ones but not gated.
_CELL_CHECKS = (
    ("exact_var_fn_z", "var F", True, ""),
    ("k3_fn_z", "k3 F", True, ""),
    ("k4_fn_z_bound", "k4 F", True, "bound attained exactly for this kernel; checked as parity"),
    ("exact_var_lambda", "m2 L", True, ""),
    ("exact_k3_lambda", "k3 L", True, ""),
    ("exact_k4_lambda", "k4 L", True, ""),
    ("k3_lambda_is_zero", "k3 L", False, "first-order value; dropped cross terms are "
     "O(1/sqrt(T)) and dominate at this scale, see exact_k3_lambda"),
    ("k4_lambda", "k4 L", False, "first-order diagonal value; see exact_k4_lambda"),
)


def _cell_checks(
    params: OuParams, convention: IndexConvention, sums: BlockSums, exact: dict[str, float]
) -> list[OracleCheck]:
    """The oracle rows and the decomposition identity: one cell's gates, the
    same for every estimator."""
    sc_f = sample_cumulants(big_f_n_of_sums(sums, params, convention))
    lam = lambda_n_of_sums(sums, params) / math.sqrt(params.horizon)
    sc_l = sample_cumulants(lam)
    # exact_var_lambda is the raw second moment; E[Lambda_n] = 0 exactly.
    sq = lam**2
    stats = {
        "var F": (sc_f.var, sc_f.se_var),
        "k3 F": (sc_f.k3, sc_f.se_k3),
        "k4 F": (sc_f.k4, sc_f.se_k4),
        "m2 L": (float(np.mean(sq)), float(np.std(sq, ddof=1)) / math.sqrt(sq.size)),
        "k3 L": (sc_l.k3, sc_l.se_k3),
        "k4 L": (sc_l.k4, sc_l.se_k4),
    }
    checks = [
        _se_check(name, exact[name], *stats[stat], gated=gated, note=note)
        for name, stat, gated, note in _CELL_CHECKS
    ]
    worst = decomposition_residual(sums, params)
    note = f"max relative residual over paths, tolerance {DECOMP_TOL:g}"
    return checks + [
        OracleCheck("decomposition_identity", 0.0, worst, 0.0, worst <= DECOMP_TOL, True, note)
    ]


def _require_replications(estimators, replications: int, clt_valid: bool = False) -> None:
    """Refuse too few replications for the estimators' summaries, or for the
    rate fits of a CLT-valid schedule; with no estimators there is no floor."""
    floor, need = CUMULANT_MIN_SAMPLE, "the jackknife cumulants"
    if clt_valid:
        floor, need = FIT_MIN_REPLICATIONS, "the rate fits on a CLT-valid schedule"
    if estimators and replications < floor:
        raise ConfigError(
            f"replications must be >= {floor} ({need} need them), got {replications}"
        )


def _summaries(
    params: OuParams,
    sums: BlockSums,
    estimators: tuple[Estimator, ...],
    master_seed: int,
    convention: IndexConvention,
) -> tuple[McSummary, ...]:
    """One McSummary per estimator from one cell's sums (see `run_cell`)."""
    if not estimators:
        return ()
    reps = sums.x_xi.size
    # The oracle values by check name, before any sample statistic, so a cell
    # where one is not finite ends in NonFiniteValue rather than in
    # overflowing sample statistics.
    exact = {name: getattr(oracles, name)(params) for name, *_ in _CELL_CHECKS}
    selections = [estimates_of_sums(sums, params, e, convention) for e in estimators]
    degenerate = [reps - int(np.count_nonzero(good)) for _, _, good in selections]
    for count in degenerate:
        if count > DEGENERACY_ABORT_FRACTION * reps:
            raise ExcessiveDegeneracy(
                f"{count} of {reps} paths degenerate {at_cell(params)}; exceeds "
                f"{DEGENERACY_ABORT_FRACTION:.1%}"
            )
    shared = _cell_checks(params, convention, sums, exact)
    summaries = []
    for estimator, (estimates, _, _), count in zip(estimators, selections, degenerate):
        errors = estimates - params.theta
        nerr = normalized_error(estimates, params, params.theta)
        c = sample_cumulants(nerr)
        distance = distance_report(nerr, seed=master_seed)
        # Finite-size cumulant screen on the normalized errors, informational:
        # the third cumulant decays like the rate bound, not faster, so it
        # sits many standard errors from 0 at desk scale.
        checks = shared + [
            _se_check(
                f"screen_k{order}_normalized_errors", 0.0, k, se, gated=False,
                note="finite-size cumulant; decays with the rate bound",
            )
            for order, k, se in ((3, c.k3, c.se_k3), (4, c.k4, c.se_k4))
        ]
        summaries.append(
            McSummary(
                estimator=estimator,
                replications=reps,
                distance=distance,
                cumulants=c,
                mean_error=float(np.mean(errors)),
                rmse=float(np.sqrt(np.mean(errors**2))),
                mae=float(np.mean(np.abs(errors))),
                degenerate_count=count,
                oracle_checks=tuple(checks),
            )
        )
    return tuple(summaries)


def run_cell(
    params: OuParams,
    estimators: tuple[Estimator, ...],
    replications: int,
    master_seed: int,
    *,
    convention: IndexConvention = IndexConvention.BODY,
) -> tuple[McSummary, ...]:
    """Simulate one cell once and summarize each estimator's error
    distribution on its paths, in the order given.

    Deterministic given master_seed regardless of worker count.  Degenerate
    paths (denominator at or below the guard) are excluded and counted; more
    than DEGENERACY_ABORT_FRACTION of them aborts the cell.
    """
    _require_replications(estimators, replications)

    def summaries(params, sums):
        return _summaries(params, sums, estimators, master_seed, convention)

    return map_cells((params,), replications, master_seed, summaries)[0]


def fit_rate(pairs) -> RateFit:
    """Log-log least squares of distance against a bound expression.

    pairs is an iterable of (bound_value, distance), one per cell; needs at
    least 3, all strictly positive.  A slope near 1 supports the bound as an
    envelope; slopes are reported, never asserted here (the constant is
    unknown).
    """
    pairs = [(float(b), float(d)) for b, d in pairs]
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
    return RateFit(slope=slope, intercept=intercept, r2=r2, n_cells=len(pairs))


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


def _coupling_row(params: OuParams, sums: BlockSums, convention: IndexConvention) -> CouplingRow:
    """Empirical L2/L4 norms of F_n(X) - F_n(Z) on one cell's coupled paths."""
    fx, fz = f_n_of_sums(sums, params, convention)
    diff = math.sqrt(params.horizon) * (fx - fz)
    l2 = float(np.sqrt(np.mean(diff**2)))
    l4 = float(np.mean(diff**4) ** 0.25)
    return CouplingRow(
        n=params.n, delta=params.delta, l2=l2, l4=l4, l2_scaled=l2 * params.horizon
    )


def _schedule_result(
    schedule: Schedule, estimator: Estimator, summaries: tuple[McSummary, ...]
) -> ScheduleResult:
    """One estimator's summaries with its rate fits on a CLT-valid schedule."""
    bound_fit = dominant_fit = None
    if schedule.clt_valid:
        bound = RATE_BOUNDS[estimator]
        w1 = [s.distance.w1 for s in summaries]
        terms = [bound.terms(cell) for cell in schedule.cells]
        bound_fit = fit_rate((t1 + t2, d) for (t1, t2), d in zip(terms, w1))
        dominant_fit = fit_rate((max(t1, t2), d) for (t1, t2), d in zip(terms, w1))
    return ScheduleResult(
        estimator=estimator,
        summaries=summaries,
        bound_fit=bound_fit,
        dominant_fit=dominant_fit,
    )


def run_schedule(
    schedule: Schedule,
    estimators: tuple[Estimator, ...],
    replications: int,
    master_seed: int,
    *,
    convention: IndexConvention = IndexConvention.BODY,
) -> tuple[tuple[ScheduleResult, ...], CouplingReport]:
    """Run every cell of a schedule once: one ScheduleResult per estimator,
    in the order given, and the coupling report of the same paths.

    Rate fits are CLT statements, so they are produced only for CLT-valid
    schedules (with >= 3 cells); other schedules get summaries with no fit.
    The coupling report's scaled column l2 * (n delta) is the quantity whose
    spread across cells the factor-10 check constrains.
    """
    _require_replications(estimators, replications, schedule.clt_valid)

    def cell(params, sums):
        summaries = _summaries(params, sums, estimators, master_seed, convention)
        return summaries, _coupling_row(params, sums, convention)

    per_cell, rows = zip(*map_cells(schedule.cells, replications, master_seed, cell))
    results = tuple(
        _schedule_result(schedule, estimator, summaries)
        for estimator, summaries in zip(estimators, zip(*per_cell))
    )
    scaled = [r.l2_scaled for r in rows]
    if any(s == 0.0 for s in scaled):
        spread = 1.0 if all(s == 0.0 for s in scaled) else math.inf
    else:
        spread = max(scaled) / min(scaled)
    coupling = CouplingReport(rows=tuple(rows), spread=spread, within_factor_10=spread <= 10.0)
    return results, coupling
