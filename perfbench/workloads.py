"""The benchmark's workloads: the ou-bench commands each runs, and their checks.

A workload is a list of `ou-bench` argument lists, run in order through
`ou_drift_bench.cli.main` in one fresh interpreter.  The seed and the output
directory are appended to every command.  `steps` is the number of AR(1)
steps the commands simulate (the sum of reps * n over every cell actually
simulated), in closed form; the traced pass counts the same number.

Each check returns one `Op` per checked output row or gate.  An op fails when
the row is missing, holds a non-finite value, is a gated check that did not
pass, or is off its reference by more than rounding.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent
ORACLE_REFERENCE = HERE / "oracle_reference.json"
SCHEMA_LINE = "# ou-drift-bench csv v1"
# Largest relative difference still taken as rounding.
REL_TOL = 1e-9


@dataclass(frozen=True)
class Op:
    name: str
    ok: bool
    detail: str = ""
    refused: bool = False


@dataclass(frozen=True)
class Workload:
    name: str
    commands: tuple[tuple[str, ...], ...]
    steps: int
    check: Callable[[Path, int, list[int]], list[Op]]
    # Closed forms of the traced pass's exact counters.
    counts: dict

    def argv(self, seed: int, out: Path) -> list[list[str]]:
        return [
            [*cmd, "--seed", str(seed), "--out", str(out / f"{i}-{cmd[0]}")]
            for i, cmd in enumerate(self.commands)
        ]


# -- reading outputs ---------------------------------------------------------


def read_csv(path: Path) -> list[dict[str, str]] | None:
    """Rows of a bench CSV as dicts, or None if the file or its schema is missing.

    The checks read outputs with their own parser, not the program's.
    """
    if not path.is_file():
        return None
    lines = path.read_text(encoding="utf-8").splitlines()
    if len(lines) < 2 or lines[0] != SCHEMA_LINE:
        return None
    header = lines[1].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[2:] if line]


def _finite(row: dict, keys) -> str:
    """Empty if every key holds a finite number, else what is wrong."""
    for key in keys:
        try:
            value = float(row[key])
        except (KeyError, ValueError):
            return f"{key}={row.get(key)!r} is not a number"
        if not math.isfinite(value):
            return f"{key}={value!r} is not finite"
    return ""


def close(a: float, b: float) -> bool:
    return abs(a - b) <= REL_TOL * max(abs(a), abs(b))


def _missing(name: str) -> list[Op]:
    return [Op(name, False, "output missing")]


# -- clt-schedule ------------------------------------------------------------

CLT_REPS = 10_000
CLT_EXPONENTS = range(8, 15)
CLT_COLUMNS = (
    "delta", "T", "mean_error", "rmse", "mae", "w1", "w1_se", "kolmogorov",
    "kolmogorov_se", "mean_nerr", "var_nerr", "k3_nerr", "k4_nerr",
)


def _smallest_cell_reference(seed: int) -> dict[str, dict[str, float]]:
    """Recompute the n = 256 cell of amce-gamma-half through the per-path API."""
    import numpy as np

    from ou_drift_bench import (
        IndexConvention,
        OuParams,
        amce,
        amle,
        distance_report,
        kolmogorov_to_std_normal,
        sample_cumulants,
        simulate_coupled,
        w1_to_std_normal,
    )

    n = 2 ** CLT_EXPONENTS[0]
    params = OuParams(theta=1.0, delta=float(n) ** -0.5, n=n)
    estimates = {"amce": np.empty(CLT_REPS), "amle": np.empty(CLT_REPS)}
    for i in range(CLT_REPS):
        x_path, _ = simulate_coupled(params, seed, stream=i)
        estimates["amce"][i] = amce(x_path, 1.0, IndexConvention.BODY).estimate
        estimates["amle"][i] = amle(x_path, 1.0).estimate
    reference = {}
    for estimator, est in estimates.items():
        errors = est - 1.0
        nerr = math.sqrt(params.horizon / 2.0) * errors
        cumulants = sample_cumulants(nerr)
        report = distance_report(nerr, n_bootstrap=200, seed=seed)
        reference[estimator] = {
            "mean_error": float(np.mean(errors)),
            "rmse": float(np.sqrt(np.mean(errors**2))),
            "mae": float(np.mean(np.abs(errors))),
            "w1": w1_to_std_normal(nerr),
            "w1_se": report.w1_se,
            "kolmogorov": kolmogorov_to_std_normal(nerr),
            "kolmogorov_se": report.kolmogorov_se,
            "mean_nerr": cumulants.mean,
            "var_nerr": cumulants.var,
            "k3_nerr": cumulants.k3,
            "k4_nerr": cumulants.k4,
        }
    return reference


def check_clt_schedule(out: Path, seed: int, codes: list[int]) -> list[Op]:
    run_dir = out / "0-rates"
    ops = [Op("rates exit code", codes == [0], f"exit codes {codes}")]
    cells = read_csv(run_dir / "cells.csv")
    if cells is None:
        return ops + _missing("cells.csv")
    reference = _smallest_cell_reference(seed)
    expected = [(e, 2**k) for e in ("amce", "amle") for k in CLT_EXPONENTS]
    for i, (estimator, n) in enumerate(expected):
        name = f"cells.csv {estimator} n={n}"
        if i >= len(cells):
            ops.append(Op(name, False, "row missing"))
            continue
        row = cells[i]
        problem = _finite(row, CLT_COLUMNS)
        if (row.get("estimator"), row.get("n")) != (estimator, str(n)):
            problem = f"row is {row.get('estimator')} n={row.get('n')}"
        elif row.get("replications") != str(CLT_REPS) or row.get("degenerate") != "0":
            problem = f"replications={row.get('replications')} degenerate={row.get('degenerate')}"
        elif not problem and n == 2 ** CLT_EXPONENTS[0]:
            for key, want in reference[estimator].items():
                if not close(float(row[key]), want):
                    problem = f"{key}={row[key]} but the per-path API gives {want!r}"
                    break
        ops.append(Op(name, not problem, problem))
    rates = read_csv(run_dir / "rates.csv")
    if rates is None:
        ops += _missing("rates.csv")
    else:
        for estimator in ("amce", "amle"):
            fits = [r for r in rates if r.get("estimator") == estimator]
            ops.append(Op(f"rates.csv {estimator} fit count", len(fits) == 2, f"{len(fits)} fits"))
            for fit in fits:
                problem = _finite(fit, ("slope", "intercept", "r2"))
                if fit.get("n_cells") != str(len(CLT_EXPONENTS)):
                    problem = f"n_cells={fit.get('n_cells')}"
                ops.append(Op(f"rates.csv {estimator} {fit.get('predictor')}", not problem, problem))
    plot = read_csv(run_dir / "plotdata.csv")
    if plot is None:
        ops += _missing("plotdata.csv")
    else:
        ok = len(plot) == len(expected)
        ops.append(Op("plotdata.csv rows", ok, f"{len(plot)} rows"))
        for row in plot:
            problem = _finite(row, ("bound_term_1", "bound_term_2", "w1", "w1_se", "kolmogorov"))
            ops.append(Op(f"plotdata.csv {row.get('estimator')} n={row.get('n')}", not problem, problem))
    report = run_dir / "report.md"
    ops.append(Op("report.md", report.is_file() and report.stat().st_size > 0))
    return ops


# -- long-path-verify --------------------------------------------------------

LONG_N, LONG_REPS, VERIFY_DELTA = 262_144, 1024, 0.05
# verify also runs the coupling check over coupling-sweep's three cells at
# min(reps, 4000) replications.
COUPLING_NS = (256, 1024, 4096)
COUPLING_REPS = min(LONG_REPS, 4000)
# Gated checks verify prints per estimator at n > 512 (no dense oracles).
VERIFY_GATES = (
    "exact_var_fn_z",
    "exact_var_lambda",
    "exact_k3_lambda",
    "exact_k4_lambda",
    "decomposition_identity",
)


def check_verify(out: Path, seed: int, codes: list[int]) -> list[Op]:
    report = out / "0-verify" / "verify.md"
    if not report.is_file():
        return _missing("verify.md")
    required = {"amce": VERIFY_GATES, "amle": VERIFY_GATES, "coupling": ("coupling_l2_scaled_spread",)}
    seen: dict[str, set] = {where: set() for where in required}
    ops = []
    section = None
    verdict = None
    for line in report.read_text(encoding="utf-8").splitlines():
        if line.startswith(("[amce]", "[amle]")):
            section = line[1:5]
            ops.append(Op(f"{section} degenerate", " degenerate=0 " in line, line))
        elif line.startswith("CHECK ") and "[gated]" in line:
            name = line.split()[1]
            where = "coupling" if name.startswith("coupling") else section
            fields = dict(t.split("=", 1) for t in line.split() if "=" in t)
            problem = _finite(fields, ("empirical", "se"))
            if "verdict=PASS" not in line:
                problem = "gated check did not pass"
            ops.append(Op(f"{where} {name}", not problem, problem or line))
            seen.setdefault(where, set()).add(name)
        elif line.startswith("VERIFY "):
            verdict = line
    for where, names in required.items():
        ops += [Op(f"{where} {n}", False, "gated check missing") for n in names if n not in seen[where]]
    passed = codes == [0] and verdict is not None and verdict.startswith("VERIFY PASS")
    ops.append(Op("VERIFY PASS", passed, f"{verdict!r}, exit codes {codes}"))
    return ops


# -- single-cell-cli ---------------------------------------------------------

ESTIMATE_N, ESTIMATE_DELTA, ESTIMATE_REPS = 1000, 0.05, 20_000
ORACLE_CELLS = tuple(
    (preset, n, float(n) ** -gamma)
    for preset, gamma in (("amce-gamma-half", 0.5), ("amle-gamma-3q", 0.75))
    for n in (1024, 2048, 4096)
)
# Paths whose estimates are recomputed through the per-path API.
_ESTIMATE_SPOT = (0, 1, 4999, 10_000, 19_999)


def _check_estimates(run_dir: Path, seed: int) -> list[Op]:
    from ou_drift_bench import IndexConvention, OuParams, Variant, amce, amle, simulate_path

    rows = read_csv(run_dir / "estimates.csv")
    if rows is None:
        return _missing("estimates.csv")
    params = OuParams(theta=1.0, delta=ESTIMATE_DELTA, n=ESTIMATE_N)
    scale = math.sqrt(params.horizon / 2.0)
    ops = [Op("estimates.csv rows", len(rows) == 2 * ESTIMATE_REPS, f"{len(rows)} rows")]
    spot = {}
    for path in _ESTIMATE_SPOT:
        x = simulate_path(params, Variant.FROM_ZERO, seed, stream=path)
        spot[(path, "amce")] = amce(x, 1.0, IndexConvention.BODY)
        spot[(path, "amle")] = amle(x, 1.0)
    for i, row in enumerate(rows):
        estimator = ("amce", "amle")[i % 2]
        path = i // 2
        problem = _finite(row, ("estimate", "denominator", "normalized_error"))
        if (row.get("estimator"), row.get("path")) != (estimator, str(path)):
            problem = f"row {i} is {row.get('estimator')} path {row.get('path')}"
        elif not problem:
            est = float(row["estimate"])
            if not close(float(row["normalized_error"]), scale * (est - 1.0)):
                problem = "normalized_error is not sqrt(T/2)(estimate - 1)"
            elif estimator == "amce" and not close(est, 1.0 / (2.0 * float(row["denominator"]))):
                problem = "amce estimate is not 1/(2 denominator)"
            elif (path, estimator) in spot:
                want = spot[(path, estimator)]
                if not (close(est, want.estimate) and close(float(row["denominator"]), want.denominator)):
                    problem = f"per-path API gives {want.estimate!r}"
        if problem:
            ops.append(Op(f"estimates.csv {estimator} path {path}", False, problem))
        else:
            ops.append(Op("estimates.csv row", True))
    return ops


def _check_oracles(out: Path) -> list[Op]:
    reference = json.loads(ORACLE_REFERENCE.read_text(encoding="utf-8"))["cells"]
    ops = []
    for i, cell in enumerate(reference):
        rows = read_csv(out / f"{i + 1}-oracle" / "oracle.csv")
        label = f"oracle {cell['preset']} n={cell['n']}"
        if rows is None:
            ops += _missing(label)
            continue
        by_quantity = {row.get("quantity"): row for row in rows}
        for quantity, want in cell["rows"].items():
            row = by_quantity.get(quantity)
            name = f"{label} {quantity}"
            if row is None:
                ops.append(Op(name, False, "row missing"))
            elif row["exact"] == row["asymptotic"] == row["bound"] == "":
                ops.append(Op(name, True, "refused", refused=True))
            else:
                problem = _finite(row, ("exact", "asymptotic", "bound"))
                got = [float(row[k]) for k in ("exact", "asymptotic", "bound")] if not problem else []
                if got and not all(close(g, w) for g, w in zip(got, want)):
                    problem = f"got {got} want {want}"
                ops.append(Op(name, not problem, problem))
    return ops


def check_single_cell(out: Path, seed: int, codes: list[int]) -> list[Op]:
    ops = [Op("exit codes", all(c == 0 for c in codes), f"exit codes {codes}")]
    return ops + _check_estimates(out / "0-estimate", seed) + _check_oracles(out)


# -- the workloads -----------------------------------------------------------

_clt_ns = [2**k for k in CLT_EXPONENTS]
_dense_ns = [n for n in _clt_ns if n <= 512]

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="clt-schedule",
            commands=(
                ("rates", "--preset", "amce-gamma-half", "--reps", str(CLT_REPS), "--estimator", "both"),
            ),
            steps=CLT_REPS * sum(_clt_ns),
            check=check_clt_schedule,
            counts={
                "ou_core.rng_setup_calls": len(_clt_ns) * CLT_REPS,
                "ou_core.scan_elements": CLT_REPS * sum(_clt_ns),
                "ou_core.simulate_path_calls": 0,
                "estimators.calls": 0,
                "harness.cells": 2 * len(_clt_ns),
                "harness.cache_hits": len(_clt_ns),
                "harness.cache_misses": len(_clt_ns),
                "metrics.distance_report_calls": 2 * len(_clt_ns),
                "metrics.sorts": 2 * len(_clt_ns) * 2 * 201,
                "metrics.sorted_elements": 2 * len(_clt_ns) * 2 * 201 * CLT_REPS,
                "oracles.calls": 2 * (6 * len(_clt_ns) + 2 * len(_dense_ns)),
                "oracles.dense_calls": 2 * 2 * len(_dense_ns),
                "oracles.dense_elements": 2 * 2 * sum(n * n for n in _dense_ns),
                "oracles.refused": 0,
            },
        ),
        Workload(
            name="long-path-verify",
            commands=(
                ("verify", "--n", str(LONG_N), "--delta", repr(VERIFY_DELTA), "--reps", str(LONG_REPS)),
            ),
            steps=LONG_REPS * LONG_N + COUPLING_REPS * sum(COUPLING_NS),
            check=check_verify,
            counts={
                "ou_core.rng_setup_calls": LONG_REPS + len(COUPLING_NS) * COUPLING_REPS,
                "ou_core.scan_elements": LONG_REPS * LONG_N + COUPLING_REPS * sum(COUPLING_NS),
                "ou_core.simulate_path_calls": 0,
                "estimators.calls": 0,
                # One cell for both estimators (a miss, then a hit), plus coupling.
                "harness.cells": 2 + len(COUPLING_NS),
                "harness.cache_hits": 1,
                "harness.cache_misses": 1 + len(COUPLING_NS),
                "metrics.distance_report_calls": 2,
                "metrics.sorts": 2 * 2 * 201,
                "metrics.sorted_elements": 2 * 2 * 201 * LONG_REPS,
                "oracles.calls": 2 * 6,
                "oracles.dense_calls": 0,
                "oracles.dense_elements": 0,
                "oracles.refused": 0,
            },
        ),
        Workload(
            name="single-cell-cli",
            commands=(
                (
                    "estimate", "--n", str(ESTIMATE_N), "--delta", repr(ESTIMATE_DELTA),
                    "--reps", str(ESTIMATE_REPS), "--estimator", "both",
                ),
                *(("oracle", "--n", str(n), "--delta", repr(delta)) for _, n, delta in ORACLE_CELLS),
            ),
            steps=ESTIMATE_REPS * ESTIMATE_N,
            check=check_single_cell,
            counts={
                "ou_core.rng_setup_calls": 0,
                "ou_core.scan_elements": 0,
                "ou_core.simulate_path_calls": ESTIMATE_REPS,
                "estimators.calls": 2 * ESTIMATE_REPS,
                "harness.cells": 0,
                "harness.cache_hits": 0,
                "harness.cache_misses": 0,
                "metrics.distance_report_calls": 0,
                "metrics.sorts": 0,
                "oracles.calls": 5 * len(ORACLE_CELLS),
                # k4_fn_z_bound builds one dense matrix per cell; k3_fn_z is
                # refused above its n <= 512 cap.
                "oracles.dense_calls": len(ORACLE_CELLS),
                "oracles.dense_elements": sum(n * n for _, n, _ in ORACLE_CELLS),
                "oracles.refused": len(ORACLE_CELLS),
            },
        ),
    )
}
