"""Command-line front end: config parsing, experiment execution, CSV emission.

Subcommands: simulate | estimate | oracle | verify | rates.  Configuration
comes from an optional YAML file (--config) overridden by flags; every output
is a pure function of (config, master_seed), with no timestamps, so re-running
a command produces byte-identical files.

CSV outputs are UTF-8, comma-separated, '.' decimal, one header row, preceded
by the schema comment line "# ou-drift-bench csv v1".  `read_bench_csv`
rejects files with any other schema line.

File schemas (column order is the contract):

* paths.csv      t,x  |  t,z  |  t,z,x          (variant and coupling decide)
* estimates.csv  estimator,path,estimate,denominator,normalized_error
* oracle.csv     quantity,exact,asymptotic,bound
* cells.csv      estimator,n,delta,T,replications,degenerate,mean_error,rmse,
                 mae,w1,w1_se,kolmogorov,kolmogorov_se,mean_nerr,var_nerr,
                 k3_nerr,k4_nerr
* rates.csv      schedule,estimator,response,predictor,slope,intercept,r2,
                 n_cells
* plotdata.csv   estimator,n,delta,T,bound_term_1,bound_term_2,w1,w1_se,
                 kolmogorov
* coupling.csv   n,delta,l2,l4,l2_scaled
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import yaml

from .errors import ConfigError, OuBenchError
from .estimators import Estimator, IndexConvention, normalized_error
from .harness import (
    FIT_MIN_REPLICATIONS,
    GATE_SE,
    _compute_cell_stats,
    bound_terms,
    coupling_check,
    preset_names,
    preset_schedule,
    run_cell,
    run_schedule,
)
from .metrics import CUMULANT_MIN_SAMPLE
from .oracles import MomentQuantity, moment_report
from .ou_core import OuParams, Variant, simulate_coupled, simulate_path

__all__ = [
    "CSV_SCHEMA_LINE",
    "RunConfig",
    "build_config",
    "cmd_estimate",
    "cmd_oracle",
    "cmd_rates",
    "cmd_simulate",
    "cmd_verify",
    "main",
    "read_bench_csv",
]

CSV_SCHEMA_LINE = "# ou-drift-bench csv v1"

_SEED_MAX = 2**64


@dataclass(frozen=True)
class RunConfig:
    """Validated run configuration; defaults give a sensible desk-scale run."""

    theta_true: float = 1.0
    estimators: tuple[Estimator, ...] = (Estimator.AMCE, Estimator.AMLE)
    schedule: str = "amce-gamma-half"
    replications: int = 10_000
    master_seed: int = 20260822
    index_convention: IndexConvention = IndexConvention.BODY
    output_dir: Path = Path("ou-bench-out")
    n: int = 1000
    delta: float = 0.05
    variant: Variant = Variant.FROM_ZERO
    coupled: bool = False
    n_bootstrap: int = 200

    def __post_init__(self) -> None:
        if not (math.isfinite(self.theta_true) and self.theta_true > 0.0):
            raise ConfigError(f"theta_true must be finite and > 0, got {self.theta_true!r}")
        if not self.estimators:
            raise ConfigError("estimators must name at least one of amce, amle")
        if len(set(self.estimators)) != len(self.estimators):
            names = [e.value for e in self.estimators]
            raise ConfigError(f"estimators: each may be named once, got {names}")
        if self.schedule not in preset_names():
            raise ConfigError(
                f"schedule must be one of {', '.join(preset_names())}, got {self.schedule!r}"
            )
        if self.replications < 2:
            raise ConfigError(f"replications must be >= 2, got {self.replications!r}")
        if not (isinstance(self.master_seed, int) and 0 <= self.master_seed < _SEED_MAX):
            raise ConfigError(f"master_seed must be a uint64, got {self.master_seed!r}")
        if self.n < 1:
            raise ConfigError(f"n must be >= 1, got {self.n!r}")
        if not (math.isfinite(self.delta) and self.delta > 0.0):
            raise ConfigError(f"delta must be finite and > 0, got {self.delta!r}")
        if self.n_bootstrap < 2:
            raise ConfigError(f"n_bootstrap must be >= 2, got {self.n_bootstrap!r}")


def _parse_estimators(value) -> tuple[Estimator, ...]:
    if isinstance(value, str):
        token = value.strip().lower()
        if token == "both":
            return (Estimator.AMCE, Estimator.AMLE)
        value = [token]
    if not (isinstance(value, list) and all(isinstance(v, str) for v in value)):
        # a mapping would iterate over its keys
        raise TypeError(f"expected a string or a list of strings, got {type(value).__name__}")
    try:
        return tuple(Estimator(v.strip().lower()) for v in value)
    except ValueError as exc:
        raise ConfigError(f"estimators: unknown estimator in {value!r}") from exc


def _parse_convention(value) -> IndexConvention:
    try:
        return IndexConvention(str(value).strip().lower())
    except ValueError as exc:
        raise ConfigError(
            f"index_convention must be body or abstract, got {value!r}"
        ) from exc


def _parse_variant(value) -> Variant:
    try:
        return Variant(str(value).strip().lower())
    except ValueError as exc:
        raise ConfigError(
            f"variant must be from-zero or stationary, got {value!r}"
        ) from exc


def _parse_int(value) -> int:
    # int() would truncate 2.9 and take True for 1
    if isinstance(value, str) and value.isascii() and value.isdigit():
        return int(value)
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    raise TypeError(f"expected an integer or a string of digits, got {type(value).__name__}")


def _parse_real(value) -> float:
    # float() would take True for 1.0
    if isinstance(value, (int, float, str)) and not isinstance(value, bool):
        return float(value)
    raise TypeError(f"expected a number or a numeric string, got {type(value).__name__}")


def _parse_bool(value) -> bool:
    # bool() would take the string "false" for True
    if isinstance(value, bool):
        return value
    raise TypeError(f"expected true or false, got {type(value).__name__}")


_FIELD_PARSERS = {
    "theta_true": _parse_real,
    "estimators": _parse_estimators,
    "schedule": str,
    "replications": _parse_int,
    "master_seed": _parse_int,
    "index_convention": _parse_convention,
    "output_dir": Path,
    "n": _parse_int,
    "delta": _parse_real,
    "variant": _parse_variant,
    "coupled": _parse_bool,
    "n_bootstrap": _parse_int,
}


def _load_config_file(path: Path) -> dict:
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    try:
        raw = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        where = ""
        mark = getattr(exc, "problem_mark", None)
        if mark is not None:
            where = f" at line {mark.line + 1}, column {mark.column + 1}"
        raise ConfigError(f"config file {path} is not valid YAML{where}: {exc}") from exc
    if raw is None:
        return {}
    if not isinstance(raw, dict):
        raise ConfigError(f"config file {path} must contain a mapping at top level")
    return raw


def build_config(file_values: dict | None = None, overrides: dict | None = None) -> RunConfig:
    """Merge defaults, config-file values, and flag overrides into a RunConfig.

    Later sources win.  An override of None is a flag that was not given; a
    None in the file is an empty value.  Unknown keys, empty file values and
    unparsable values raise ConfigError naming the offending field.
    """
    merged: dict = {}
    for source in (file_values or {}), (overrides or {}):
        for key, value in source.items():
            if value is None and source is overrides:
                continue
            if key not in _FIELD_PARSERS:
                raise ConfigError(f"unknown config key {key!r}")
            if value is None:
                raise ConfigError(f"{key}: empty value in the config file")
            try:
                merged[key] = _FIELD_PARSERS[key](value)
            except ConfigError:
                raise
            except (TypeError, ValueError, OverflowError) as exc:
                raise ConfigError(f"{key}: cannot parse {value!r} ({exc})") from exc
    return RunConfig(**merged)


def _fmt(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _write_csv(path: Path, header: list[str], rows: list[list]) -> Path:
    lines = [CSV_SCHEMA_LINE, ",".join(header)]
    lines.extend(",".join(_fmt(v) for v in row) for row in rows)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def read_bench_csv(path: Path) -> tuple[list[str], list[dict]]:
    """Read a bench CSV, rejecting unknown schema versions."""
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    if not lines or lines[0] != CSV_SCHEMA_LINE:
        found = lines[0] if lines else "<empty file>"
        raise ConfigError(
            f"{path}: unsupported csv schema line {found!r}; expected {CSV_SCHEMA_LINE!r}"
        )
    header = lines[1].split(",")
    rows = [dict(zip(header, line.split(","))) for line in lines[2:] if line]
    return header, rows


def cmd_simulate(config: RunConfig) -> list[Path]:
    """Write one simulated path (stream 0 of the master seed) to paths.csv.

    `coupled` adds the from-zero X column next to a stationary Z, so it needs
    the stationary variant.
    """
    if config.coupled and config.variant is not Variant.STATIONARY:
        raise ConfigError(
            f"coupled needs variant stationary, got variant {config.variant.value}"
        )
    params = OuParams(theta=config.theta_true, delta=config.delta, n=config.n)
    if config.coupled:
        x_path, z_path = simulate_coupled(params, config.master_seed)
        header, columns = ["t", "z", "x"], (z_path.values, x_path.values)
    else:
        path = simulate_path(params, config.variant, config.master_seed)
        header = ["t", "z" if config.variant is Variant.STATIONARY else "x"]
        columns = (path.values,)
    rows = [[float(v) for v in row] for row in zip(params.times(), *columns)]
    out = _write_csv(config.output_dir / "paths.csv", header, rows)
    return [out]


def cmd_estimate(config: RunConfig) -> list[Path]:
    """Run the configured estimators on fresh from-zero paths; one CSV row each.

    Path i is stream (master_seed, i) in the innovations-only layout; its
    sums come from the harness's worker pool (`OU_BENCH_THREADS` applies) and
    its estimates from the harness's one estimator selection.  Rows are
    path-major, estimators in config order; degenerate paths are skipped and
    get no row.  The paths are not verify's, which draws in the stationary
    layout (Z_0 first).
    """
    params = OuParams(theta=config.theta_true, delta=config.delta, n=config.n)
    stats = _compute_cell_stats(
        params, Variant.FROM_ZERO, config.replications, config.master_seed
    )
    columns = []
    for estimator in config.estimators:
        est, den, good = stats.estimates(estimator, config.index_convention, params.horizon)
        nerr = normalized_error(est, params, config.theta_true)
        # tolist() gives Python floats, which _fmt writes with repr
        values = iter(zip(est.tolist(), den.tolist(), nerr.tolist()))
        columns.append((estimator.value, good.tolist(), values))
    rows = [
        [name, index, *next(values)]
        for index in range(config.replications)
        for name, good, values in columns
        if good[index]
    ]
    out = _write_csv(
        config.output_dir / "estimates.csv",
        ["estimator", "path", "estimate", "denominator", "normalized_error"],
        rows,
    )
    return [out]


def cmd_oracle(config: RunConfig) -> list[Path]:
    """Write the exact oracle values for the configured cell to oracle.csv."""
    params = OuParams(theta=config.theta_true, delta=config.delta, n=config.n)
    rows = []
    for quantity in MomentQuantity:
        report = moment_report(quantity, params)
        rows.append(
            [
                quantity.value,
                report.exact_value,
                report.asymptotic_value,
                report.bound_value,
            ]
        )
    out = _write_csv(
        config.output_dir / "oracle.csv",
        ["quantity", "exact", "asymptotic", "bound"],
        rows,
    )
    return [out]


def _verify_lines(config: RunConfig) -> tuple[list[str], bool]:
    """Build the verify report lines and the overall gated verdict."""
    params = OuParams(theta=config.theta_true, delta=config.delta, n=config.n)
    lines = [
        f"verify cell: n={params.n} delta={_fmt(params.delta)} "
        f"theta={_fmt(params.theta)} replications={config.replications} "
        f"convention={config.index_convention.value} seed={config.master_seed}",
    ]
    all_pass = True
    for estimator in config.estimators:
        summary = run_cell(
            params,
            estimator,
            config.replications,
            config.master_seed,
            convention=config.index_convention,
            n_bootstrap=config.n_bootstrap,
        )
        lines.append(
            f"[{estimator.value}] degenerate={summary.degenerate_count} "
            f"w1={_fmt(summary.distance.w1)} mean_nerr={_fmt(summary.cumulants.mean)}"
        )
        for check in summary.oracle_checks:
            if check.gated:
                verdict = "PASS" if check.passed else "FAIL"
                tag = "gated"
            else:
                verdict = "OK" if check.passed else "DISCREPANT"
                tag = "info"
            all_pass = all_pass and (check.passed or not check.gated)
            line = (
                f"CHECK {check.name:<28s} exact={_fmt(check.exact)} "
                f"empirical={_fmt(check.empirical)} se={_fmt(check.standard_error)} "
                f"verdict={verdict} [{tag}]"
            )
            if check.note:
                line += f"  ({check.note})"
            lines.append(line)
    coupling = coupling_check(
        preset_schedule("coupling-sweep"),
        min(config.replications, 4000),
        config.master_seed,
        theta=config.theta_true,
        convention=config.index_convention,
    )
    verdict = "PASS" if coupling.within_factor_10 else "FAIL"
    all_pass = all_pass and coupling.within_factor_10
    lines.append(
        f"CHECK coupling_l2_scaled_spread   exact<=10 "
        f"empirical={_fmt(coupling.spread)} se=0.0 verdict={verdict} [gated]"
    )
    lines.append(f"VERIFY {'PASS' if all_pass else 'FAIL'} (gate {GATE_SE:g} se)")
    return lines, all_pass


def cmd_verify(config: RunConfig) -> int:
    """Run gated oracle checks; exit 0 iff all pass.  Report goes to stdout."""
    if config.replications < CUMULANT_MIN_SAMPLE:
        # Below this every cumulant gate would be skipped and the verdict
        # would rest on the second moment alone.
        raise ConfigError(
            f"replications must be >= {CUMULANT_MIN_SAMPLE} for verify (the "
            f"cumulant gates need them), got {config.replications}"
        )
    lines, all_pass = _verify_lines(config)
    print("\n".join(lines))
    body = "# verify report\n\n```\n" + "\n".join(lines) + "\n```\n"
    config.output_dir.mkdir(parents=True, exist_ok=True)
    (config.output_dir / "verify.md").write_text(body, encoding="utf-8")
    if not all_pass:
        failing = [line for line in lines if "FAIL" in line]
        print("\n".join(failing), file=sys.stderr)
    return 0 if all_pass else 1


_CLAIMS = {
    Estimator.AMCE: (
        "normal approximation of the scaled moment-estimator error at rate "
        "delta^2 + (n delta)^(-1/2)"
    ),
    Estimator.AMLE: (
        "normal approximation of the scaled likelihood-estimator error at rate "
        "(n delta)^(-1/2) + (n delta^3)^(1/2)"
    ),
}


def cmd_rates(config: RunConfig) -> list[Path]:
    """Run the configured preset per estimator; emit cells/rates/plotdata/report."""
    schedule = preset_schedule(config.schedule)
    # cells.csv reports the normalized-error cumulants, and a CLT-valid
    # preset also fits rates.
    floor = FIT_MIN_REPLICATIONS if schedule.clt_valid else CUMULANT_MIN_SAMPLE
    if config.replications < floor:
        raise ConfigError(
            f"replications must be >= {floor} for rates on preset "
            f"{schedule.name!r}, got {config.replications}"
        )
    cell_rows, rate_rows, plot_rows = [], [], []
    report: list[str] = [
        "# ou-drift-bench rate report",
        "",
        f"Schedule: {schedule.name} (CLT-valid: {'yes' if schedule.clt_valid else 'no'})",
        f"Cells: {', '.join(f'(n={c.n}, delta={_fmt(c.delta)})' for c in schedule.cells)}",
        f"Replications per cell: {config.replications}; master seed: "
        f"{config.master_seed}; theta: {_fmt(config.theta_true)}; "
        f"index convention: {config.index_convention.value}",
        "",
    ]
    if not schedule.clt_valid:
        report.append(
            "This schedule violates the joint regime delta -> 0 with T -> infinity; "
            "distances are recorded for reference and no rate is fitted or asserted."
        )
        report.append("")
    results = []
    for estimator in config.estimators:
        result = run_schedule(
            schedule,
            estimator,
            config.replications,
            config.master_seed,
            theta=config.theta_true,
            convention=config.index_convention,
            n_bootstrap=config.n_bootstrap,
        )
        results.append(result)
        for cell, summary in zip(schedule.cells, result.summaries):
            term1, term2 = bound_terms(cell, estimator)
            cum = summary.cumulants
            dist = summary.distance
            cell_rows.append(
                [
                    estimator.value,
                    cell.n,
                    cell.delta,
                    cell.horizon,
                    summary.replications,
                    summary.degenerate_count,
                    summary.mean_error,
                    summary.rmse,
                    summary.mae,
                    dist.w1,
                    dist.w1_se,
                    dist.kolmogorov,
                    dist.kolmogorov_se,
                    cum.mean,
                    cum.var,
                    cum.k3,
                    cum.k4,
                ]
            )
            plot_rows.append(
                [
                    estimator.value,
                    cell.n,
                    cell.delta,
                    cell.horizon,
                    term1,
                    term2,
                    dist.w1,
                    dist.w1_se,
                    dist.kolmogorov,
                ]
            )
        for fit in (result.bound_fit, result.dominant_fit):
            if fit is not None:
                rate_rows.append(
                    [
                        fit.schedule,
                        estimator.value,
                        fit.response.value if fit.response else "",
                        fit.predictor,
                        fit.slope,
                        fit.intercept,
                        fit.r2,
                        fit.n_cells,
                    ]
                )

        report.append(f"## {estimator.value}")
        report.append("")
        report.append(f"Claim under test: {_CLAIMS[estimator]}.")
        report.append("")
        report.append("| n | delta | T | W1 | W1 se | Kolmogorov |")
        report.append("|---|-------|---|----|-------|------------|")
        for cell, summary in zip(schedule.cells, result.summaries):
            dist = summary.distance
            report.append(
                f"| {cell.n} | {_fmt(cell.delta)} | {_fmt(cell.horizon)} | "
                f"{dist.w1:.5f} | {dist.w1_se:.5f} | {dist.kolmogorov:.5f} |"
            )
        report.append("")
        w1s = [s.distance.w1 for s in result.summaries]
        monotone = all(b < a for a, b in zip(w1s, w1s[1:]))
        if schedule.clt_valid:
            report.append(
                f"W1 strictly decreasing across cells: {'yes' if monotone else 'no'}."
            )
            for fit, label in (
                (result.bound_fit, "bound expression"),
                (result.dominant_fit, "dominant term"),
            ):
                report.append(
                    f"Log-log fit against the {label} [{fit.predictor}]: "
                    f"slope={fit.slope:.4f}, intercept={fit.intercept:.4f}, "
                    f"r2={fit.r2:.4f} over {fit.n_cells} cells."
                )
            verdict = "supported" if monotone and result.bound_fit.slope > 0 else "not supported"
            report.append(f"Verdict: normal-approximation decay {verdict} at this scale.")
        else:
            report.append(
                f"W1 across cells (recorded only): "
                f"{', '.join(f'{w:.5f}' for w in w1s)}."
            )
        report.append("")

    outputs = [
        _write_csv(
            config.output_dir / "cells.csv",
            [
                "estimator", "n", "delta", "T", "replications", "degenerate",
                "mean_error", "rmse", "mae", "w1", "w1_se", "kolmogorov",
                "kolmogorov_se", "mean_nerr", "var_nerr", "k3_nerr", "k4_nerr",
            ],
            cell_rows,
        ),
        _write_csv(
            config.output_dir / "rates.csv",
            [
                "schedule", "estimator", "response", "predictor",
                "slope", "intercept", "r2", "n_cells",
            ],
            rate_rows,
        ),
        _write_csv(
            config.output_dir / "plotdata.csv",
            [
                "estimator", "n", "delta", "T", "bound_term_1", "bound_term_2",
                "w1", "w1_se", "kolmogorov",
            ],
            plot_rows,
        ),
    ]
    if schedule.name == "coupling-sweep":
        coupling = coupling_check(
            schedule,
            config.replications,
            config.master_seed,
            theta=config.theta_true,
            convention=config.index_convention,
        )
        outputs.append(
            _write_csv(
                config.output_dir / "coupling.csv",
                ["n", "delta", "l2", "l4", "l2_scaled"],
                [[r.n, r.delta, r.l2, r.l4, r.l2_scaled] for r in coupling.rows],
            )
        )
        report.append(
            f"Coupling spread of l2*(n delta) across cells: {_fmt(coupling.spread)} "
            f"(within factor 10: {'yes' if coupling.within_factor_10 else 'no'})."
        )
        report.append("")
    path = config.output_dir / "report.md"
    path.write_text("\n".join(report) + "\n", encoding="utf-8")
    outputs.append(path)
    return outputs


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", type=Path, default=None, help="YAML config file")
    common.add_argument("--seed", type=int, default=None, help="master seed (uint64)")
    common.add_argument("--reps", type=int, default=None, help="replications per cell")
    common.add_argument("--out", type=Path, default=None, help="output directory")
    common.add_argument(
        "--preset", choices=preset_names(), default=None, help="schedule preset"
    )
    common.add_argument(
        "--estimator", choices=("amce", "amle", "both"), default=None
    )
    common.add_argument(
        "--index-convention", choices=("body", "abstract"), default=None
    )
    common.add_argument("--theta", type=float, default=None, help="true theta")
    common.add_argument("--n", type=int, default=None, help="cell size n")
    common.add_argument("--delta", type=float, default=None, help="grid step delta")
    common.add_argument(
        "--variant", choices=("from-zero", "stationary"), default=None
    )
    common.add_argument(
        "--coupled", action="store_true", default=None,
        help="emit the coupled X column alongside Z (simulate)",
    )
    parser = argparse.ArgumentParser(
        prog="ou-bench",
        description="Monte Carlo benchmarks for OU drift estimators",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("simulate", parents=[common], help="write one path as CSV")
    sub.add_parser("estimate", parents=[common], help="write per-path estimates as CSV")
    sub.add_parser("oracle", parents=[common], help="write exact oracle values as CSV")
    sub.add_parser("verify", parents=[common], help="run gated oracle checks")
    sub.add_parser("rates", parents=[common], help="run a schedule and fit rates")
    return parser


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    file_values = _load_config_file(args.config) if args.config else {}
    overrides = {
        "master_seed": args.seed,
        "replications": args.reps,
        "output_dir": args.out,
        "schedule": args.preset,
        "estimators": args.estimator,
        "index_convention": args.index_convention,
        "theta_true": args.theta,
        "n": args.n,
        "delta": args.delta,
        "variant": args.variant,
        "coupled": args.coupled,
    }
    return build_config(file_values, overrides)


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        config = _config_from_args(args)
        if args.command == "simulate":
            paths = cmd_simulate(config)
        elif args.command == "estimate":
            paths = cmd_estimate(config)
        elif args.command == "oracle":
            paths = cmd_oracle(config)
        elif args.command == "verify":
            return cmd_verify(config)
        elif args.command == "rates":
            paths = cmd_rates(config)
        else:  # pragma: no cover - argparse enforces the choices
            raise ConfigError(f"unknown command {args.command!r}")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except OuBenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for path in paths:
        print(path)
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
