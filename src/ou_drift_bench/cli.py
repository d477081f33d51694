"""Command-line front end: config parsing, experiment execution, CSV emission.

`_COMMANDS` is the one table of subcommands: each name's function and help
text.  Configuration comes from an optional YAML file (--config) overridden
by flags; every output is a pure function of (config, master_seed), with no
timestamps, so re-running a command produces byte-identical files.

`_FIELDS` is the one table of RunConfig fields: each field's parser, flag and
help text.  The parser is built from it, and a flag value goes through the
same field parser as a config-file value, so a bad value from either is a
config error naming the field (exit code 2).  Numeric strings follow one rule
for integers and reals: ASCII only, no "_", no surrounding blanks; integers
go through `harness.parse_int`, as OU_BENCH_THREADS does.  The replication
floors live in the harness, which raises them as config errors.

CSV outputs are UTF-8, comma-separated, '.' decimal, one header row, preceded
by the schema comment line "# ou-drift-bench csv v1".  Column order is the
contract: `_COLUMNS` holds it for every file but paths.csv (t,x | t,z |
t,z,x, as the variant and coupling decide), and the README's CSV table lists
the same.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import dataclass
from operator import itemgetter
from pathlib import Path

import numpy as np

from .errors import ConfigError, OuBenchError, out_of_range
from .estimators import Estimator, IndexConvention, estimates_of_sums, normalized_error
from .harness import (
    GATE_SE,
    RATE_BOUNDS,
    map_cells,
    parse_int,
    preset_names,
    preset_schedule,
    run_cell,
    run_schedule,
)
from .oracles import MomentQuantity, moment_report
from .ou_core import SEED_MAX, OuParams, Variant, simulate_coupled, simulate_path

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
]

CSV_SCHEMA_LINE = "# ou-drift-bench csv v1"
# Rows of paths.csv turned into Python floats at a time.
_PATH_ROWS = 65536

# Column order of each fixed-schema CSV, by file stem.
_COLUMNS = {
    "estimates": ("estimator", "path", "estimate", "denominator", "normalized_error"),
    "oracle": ("quantity", "exact", "asymptotic", "bound"),
    "cells": (
        "estimator", "n", "delta", "T", "replications", "degenerate", "mean_error", "rmse",
        "mae", "w1", "w1_se", "kolmogorov", "kolmogorov_se", "mean_nerr", "var_nerr",
        "k3_nerr", "k4_nerr",
    ),
    "rates": (
        "schedule", "estimator", "response", "predictor", "slope", "intercept", "r2", "n_cells",
    ),
    "plotdata": (
        "estimator", "n", "delta", "T", "bound_term_1", "bound_term_2", "w1", "w1_se",
        "kolmogorov",
    ),
    "coupling": ("n", "delta", "l2", "l4", "l2_scaled"),
}


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
        if not (isinstance(self.master_seed, int) and 0 <= self.master_seed < SEED_MAX):
            raise ConfigError(f"master_seed must be a uint64, got {self.master_seed!r}")
        if self.n < 1:
            raise ConfigError(f"n must be >= 1, got {self.n!r}")
        if not (math.isfinite(self.delta) and self.delta > 0.0):
            raise ConfigError(f"delta must be finite and > 0, got {self.delta!r}")


def _choices(enum) -> str:
    return ", ".join(member.value for member in enum)


def _enum_parser(enum):
    """Parser for a member of `enum` named by its value, in any case."""

    def parse(value):
        try:
            return enum(str(value).strip().lower())
        except ValueError:
            raise ValueError(f"expected one of {_choices(enum)}") from None

    return parse


_parse_estimator = _enum_parser(Estimator)


def _parse_estimators(value) -> tuple[Estimator, ...]:
    if isinstance(value, str):
        if value.strip().lower() == "both":
            return (Estimator.AMCE, Estimator.AMLE)
        value = [value]
    if not (isinstance(value, list) and all(isinstance(v, str) for v in value)):
        # a mapping would iterate over its keys
        raise TypeError(f"expected a string or a list of strings, got {type(value).__name__}")
    return tuple(_parse_estimator(v) for v in value)


def _parse_real(value) -> float:
    # float() would take True for 1.0, and full-width digits, "1_0" and " 7"
    # in a string; parse_int's strings of ASCII digits pass this rule too
    plain = (
        isinstance(value, str) and value.isascii() and "_" not in value and value == value.strip()
    )
    if plain or (isinstance(value, (int, float)) and not isinstance(value, bool)):
        return float(value)
    raise TypeError('expected a number or a numeric string (ASCII, no "_", no outer blanks)')


def _parse_bool(value) -> bool:
    # bool() would take the string "false" for True
    if isinstance(value, bool):
        return value
    raise TypeError(f"expected true or false, got {type(value).__name__}")


# Every RunConfig field: the parser that both its flag and its config-file
# value go through, its flag and the flag's help.
_FIELDS = {
    "master_seed": (parse_int, "--seed", "master seed (uint64)"),
    "replications": (parse_int, "--reps", "replications per cell"),
    "output_dir": (Path, "--out", "output directory"),
    "schedule": (str, "--preset", f"schedule preset: {', '.join(preset_names())}"),
    "estimators": (_parse_estimators, "--estimator", f"{_choices(Estimator)} or both"),
    "index_convention": (
        _enum_parser(IndexConvention), "--index-convention", _choices(IndexConvention)
    ),
    "theta_true": (_parse_real, "--theta", "true theta"),
    "n": (parse_int, "--n", "cell size n"),
    "delta": (_parse_real, "--delta", "grid step delta"),
    "variant": (_enum_parser(Variant), "--variant", _choices(Variant)),
    "coupled": (_parse_bool, "--coupled", "emit the coupled X column alongside Z (simulate)"),
}


def _load_config_file(path: Path) -> dict:
    # imported here: a command without a config file does not need it
    import yaml

    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
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
            if key not in _FIELDS:
                raise ConfigError(f"unknown config key {key!r}")
            if value is None:
                raise ConfigError(f"{key}: empty value in the config file")
            try:
                merged[key] = _FIELDS[key][0](value)
            except (TypeError, ValueError, OverflowError) as exc:
                raise ConfigError(f"{key}: cannot parse {value!r} ({exc})") from exc
    return RunConfig(**merged)


def _fmt(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _write_lines(path: Path, header: tuple[str, ...], lines) -> Path:
    """Write the formatted rows `lines` under the schema line and the header,
    a line at a time, so the file's text is never held whole."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8") as file:
        file.write(f"{CSV_SCHEMA_LINE}\n{','.join(header)}\n")
        file.writelines(f"{line}\n" for line in lines)
    return path


def _write_csv(path: Path, header: tuple[str, ...], rows) -> Path:
    return _write_lines(path, header, (",".join(map(_fmt, row)) for row in rows))


def _write_table(out_dir: Path, name: str, records) -> Path:
    """Write records (mappings by column name) to `name`.csv in _COLUMNS order."""
    columns = _COLUMNS[name]
    return _write_csv(out_dir / f"{name}.csv", columns, map(itemgetter(*columns), records))


def cmd_simulate(config: RunConfig) -> list[Path]:
    """Write the variant's path of stream 0's coupled pair to paths.csv.

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
        header, columns = ("t", "z", "x"), (z_path.values, x_path.values)
    else:
        path = simulate_path(params, config.variant, config.master_seed)
        header = ("t", "z" if config.variant is Variant.STATIONARY else "x")
        columns = (path.values,)
    try:
        columns = (params.times(), *columns)
    except FloatingPointError as exc:
        raise out_of_range(params, exc) from exc
    # A slice at a time: the whole path as Python floats is about 14 times its size
    rows = (
        row
        for lo in range(0, params.n + 1, _PATH_ROWS)
        for row in zip(*(column[lo : lo + _PATH_ROWS].tolist() for column in columns))
    )
    return [_write_csv(config.output_dir / "paths.csv", header, rows)]


def cmd_estimate(config: RunConfig) -> list[Path]:
    """Run the configured estimators on the cell's paths; one CSV row each.

    Path i is the X of stream (master_seed, i)'s coupled pair, the path
    verify draws there too.  The cell's `map_cells` call (`OU_BENCH_THREADS`
    applies) takes its estimates from `estimates_of_sums`, as the harness
    does, and formats its rows where the cell runs, which also names the
    cell of a value out of range.  Rows are path-major, estimators in config
    order; degenerate paths are skipped and get no row.
    """

    def lines(params, sums):
        # One line per row, as _write_table would write it: the values are
        # Python floats, which _fmt writes with repr.
        columns = []
        for estimator in config.estimators:
            est, den, good = estimates_of_sums(sums, params, estimator, config.index_convention)
            nerr = normalized_error(est, params, config.theta_true)
            values = zip(est.tolist(), den.tolist(), nerr.tolist())
            columns.append((estimator.value, good.tolist(), values))
        rows = []
        for index in range(config.replications):
            for name, good, values in columns:
                if good[index]:
                    e, d, r = next(values)
                    rows.append(f"{name},{index},{e!r},{d!r},{r!r}")
        return rows

    params = OuParams(theta=config.theta_true, delta=config.delta, n=config.n)
    (rows,) = map_cells((params,), config.replications, config.master_seed, lines)
    return [_write_lines(config.output_dir / "estimates.csv", _COLUMNS["estimates"], rows)]


def cmd_oracle(config: RunConfig) -> list[Path]:
    """Write the exact oracle values for the configured cell to oracle.csv."""
    params = OuParams(theta=config.theta_true, delta=config.delta, n=config.n)
    reports = [moment_report(quantity, params) for quantity in MomentQuantity]
    records = (
        {
            "quantity": r.quantity.value,
            "exact": r.exact_value,
            "asymptotic": r.asymptotic_value,
            "bound": r.bound_value,
        }
        for r in reports
    )
    return [_write_table(config.output_dir, "oracle", records)]


def _verify_lines(config: RunConfig) -> tuple[list[str], bool]:
    """Build the verify report lines and the overall gated verdict."""
    params = OuParams(theta=config.theta_true, delta=config.delta, n=config.n)
    lines = [
        f"verify cell: n={params.n} delta={_fmt(params.delta)} "
        f"theta={_fmt(params.theta)} replications={config.replications} "
        f"convention={config.index_convention.value} seed={config.master_seed}",
    ]
    summaries = run_cell(
        params,
        config.estimators,
        config.replications,
        config.master_seed,
        convention=config.index_convention,
    )
    for summary in summaries:
        lines.append(
            f"[{summary.estimator.value}] degenerate={summary.degenerate_count} "
            f"w1={_fmt(summary.distance.w1)} mean_nerr={_fmt(summary.cumulants.mean)}"
        )
        for check in summary.oracle_checks:
            if check.gated:
                verdict = "PASS" if check.passed else "FAIL"
                tag = "gated"
            else:
                verdict = "OK" if check.passed else "DISCREPANT"
                tag = "info"
            line = (
                f"CHECK {check.name:<28s} exact={_fmt(check.exact)} "
                f"empirical={_fmt(check.empirical)} se={_fmt(check.standard_error)} "
                f"verdict={verdict} [{tag}]"
            )
            if check.note:
                line += f"  ({check.note})"
            lines.append(line)
    _, coupling = run_schedule(
        preset_schedule("coupling-sweep", config.theta_true),
        (),
        min(config.replications, 4000),
        config.master_seed,
        convention=config.index_convention,
    )
    verdict = "PASS" if coupling.within_factor_10 else "FAIL"
    all_pass = all(s.gated_pass for s in summaries) and coupling.within_factor_10
    lines.append(
        f"CHECK coupling_l2_scaled_spread   exact<=10 "
        f"empirical={_fmt(coupling.spread)} se=0.0 verdict={verdict} [gated]"
    )
    lines.append(f"VERIFY {'PASS' if all_pass else 'FAIL'} (gate {GATE_SE:g} se)")
    return lines, all_pass


def cmd_verify(config: RunConfig) -> int:
    """Run gated oracle checks; exit 0 iff all pass.  Report goes to stdout."""
    lines, all_pass = _verify_lines(config)
    print("\n".join(lines))
    body = "# verify report\n\n```\n" + "\n".join(lines) + "\n```\n"
    config.output_dir.mkdir(parents=True, exist_ok=True)
    (config.output_dir / "verify.md").write_text(body, encoding="utf-8")
    if not all_pass:
        failing = [line for line in lines if "FAIL" in line]
        print("\n".join(failing), file=sys.stderr)
    return 0 if all_pass else 1


def cmd_rates(config: RunConfig) -> list[Path]:
    """Run the configured preset once for every estimator; emit
    cells/rates/plotdata/report, and coupling.csv on coupling-sweep."""
    schedule = preset_schedule(config.schedule, config.theta_true)
    cell_records, rate_records = [], []
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
    results, coupling = run_schedule(
        schedule,
        config.estimators,
        config.replications,
        config.master_seed,
        convention=config.index_convention,
    )
    for result in results:
        estimator = result.estimator
        bound = RATE_BOUNDS[estimator]
        # One record per cell: the cells.csv fields plus the bound terms,
        # which plotdata.csv adds.  replications, mean_error, rmse, mae and
        # the distances are the summary's fields under their own names.
        records = []
        for cell, summary in zip(schedule.cells, result.summaries):
            term1, term2 = bound.terms(cell)
            cum = summary.cumulants
            records.append(
                {
                    **vars(summary),
                    **vars(summary.distance),
                    "estimator": estimator.value,
                    "n": cell.n,
                    "delta": cell.delta,
                    "T": cell.horizon,
                    "degenerate": summary.degenerate_count,
                    **{f"{k}_nerr": getattr(cum, k) for k in ("mean", "var", "k3", "k4")},
                    "bound_term_1": term1,
                    "bound_term_2": term2,
                }
            )
        cell_records.extend(records)
        # Each fit with its label in the report and its predictor in rates.csv.
        fits = (
            (result.bound_fit, "bound expression", bound.expression),
            (result.dominant_fit, "dominant term", "dominant bound term"),
        )
        rate_records.extend(
            {**vars(fit), "schedule": schedule.name, "estimator": estimator.value,
             "response": f"w1_{estimator.value}", "predictor": predictor}
            for fit, _, predictor in fits
            if fit is not None
        )

        report += [
            f"## {estimator.value}",
            "",
            f"Claim under test: normal approximation of the scaled {bound.error} "
            f"error at rate {bound.expression}.",
            "",
            "| n | delta | T | W1 | W1 se | Kolmogorov |",
            "|---|-------|---|----|-------|------------|",
        ]
        for r in records:
            report.append(
                f"| {r['n']} | {_fmt(r['delta'])} | {_fmt(r['T'])} | "
                f"{r['w1']:.5f} | {r['w1_se']:.5f} | {r['kolmogorov']:.5f} |"
            )
        report.append("")
        w1s = [r["w1"] for r in records]
        monotone = all(b < a for a, b in zip(w1s, w1s[1:]))
        if schedule.clt_valid:
            report.append(
                f"W1 strictly decreasing across cells: {'yes' if monotone else 'no'}."
            )
            for fit, label, predictor in fits:
                report.append(
                    f"Log-log fit against the {label} [{predictor}]: "
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
        _write_table(config.output_dir, name, records)
        for name, records in (
            ("cells", cell_records), ("rates", rate_records), ("plotdata", cell_records)
        )
    ]
    if schedule.name == "coupling-sweep":
        outputs.append(_write_table(config.output_dir, "coupling", map(vars, coupling.rows)))
        report.append(
            f"Coupling spread of l2*(n delta) across cells: {_fmt(coupling.spread)} "
            f"(within factor 10: {'yes' if coupling.within_factor_10 else 'no'})."
        )
        report.append("")
    path = config.output_dir / "report.md"
    path.write_text("\n".join(report) + "\n", encoding="utf-8")
    outputs.append(path)
    return outputs


# Every subcommand: its function and its help text.  `verify` returns its
# exit code, the others the files they wrote.
_COMMANDS = {
    "simulate": (cmd_simulate, "write one path as CSV"),
    "estimate": (cmd_estimate, "write per-path estimates as CSV"),
    "oracle": (cmd_oracle, "write exact oracle values as CSV"),
    "verify": (cmd_verify, "run gated oracle checks"),
    "rates": (cmd_rates, "run a schedule and fit rates"),
}


class _Parser(argparse.ArgumentParser):
    """A parse error is a config error (exit code 2, nothing written), not
    argparse's usage text and exit; its subcommand parsers are of this class too."""

    def error(self, message):
        raise ConfigError(message)


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", type=Path, default=None, help="YAML config file")
    for field, (parse, flag, text) in _FIELDS.items():
        action = "store_true" if parse is _parse_bool else "store"
        common.add_argument(flag, dest=field, action=action, default=None, help=text)
    parser = _Parser(
        prog="ou-bench",
        description="Monte Carlo benchmarks for OU drift estimators",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, text) in _COMMANDS.items():
        sub.add_parser(name, parents=[common], help=text)
    return parser


def _check_output_dir(path: Path) -> None:
    """Refuse an output directory that no file system takes (a NUL byte, a
    name or a path too long) or that is, or lies under, an existing file."""
    if "\0" in str(path):
        # Path.exists() is False for such a path; mkdir raises ValueError
        raise ConfigError(f"output_dir: {str(path)!r} holds a NUL byte")
    # os.path.exists is False where Path.exists raises (a name too long)
    existing = next((p for p in (path, *path.parents) if os.path.exists(p)), None)
    if existing is None:
        return
    if not existing.is_dir():
        raise ConfigError(f"output_dir: {existing} exists and is not a directory")
    name_max = os.pathconf(existing, "PC_NAME_MAX")
    for name in path.relative_to(existing).parts:
        if len(os.fsencode(name)) > name_max:
            raise ConfigError(
                f"output_dir: a directory name of {len(os.fsencode(name))} bytes is "
                f"longer than the file system's limit of {name_max}"
            )
    # estimates.csv is the longest name of a file a command writes
    longest = os.fsencode(path / max((f"{stem}.csv" for stem in _COLUMNS), key=len))
    path_max = os.pathconf(existing, "PC_PATH_MAX")
    if len(longest) >= path_max:
        raise ConfigError(
            f"output_dir: its files' paths take {len(longest)} bytes, at or above "
            f"the file system's limit of {path_max}"
        )


def main(argv: list[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        file_values = _load_config_file(args.config) if args.config else {}
        config = build_config(file_values, {field: getattr(args, field) for field in _FIELDS})
        _check_output_dir(config.output_dir)
        # A value that leaves the range of a double ends the command in an
        # error, not in a warning and inf or nan in its outputs.
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            result = _COMMANDS[args.command][0](config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except OuBenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except FloatingPointError as exc:
        print(f"error: {exc}; a value leaves the range of a double", file=sys.stderr)
        return 1
    except MemoryError as exc:
        # numpy's message names the size it could not allocate
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 1
    if isinstance(result, int):  # verify's exit code
        return result
    for path in result:
        print(path)
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
