"""Command line interface: outputs, config precedence, byte determinism."""

import functools
import math
import multiprocessing
import re
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from ou_drift_bench import (
    IndexConvention,
    OuBenchError,
    OuParams,
    Variant,
    amce,
    amle,
    exact_var_fn_z,
    harness,
    k3_fn_z,
    simulate_coupled,
    simulate_path,
)
from ou_drift_bench import cli
from ou_drift_bench.cli import CSV_SCHEMA_LINE, build_config, main
from ou_drift_bench.errors import ConfigError, ExcessiveDegeneracy
from ou_drift_bench.ou_core import simulate_block

from reference import read_bench_csv


def test_simulate_row_count_and_schema(tmp_path):
    out = tmp_path / "sim"
    assert main(["simulate", "--n", "4", "--delta", "0.25", "--seed", "5",
                 "--out", str(out)]) == 0
    target = out / "paths.csv"
    text = target.read_text()
    assert text.splitlines()[0] == CSV_SCHEMA_LINE
    header, rows = read_bench_csv(target)
    assert header[:2] == ["t", "x"]
    assert len(rows) == 5
    assert float(rows[0]["x"]) == 0.0
    assert float(rows[-1]["t"]) == pytest.approx(1.0, rel=1e-15)


def test_simulate_variant_columns(tmp_path):
    out = tmp_path / "stat"
    assert main(["simulate", "--n", "3", "--variant", "stationary",
                 "--out", str(out)]) == 0
    header, _ = read_bench_csv(out / "paths.csv")
    assert header == ["t", "z"]

    out2 = tmp_path / "coupled"
    assert main(["simulate", "--n", "3", "--variant", "stationary", "--coupled",
                 "--out", str(out2)]) == 0
    header2, rows2 = read_bench_csv(out2 / "paths.csv")
    assert header2 == ["t", "z", "x"]
    # coupled pair shares the stationary path minus the decayed start
    assert float(rows2[0]["x"]) == 0.0


def test_simulate_coupled_needs_stationary_variant(tmp_path, capsys):
    # the flag was once dropped without a word and t,x written
    out = tmp_path / "coupled-from-zero"
    assert main(["simulate", "--n", "3", "--coupled", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "coupled" in err
    assert not out.exists()


def test_simulate_byte_identical_rerun(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert main(["simulate", "--n", "16", "--seed", "9", "--out", str(out)]) == 0
    assert (a / "paths.csv").read_bytes() == (b / "paths.csv").read_bytes()


def test_estimate_outputs_records(tmp_path):
    out = tmp_path / "est"
    assert main(["estimate", "--n", "200", "--delta", "0.05", "--reps", "8",
                 "--seed", "3", "--out", str(out)]) == 0
    header, rows = read_bench_csv(out / "estimates.csv")
    assert header == ["estimator", "path", "estimate", "denominator", "normalized_error"]
    # both estimators on each of the 8 paths
    assert len(rows) == 16
    assert {r["estimator"] for r in rows} == {"amce", "amle"}


@pytest.mark.parametrize("convention", ["body", "abstract"])
@pytest.mark.parametrize("n", [1, 2, 300, 20000])
def test_estimate_rows_match_per_path_api(tmp_path, n, convention):
    # estimate must skip exactly the paths the per-path estimators reject (at
    # n = 1 from zero: AMLE always, AMCE under the body convention) and agree
    # with them on the rest, path i on stream i.
    out = tmp_path / "est"
    reps, theta, delta = 40, 1.5, 0.05
    assert main(["estimate", "--n", str(n), "--delta", str(delta), "--theta", str(theta),
                 "--reps", str(reps), "--index-convention", convention, "--seed", "4",
                 "--out", str(out)]) == 0
    _, rows = read_bench_csv(out / "estimates.csv")
    params = OuParams(theta=theta, delta=delta, n=n)
    expected = []
    for index in range(reps):
        path = simulate_path(params, Variant.FROM_ZERO, 4, stream=index)
        for name, estimate in (
            ("amce", lambda: amce(path, theta, IndexConvention(convention))),
            ("amle", lambda: amle(path, theta)),
        ):
            try:
                record = estimate()
            except OuBenchError:
                continue
            expected.append((name, index, record))
    assert [(r["estimator"], int(r["path"])) for r in rows] == [e[:2] for e in expected]
    for row, (_, _, record) in zip(rows, expected):
        for column in ("estimate", "denominator", "normalized_error"):
            assert float(row[column]) == pytest.approx(
                getattr(record, column), rel=1e-12, abs=1e-12
            ), column


def test_estimate_path_does_not_depend_on_reps(tmp_path, monkeypatch):
    # At n = 16384 a block has 16 rows, so 17 reps end in a block of one
    # row, whose sums einsum once added in another order: path 16 read
    # 1.0144925211221363 for amce at 17 reps and 1.0144925211221376 at 32.
    monkeypatch.setenv("OU_BENCH_THREADS", "1")
    lines = {}
    for reps in (17, 32):
        out = tmp_path / str(reps)
        assert main(["estimate", "--n", "16384", "--reps", str(reps), "--estimator", "both",
                     "--seed", "3", "--out", str(out)]) == 0
        lines[reps] = (out / "estimates.csv").read_text().splitlines()
    assert len(lines[17]) == 2 + 2 * 17
    assert lines[17] == lines[32][: len(lines[17])]


def test_simulate_from_zero_is_the_coupled_x(tmp_path):
    # one draw layout: the from-zero path is the X of the coupled pair
    argv = ["simulate", "--n", "500", "--seed", "7", "--out"]
    assert main(argv + [str(tmp_path / "x")]) == 0
    assert main(argv + [str(tmp_path / "zx"), "--variant", "stationary", "--coupled"]) == 0
    _, alone = read_bench_csv(tmp_path / "x" / "paths.csv")
    _, coupled = read_bench_csv(tmp_path / "zx" / "paths.csv")
    assert [r["x"] for r in alone] == [r["x"] for r in coupled]
    assert len(alone) == 501


def test_estimate_rows_are_the_coupled_x_estimates(tmp_path):
    # estimate draws the paths verify and rates draw: path i is the X of
    # stream i's coupled pair
    out = tmp_path / "est"
    params = OuParams(theta=0.7, delta=0.1, n=250)
    assert main(["estimate", "--n", "250", "--delta", "0.1", "--theta", "0.7", "--reps", "6",
                 "--seed", "11", "--out", str(out)]) == 0
    _, rows = read_bench_csv(out / "estimates.csv")
    assert len(rows) == 12
    for row in rows:
        x, _ = simulate_coupled(params, 11, stream=int(row["path"]))
        estimator = amce if row["estimator"] == "amce" else amle
        record = estimator(x, 0.7)
        for column in ("estimate", "denominator", "normalized_error"):
            assert float(row[column]) == pytest.approx(getattr(record, column), rel=1e-12)


def test_oracle_values_round_trip(tmp_path):
    out = tmp_path / "orc"
    assert main(["oracle", "--theta", "3.0", "--n", "64", "--delta", "0.1",
                 "--out", str(out)]) == 0
    header, rows = read_bench_csv(out / "oracle.csv")
    assert header == ["quantity", "exact", "asymptotic", "bound"]
    by_name = {r["quantity"]: r for r in rows}
    expected = exact_var_fn_z(OuParams(theta=3.0, delta=0.1, n=64))
    # repr formatting must round-trip the float exactly
    assert float(by_name["var_fn_z"]["exact"]) == expected


def test_oracle_rows_filled_at_large_n(tmp_path, capsys):
    # k3_fn_z was once refused above n = 512, leaving a blank row even at
    # the default n = 1000
    for n in (513, 1000):
        out = tmp_path / f"orc-{n}"
        assert main(["oracle", "--n", str(n), "--delta", "0.05", "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""
        _, rows = read_bench_csv(out / "oracle.csv")
        by_name = {r["quantity"]: r for r in rows}
        assert all(r["exact"] != "" for r in rows)
        assert float(by_name["k3_fn_z"]["exact"]) == k3_fn_z(OuParams(theta=1.0, delta=0.05, n=n))


@pytest.mark.parametrize(
    "argv, quantity",
    [
        (["oracle", "--n", "64", "--theta", "1e-100"], "k4_fn_z_bound"),
        (["oracle", "--theta", "1e200"], "var_fn_z"),
        (["oracle", "--delta", "1e300"], "var_fn_z"),
        (["verify", "--n", "64", "--reps", "8", "--theta", "1e-100"], "k4_fn_z_bound"),
        (["rates", "--preset", "coupling-sweep", "--reps", "8", "--theta", "1e-100"],
         "k4_fn_z_bound"),
    ],
    ids=["oracle-tiny-theta", "oracle-huge-theta", "oracle-huge-delta",
         "verify-tiny-theta", "rates-tiny-theta"],
)
def test_non_finite_oracle_is_an_error(tmp_path, capsys, argv, quantity):
    # each once ended in an OverflowError or ZeroDivisionError traceback
    out = tmp_path / "o"
    assert main(argv + ["--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert f"{quantity} is " in err and "at cell (theta=" in err
    assert not out.exists()


def test_oracle_rows_finite_at_tiny_delta(tmp_path):
    # At delta = 1e-200 k4_fn_z_bound was once nan (g^2 overflowing against
    # p^2 underflowing) and k4_lambda divided an underflowed 0 by another.  At
    # theta = delta = 1e-100 k4_fn_z_bound formed c^4 = (2 theta)^-4 = 6.25e398,
    # though the cumulant 48 g^4 n^2, g = sqrt(delta) / (2 theta), is 4.8e201.
    for argv in (["--delta", "1e-200"], ["--theta", "1e-100", "--delta", "1e-100", "--n", "4"]):
        out = tmp_path / "-".join(argv)
        assert main(["oracle", *argv, "--out", str(out)]) == 0
        _, rows = read_bench_csv(out / "oracle.csv")
        values = [float(r[c]) for r in rows for c in ("exact", "asymptotic", "bound")]
        assert len(values) == 15 and all(math.isfinite(v) for v in values)


def test_simulate_where_two_theta_delta_underflows(tmp_path):
    # s2 once read 0 here, so the path was exact zeros; with a = 1 the path
    # is sqrt(delta) times the running sum of the innovations
    out = tmp_path / "s"
    argv = ["simulate", "--theta", "1e-200", "--delta", "1e-200", "--n", "5", "--seed", "5"]
    assert main(argv + ["--out", str(out)]) == 0
    _, rows = read_bench_csv(out / "paths.csv")
    x = [float(r["x"]) for r in rows]
    path = simulate_path(OuParams(theta=1e-200, delta=1e-200, n=5), Variant.FROM_ZERO, 5)
    want = 1e-100 * np.cumsum(path.innovations)
    assert x[0] == 0.0 and all(v != 0.0 for v in x[1:])
    np.testing.assert_allclose(x[1:], want, rtol=1e-12)


def test_gated_check_with_infinite_se_fails(tmp_path, capsys):
    # The jackknife SE of k4_fn_z_bound overflows at this cell; against
    # se=inf the gate once read PASS.
    argv = ["verify", "--n", "64", "--reps", "1000", "--theta", "1e-40"]
    assert main(argv + ["--out", str(tmp_path / "v")]) == 1
    out = capsys.readouterr().out
    assert "se=inf verdict=FAIL [gated]" in out
    assert "se=inf verdict=PASS" not in out and "VERIFY PASS" not in out


def test_each_cell_simulated_once_per_command(tmp_path, monkeypatch):
    # Both estimators, the shared gates and the coupling rows take one
    # simulation of a cell; a second pass over the cells would double it.
    # Each harness entry walks its cells once, with one worker pool.
    walks = []
    map_cells = harness.map_cells

    def counted(cells, *args):
        walks.append([(params.n, params.delta) for params in cells])
        return map_cells(cells, *args)

    for module in (harness, cli):
        monkeypatch.setattr(module, "map_cells", counted)
    sweep = [(256, 0.05), (1024, 0.05), (4096, 0.05)]
    argv = ["rates", "--preset", "coupling-sweep", "--estimator", "both", "--reps", "200"]
    assert main(argv + ["--out", str(tmp_path / "r")]) == 0
    assert walks == [sweep]
    walks.clear()
    # At 200 paths some cumulant gates fail by chance; the verdict is not
    # what this test checks, only that the report was written.
    main(["verify", "--n", "64", "--reps", "200", "--out", str(tmp_path / "v")])
    assert (tmp_path / "v" / "verify.md").is_file()
    assert walks == [[(64, 0.05)], sweep]
    walks.clear()
    main(["estimate", "--n", "64", "--reps", "200", "--out", str(tmp_path / "e")])
    assert walks == [[(64, 0.05)]]


@pytest.fixture
def recorded_blocks(monkeypatch):
    """Two forked workers, and the future of every block they are given."""
    monkeypatch.setenv("OU_BENCH_THREADS", "2")
    futures = []

    class Recording(harness.ProcessPoolExecutor):
        def submit(self, *args):
            futures.append(super().submit(*args))
            return futures[-1]

    monkeypatch.setattr(harness, "ProcessPoolExecutor", Recording)
    return futures


def test_no_worker_outlives_a_command(tmp_path, recorded_blocks):
    for argv in (
        ["estimate", "--n", "64", "--reps", "9000"],
        ["verify", "--n", "64", "--reps", "9000"],
        ["rates", "--preset", "coupling-sweep", "--reps", "300"],
    ):
        recorded_blocks.clear()
        assert main(argv + ["--out", str(tmp_path / argv[0])]) in (0, 1), argv
        assert len(recorded_blocks) > 1, argv
        assert all(f.done() and not f.cancelled() for f in recorded_blocks), argv
        assert multiprocessing.active_children() == [], argv


def _failing_block(error, at, cells, seed, lo, hi):
    """The kernel, except that the block of streams from `at` raises error."""
    if lo == at:
        raise error(f"stop at streams {lo}..{hi}")
    return simulate_block(cells, seed, lo, hi)


@pytest.mark.parametrize(
    "error, code", [(ExcessiveDegeneracy, 1), (ConfigError, 2)], ids=["error", "config-error"]
)
def test_error_partway_through_a_schedule_ends_the_workers(
    tmp_path, monkeypatch, capsys, recorded_blocks, error, code
):
    # The summaries run in the workers, one task a cell, once the last block
    # is in; an error in the second cell's must leave no worker behind and
    # write nothing.  It is patched here, before the pool forks its workers.
    def failing(params, *args):
        if params.n == 1024:
            raise error(f"stop at n={params.n}")
        return ()

    monkeypatch.setattr(harness, "_summaries", failing)
    argv = ["rates", "--preset", "coupling-sweep", "--reps", "4000"]
    assert main(argv + ["--out", str(tmp_path / "r")]) == code
    assert "stop at n=1024" in capsys.readouterr().err
    # 4000 rows in blocks of 64, each block at all three cells, then one
    # summary task for each cell
    assert len(recorded_blocks) == 63 + 3
    assert all(f.done() and not f.cancelled() for f in recorded_blocks[:63])
    assert multiprocessing.active_children() == []
    assert not (tmp_path / "r").exists()

    # Every block is given to the workers up front; a block that raises
    # partway through must cancel the blocks not yet started, not simulate
    # them, and no cell is summarized.  The kernel is patched here too.
    recorded_blocks.clear()
    monkeypatch.setattr(harness, "simulate_block", functools.partial(_failing_block, error, 128))
    assert main(argv + ["--out", str(tmp_path / "r")]) == code
    assert "stop at streams 128..192" in capsys.readouterr().err
    assert len(recorded_blocks) == 63
    cancelled = sum(f.cancelled() for f in recorded_blocks)
    assert cancelled >= 40, f"{cancelled} of 63 blocks cancelled"
    assert all(f.done() for f in recorded_blocks)
    assert multiprocessing.active_children() == []
    assert not (tmp_path / "r").exists()


def test_config_file_and_flag_precedence(tmp_path):
    cfg = tmp_path / "bench.yaml"
    cfg.write_text("theta_true: 2.0\nn: 64\ndelta: 0.2\n")
    out = tmp_path / "cfg"
    # flag overrides the file value for theta, file wins for delta
    assert main(["oracle", "--config", str(cfg), "--theta", "3.0", "--n", "32",
                 "--out", str(out)]) == 0
    _, rows = read_bench_csv(out / "oracle.csv")
    by_name = {r["quantity"]: r for r in rows}
    expected = exact_var_fn_z(OuParams(theta=3.0, delta=0.2, n=32))
    assert float(by_name["var_fn_z"]["exact"]) == expected


def test_config_unknown_key_exits_2(tmp_path, capsys):
    cfg = tmp_path / "bad.yaml"
    # emit, the old output selection, is gone: every command writes all its
    # files; so is n_bootstrap, which no flag set and no command varied; a
    # file that is not UTF-8 once ended in a UnicodeDecodeError traceback
    for data, message in (
        (b"thetaa: 2.0\n", "unknown config key 'thetaa'"),
        (b"emit: [cells_csv]\n", "unknown config key 'emit'"),
        (b"n_bootstrap: 200\n", "unknown config key 'n_bootstrap'"),
        (b"\xff\xfe\x00\x01", f"cannot read config file {cfg}"),
    ):
        cfg.write_bytes(data)
        assert main(["oracle", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert f"config error: {message}" in capsys.readouterr().err


def test_invalid_theta_exits_2(tmp_path, capsys):
    assert main(["oracle", "--theta", "-1.0", "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "theta" in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["simulate", "--out", "-x"], "argument --out: expected one argument"),
        (["simulate", "--no-such-flag", "1"], "unrecognized arguments: --no-such-flag 1"),
        ([], "the following arguments are required: command"),
    ],
    ids=["value-starting-with-dash", "unknown-flag", "no-subcommand"],
)
def test_parse_error_is_a_config_error(tmp_path, capsys, monkeypatch, argv, message):
    # A value that starts with "-" once ended in argparse's usage text and
    # SystemExit(2) raised out of main, with no config error line.
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert list(tmp_path.iterdir()) == []


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exit_:
        main(["verify", "--help"])
    assert exit_.value.code == 0
    assert "--reps" in capsys.readouterr().out


def test_unknown_preset_rejected(tmp_path, capsys):
    # the flag and the config file go through the same RunConfig validation
    out = tmp_path / "o"
    assert main(["rates", "--preset", "no-such", "--out", str(out)]) == 2
    assert "schedule" in capsys.readouterr().err
    assert not out.exists()
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text("schedule: no-such\n")
    assert main(["rates", "--config", str(cfg), "--out", str(out)]) == 2
    assert "schedule" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flag, field, value",
    [
        ("--seed", "master_seed", "1_000"),
        ("--n", "n", "\uff13"),
        ("--reps", "replications", " 7"),
        ("--estimator", "estimators", "amce,amle"),
        ("--variant", "variant", "zero"),
        ("--theta", "theta_true", "\uff13"),
        ("--theta", "theta_true", "1_0"),
        ("--delta", "delta", " 0.1"),
    ],
    ids=["underscore-seed", "full-width-n", "blank-reps", "joined-estimators", "bad-variant",
         "full-width-theta", "underscore-theta", "blank-delta"],
)
def test_flag_and_file_values_share_one_parser(tmp_path, capsys, flag, field, value):
    # the flags once went through argparse: its int() took the three integer
    # strings that the file refused, and a bad choice was a usage error; the
    # real fields then took all three spellings from either source
    out = tmp_path / "o"
    assert main(["oracle", flag, value, "--out", str(out)]) == 2
    from_flag = capsys.readouterr().err
    assert from_flag.startswith(f"config error: {field}: cannot parse {value!r}")
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(yaml.safe_dump({field: value}), encoding="utf-8")
    assert main(["oracle", "--config", str(cfg), "--out", str(out)]) == 2
    assert capsys.readouterr().err == from_flag
    assert not out.exists()


@pytest.mark.parametrize("command", ["simulate", "estimate", "oracle", "verify", "rates"])
def test_output_dir_under_a_file_is_a_config_error(tmp_path, capsys, command):
    # each once ended in a FileExistsError or NotADirectoryError traceback,
    # verify and rates only after simulating every cell
    blocker = tmp_path / "file"
    blocker.write_text("kept\n")
    argv = [command, "--n", "64", "--reps", "8", "--preset", "coupling-sweep"]
    for out in (blocker, blocker / "sub"):
        assert main(argv + ["--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert f"config error: output_dir: {blocker} exists and is not a directory" in captured.err
        assert captured.out == ""
    assert blocker.read_text() == "kept\n"


def test_output_dir_with_a_nul_byte_is_a_config_error(tmp_path, capsys, monkeypatch):
    # once a ValueError traceback from mkdir, since Path.exists() is False
    # for such a path; only a config file can hold one, and --out would win
    monkeypatch.chdir(tmp_path)
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text('output_dir: "a\\0b"\n', encoding="utf-8")
    assert main(["oracle", "--n", "8", "--config", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.err == "config error: output_dir: 'a\\x00b' holds a NUL byte\n"
    assert captured.out == ""
    assert [p.name for p in tmp_path.iterdir()] == ["cfg.yaml"]


@pytest.mark.parametrize("command", ["simulate", "estimate", "oracle", "verify", "rates"])
@pytest.mark.parametrize(
    "out, message",
    [
        ("a" * 300, "a directory name of 300 bytes is longer than the file system's limit"),
        ("/".join(["b" * 200] * 21), "its files' paths take 4234 bytes, at or above"),
    ],
    ids=["long-name", "long-path"],
)
def test_output_dir_too_long_is_a_config_error(tmp_path, capsys, monkeypatch, command, out,
                                               message):
    # each once ended in an OSError traceback (File name too long), from
    # Path.exists or from mkdir, verify and rates only after simulating
    monkeypatch.chdir(tmp_path)
    for module in (harness, cli):
        monkeypatch.setattr(module, "map_cells", None)
    argv = [command, "--n", "64", "--reps", "8", "--preset", "coupling-sweep"]
    assert main(argv + ["--out", out]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"config error: output_dir: {message}")
    assert captured.out == ""
    assert list(tmp_path.iterdir()) == []


def test_readme_csv_table_lists_the_columns():
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    table = dict(re.findall(r"^\| `(\w+)\.csv` *\| `([^`]+)`", readme, re.MULTILINE))
    assert table.pop("paths") == "t,x"  # its header depends on the variant
    assert {name: tuple(cols.split(",")) for name, cols in table.items()} == cli._COLUMNS


def test_read_bench_csv_rejects_foreign_schema(tmp_path):
    # the tests' reader, so every CSV they read is checked for the schema line
    alien = tmp_path / "alien.csv"
    alien.write_text("# some other tool v9\na,b\n1,2\n")
    with pytest.raises(ValueError, match="schema line"):
        read_bench_csv(alien)


def test_verify_passes_at_moderate_cell(tmp_path, capsys):
    out = tmp_path / "ver"
    code = main(["verify", "--reps", "2000", "--n", "256", "--delta", "0.05",
                 "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 0, captured.out + captured.err
    assert "VERIFY PASS" in captured.out
    assert (out / "verify.md").exists()
    # the known first-order rows are reported, not gated
    assert "DISCREPANT" in captured.out


def test_rates_coupling_sweep_outputs(tmp_path):
    out = tmp_path / "sweep"
    assert main(["rates", "--preset", "coupling-sweep", "--reps", "300",
                 "--estimator", "amce", "--out", str(out)]) == 0
    header, rows = read_bench_csv(out / "cells.csv")
    assert len(rows) == 3
    for col in ("estimator", "n", "delta", "T", "w1", "w1_se", "kolmogorov"):
        assert col in header
    _, crows = read_bench_csv(out / "coupling.csv")
    assert len(crows) == 3
    assert (out / "report.md").exists()
    # no rate fit on a non-CLT schedule
    _, rrows = read_bench_csv(out / "rates.csv")
    assert rrows == []


def test_rates_clt_preset_emits_fits_and_plotdata(tmp_path):
    out = tmp_path / "clt"
    assert main(["rates", "--preset", "amce-gamma-half", "--reps", "120",
                 "--estimator", "amce", "--out", str(out)]) == 0
    _, rrows = read_bench_csv(out / "rates.csv")
    assert len(rrows) == 2
    kinds = {r["predictor"] for r in rrows}
    assert "delta^2 + (n delta)^(-1/2)" in kinds
    for r in rrows:
        assert float(r["slope"]) > 0.0
    header, prows = read_bench_csv(out / "plotdata.csv")
    assert len(prows) == 7
    assert header == ["estimator", "n", "delta", "T", "bound_term_1",
                      "bound_term_2", "w1", "w1_se", "kolmogorov"]
    report = (out / "report.md").read_text()
    assert "w1" in report.lower()


def test_rates_labels_each_fit(tmp_path):
    # rates.csv's label columns and the report's fit lines name the schedule,
    # the response and the predictor of each fit, bound expression first.
    out = tmp_path / "amle"
    assert main(["rates", "--preset", "amle-gamma-3q", "--reps", "100",
                 "--estimator", "both", "--out", str(out)]) == 0
    _, rrows = read_bench_csv(out / "rates.csv")
    labels = [[r[k] for k in ("schedule", "estimator", "response", "predictor")] for r in rrows]
    amce_bound = "delta^2 + (n delta)^(-1/2)"
    amle_bound = "(n delta)^(-1/2) + (n delta^3)^(1/2)"
    assert labels == [
        ["amle-gamma-3q", "amce", "w1_amce", amce_bound],
        ["amle-gamma-3q", "amce", "w1_amce", "dominant bound term"],
        ["amle-gamma-3q", "amle", "w1_amle", amle_bound],
        ["amle-gamma-3q", "amle", "w1_amle", "dominant bound term"],
    ]
    assert all(r["n_cells"] == "7" for r in rrows)
    fit_lines = re.findall(r"^Log-log fit against the (.*?):", (out / "report.md").read_text(),
                           re.MULTILINE)
    assert fit_lines == [
        f"bound expression [{amce_bound}]",
        "dominant term [dominant bound term]",
        f"bound expression [{amle_bound}]",
        "dominant term [dominant bound term]",
    ]


def test_rates_byte_identical_across_reruns_and_workers(tmp_path, monkeypatch):
    def run_into(out, threads):
        monkeypatch.setenv("OU_BENCH_THREADS", str(threads))
        assert main(["rates", "--preset", "coupling-sweep", "--reps", "300",
                     "--estimator", "amle", "--out", str(out)]) == 0

    a, b = tmp_path / "w1", tmp_path / "wmax"
    run_into(a, 1)
    run_into(b, 8)
    for name in ("cells.csv", "rates.csv", "plotdata.csv", "coupling.csv", "report.md"):
        assert (a / name).read_bytes() == (b / name).read_bytes(), name


@pytest.mark.parametrize(
    "argv, floor",
    [
        (["rates", "--preset", "amce-gamma-half", "--reps", "50"], ">= 100"),
        (["rates", "--preset", "coupling-sweep", "--reps", "3"], ">= 4"),
        (["verify", "--n", "64", "--reps", "3"], ">= 4"),
    ],
    ids=["rates-clt-fit-floor", "rates-cumulant-floor", "verify-cumulant-floor"],
)
def test_too_few_replications_is_a_config_error(tmp_path, capsys, argv, floor):
    # Each once ended in a traceback (ValueError, AttributeError) or a
    # vacuous VERIFY PASS with every cumulant gate skipped.
    assert main(argv + ["--out", str(tmp_path / "o")]) == 2
    captured = capsys.readouterr()
    assert "config error" in captured.err
    assert "replications" in captured.err and floor in captured.err
    assert "VERIFY" not in captured.out
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("threads", ["abc", "0", "2.5", "1_0", " 2", "２", "+2"])
def test_bad_thread_count_is_a_config_error(tmp_path, capsys, monkeypatch, threads):
    # once a ValueError traceback from the worker-pool sizing; "1_0", " 2",
    # a full-width 2 and "+2" were once taken, as int() takes them
    monkeypatch.setenv("OU_BENCH_THREADS", threads)
    assert main(["verify", "--n", "64", "--reps", "10", "--out", str(tmp_path / "o")]) == 2
    captured = capsys.readouterr()
    assert "config error" in captured.err and "OU_BENCH_THREADS" in captured.err
    assert "VERIFY" not in captured.out


@pytest.mark.parametrize(
    "argv, message",
    [
        (["simulate", "--variant", "stationary", "--theta", "5e-324", "--n", "60"],
         "Z_0's sd 1/sqrt(2 theta) is inf at cell (theta=5e-324, delta=0.05, n=60)"),
        (["simulate", "--n", "36", "--delta", "1.7976931348623157e+308"],
         "a value leaves the range of a double at cell "
         "(theta=1.0, delta=1.7976931348623157e+308, n=36): overflow encountered in multiply"),
        (["estimate", "--n", "17", "--delta", "1.7976931348623157e+308", "--reps", "2"],
         "a value leaves the range of a double at cell "
         "(theta=1.0, delta=1.7976931348623157e+308, n=17): overflow encountered in multiply"),
        (["verify", "--n", "8", "--reps", "7", "--theta", "1e300", "--delta", "1e300"],
         "a value leaves the range of a double at cell (theta=1e+300, delta=1e+300, n=8): "
         "invalid value encountered in multiply"),
        (["rates", "--preset", "coupling-sweep", "--reps", "5",
          "--theta", "1.7976931348623157e+308"],
         "a value leaves the range of a double at cell "
         "(theta=1.7976931348623157e+308, delta=0.05, n=256): overflow encountered in multiply"),
        (["simulate", "--variant", "stationary", "--n", "36", "--delta",
          "1.7976931348623157e+308"],
         "a value leaves the range of a double at cell "
         "(theta=1.0, delta=1.7976931348623157e+308, n=36): overflow encountered in multiply"),
        # Z_0^2 sum e^{-2 theta t_i}, about n / (2 theta), overflows in the Z sums
        (["estimate", "--n", "50", "--theta", "3e-308"],
         "a value leaves the range of a double at cell (theta=3e-308, delta=0.05, n=50): "
         "overflow encountered in multiply"),
        # theta * delta * t stays in range in the kernel; the time grid
        # i * delta of paths.csv does not
        (["simulate", "--theta", "1e-10", "--n", "36", "--delta", "1.7976931348623157e+308"],
         "a value leaves the range of a double at cell "
         "(theta=1e-10, delta=1.7976931348623157e+308, n=36): overflow encountered in multiply"),
    ],
    ids=["stationary-sd", "times", "estimate-sums", "verify-in-workers", "rates-names-the-cell",
         "simulate-names-the-cell", "estimate-small-theta", "time-grid"],
)
def test_value_out_of_double_range_is_an_error(tmp_path, capsys, monkeypatch, argv, message):
    # Found by test_fuzz: the first ended in a ValueError traceback, the
    # others in RuntimeWarnings with inf or nan written to the CSVs.  In a
    # harness cell the error names the cell; on rates over several cells it
    # once named neither the cell nor the value to change.
    monkeypatch.setenv("OU_BENCH_THREADS", "2")
    assert main(argv + ["--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "exc, message",
    [
        (MemoryError("Unable to allocate 745. GiB for an array with shape "
                     "(100000000000,) and data type float64"),
         "Unable to allocate 745. GiB for an array with shape (100000000000,) "
         "and data type float64"),
        (MemoryError(), "out of memory"),
    ],
    ids=["numpy-message", "no-message"],
)
def test_out_of_memory_is_an_error(tmp_path, capsys, monkeypatch, exc, message):
    # `oracle --n 100000000000` once ended in numpy's _ArrayMemoryError
    # traceback.  A real allocation that large could be granted and then
    # killed on a host that overcommits memory, so the failure is simulated.
    def out_of_memory(*args):
        raise exc

    monkeypatch.setattr(cli, "moment_report", out_of_memory)
    assert main(["oracle", "--n", "100000000000", "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr() == ("", f"error: {message}\n")
    assert not (tmp_path / "o").exists()


def test_excessive_degeneracy_aborts_naming_the_cell(tmp_path, capsys):
    # At n = 1 every AMCE denominator is at the guard; the abort names the
    # cell as every other error on a cell does.
    assert main(["verify", "--n", "1", "--reps", "1000", "--out", str(tmp_path / "o")]) == 1
    captured = capsys.readouterr()
    assert captured.err == (
        "error: 1000 of 1000 paths degenerate at cell (theta=1.0, delta=0.05, n=1); "
        "exceeds 0.1%\n"
    )
    assert captured.out == ""
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "text, field",
    [
        ("replications: 2.9\n", "replications"),
        ("n: true\n", "n"),
        ('coupled: "false"\n', "coupled"),
        ("theta_true: true\n", "theta_true"),
        ("delta: true\n", "delta"),
        ("replications:\n", "replications"),
        ("n:\n", "n"),
        ("estimators: [amce, amce]\n", "estimators"),
        ("estimators: {amle: 0, amce: no}\n", "estimators"),
    ],
    ids=["float-truncated", "bool-as-int", "string-as-bool", "bool-as-theta", "bool-as-delta",
         "empty-replications", "empty-n", "repeated-estimator", "mapping-as-estimators"],
)
def test_config_file_values_are_not_coerced(tmp_path, capsys, text, field):
    # each was once accepted: 2.9 as 2, true as n = 1 or as 1.0, "false" as
    # True, an empty value as the default, a repeated estimator, which then
    # ran twice, and a mapping, whose keys ran as estimators
    cfg = tmp_path / "bad.yaml"
    cfg.write_text(text)
    assert main(["simulate", "--variant", "stationary", "--config", str(cfg),
                 "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and f"{field}:" in err
    assert not (tmp_path / "o").exists()


_INT_FIELDS = ("replications", "n", "master_seed")
_JUNK = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.recursive(st.lists(st.integers(), max_size=3), lambda inner: st.lists(inner, max_size=3)),
    st.dictionaries(st.text(max_size=3), st.integers(), max_size=2),
)


@settings(max_examples=200, deadline=None, database=None)
@given(
    field=st.sampled_from(_INT_FIELDS),
    value=st.one_of(
        _JUNK,
        st.booleans(),
        st.text().filter(lambda s: not (s.isascii() and s.isdigit())),
    ),
)
def test_ill_typed_integer_fields_raise_config_error(field, value):
    with pytest.raises(ConfigError, match=f"^{field}:"):
        build_config({field: value})


@settings(max_examples=100, deadline=None, database=None)
@given(value=st.one_of(_JUNK, st.integers(), st.text()))
def test_ill_typed_coupled_raises_config_error(value):
    with pytest.raises(ConfigError, match="^coupled:"):
        build_config({"coupled": value})


def _not_a_number(text):
    try:
        float(text)
    except ValueError:
        return True
    return False


_REAL_FIELDS = ("theta_true", "delta")


@settings(max_examples=200, deadline=None, database=None)
@given(
    field=st.sampled_from(_REAL_FIELDS),
    value=st.one_of(
        st.booleans(),
        st.recursive(st.lists(st.floats(), max_size=3), lambda inner: st.lists(inner, max_size=3)),
        st.dictionaries(st.text(max_size=3), st.floats(), max_size=2),
        st.text().filter(_not_a_number),
        st.just(10**400),
    ),
)
def test_ill_typed_real_fields_raise_config_error(field, value):
    with pytest.raises(ConfigError, match=f"^{field}:"):
        build_config({field: value})


@settings(max_examples=100, deadline=None, database=None)
@given(
    field=st.sampled_from(_REAL_FIELDS),
    number=st.floats(min_value=1e-3, max_value=1e3) | st.integers(min_value=1, max_value=1000),
    as_text=st.booleans(),
)
def test_real_fields_take_numbers_and_numeric_strings(field, number, as_text):
    value = repr(number) if as_text else number
    assert getattr(build_config({field: value}), field) == float(number)
