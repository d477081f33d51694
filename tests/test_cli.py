"""Command line interface: outputs, config precedence, byte determinism."""

from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ou_drift_bench import (
    IndexConvention,
    OuBenchError,
    OuParams,
    Variant,
    amce,
    amle,
    clear_caches,
    exact_var_fn_z,
    k3_fn_z,
    simulate_path,
)
from ou_drift_bench.cli import CSV_SCHEMA_LINE, build_config, main, read_bench_csv
from ou_drift_bench.errors import ConfigError


def _run(argv):
    clear_caches()
    return main(argv)


def _rows(path: Path):
    header, rows = read_bench_csv(path)
    return header, rows


def test_simulate_row_count_and_schema(tmp_path):
    out = tmp_path / "sim"
    assert _run(["simulate", "--n", "4", "--delta", "0.25", "--seed", "5",
                 "--out", str(out)]) == 0
    target = out / "paths.csv"
    text = target.read_text()
    assert text.splitlines()[0] == CSV_SCHEMA_LINE
    header, rows = _rows(target)
    assert header[:2] == ["t", "x"]
    assert len(rows) == 5
    assert float(rows[0]["x"]) == 0.0
    assert float(rows[-1]["t"]) == pytest.approx(1.0, rel=1e-15)


def test_simulate_variant_columns(tmp_path):
    out = tmp_path / "stat"
    assert _run(["simulate", "--n", "3", "--variant", "stationary",
                 "--out", str(out)]) == 0
    header, _ = _rows(out / "paths.csv")
    assert header == ["t", "z"]

    out2 = tmp_path / "coupled"
    assert _run(["simulate", "--n", "3", "--variant", "stationary", "--coupled",
                 "--out", str(out2)]) == 0
    header2, rows2 = _rows(out2 / "paths.csv")
    assert header2 == ["t", "z", "x"]
    # coupled pair shares the stationary path minus the decayed start
    assert float(rows2[0]["x"]) == 0.0


def test_simulate_coupled_needs_stationary_variant(tmp_path, capsys):
    # the flag was once dropped without a word and t,x written
    out = tmp_path / "coupled-from-zero"
    assert _run(["simulate", "--n", "3", "--coupled", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "coupled" in err
    assert not out.exists()


def test_simulate_byte_identical_rerun(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert _run(["simulate", "--n", "16", "--seed", "9", "--out", str(out)]) == 0
    assert (a / "paths.csv").read_bytes() == (b / "paths.csv").read_bytes()


def test_estimate_outputs_records(tmp_path):
    out = tmp_path / "est"
    assert _run(["estimate", "--n", "200", "--delta", "0.05", "--reps", "8",
                 "--seed", "3", "--out", str(out)]) == 0
    header, rows = _rows(out / "estimates.csv")
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
    assert _run(["estimate", "--n", str(n), "--delta", str(delta), "--theta", str(theta),
                 "--reps", str(reps), "--index-convention", convention, "--seed", "4",
                 "--out", str(out)]) == 0
    _, rows = _rows(out / "estimates.csv")
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


def test_oracle_values_round_trip(tmp_path):
    out = tmp_path / "orc"
    assert _run(["oracle", "--theta", "3.0", "--n", "64", "--delta", "0.1",
                 "--out", str(out)]) == 0
    header, rows = _rows(out / "oracle.csv")
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
        assert _run(["oracle", "--n", str(n), "--delta", "0.05", "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""
        _, rows = _rows(out / "oracle.csv")
        by_name = {r["quantity"]: r for r in rows}
        assert all(r["exact"] != "" for r in rows)
        assert float(by_name["k3_fn_z"]["exact"]) == k3_fn_z(OuParams(theta=1.0, delta=0.05, n=n))


@pytest.mark.parametrize(
    "argv, quantity",
    [
        (["oracle", "--n", "64", "--theta", "1e-100"], "k4_fn_z_bound"),
        (["oracle", "--theta", "1e200"], "var_fn_z"),
        (["oracle", "--delta", "1e300"], "var_fn_z"),
        (["oracle", "--delta", "1e-200"], "k4_fn_z_bound"),
        (["verify", "--n", "64", "--reps", "8", "--theta", "1e-100"], "k4_fn_z_bound"),
        (["rates", "--preset", "coupling-sweep", "--reps", "8", "--theta", "1e-100"],
         "k4_fn_z_bound"),
    ],
    ids=["oracle-tiny-theta", "oracle-huge-theta", "oracle-huge-delta", "oracle-tiny-delta",
         "verify-tiny-theta", "rates-tiny-theta"],
)
def test_non_finite_oracle_is_an_error(tmp_path, capsys, argv, quantity):
    # each once ended in an OverflowError or ZeroDivisionError traceback
    out = tmp_path / "o"
    assert _run(argv + ["--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert f"{quantity} is " in err and "at cell (theta=" in err
    assert not out.exists()


def test_config_file_and_flag_precedence(tmp_path):
    cfg = tmp_path / "bench.yaml"
    cfg.write_text("theta_true: 2.0\nn: 64\ndelta: 0.2\n")
    out = tmp_path / "cfg"
    # flag overrides the file value for theta, file wins for delta
    assert _run(["oracle", "--config", str(cfg), "--theta", "3.0", "--n", "32",
                 "--out", str(out)]) == 0
    _, rows = _rows(out / "oracle.csv")
    by_name = {r["quantity"]: r for r in rows}
    expected = exact_var_fn_z(OuParams(theta=3.0, delta=0.2, n=32))
    assert float(by_name["var_fn_z"]["exact"]) == expected


def test_config_unknown_key_exits_2(tmp_path, capsys):
    cfg = tmp_path / "bad.yaml"
    # emit, the old output selection, is gone: every command writes all its files
    for text, key in (("thetaa: 2.0\n", "thetaa"), ("emit: [cells_csv]\n", "emit")):
        cfg.write_text(text)
        assert _run(["oracle", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert f"config error: unknown config key {key!r}" in capsys.readouterr().err


def test_invalid_theta_exits_2(tmp_path, capsys):
    assert _run(["oracle", "--theta", "-1.0", "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "theta" in err


def test_unknown_preset_rejected(tmp_path, capsys):
    # the flag is constrained by argparse choices
    with pytest.raises(SystemExit) as exc:
        _run(["rates", "--preset", "no-such", "--out", str(tmp_path / "o")])
    assert exc.value.code == 2
    # a bad schedule name in the config file goes through RunConfig validation
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text("schedule: no-such\n")
    assert _run(["rates", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert "schedule" in capsys.readouterr().err


def test_read_bench_csv_rejects_foreign_schema(tmp_path):
    alien = tmp_path / "alien.csv"
    alien.write_text("# some other tool v9\na,b\n1,2\n")
    with pytest.raises(ConfigError):
        read_bench_csv(alien)


def test_verify_passes_at_moderate_cell(tmp_path, capsys):
    out = tmp_path / "ver"
    code = _run(["verify", "--reps", "2000", "--n", "256", "--delta", "0.05",
                 "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 0, captured.out + captured.err
    assert "VERIFY PASS" in captured.out
    assert (out / "verify.md").exists()
    # the known first-order rows are reported, not gated
    assert "DISCREPANT" in captured.out


def test_rates_coupling_sweep_outputs(tmp_path):
    out = tmp_path / "sweep"
    assert _run(["rates", "--preset", "coupling-sweep", "--reps", "300",
                 "--estimator", "amce", "--out", str(out)]) == 0
    header, rows = _rows(out / "cells.csv")
    assert len(rows) == 3
    for col in ("estimator", "n", "delta", "T", "w1", "w1_se", "kolmogorov"):
        assert col in header
    _, crows = _rows(out / "coupling.csv")
    assert len(crows) == 3
    assert (out / "report.md").exists()
    # no rate fit on a non-CLT schedule
    _, rrows = _rows(out / "rates.csv")
    assert rrows == []


def test_rates_clt_preset_emits_fits_and_plotdata(tmp_path):
    out = tmp_path / "clt"
    assert _run(["rates", "--preset", "amce-gamma-half", "--reps", "120",
                 "--estimator", "amce", "--out", str(out)]) == 0
    _, rrows = _rows(out / "rates.csv")
    assert len(rrows) == 2
    kinds = {r["predictor"] for r in rrows}
    assert "delta^2 + (n delta)^(-1/2)" in kinds
    for r in rrows:
        assert float(r["slope"]) > 0.0
    header, prows = _rows(out / "plotdata.csv")
    assert len(prows) == 7
    assert header == ["estimator", "n", "delta", "T", "bound_term_1",
                      "bound_term_2", "w1", "w1_se", "kolmogorov"]
    report = (out / "report.md").read_text()
    assert "w1" in report.lower()


def test_rates_byte_identical_across_reruns_and_workers(tmp_path, monkeypatch):
    def run_into(out, threads):
        monkeypatch.setenv("OU_BENCH_THREADS", str(threads))
        assert _run(["rates", "--preset", "coupling-sweep", "--reps", "300",
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
    assert _run(argv + ["--out", str(tmp_path / "o")]) == 2
    captured = capsys.readouterr()
    assert "config error" in captured.err
    assert "replications" in captured.err and floor in captured.err
    assert "VERIFY" not in captured.out
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("threads", ["abc", "0", "2.5"])
def test_bad_thread_count_is_a_config_error(tmp_path, capsys, monkeypatch, threads):
    # once a ValueError traceback from the worker-pool sizing
    monkeypatch.setenv("OU_BENCH_THREADS", threads)
    assert _run(["verify", "--n", "64", "--reps", "10", "--out", str(tmp_path / "o")]) == 2
    captured = capsys.readouterr()
    assert "config error" in captured.err and "OU_BENCH_THREADS" in captured.err
    assert "VERIFY" not in captured.out


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
    assert _run(["simulate", "--variant", "stationary", "--config", str(cfg),
                 "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and f"{field}:" in err
    assert not (tmp_path / "o").exists()


_INT_FIELDS = ("replications", "n", "master_seed", "n_bootstrap")
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
