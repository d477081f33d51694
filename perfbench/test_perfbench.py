"""Tests of the benchmark itself.  Slow: every workload runs three passes.

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import threading
import time

import pytest

import run
import spans
import workloads

sys.path.insert(0, str(run.ROOT / "src"))

SEED = 5


def _counters(layers: dict, spec: dict) -> dict:
    units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    return {k: v for k, v in layers.items() if units.get(k) in ("count", "bytes", "MiB")}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_pass_is_exact_and_unperturbing(name, tmp_path):
    workload = workloads.WORKLOADS[name]
    spec = run._load_spec()
    metrics, ops, detail = run.run_traced(name, SEED, tmp_path / "a")
    failed = [op for op in ops if not op[1]]
    assert not failed, failed
    # run_traced adds the byte-identity op last.
    assert ops[-1][0].startswith("traced pass CSVs equal") and ops[-1][1]

    deadline = time.monotonic() + run.RUN_BUDGET_S
    again = run._pass(name, SEED, 1, tmp_path / "b", deadline)
    again_layers = dict(again["layers"])
    assert _counters(metrics, spec) == _counters(again_layers, spec)

    for key, want in workload.counts.items():
        assert metrics[key] == want, key
    assert detail["steps"]["traced"] == workload.steps
    assert detail["untraced_boundaries"] == []


def test_self_time_uses_union_of_overlapping_children():
    tracer = spans.Tracer()
    leaf = tracer.wrap(lambda: time.sleep(0.05), "harness.path_rng", "ou_core", False)

    def parent():
        threads = [threading.Thread(target=leaf) for _ in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=5)
            assert not t.is_alive()
        time.sleep(0.05)

    tracer.wrap(parent, "cli.run_cell", "harness", True)()
    counters, seconds = tracer.layer_metrics()
    assert counters["ou_core.rng_setup_calls"] == 2
    # Two overlapping 50 ms children: busy sums them, self time subtracts once.
    assert seconds["ou_core.rng_setup"] >= 0.1
    assert 0.04 <= seconds["harness.self"] <= 0.09


def test_tracer_records_errors_and_restores_modules():
    from ou_drift_bench import cli, oracles
    from ou_drift_bench.errors import TooLarge
    from ou_drift_bench.oracles import MomentQuantity
    from ou_drift_bench.ou_core import OuParams

    original = cli.moment_report
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert cli.moment_report is not original
        with pytest.raises(TooLarge):
            cli.moment_report(MomentQuantity.K3_FN_Z, OuParams(theta=1.0, delta=0.1, n=1024))
    finally:
        tracer.uninstall()
    assert cli.moment_report is original
    assert oracles.covariance_matrix.__name__ == "covariance_matrix"
    counters, _ = tracer.layer_metrics()
    assert counters["oracles.refused"] == 1
    assert counters["oracles.dense_calls"] == 0


def _write_csv(path, header, rows):
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = [workloads.SCHEMA_LINE, ",".join(header)]
    lines += [",".join(str(v) for v in row) for row in rows]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def test_oracle_check_flags_drift_and_counts_blank_rows_as_refused(tmp_path):
    reference = json.loads(workloads.ORACLE_REFERENCE.read_text())["cells"]
    for i, cell in enumerate(reference):
        rows = []
        for quantity, values in cell["rows"].items():
            if quantity == "k3_fn_z":
                rows.append([quantity, "", "", ""])
            else:
                rows.append([quantity, *(repr(v) for v in values)])
        if i == 2:
            rows[0][1] = repr(float(rows[0][1]) * (1 + 1e-6))
        _write_csv(tmp_path / f"{i + 1}-oracle" / "oracle.csv", ["quantity", "exact", "asymptotic", "bound"], rows)
    ops = workloads._check_oracles(tmp_path)
    assert len(ops) == 5 * len(reference)
    assert sum(op.refused for op in ops) == len(reference)
    assert [op.name for op in ops if not op.ok] == ["oracle amce-gamma-half n=4096 var_fn_z"]


def test_verify_check_requires_every_gate(tmp_path):
    check = workloads.check_verify
    report = tmp_path / "0-verify" / "verify.md"
    report.parent.mkdir(parents=True)
    gates = workloads.VERIFY_GATES
    lines = []
    for estimator in ("amce", "amle"):
        lines.append(f"[{estimator}] degenerate=0 w1=0.1 mean_nerr=0.0")
        lines += [f"CHECK {g} exact=1.0 empirical=1.0 se=0.1 verdict=PASS [gated]" for g in gates]
    lines.append("CHECK coupling_l2_scaled_spread   exact<=10 empirical=4.0 se=0.0 verdict=PASS [gated]")
    lines.append("VERIFY PASS (gate 4 se)")
    report.write_text("\n".join(lines) + "\n")
    assert all(op.ok for op in check(tmp_path, SEED, [0]))

    failing = [line.replace("empirical=1.0", "empirical=nan") if "exact_k4" in line else line for line in lines]
    report.write_text("\n".join(failing[:-2]) + "\nVERIFY FAIL (gate 4 se)\n")
    bad = {op.name for op in check(tmp_path, SEED, [1]) if not op.ok}
    assert bad == {
        "amce exact_k4_lambda",
        "amle exact_k4_lambda",
        "coupling coupling_l2_scaled_spread",
        "VERIFY PASS",
    }


def test_missing_outputs_fail_every_workload(tmp_path):
    for workload in workloads.WORKLOADS.values():
        ops = workload.check(tmp_path, SEED, [0] * len(workload.commands))
        assert any(not op.ok for op in ops), workload.name


def test_fails_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "single-cell-cli", "--seed", "1"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=180,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
