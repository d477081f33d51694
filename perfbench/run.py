"""Benchmark of the ou-bench command: three workloads, end-to-end and per-layer.

    python3 perfbench/run.py --workload clt-schedule --seed 7 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all

Run it from the root of a checkout; it imports the package from src/.  Every
pass of a workload is a fresh interpreter (child.py) that imports the package
once and calls `ou_drift_bench.cli.main` for the workload's commands, so the
harness's in-process cell cache never carries over between passes.  The
worker count is the program's default.

--trace 0 measures the end-to-end metrics.  A run makes --seconds divided by
the first pass's wall time passes, rounded and at least one, and reports the
median pass.  Set-up is sampled by every pass and by one interpreter that
only imports the package, and reported as the median.

--trace 1 runs one untraced and one traced pass at the same seed.  The traced
pass wraps the calls each layer makes into the next (spans.py) and gives the
per-layer metrics; its CSVs must equal the untraced pass's byte for byte, and
trace_overhead_s is its wall time minus the untraced one.

Every pass's outputs are checked (workloads.py).  The last line of standard
output is one JSON object: correct, attempted, failed, metrics.  A run record
with the host, the seed, the source and every failed check is written to
.perfbench_out/.  --workload all runs every workload untraced, then traced,
and prints one table.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = HERE / "child.py"
OUT = ROOT / ".perfbench_out"
DEFAULT_SEED = 20260822
# Interpreters per untraced run that only import the package, besides the passes.
SETUP_ONLY_SAMPLES = 1
# A run, with all its passes, ends within this many seconds.
RUN_BUDGET_S = 170.0


class BenchError(Exception):
    """A pass could not be run or produced no result."""


def _spawn(extra: list[str], deadline: float) -> subprocess.CompletedProcess:
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("run budget exhausted")
    t0 = time.clock_gettime(time.CLOCK_MONOTONIC)
    command = [sys.executable, str(CHILD), "--t0", repr(t0), *extra]
    try:
        proc = subprocess.run(
            command, cwd=ROOT, capture_output=True, text=True, timeout=timeout
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"pass timed out after {timeout:.0f} s: {command}") from exc
    if proc.returncode != 0:
        raise BenchError(
            f"pass exited with {proc.returncode}: {command}\n{proc.stderr.strip()}"
        )
    return proc


def _setup_sample(deadline: float) -> float:
    proc = _spawn(["--setup-only"], deadline)
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def _pass(workload: str, seed: int, trace: int, out: Path, deadline: float) -> dict:
    out.mkdir(parents=True)
    _spawn(
        [
            "--workload", workload, "--seed", str(seed),
            "--out", str(out), "--trace", str(trace),
        ],
        deadline,
    )
    return json.loads((out / "result.json").read_text(encoding="utf-8"))


def _ops_of(passes: list[dict]) -> list[list]:
    ops = [op for p in passes for op in p["ops"]]
    first = passes[0]["csv"]
    for p in passes[1:]:
        same = p["csv"] == first
        label = "traced" if p["trace"] else "repeated"
        ops.append([f"{label} pass CSVs equal the first pass's", same, "", False])
    return ops


def run_untraced(workload: str, seed: int, seconds: float, work: Path) -> tuple[dict, list, dict]:
    deadline = time.monotonic() + RUN_BUDGET_S
    setups = [_setup_sample(deadline) for _ in range(SETUP_ONLY_SAMPLES)]
    passes = [_pass(workload, seed, 0, work / "pass0", deadline)]
    count = max(1, round(seconds / passes[0]["wall_s"]))
    while len(passes) < count:
        passes.append(_pass(workload, seed, 0, work / f"pass{len(passes)}", deadline))
    setups += [p["setup_s"] for p in passes]
    metrics = {"setup_s": statistics.median(setups)}
    for key in ("wall_s", "cpu_s", "peak_rss_mb", "path_steps_per_s"):
        metrics[key] = statistics.median(p[key] for p in passes)
    detail = {"passes": len(passes), "setup_samples": setups, "host": passes[0]["host"]}
    return metrics, _ops_of(passes), detail


def run_traced(workload: str, seed: int, work: Path) -> tuple[dict, list, dict]:
    deadline = time.monotonic() + RUN_BUDGET_S
    untraced = _pass(workload, seed, 0, work / "untraced", deadline)
    traced = _pass(workload, seed, 1, work / "traced", deadline)
    metrics = dict(traced["layers"])
    metrics["traced_wall_s"] = traced["wall_s"]
    metrics["trace_overhead_s"] = traced["wall_s"] - untraced["wall_s"]
    detail = {
        "passes": 2,
        "host": traced["host"],
        "untraced_wall_s": untraced["wall_s"],
        "layer_seconds": traced["layer_seconds"],
        "steps": {"traced": traced["traced_steps"]},
        "untraced_boundaries": traced["untraced_boundaries"],
        "spans": traced["spans"],
    }
    return metrics, _ops_of([untraced, traced]), detail


def _source() -> dict:
    record = {"commit": None}
    if (ROOT / ".git").exists():
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        )
        record["commit"] = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    record["source_sha256"] = digest.hexdigest()
    return record


def _load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_one(spec: dict, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One run: its metrics, ops and record; writes the record to .perfbench_out/."""
    OUT.mkdir(exist_ok=True)
    work = OUT / f"work-{workload}-{seed}-{trace}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        if trace:
            metrics, ops, detail = run_traced(workload, seed, work)
        else:
            metrics, ops, detail = run_untraced(workload, seed, seconds, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    declared = spec["per_layer" if trace else "end_to_end"]
    why = {w["name"]: w["why"] for w in spec["workloads"]}.get(workload, "")
    record = {
        "workload": workload,
        "why": why,
        "seed": seed,
        "trace": trace,
        "source": _source(),
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared},
        "attempted": len(ops),
        "failed": sum(1 for op in ops if not op[1]),
        "refused": sum(1 for op in ops if op[3]),
        "failed_ops": [op for op in ops if not op[1]],
        **detail,
    }
    path = OUT / f"{workload}-seed{seed}-trace{trace}.json"
    path.write_text(json.dumps(record, indent=1), encoding="utf-8")
    return record


def _print_record(record: dict) -> None:
    host = record["host"]
    source = record["source"]
    print(f"workload {record['workload']} seed={record['seed']} trace={record['trace']}: {record['why']}")
    print(
        f"  host: nproc={host['nproc']} workers={host['workers']} python={host['python']} "
        f"numpy={host['numpy']} scipy={host['scipy']} blas={host['openblas']}"
    )
    print(f"  source: commit={source['commit']} src_sha256={source['source_sha256'][:16]}")
    if record["trace"]:
        print(f"  untraced wall {record['untraced_wall_s']:.3f} s")
        seconds = record["layer_seconds"]
    else:
        print(f"  passes={record['passes']} setup samples={len(record['setup_samples'])}")
        seconds = {}
    for name, metric in record["metrics"].items():
        value, unit = metric["value"], metric["unit"]
        busy = seconds.get(name.removesuffix("_pct") + "_s")
        extra = "" if busy is None else f"  ({busy:.4g} s)"
        print(f"  {name:32s} {value:>16.6g} {unit}{extra}")
    frac = record["failed"] / record["attempted"] if record["attempted"] else 1.0
    print(
        f"  {'ops_failed_frac':32s} {frac:>16.6g} ratio "
        f"({record['failed']} of {record['attempted']} failed, {record['refused']} refused)"
    )
    for name, _, detail, _ in record["failed_ops"][:20]:
        print(f"  FAILED {name}: {detail}")


def _summary(records: list[dict], prefix: bool) -> dict:
    metrics = {}
    for r in records:
        for name, metric in r["metrics"].items():
            metrics[f"{r['workload']}.{name}" if prefix else name] = metric
    failed = sum(r["failed"] for r in records)
    attempted = sum(r["attempted"] for r in records)
    return {
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def main(argv: list[str] | None = None) -> int:
    spec = _load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*names, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (0 <= args.seed < 2**64):
        parser.error("--seed must be a uint64")
    runs = [(w, t) for w in names for t in (0, 1)] if args.workload == "all" else [
        (args.workload, args.trace)
    ]
    records = []
    try:
        for workload, trace in runs:
            record = run_one(spec, workload, args.seed, args.seconds, trace)
            _print_record(record)
            records.append(record)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(_summary(records, prefix=args.workload == "all")))
    return 0


if __name__ == "__main__":
    sys.exit(main())
