"""One pass of a workload in a fresh interpreter; run by run.py, not by hand.

    python3 perfbench/child.py --t0 <CLOCK_MONOTONIC at spawn> --setup-only
    python3 perfbench/child.py --t0 <...> --workload NAME --seed N --out DIR --trace 0|1

The package is imported from the checkout's src/ before anything else, and the
time from the parent's spawn until `ou_drift_bench.cli` is imported is the
pass's set-up time.  With --setup-only the child stops there.  Otherwise it
runs the workload's commands through `cli.main`, times them, reads peak RSS,
checks the outputs and writes DIR/result.json.  With --trace 1 the package's
layer boundaries are wrapped (see spans.py) before the commands run and the
per-layer metrics go into the result.
"""

import os
import sys
import time

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_SRC = os.path.join(_ROOT, "src")
sys.path.insert(0, _SRC)

import ou_drift_bench.cli  # noqa: E402

_IMPORTED = time.clock_gettime(time.CLOCK_MONOTONIC)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
from pathlib import Path  # noqa: E402


def _parse(argv):
    parser = argparse.ArgumentParser()
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--out", type=Path)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _host() -> dict:
    import platform

    import numpy
    import scipy

    from ou_drift_bench import harness

    blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "workers": harness._worker_count() if hasattr(harness, "_worker_count") else None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
    }


def _csv_digests(out: Path) -> dict[str, str]:
    return {
        str(p.relative_to(out)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out.rglob("*.csv"))
    }


def _cache_counts() -> dict[str, int]:
    from ou_drift_bench import harness

    # Later versions of the program may drop this cache; its counters then read 0.
    cached = getattr(harness, "_cell_stats_cached", None)
    info = cached.cache_info() if hasattr(cached, "cache_info") else None
    hits, misses = (info.hits, info.misses) if info else (0, 0)
    return {
        "harness.cells": hits + misses,
        "harness.cache_hits": hits,
        "harness.cache_misses": misses,
    }


def main(argv) -> int:
    args = _parse(argv)
    package = os.path.abspath(ou_drift_bench.cli.__file__)
    if not package.startswith(_SRC + os.sep):
        print(f"ou_drift_bench imported from {package}, not from {_SRC}", file=sys.stderr)
        return 3
    setup_s = _IMPORTED - args.t0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    out = args.out
    main_fn = ou_drift_bench.cli.main
    tracer = None
    if args.trace:
        from spans import ROOT_NAME, Tracer

        tracer = Tracer()
        tracer.install()
        main_fn = tracer.wrap(main_fn, ROOT_NAME, "cli", True)

    codes = []
    stdout = io.StringIO()
    cpu0 = time.process_time()
    wall0 = time.perf_counter()
    with contextlib.redirect_stdout(stdout):
        for command in workload.argv(args.seed, out):
            codes.append(main_fn(command))
    wall_s = time.perf_counter() - wall0
    cpu_s = time.process_time() - cpu0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        tracer.uninstall()

    ops = workload.check(out, args.seed, codes)
    result = {
        "workload": workload.name,
        "seed": args.seed,
        "trace": args.trace,
        "setup_s": setup_s,
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "peak_rss_mb": peak_rss_mb,
        "path_steps_per_s": workload.steps / wall_s,
        "ops": [[op.name, op.ok, op.detail, op.refused] for op in ops],
        "csv": _csv_digests(out),
        "host": _host(),
    }
    if tracer is not None:
        # Layer times are reported as shares of the traced pass's wall time.
        # A layer a workload never calls reads 0 %; the seconds are kept too.
        layers, seconds = tracer.layer_metrics()
        layers.update(_cache_counts())
        layers["cli.csv_bytes"] = sum(p.stat().st_size for p in out.rglob("*.csv"))
        layers.update({f"{k}_pct": 100.0 * v / wall_s for k, v in seconds.items()})
        result["layers"] = layers
        result["layer_seconds"] = {f"{k}_s": v for k, v in seconds.items()}
        result["traced_steps"] = tracer.simulated_steps()
        result["untraced_boundaries"] = tracer.missing
        result["spans"] = tracer.span_table()
    (out / "result.json").write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
