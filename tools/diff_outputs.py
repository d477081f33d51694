"""Compare every output of `ou-bench` at a git revision with the working tree's.

    python tools/diff_outputs.py <rev>

The revision's `src/` is exported with `git archive` into a temporary
directory (no network, `.git` unchanged).  A fixed list of commands runs on
both sides at OU_BENCH_THREADS=1 and =2.  Each side runs from its own
temporary working directory with a relative `--out`, so printed paths match.
Every file written, stdout, stderr and exit code is compared; the exit code
is 0 only if all of them are identical.  For each file or stream that
differs, the report also gives the number of differing lines, the largest
relative difference between the numbers on those lines, and whether any
other text on them differs.  A full run takes a few minutes on two cores.
"""

from __future__ import annotations

import math
import os
import re
import subprocess
import sys
import tempfile
from itertools import zip_longest
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
MAX_DOUBLE = "1.7976931348623157e+308"
NUMBER = re.compile(
    rb"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|(?<![A-Za-z])[-+]?(?:inf|nan)(?![A-Za-z])"
)

# (name, arguments); a command given neither --out nor --help writes to out/<name>.
COMMANDS = (
    *(
        (f"rates-{preset}", ("rates", "--preset", preset, "--reps", reps, "--estimator", "both"))
        for preset, reps in (
            ("amce-gamma-half", "10000"),
            ("coupling-sweep", "2000"),
            ("amle-gamma-3q", "100"),
        )
    ),
    *(
        (
            f"rates-negative-control-{convention}",
            (
                "rates", "--preset", "negative-control-fixed-T", "--reps", "1000",
                "--estimator", "both", "--index-convention", convention,
            ),
        )
        for convention in ("body", "abstract")
    ),
    (
        "rates-amle-theta-half",
        ("rates", "--preset", "amle-gamma-3q", "--theta", "0.5", "--reps", "1000"),
    ),
    ("verify-long", ("verify", "--n", "262144", "--delta", "0.05", "--reps", "1024")),
    ("verify-300", ("verify", "--n", "300", "--reps", "9000")),
    *(
        (
            f"estimate-{convention}",
            (
                "estimate", "--n", "1000", "--delta", "0.05", "--reps", "20000",
                "--estimator", "both", "--index-convention", convention,
            ),
        )
        for convention in ("body", "abstract")
    ),
    *(
        (f"oracle-{n}-{gamma}", ("oracle", "--n", str(n), "--delta", repr(float(n) ** -gamma)))
        for gamma in (0.5, 0.75)
        for n in (1024, 2048, 4096)
    ),
    ("simulate-from-zero", ("simulate", "--n", "1000")),
    ("simulate-stationary", ("simulate", "--n", "500", "--variant", "stationary", "--coupled")),
    ("simulate-seeded", ("simulate", "--theta", "0.3", "--delta", "0.1", "--seed", "7")),
    ("help", ("--help",)),
    *(
        (f"help-{command}", (command, "--help"))
        for command in ("simulate", "estimate", "oracle", "verify", "rates")
    ),
    ("error-out-flag", ("simulate", "--out", "-x")),
    ("error-unknown-preset", ("rates", "--preset", "nope")),
    ("error-estimator", ("estimate", "--estimator", "amxe")),
    ("error-rates-overflow", ("rates", "--theta", MAX_DOUBLE, "--reps", "100")),
    ("error-estimate-overflow", ("estimate", "--n", "17", "--delta", MAX_DOUBLE, "--reps", "2")),
    ("error-degenerate", ("verify", "--n", "1", "--reps", "1000")),
)


def export_src(rev: str, dest: Path) -> Path:
    archive = dest.with_suffix(".tar")
    subprocess.run(
        ["git", "-C", str(REPO), "archive", "--format=tar", "-o", str(archive), rev, "src"],
        check=True,
    )
    dest.mkdir()
    subprocess.run(["tar", "-x", "-f", str(archive), "-C", str(dest)], check=True)
    return dest / "src"


def run_side(src: Path, workdir: Path, threads: int) -> list[tuple[int, bytes, bytes]]:
    env = dict(os.environ, PYTHONPATH=str(src), OU_BENCH_THREADS=str(threads))
    results = []
    for name, args in COMMANDS:
        if "--out" not in args and "--help" not in args:
            args = (*args, "--out", f"out/{name}")
        proc = subprocess.run(
            [sys.executable, "-B", "-m", "ou_drift_bench.cli", *args],
            cwd=workdir,
            env=env,
            capture_output=True,
        )
        results.append((proc.returncode, proc.stdout, proc.stderr))
    return results


def files_under(root: Path) -> set[str]:
    return {str(p.relative_to(root)) for p in root.rglob("*") if p.is_file()}


def first_difference(a: bytes, b: bytes) -> str:
    for i, (x, y) in enumerate(zip_longest(a.splitlines(), b.splitlines()), 1):
        if x != y:
            return f"line {i}: {x!r} vs {y!r}"
    return "line endings differ"


def size_of_difference(a: bytes, b: bytes) -> str:
    """Differing lines, the largest relative difference between the numbers on
    them, and whether any other text on them differs (a line on one side only,
    or the text around the numbers; numbers are paired only on lines that hold
    as many on both sides)."""
    lines, worst, other = 0, 0.0, False
    for x, y in zip_longest(a.splitlines(), b.splitlines()):
        if x == y:
            continue
        lines += 1
        if x is None or y is None:
            other = True
            continue
        other = other or NUMBER.split(x) != NUMBER.split(y)
        numbers = NUMBER.findall(x), NUMBER.findall(y)
        if len(numbers[0]) != len(numbers[1]):
            continue
        for u, v in zip(*numbers):
            p, q = float(u), float(v)
            if u == v or p == q:
                continue
            finite = math.isfinite(p) and math.isfinite(q)
            worst = max(worst, abs(p - q) / max(abs(p), abs(q)) if finite else math.inf)
    return (
        f"{lines} differing lines, numbers by at most {worst:.2g} relative, "
        f"other text {'differs' if other else 'identical'}"
    )


def compare(old_dir: Path, new_dir: Path, old_runs, new_runs) -> list[str]:
    problems = []
    for (name, _), (old_code, *old_out), (new_code, *new_out) in zip(COMMANDS, old_runs, new_runs):
        if old_code != new_code:
            problems.append(f"{name}: exit code {old_code} vs {new_code}")
        for what, a, b in zip(("stdout", "stderr"), old_out, new_out):
            if a != b:
                problems.append(
                    f"{name}: {what} differs at {first_difference(a, b)}; "
                    + size_of_difference(a, b)
                )
    old_files, new_files = files_under(old_dir), files_under(new_dir)
    for path in sorted(old_files ^ new_files):
        problems.append(f"{path}: written on one side only")
    for path in sorted(old_files & new_files):
        a, b = (old_dir / path).read_bytes(), (new_dir / path).read_bytes()
        if a != b:
            problems.append(
                f"{path}: differs at {first_difference(a, b)}; " + size_of_difference(a, b)
            )
    return problems


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory(prefix="diff-outputs-") as tmp:
        tmp = Path(tmp)
        sides = {"old": export_src(argv[0], tmp / "old"), "new": REPO / "src"}
        failed = False
        for threads in (1, 2):
            dirs = {side: tmp / f"run-{side}-{threads}" for side in sides}
            runs = {}
            for side, src in sides.items():
                dirs[side].mkdir()
                runs[side] = run_side(src, dirs[side], threads)
            problems = compare(dirs["old"], dirs["new"], runs["old"], runs["new"])
            files = len(files_under(dirs["new"]))
            print(
                f"OU_BENCH_THREADS={threads}: {len(COMMANDS)} commands, {files} files: "
                + ("identical" if not problems else f"{len(problems)} differences")
            )
            for problem in problems:
                print(f"  {problem}")
            failed = failed or bool(problems)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
