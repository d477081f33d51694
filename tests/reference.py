"""Closed forms, kernels and readers that only the tests use, kept out of the package."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ou_drift_bench
from ou_drift_bench import BlockSums, OuParams, Variant, map_cells, transition_coefficients
from ou_drift_bench.cli import CSV_SCHEMA_LINE

# The fields of the kernel's results (BlockSums, BlockPaths) that hold each
# path of the coupled pair: X's with the innovations that drive it, and Z's
# with Z_0.  A test parametrized by Variant checks the variant's path.
PAIR_FIELDS = {
    Variant.FROM_ZERO: ("x", "innovations", "x_head_sq", "x_tail_sq", "amle_num", "x_xi"),
    Variant.STATIONARY: ("z", "z0", "z_head_sq", "z_tail_sq"),
}


def rho(theta: float, t: float) -> float:
    """Stationary autocovariance rho(t) = e^{-theta |t|} / (2 theta)."""
    if theta <= 0.0:
        raise ValueError("theta must be > 0")
    return math.exp(-theta * abs(t)) / (2.0 * theta)


def row_scan(xi: np.ndarray, w: np.ndarray, x: np.ndarray, a: float, a_pow, weights) -> None:
    """The AR(1) scan of `ou_core._scan`, one row at a time in a real work buffer.

    Time is cut into segments of len(a_pow) steps from column 0.  Within one,
    x_l = a^l (a x_start + sum_{j <= l} (scale / a^j) xi_j): weights into w,
    a x_start added to w's first column, a cumulative sum in place and the
    powers of a back into x.  w has xi's shape.
    """
    span, m = a_pow.size, xi.shape[-1]
    for lo in range(0, m, span):
        hi = min(lo + span, m)
        seg = w[:, lo:hi]
        np.multiply(xi[:, lo:hi], weights[: hi - lo], out=seg)
        seg[:, 0] += a * x[:, lo]
        np.cumsum(seg, axis=-1, out=seg)
        np.multiply(seg, a_pow[: hi - lo], out=x[:, lo + 1 : hi + 1])


def coupling_second_moment(params: OuParams) -> float:
    """E[(F_n(X) - F_n(Z))^2] = T E[(f_n(X) - f_n(Z))^2] under the body
    convention, in O(n).

    n (f_n(Z) - f_n(X)) = 2 Z_0 sum_i a^i X_i + Z_0^2 sum_i a^{2i}, i < n, with
    Z_0 ~ N(0, sigma^2), sigma^2 = 1/(2 theta), independent of X, and
    sum_i a^i X_i = sqrt(s2) sum_j c_j xi_j, c_j = sum_{i=j+1}^{n-1} a^{2i-1-j}.
    So the moment is (T/n^2)(4 sigma^2 s2 sum_j c_j^2 + 3 sigma^4 (sum_{i<n} a^{2i})^2).
    """
    n = params.n
    a, s2 = transition_coefficients(params.theta, params.delta)
    var0 = 1.0 / (2.0 * params.theta)
    # c_{n-1} = 0 and c_{j-1} = a^j + a c_j
    c, c_sq = 0.0, 0.0
    for j in range(n - 1, 0, -1):
        c = a**j + a * c
        c_sq += c * c
    decay_sq = sum(a ** (2 * i) for i in range(n))
    return params.horizon / n**2 * (4.0 * var0 * s2 * c_sq + 3.0 * var0**2 * decay_sq**2)


_PEAK = """
def peak():
    with open("/proc/self/status") as status:
        return next(int(line.split()[1]) for line in status if line.startswith("VmHWM:"))
"""


def peak_growth_kib(setup: str, body: str, threads: str = "2") -> int:
    """How far the peak resident size (VmHWM, KiB) of a fresh interpreter
    grows over `body`, run after `setup` with the package on its path and
    OU_BENCH_THREADS=threads.  The peak is a lifetime one, hence the fresh
    process.  Skips the calling test where there is no VmHWM."""
    try:
        with open("/proc/self/status") as status:
            if not any(line.startswith("VmHWM:") for line in status):
                pytest.skip("no VmHWM in /proc/self/status")
    except OSError:
        pytest.skip("no /proc/self/status")
    env = dict(os.environ, OU_BENCH_THREADS=threads)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(ou_drift_bench.__file__).parents[1]), env.get("PYTHONPATH", "")]
    )
    script = f"{_PEAK}\n{setup}\nbefore = peak()\n{body}\nprint(peak() - before)\n"
    result = subprocess.run(
        [sys.executable, "-c", script],
        env=env, capture_output=True, text=True, check=True, timeout=60,
    )
    return int(result.stdout.split()[-1])


def cell_sums(params: OuParams, reps: int, master_seed: int) -> BlockSums:
    """The per-path sums of one cell's paths 0..reps-1 (see `harness.map_cells`)."""
    return map_cells((params,), reps, master_seed, lambda _, sums: sums)[0]


def read_bench_csv(path: Path) -> tuple[list[str], list[dict]]:
    """The header and rows of a bench CSV; ValueError unless its first line
    is the schema line."""
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    if not lines or lines[0] != CSV_SCHEMA_LINE:
        found = lines[0] if lines else "<empty file>"
        raise ValueError(f"{path}: csv schema line {found!r}, expected {CSV_SCHEMA_LINE!r}")
    header = lines[1].split(",")
    rows = [dict(zip(header, line.split(","))) for line in lines[2:] if line]
    return header, rows
