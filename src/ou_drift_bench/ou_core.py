"""Exact simulation of a discretely observed Ornstein-Uhlenbeck process.

The process solves dX_t = -theta X_t dt + dW_t with X_0 = 0 and is observed on the
regular grid t_i = i * delta, i = 0..n.  On that grid it is an exact AR(1) chain:

    X_{t_{i+1}} = a X_{t_i} + sqrt(s2) xi_i,   a = e^{-theta delta},
    s2 = (1 - e^{-2 theta delta}) / (2 theta),  xi_i iid standard normal.

The stationary process Z starts from Z_0 ~ N(0, 1/(2 theta)) and follows the
same recursion with the same innovations, so X_{t_i} = Z_{t_i} - e^{-theta t_i} Z_0
holds pathwise, exactly.

There is one draw layout: path i of seed s draws Z_0 and then its
innovations from stream (s, i), and gives the coupled pair (X, Z).  The
from-zero path is that pair's X.

`simulate_block` is the one simulation kernel, with the draw layout, the
AR(1) scan and the per-path sums; the per-path functions and the harness
both call it.  It simulates a block of rows at one or more cells: each row
draws its normals once, up to the largest n, and each cell scans its own
prefix of them, since a prefix of a row's draw is what a shorter draw gives.
The scan uses numpy only: within a segment of time,
x_l = a^l (a x_start + sum_{j <= l} (scale / a^j) xi_j) is a weighted
cumulative sum (`_scan`), taken over two rows at once as the real and
imaginary parts of one complex row, so the two rows' chains of additions
run side by side while each row keeps exactly its own additions.  The tail
and Z sums are closed forms in the head sums, sum e^{-theta t} X and the
end column.  The harness calls
`simulate_block` in forked worker processes, as many as OU_BENCH_THREADS
says; each keeps one set of block buffers, and the scan tables of its
cells, from block to block, so a worker's memory is bounded by its block
buffers.
"""

from __future__ import annotations

import enum
import math
import sys
from collections.abc import Sequence
from dataclasses import dataclass, field
from types import SimpleNamespace

import numpy as np

from .errors import NonFiniteValue, at_cell, out_of_range

__all__ = [
    "SEED_MAX",
    "Variant",
    "OuParams",
    "SamplePath",
    "transition_coefficients",
    "BlockPaths",
    "BlockSums",
    "block_rows",
    "path_rng",
    "simulate_block",
    "simulate_path",
    "simulate_coupled",
]

# Seeds and streams are uint64s: each is below this.
SEED_MAX = 2**64
# Time steps per scan chunk, and values per rows x chunk array of a block.
_SCAN_CHUNK = 16384
_BLOCK_VALUES = 2**18
# This process's block buffers and scan tables, kept from one simulate_block
# call to the next: each worker process has its own.
_scratch = SimpleNamespace(shape=None, buffers=None, cells=None, tables=None)


class Variant(enum.Enum):
    """Which path of the coupled pair a caller wants: X from zero or the stationary Z."""

    FROM_ZERO = "from-zero"
    STATIONARY = "stationary"


@dataclass(frozen=True)
class OuParams:
    """Grid parameters of one observation cell.

    Parameters
    ----------
    theta : float
        Drift parameter, strictly positive.  Experiments stay in [0.25, 4].
    delta : float
        Grid step, strictly positive.
    n : int
        Number of observation steps; the path has n + 1 points t_0..t_n.
    """

    theta: float
    delta: float
    n: int

    def __post_init__(self) -> None:
        if not (math.isfinite(self.theta) and self.theta > 0.0):
            raise ValueError(f"theta must be finite and > 0, got {self.theta!r}")
        if not (math.isfinite(self.delta) and self.delta > 0.0):
            raise ValueError(f"delta must be finite and > 0, got {self.delta!r}")
        if not (isinstance(self.n, int) and self.n >= 1):
            raise ValueError(f"n must be an integer >= 1, got {self.n!r}")

    @property
    def horizon(self) -> float:
        """Observation horizon T = n * delta."""
        return self.n * self.delta

    def times(self) -> np.ndarray:
        """Observation grid t_i = i * delta, i = 0..n."""
        return np.arange(self.n + 1) * self.delta


@dataclass(frozen=True)
class SamplePath:
    """One simulated path together with the randomness that produced it.

    ``values[i]`` is the state at t_i, i = 0..n.  ``innovations`` holds the n
    standard-normal increments driving the AR(1) recursion; estimators that
    reconstruct the driving martingale require them.  ``z0`` is the stationary
    initial value drawn for the path (None for the from-zero variant).
    """

    params: OuParams
    variant: Variant
    values: np.ndarray
    innovations: np.ndarray | None = field(default=None, repr=False)
    z0: float | None = None

    def __post_init__(self) -> None:
        if self.values.shape != (self.params.n + 1,):
            raise ValueError(
                f"values must have shape ({self.params.n + 1},), got {self.values.shape}"
            )
        if not np.all(np.isfinite(self.values)):
            raise ValueError("path values must all be finite")
        if self.variant is Variant.FROM_ZERO and self.values[0] != 0.0:
            raise ValueError(
                f"from-zero path must start at exactly 0, got {self.values[0]!r}"
            )
        if self.innovations is not None and self.innovations.shape != (self.params.n,):
            raise ValueError(
                f"innovations must have shape ({self.params.n},), got {self.innovations.shape}"
            )


def transition_coefficients(theta: float, delta: float) -> tuple[float, float]:
    """Exact AR(1) coefficients (a, s2) for one grid step.

    a = e^{-theta delta} and s2 = (1 - e^{-2 theta delta}) / (2 theta), the
    conditional mean factor and conditional variance of X_{t+delta} given X_t.
    s2 uses expm1 so small theta*delta does not lose precision.  Once
    x = 2 theta delta is below the smallest normal double it is rounded (or
    0.0), while -expm1(-x) / x is 1 to double precision, so s2 is delta.
    """
    if theta <= 0.0 or delta <= 0.0:
        raise ValueError("theta and delta must be > 0")
    a = math.exp(-theta * delta)
    x = 2.0 * theta * delta
    s2 = delta if x < sys.float_info.min else -math.expm1(-x) / (2.0 * theta)
    return a, s2


def _philox_keys(seed: int, lo: int, hi: int) -> np.ndarray:
    """Philox keys [seed, stream] of streams lo..hi-1, one row each."""
    if not (0 <= seed < SEED_MAX):
        raise ValueError(f"seed must be a uint64, got {seed!r}")
    for stream in (lo, hi - 1):
        if not (0 <= stream < SEED_MAX):
            raise ValueError(f"stream must be a uint64, got {stream!r}")
    keys = np.empty((hi - lo, 2), dtype=np.uint64)
    keys[:, 0] = seed
    # added in uint64: an arange from lo would be sized in float64
    keys[:, 1] = lo
    keys[:, 1] += np.arange(hi - lo, dtype=np.uint64)
    return keys


def path_rng(seed: int, stream: int = 0) -> np.random.Generator:
    """Counter-based generator for one (seed, stream) pair.

    Philox keyed by the 128-bit pair [seed, stream]: distinct pairs give
    independent streams, so replication i of a run seeded s draws from
    (s, i) with no coordination between workers.
    """
    return np.random.Generator(np.random.Philox(key=_philox_keys(seed, stream, stream + 1)[0]))


def _decay(params: OuParams, steps):
    """e^{-theta t_i} at the steps i (t_i = i delta), as -(theta delta) i."""
    return np.exp(-(params.theta * params.delta) * steps)


def _add_start(x: np.ndarray, z0: np.ndarray, params: OuParams) -> np.ndarray:
    """Z = X + e^{-theta t} Z_0 on the whole rows x."""
    z = np.multiply.outer(z0, _decay(params, np.arange(x.shape[-1])))
    z += x
    return z


def block_rows(n: int) -> int:
    """Rows per block, so that a rows x chunk array holds about _BLOCK_VALUES values."""
    return max(1, _BLOCK_VALUES // min(n, _SCAN_CHUNK))


def _scan_tables(params: OuParams) -> tuple:
    """a, the tables a^l and scale / a^l of one scan segment, l = 0..span-1,
    and the decay e^{-theta t_i} of the first chunk, i = 0..min(n, chunk)-1.

    The span is a power of two, at most _SCAN_CHUNK (itself a power of two,
    so segments never straddle a chunk), with theta*delta*span <= 300: then
    scale / a^l <= scale e^300 and no weight overflows.  It is taken from
    theta*delta rather than from log(a), which is -inf once a underflows to 0.
    """
    theta_delta = params.theta * params.delta
    span = _SCAN_CHUNK
    while span > 1 and theta_delta * span > 300.0:
        span //= 2
    a, s2 = transition_coefficients(params.theta, params.delta)
    a_pow = a ** np.arange(span, dtype=np.float64)
    decay = _decay(params, np.arange(min(params.n, _SCAN_CHUNK)))
    return a, a_pow, math.sqrt(s2) / a_pow, decay


def _scan(xi: np.ndarray, w: np.ndarray, x: np.ndarray, a: float, a_pow, weights) -> None:
    """AR(1) scan x[:, l + 1] = a x[:, l] + scale xi[:, l] from the state in x[:, 0].

    Time is cut into segments of len(a_pow) steps from column 0.  Within one,
    x_l = a^l (a x_start + sum_{j <= l} (scale / a^j) xi_j): weights into w,
    a x_start added to w's first column, a cumulative sum in place and the
    powers of a back into x.  w is complex, with (rows + 1) // 2 rows of
    xi's width: rows 2p and 2p + 1 are the real and imaginary parts of its
    row p, so one complex cumulative sum runs their two chains of additions
    side by side, each exactly a row's own.  An odd last row's partner is
    zero, so the sum meets no stale value.
    """
    span, m = a_pow.size, xi.shape[-1]
    w.imag[xi.shape[0] // 2 :] = 0.0
    parts = ((w.real, xi[0::2], x[0::2]), (w.imag, xi[1::2], x[1::2]))
    for lo in range(0, m, span):
        hi = min(lo + span, m)
        for part, xi_rows, x_rows in parts:
            seg = part[: x_rows.shape[0], lo:hi]
            np.multiply(xi_rows[:, lo:hi], weights[: hi - lo], out=seg)
            seg[:, 0] += a * x_rows[:, lo]
        seg = w[:, lo:hi]
        np.cumsum(seg, axis=-1, out=seg)
        for part, _, x_rows in parts:
            seg = part[: x_rows.shape[0], lo:hi]
            np.multiply(seg, a_pow[: hi - lo], out=x_rows[:, lo + 1 : hi + 1])


@dataclass(frozen=True)
class BlockSums:
    """Per-row sums of a block, each of shape (rows,); head is t_0..t_{n-1}, tail t_1..t_n.

    Z = X + e^{-theta t} Z_0.  amle_num is -sum x_head (x_tail - x_head);
    x_xi is sum x_head xi over the innovations.
    """

    x_head_sq: np.ndarray
    x_tail_sq: np.ndarray
    z_head_sq: np.ndarray
    z_tail_sq: np.ndarray
    amle_num: np.ndarray
    x_xi: np.ndarray


@dataclass(frozen=True)
class BlockPaths:
    """Whole rows of a block: X, Z, the innovations and Z_0."""

    x: np.ndarray
    z: np.ndarray
    innovations: np.ndarray
    z0: np.ndarray


def _new_buffers(rows: int, width: int) -> tuple[np.ndarray, ...]:
    """Draw, scan, x and diff buffers of one block.  The draws' column 0 takes
    a row's Z_0 and x's the scan's start column; the scan buffer
    holds the rows in complex pairs (`_scan`)."""
    return (
        np.empty((rows, width + 1)),
        np.empty(((rows + 1) // 2, width), dtype=np.complex128),
        np.empty((rows, width + 1)),
        np.empty((rows, width)),
    )


def _thread_buffers(rows: int, width: int) -> tuple[np.ndarray, ...]:
    """This worker process's block buffers, reallocated only when the block
    shape changes."""
    if _scratch.shape != (rows, width):
        _scratch.buffers = None  # drop the old set before allocating the new one
        _scratch.buffers = _new_buffers(rows, width)
        _scratch.shape = (rows, width)
    return _scratch.buffers


def _thread_tables(cells: Sequence[OuParams]) -> list:
    """This worker process's tables of the cells (`_scan_tables`), None for
    a cell until its first scan builds them, so that a value out of range
    there names the cell.  They are dropped only when the cells or the chunk
    length (which bounds the tables) change: a map's every block is at the
    same cells, and the tables of a long cell cost more than a small block's
    scan."""
    key = (tuple(cells), _SCAN_CHUNK)
    if _scratch.cells != key:
        _scratch.tables = [None] * len(cells)
        _scratch.cells = key
    return _scratch.tables


def _row_dot(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """sum_j x_ij y_ij for each row i, where y is a rows x m array or a
    length-m vector shared by every row.

    einsum sums each of several rows in one pass, but a single row in
    buffered pieces of 8192 values, which changes the order of its additions
    once m > 8192; so a single row is summed as two stride-0 copies of itself.
    """
    spec = "ij,ij->i" if y.ndim == 2 else "ij,j->i"
    if x.shape[0] > 1:
        return np.einsum(spec, x, y)
    twice = (2, x.shape[1])
    y = np.broadcast_to(y, twice) if y.ndim == 2 else y
    return np.einsum(spec, np.broadcast_to(x, twice), y)[:1]


def simulate_block(
    cells: Sequence[OuParams],
    seed: int,
    lo: int,
    hi: int,
    *,
    paths: bool = False,
) -> list[BlockSums] | list[BlockPaths]:
    """Simulate the paths on streams [lo, hi) of seed at every cell: the one
    simulation kernel.  One result per cell, in the order given.

    Draw order is part of the determinism contract: a row draws Z_0 first,
    then the innovations.  A row's first chunk is one draw call, Z_0
    included, which gives the same numbers as one call per value.  One
    Philox serves the block; re-keyed to [seed, stream] with a zero counter
    and an empty buffer it gives exactly path_rng(seed, stream).  Each row draws once, up to the
    largest n, and a cell of n steps takes the first n innovations, as a
    draw of n alone would give them.  X is scanned from zero by segmented
    cumulative sums (`_scan`), and Z = X + e^{-theta t} Z_0.

    By default time is walked in chunks of _SCAN_CHUNK steps, carrying each
    row's generator state and, per cell, the scan's last column and the sums,
    so memory is bounded by the block size whatever n is; the buffers are
    the calling worker process's, kept for its next block.  The sums of X
    and X xi are taken per chunk; the tail sums and the Z sums follow in
    closed form from them, from sum e^{-theta t} X and from the end column,
    so no Z is formed.  With ``paths`` the rows are scanned whole and returned.  Scan
    segments start at multiples of their span in absolute time, and chunks
    at multiples of every span, so no row's values depend on the chunking,
    on the block it is in or on the other cells.  A block of one row, as the
    last block of a map often is, sums that row as a block of two rows would
    (`_row_dot`), so its sums are those of any other block too.

    A value that leaves the range of a double in a cell's arithmetic ends the
    block in NonFiniteValue naming the cell.
    """
    n, rows = max(params.n for params in cells), hi - lo
    width = n if paths else min(n, _SCAN_CHUNK)
    sd0 = [math.sqrt(1.0 / (2.0 * params.theta)) for params in cells]
    for params, sd in zip(cells, sd0):
        if math.isinf(sd):
            raise NonFiniteValue(f"Z_0's sd 1/sqrt(2 theta) is inf {at_cell(params)}")
    tables = _thread_tables(cells)
    keys = _philox_keys(seed, lo, hi)
    bitgen = np.random.Philox(key=keys[0])
    fresh = bitgen.state if rows > 1 else None
    rng = np.random.Generator(bitgen)
    saved: list = [None] * rows
    # Buffers are reused from chunk to chunk, and (unless the rows are
    # returned) from block to block; a fresh 2 MiB array per step costs more
    # in page faults than the arithmetic on it, whenever the allocator hands
    # freed blocks back to the system.
    buffers = _new_buffers if paths else _thread_buffers
    draws, w_buf, x, diff = buffers(rows, width)
    # per cell: the scan's last column, and sum x_head^2, amle_num,
    # sum x_head xi and sum e^{-theta t} x_head
    carry = np.zeros((len(cells), rows))
    sums = np.zeros((len(cells), 4, rows))
    results = []
    try:
        for start in range(0, n, width):
            m = min(width, n - start)
            # A row's first call draws Z_0 and its first innovations.
            first = 1 if start else 0
            for k in range(rows):
                if start:
                    bitgen.state = saved[k]
                elif k:  # row 0 draws from the generator as keyed above
                    fresh["state"]["key"] = keys[k]
                    bitgen.state = fresh
                rng.standard_normal(out=draws[k, first : m + 1])
                if start + m < n:
                    saved[k] = bitgen.state
            if not start:
                z0s = [draws[:, 0] * sd for sd in sd0]
            for c, params in enumerate(cells):
                mc = min(m, params.n - start)
                if mc <= 0:
                    continue
                if tables[c] is None:
                    tables[c] = _scan_tables(params)
                a, a_pow, weights, decay = tables[c]
                z0 = z0s[c]
                xi = draws[:, 1 : mc + 1]
                # whole rows are returned, so each cell scans into its own
                xc = np.empty((rows, mc + 1)) if paths else x[:, : mc + 1]
                xc[:, 0] = carry[c]
                _scan(xi, w_buf[:, :mc], xc, a, a_pow, weights)
                if paths:
                    results.append(BlockPaths(xc, _add_start(xc, z0, params), xi, z0))
                    continue
                x_head = xc[:, :mc]
                total = sums[c]
                total[0] += _row_dot(x_head, x_head)
                step = np.subtract(xc[:, 1:], x_head, out=diff[:, :mc])
                total[1] -= _row_dot(x_head, step)
                total[2] += _row_dot(x_head, xi)
                if not start:
                    total[3] += _row_dot(x_head, decay[:mc])
                else:
                    # a later chunk adds nothing once e^{-theta t} is 0 from
                    # its start on, as it often is
                    if _decay(params, start) != 0.0:
                        later = _decay(params, np.arange(start, start + mc))
                        total[3] += _row_dot(x_head, later)
                carry[c] = xc[:, mc]
        if paths:
            return results
        for c, params in enumerate(cells):
            results.append(_closed_sums(params, sums[c], carry[c], z0s[c]))
    except FloatingPointError as exc:
        raise out_of_range(params, exc) from exc
    return results


def _closed_sums(params: OuParams, sums: np.ndarray, x_n: np.ndarray, z0) -> BlockSums:
    """A cell's BlockSums from its chunk sums (sum x_head^2, amle_num,
    sum x_head xi, sum e^{-theta t} x_head), its end column X_n and Z_0."""
    x_head_sq, amle_num, x_xi, decay_x = sums
    x_tail_sq = x_head_sq + x_n * x_n
    n, theta_delta = params.n, params.theta * params.delta
    # sum_{i<n} e^{-2 theta t_i}, a geometric sum; n when theta*delta underflows to 0
    decay_sq = (
        math.expm1(-2.0 * theta_delta * n) / math.expm1(-2.0 * theta_delta)
        if theta_delta > 0.0
        else float(n)
    )
    z_head_sq = x_head_sq + 2.0 * z0 * decay_x + z0 * z0 * decay_sq
    z_n = x_n + math.exp(-theta_delta * n) * z0
    z_tail_sq = z_head_sq - z0 * z0 + z_n * z_n
    return BlockSums(x_head_sq, x_tail_sq, z_head_sq, z_tail_sq, amle_num, x_xi)


def simulate_path(params: OuParams, variant: Variant, seed: int, stream: int = 0) -> SamplePath:
    """The variant's path of the coupled pair (`simulate_coupled`): X from
    zero or the stationary Z.  Innovations are retained."""
    x_path, z_path = simulate_coupled(params, seed, stream)
    return z_path if variant is Variant.STATIONARY else x_path


def simulate_coupled(
    params: OuParams, seed: int, stream: int = 0
) -> tuple[SamplePath, SamplePath]:
    """Simulate an (X, Z) pair driven by one innovation stream: a one-row
    simulate_block.

    X starts at 0 and Z = X + e^{-theta t} Z_0 with Z_0 ~ N(0, 1/(2 theta)),
    the path the same AR(1) recursion gives from Z_0 with identical
    innovations.
    """
    (block,) = simulate_block((params,), seed, stream, stream + 1, paths=True)
    xi, z0 = block.innovations[0], float(block.z0[0])
    x_path = SamplePath(params, Variant.FROM_ZERO, block.x[0], xi)
    return x_path, SamplePath(params, Variant.STATIONARY, block.z[0], xi, z0)
