"""Closed forms and kernels that only the tests use, kept out of the package."""

import math

import numpy as np


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
