"""Closed forms that only the tests use, kept out of the package."""

import math


def rho(theta: float, t: float) -> float:
    """Stationary autocovariance rho(t) = e^{-theta |t|} / (2 theta)."""
    if theta <= 0.0:
        raise ValueError("theta must be > 0")
    return math.exp(-theta * abs(t)) / (2.0 * theta)
