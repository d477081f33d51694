"""Exception types shared across the package."""

from __future__ import annotations

__all__ = [
    "OuBenchError",
    "DegenerateDenominator",
    "MissingInnovations",
    "TooSmall",
    "EmptySample",
    "NonFiniteValue",
    "InsufficientCells",
    "NonPositiveValue",
    "ExcessiveDegeneracy",
    "ConfigError",
    "at_cell",
]


class OuBenchError(Exception):
    """Base class for all errors raised by ou_drift_bench."""


class DegenerateDenominator(OuBenchError):
    """An estimator denominator fell below the degeneracy guard."""


class MissingInnovations(OuBenchError):
    """An operation needed the path's innovation increments but none were stored."""


class TooSmall(OuBenchError):
    """A sample statistic was requested on a sample below its minimum size."""


class EmptySample(OuBenchError):
    """A sample statistic was requested on an empty sample."""


class NonFiniteValue(OuBenchError):
    """An input contained NaN or infinity."""


class InsufficientCells(OuBenchError):
    """A rate fit needs at least three cells."""


class NonPositiveValue(OuBenchError):
    """A log-log fit received a value that is not strictly positive."""


class ExcessiveDegeneracy(OuBenchError):
    """Too many replications hit the degeneracy guard for the cell to be trusted."""


class ConfigError(OuBenchError):
    """A run configuration field failed validation."""


def at_cell(params) -> str:
    """Where a value failed, in every error that names a cell:
    "at cell (theta=..., delta=..., n=...)"."""
    return f"at cell (theta={params.theta!r}, delta={params.delta!r}, n={params.n})"
