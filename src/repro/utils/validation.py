"""Argument-validation helpers shared across the package."""

from __future__ import annotations


def check_probability(value: float, name: str) -> float:
    """Validate that ``value`` lies in [0, 1]."""
    value = float(value)
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must be in [0, 1], got {value}")
    return value


def check_positive(value: float, name: str) -> float:
    """Validate that ``value`` is strictly positive."""
    value = float(value)
    if value <= 0:
        raise ValueError(f"{name} must be positive, got {value}")
    return value


def check_positive_int(value: int, name: str) -> int:
    """Validate that ``value`` is a positive integer."""
    if int(value) != value or value <= 0:
        raise ValueError(f"{name} must be a positive integer, got {value}")
    return int(value)
