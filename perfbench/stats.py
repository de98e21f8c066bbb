"""The benchmark's own arithmetic: percentiles, ratios, failure tallies.

Kept free of ``repro`` imports so it can be tested on its own
(``python3 -m pytest perfbench``).
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass, field
from typing import Dict, List, Sequence

MIN_TAIL_SAMPLES = 10
"""A percentile is reported only with at least this many samples beyond it."""


def percentile(samples: Sequence[float], q: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least ``q`` of
    the samples at or below it (``q`` in ``(0, 1]``)."""
    if not samples:
        raise ValueError("percentile of an empty sample")
    if not 0.0 < q <= 1.0:
        raise ValueError(f"q must lie in (0, 1], got {q}")
    ordered = sorted(samples)
    rank = math.ceil(q * len(ordered))
    return ordered[max(rank, 1) - 1]


def samples_beyond(count: int, q: float) -> int:
    """How many of ``count`` samples lie strictly above the nearest-rank
    ``q`` percentile."""
    return count - max(math.ceil(q * count), 1)


def percentile_supported(count: int, q: float, tail: int = MIN_TAIL_SAMPLES) -> bool:
    """Whether ``count`` samples leave at least ``tail`` beyond percentile ``q``."""
    return count > 0 and samples_beyond(count, q) >= tail


@dataclass(frozen=True)
class Ratio:
    """A ratio kept with its base, so ``0/0`` is never reported as a rate."""

    hits: float
    base: float

    @property
    def value(self) -> float:
        if self.base <= 0:
            raise ZeroDivisionError("ratio with an empty base")
        return self.hits / self.base

    def value_or(self, default: float) -> float:
        return default if self.base <= 0 else self.hits / self.base


def hit_ratio(hits: float, misses: float) -> Ratio:
    """Hits over all lookups."""
    if hits < 0 or misses < 0:
        raise ValueError("hit and miss counts must be non-negative")
    return Ratio(hits, hits + misses)


def overhead_pct(traced: float, untraced: float) -> float:
    """Percent by which the traced run's time exceeds the untraced run's."""
    if untraced <= 0:
        raise ValueError("untraced time must be positive")
    return 100.0 * (traced - untraced) / untraced


def iqr_spread(values: Sequence[float]) -> float:
    """Inter-quartile distance over the median, as the acceptance rule takes it
    (``statistics.quantiles(values, n=4)``, exclusive method)."""
    if len(values) < 2:
        raise ValueError("spread needs at least two values")
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    if median == 0:
        raise ZeroDivisionError("spread of values with a zero median")
    return abs(q3 - q1) / abs(median)


@dataclass
class Tally:
    """Operations attempted and failed, with the reason for each failure."""

    attempted: int = 0
    failed: int = 0
    reasons: Dict[str, int] = field(default_factory=dict)

    def ok(self, count: int = 1) -> None:
        self.attempted += count

    def fail(self, reason: str, count: int = 1) -> None:
        self.attempted += count
        self.failed += count
        self.reasons[reason] = self.reasons.get(reason, 0) + count

    def record(self, succeeded: bool, reason: str) -> None:
        if succeeded:
            self.ok()
        else:
            self.fail(reason)

    def merge(self, other: "Tally") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        for reason, count in other.reasons.items():
            self.reasons[reason] = self.reasons.get(reason, 0) + count

    def to_dict(self) -> Dict[str, object]:
        return {"attempted": self.attempted, "failed": self.failed,
                "reasons": dict(self.reasons)}

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "Tally":
        return cls(int(data["attempted"]), int(data["failed"]),
                   dict(data.get("reasons") or {}))


def windows(stamps: Sequence[float], values: Sequence[float], width: float,
            span: float) -> List[List[float]]:
    """Split ``values`` into consecutive windows of ``width`` seconds by their
    ``stamps``; only whole windows inside ``[0, span)`` are kept."""
    if width <= 0:
        raise ValueError("window width must be positive")
    count = int(span // width)
    out: List[List[float]] = [[] for _ in range(count)]
    for stamp, value in zip(stamps, values):
        index = int(stamp // width)
        if 0 <= index < count:
            out[index].append(value)
    return out


def windowed_rate(parts: Sequence[Sequence[float]], width: float) -> float:
    """Median completions per second over the windows."""
    if not parts:
        raise ValueError("no whole window")
    return median([len(part) / width for part in parts])


def median(values: Sequence[float]) -> float:
    if not values:
        raise ValueError("median of an empty sample")
    return float(statistics.median(values))
