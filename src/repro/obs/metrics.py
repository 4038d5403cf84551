"""Simulation-aware latency histograms and the registry that holds them.

Everything here is plain bookkeeping on simulated quantities — recording a
value never touches the event loop, charges no cycles, and therefore never
perturbs the simulated timeline.  That property is what lets the same run
be executed with observability on or off and produce identical results
(asserted by tests/test_obs.py).

Histograms use fixed geometric buckets so that recording is O(log n) and
percentiles are O(buckets); the reported percentile is the upper edge of
the bucket the rank falls in, i.e. accurate to one bucket width.
"""

from __future__ import annotations

import bisect
import math
from typing import Dict, Iterator, List, Optional, Tuple

LabelItems = Tuple[Tuple[str, object], ...]


def _label_key(labels: Dict[str, object]) -> LabelItems:
    return tuple(sorted(labels.items()))


def geometric_bounds(lower: float, upper: float, count: int) -> List[float]:
    """``count`` bucket upper-edges spaced geometrically in [lower, upper]."""
    if lower <= 0 or upper <= lower or count < 2:
        raise ValueError(f"bad histogram bounds: [{lower}, {upper}] x{count}")
    ratio = (upper / lower) ** (1.0 / (count - 1))
    return [lower * ratio ** i for i in range(count)]


#: Default latency buckets: 100 ns .. 1 s, 64 geometric buckets (~30%
#: resolution per bucket — plenty for p50/p95/p99 of µs-scale datapaths).
DEFAULT_LATENCY_BOUNDS = geometric_bounds(1e-7, 1.0, 64)


class Histogram:
    """Fixed-bucket histogram with percentile estimation."""

    __slots__ = ("name", "labels", "bounds", "counts", "count", "total",
                 "min_value", "max_value", "overflow")

    def __init__(self, name: str, labels: Dict[str, object],
                 bounds: Optional[List[float]] = None):
        self.name = name
        self.labels = labels
        self.bounds = bounds if bounds is not None else DEFAULT_LATENCY_BOUNDS
        self.counts = [0] * len(self.bounds)
        self.count = 0
        self.total = 0.0
        self.min_value = math.inf
        self.max_value = -math.inf
        self.overflow = 0  # values above the top bucket edge

    def record(self, value: float) -> None:
        self.count += 1
        self.total += value
        if value < self.min_value:
            self.min_value = value
        if value > self.max_value:
            self.max_value = value
        index = bisect.bisect_left(self.bounds, value)
        if index >= len(self.counts):
            self.overflow += 1
        else:
            self.counts[index] += 1

    def percentile(self, p: float) -> float:
        """The upper edge of the bucket holding the p-th percentile
        (0 < p <= 1); exact max for ranks landing past the top bucket."""
        if self.count == 0:
            return 0.0
        rank = p * self.count
        cumulative = 0
        for i, c in enumerate(self.counts):
            cumulative += c
            if cumulative >= rank:
                # Clamp to the observed extremes: the bucket edge can
                # overshoot the true max (or undershoot the min) by up to
                # one bucket width.
                return min(max(self.bounds[i], self.min_value),
                           self.max_value)
        return self.max_value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def snapshot(self) -> dict:
        return {
            "name": self.name,
            "labels": dict(self.labels),
            "count": self.count,
            "mean": self.mean,
            "p50": self.percentile(0.50),
            "p95": self.percentile(0.95),
            "p99": self.percentile(0.99),
            "max": self.max_value if self.count else 0.0,
            "min": self.min_value if self.count else 0.0,
        }


class MetricsRegistry:
    """Get-or-create store of histograms keyed by (name, labels)."""

    def __init__(self):
        self._histograms: Dict[Tuple[str, LabelItems], Histogram] = {}

    def histogram(self, name: str, bounds: Optional[List[float]] = None,
                  **labels) -> Histogram:
        key = (name, _label_key(labels))
        metric = self._histograms.get(key)
        if metric is None:
            metric = self._histograms[key] = Histogram(name, labels, bounds)
        return metric

    def histograms_named(self, prefix: str) -> Iterator[Histogram]:
        """All histograms whose name starts with ``prefix``."""
        for (name, _), metric in sorted(self._histograms.items()):
            if name.startswith(prefix):
                yield metric
