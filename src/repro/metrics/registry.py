"""Minimal metrics primitives used by benchmarks and examples.

Metrics can carry labels, Prometheus-style: ``registry.counter("fetched",
topic="orders", partition=0)`` registers under the key
``fetched{partition=0,topic=orders}`` (label keys sorted, so the same
label set always yields the same key). Unlabeled metrics keep their bare
name, so existing call sites are untouched.
"""

from __future__ import annotations

import math
from typing import Any, Callable, Dict, List, Optional


def labeled_name(name: str, labels: Dict[str, Any]) -> str:
    """Canonical registry key for a metric with labels."""
    if not labels:
        return name
    inner = ",".join(f"{k}={labels[k]}" for k in sorted(labels))
    return f"{name}{{{inner}}}"


class Counter:
    """A monotonically increasing count."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def increment(self, by: int = 1) -> None:
        if by < 0:
            raise ValueError("counters only increase")
        self.value += by


class Gauge:
    """A value that can go up and down; reports its last-set value."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value


class Histogram:
    """Stores observations; exposes mean and percentiles.

    ``observe(value)`` is the value list's own ``append``, bound per
    instance: recording a sample runs no Python frame.

    The sorted view is computed lazily and cached: ``snapshot()`` asks for
    three percentiles plus min/max, and the telemetry reporter snapshots
    every histogram on every sample tick, so re-sorting per call would be
    O(n log n) per percentile instead of per batch of observations.
    Observations only ever add to the list (``reset`` drops the view), so
    the view is current exactly when it is as long as the list.
    """

    def __init__(self, name: str) -> None:
        self.name = name
        self._values: List[float] = []
        self._sorted: Optional[List[float]] = None
        self.observe: Callable[[float], None] = self._values.append

    def observe_many(self, values: List[float]) -> None:
        """Bulk observation for columnar paths: one list extension instead
        of a method call per sample."""
        self._values.extend(values)

    @property
    def count(self) -> int:
        return len(self._values)

    def _ordered(self) -> List[float]:
        if self._sorted is None or len(self._sorted) != len(self._values):
            self._sorted = sorted(self._values)
        return self._sorted

    def mean(self) -> float:
        if not self._values:
            return 0.0
        return math.fsum(self._values) / len(self._values)

    def percentile(self, p: float) -> float:
        """Linear-interpolated percentile, p in [0, 100]."""
        if not 0 <= p <= 100:
            raise ValueError("percentile must be in [0, 100]")
        if not self._values:
            return 0.0
        ordered = self._ordered()
        if len(ordered) == 1:
            return ordered[0]
        rank = (p / 100) * (len(ordered) - 1)
        low = math.floor(rank)
        high = math.ceil(rank)
        if low == high or ordered[low] == ordered[high]:
            return ordered[low]
        frac = rank - low
        # Exact at the endpoints; no one-ulp overshoot past the max.
        return ordered[low] + (ordered[high] - ordered[low]) * frac

    def max(self) -> float:
        return self._ordered()[-1] if self._values else 0.0

    def snapshot(self) -> Dict[str, float]:
        """Summary stats at a point in time (chaos/bench reporting)."""
        return {
            "count": float(self.count),
            "mean": self.mean(),
            "p50": self.percentile(50),
            "p99": self.percentile(99),
            "max": self.max(),
        }


class MetricsRegistry:
    """Named counters, gauges, and histograms, with optional labels."""

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    # A lookup of a registered metric builds nothing: one dict hit, and an
    # unlabeled name is its own key.

    def counter(self, name: str, **labels: Any) -> Counter:
        key = labeled_name(name, labels) if labels else name
        metric = self._counters.get(key)
        if metric is None:
            metric = self._counters[key] = Counter(key)
        return metric

    def gauge(self, name: str, **labels: Any) -> Gauge:
        key = labeled_name(name, labels) if labels else name
        metric = self._gauges.get(key)
        if metric is None:
            metric = self._gauges[key] = Gauge(key)
        return metric

    def histogram(self, name: str, **labels: Any) -> Histogram:
        key = labeled_name(name, labels) if labels else name
        metric = self._histograms.get(key)
        if metric is None:
            metric = self._histograms[key] = Histogram(key)
        return metric

    def counters(self, prefix: str = "") -> Dict[str, int]:
        return {
            name: c.value for name, c in sorted(self._counters.items())
            if name.startswith(prefix)
        }

    def gauges(self, prefix: str = "") -> Dict[str, float]:
        return {
            name: g.value for name, g in sorted(self._gauges.items())
            if name.startswith(prefix)
        }

    def histograms(self, prefix: str = "") -> Dict[str, Dict[str, float]]:
        """Snapshot of every matching histogram, keyed by name."""
        return {
            name: h.snapshot() for name, h in sorted(self._histograms.items())
            if name.startswith(prefix)
        }

    def snapshot(self, prefix: str = "") -> Dict[str, Dict[str, Any]]:
        """Point-in-time view of every metric whose name starts with
        ``prefix`` (empty prefix = everything)."""
        return {
            "counters": self.counters(prefix),
            "gauges": self.gauges(prefix),
            "histograms": self.histograms(prefix),
        }
