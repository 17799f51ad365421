"""Metrics: counters, histograms, end-to-end latency, bench reporting."""

from repro.metrics.registry import Counter, Gauge, Histogram, MetricsRegistry
from repro.metrics.latency import LatencyTracker
from repro.metrics.reporter import format_table

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "LatencyTracker",
    "format_table",
]
