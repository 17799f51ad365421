"""End-to-end latency tracking, as the paper measures it (Section 4.3):
per record, from the creation time when produced to the input topic to the
time a read-committed consumer receives that record's result.
"""

from __future__ import annotations

from typing import Optional

from repro.metrics.registry import Histogram

CREATED_AT_HEADER = "created_at"


class LatencyTracker:
    """Collects per-record end-to-end latencies (virtual milliseconds)."""

    def __init__(self) -> None:
        self.histogram = Histogram("e2e_latency_ms")

    def record_output(self, record, received_at_ms: float) -> Optional[float]:
        """Note one output record's arrival; returns its latency, or None
        if the record carries no creation timestamp."""
        created = record.headers.get(CREATED_AT_HEADER)
        if created is None:
            return None
        latency = received_at_ms - created
        self.histogram.observe(latency)
        return latency

    def record_batch_output(self, headers_list, received_at_ms: float) -> int:
        """Columnar twin of :meth:`record_output`: observe the latency of
        every header dict carrying a creation stamp in one histogram
        extension. Returns how many observations were made. (Stage
        decomposition needs per-record stamps, which the per-batch span
        mode deliberately does not write, so subclasses inherit this
        plain end-to-end accounting.)"""
        latencies = [
            received_at_ms - created
            for headers in headers_list
            if (created := headers.get(CREATED_AT_HEADER)) is not None
        ]
        if latencies:
            self.histogram.observe_many(latencies)
        return len(latencies)

    @property
    def count(self) -> int:
        return self.histogram.count

    def mean_ms(self) -> float:
        return self.histogram.mean()

    def p99_ms(self) -> float:
        return self.histogram.percentile(99)
