"""Virtual-time telemetry sampling.

:class:`TelemetryReporter` is a Driver actor that snapshots one or more
:class:`~repro.metrics.registry.MetricsRegistry` instances on a fixed
virtual-time interval, turning point-in-time counters/gauges/histograms
into time series. Samples are taken inside ``poll()`` at actor safe points
(the same housekeeping pattern as the chaos controller's invariant checks)
rather than via wake timers, so an otherwise-idle simulation still
terminates: the reporter never *creates* future work, it only observes at
moments when the driver was running anyway.

Sample history is a ring buffer: ``max_samples`` bounds memory over long
chaos runs (a deque drops the oldest sample once full); pass ``None`` for
the old unbounded behaviour. The :meth:`series` view is the SLO engine's
query surface — ``since_ms`` restricts it to a trailing window, which is
how burn rates read "the last N milliseconds" without rescanning history.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Dict, List, Optional, Tuple

from repro.sim.clock import SimClock

#: Default ring-buffer capacity: at the chaos runs' 20ms sampling interval
#: this holds ~80 virtual seconds — far past any scenario horizon — while
#: bounding an unattended run's memory.
DEFAULT_MAX_SAMPLES = 4096


class TelemetryReporter:
    """Samples metrics registries into virtual-time series.

    ``registries`` maps a label (e.g. ``"cluster"``, ``"app"``) to a
    registry; each sample records every registry's counters, gauges, and
    histogram snapshots under that label.
    """

    def __init__(
        self,
        clock: SimClock,
        registries: Dict[str, Any],
        interval_ms: float = 1000.0,
        name: str = "telemetry",
        max_samples: Optional[int] = DEFAULT_MAX_SAMPLES,
    ) -> None:
        if interval_ms <= 0:
            raise ValueError("interval_ms must be positive")
        if max_samples is not None and max_samples <= 0:
            raise ValueError("max_samples must be positive (or None)")
        self.clock = clock
        self.name = name
        self.interval_ms = interval_ms
        self.max_samples = max_samples
        self.registries = dict(registries)
        self.samples: Deque[Dict[str, Any]] = deque(maxlen=max_samples)
        self.samples_taken = 0      # total, including any evicted ones
        self._last_sample_ms = float("-inf")

    # -- Driver actor protocol ----------------------------------------------------------

    def poll(self) -> int:
        if self.clock.now - self._last_sample_ms >= self.interval_ms:
            self.sample()
        return 0

    # -- sampling ----------------------------------------------------------------------

    def sample(self) -> Dict[str, Any]:
        """Take one sample now, regardless of the interval."""
        sample: Dict[str, Any] = {"ts": self.clock.now, "registries": {}}
        for label in sorted(self.registries):
            registry = self.registries[label]
            sample["registries"][label] = {
                "counters": dict(registry.counters()),
                "gauges": dict(getattr(registry, "gauges", lambda: {})()),
                "histograms": {
                    name: dict(snap)
                    for name, snap in registry.histograms().items()
                },
            }
        self.samples.append(sample)
        self.samples_taken += 1
        self._last_sample_ms = self.clock.now
        return sample

    # -- views -------------------------------------------------------------------------

    def series(
        self,
        registry_label: str,
        kind: str,
        metric: str,
        field: str = "mean",
        since_ms: Optional[float] = None,
    ) -> List[Tuple[float, float]]:
        """One metric as ``(ts, value)`` pairs across retained samples.

        ``kind`` is ``"counters"``, ``"gauges"``, or ``"histograms"``; for
        histograms ``field`` picks a snapshot stat (mean/p50/p99/...).
        ``since_ms`` keeps only samples with ``ts >= since_ms`` — the SLO
        engine's trailing burn-rate windows.
        """
        points: List[Tuple[float, float]] = []
        for sample in self.samples:
            if since_ms is not None and sample["ts"] < since_ms:
                continue
            registry = sample["registries"].get(registry_label)
            if registry is None:
                continue
            value = registry[kind].get(metric)
            if value is None:
                continue
            if kind == "histograms":
                value = value[field]
            points.append((sample["ts"], value))
        return points
