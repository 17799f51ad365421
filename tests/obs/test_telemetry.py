"""TelemetryReporter: virtual-time sampling of metrics registries."""

import pytest

from repro.metrics.registry import MetricsRegistry
from repro.obs.telemetry import TelemetryReporter
from repro.sim.clock import SimClock


def make_reporter(interval_ms=100.0):
    clock = SimClock()
    registry = MetricsRegistry()
    reporter = TelemetryReporter(clock, {"app": registry}, interval_ms=interval_ms)
    return clock, registry, reporter


class TestSampling:
    def test_interval_must_be_positive(self):
        with pytest.raises(ValueError):
            TelemetryReporter(SimClock(), {}, interval_ms=0.0)

    def test_poll_samples_on_interval(self):
        clock, registry, reporter = make_reporter(interval_ms=100.0)
        registry.counter("n").increment()
        assert reporter.poll() == 0          # actor protocol: never "work"
        assert len(reporter.samples) == 1    # first poll samples immediately
        reporter.poll()                      # same instant: interval not due
        assert len(reporter.samples) == 1
        clock.advance(99.0)
        reporter.poll()
        assert len(reporter.samples) == 1
        clock.advance(1.0)
        reporter.poll()
        assert len(reporter.samples) == 2

    def test_sample_contents(self):
        clock, registry, reporter = make_reporter()
        registry.counter("produced").increment(5)
        registry.gauge("depth").set(3.0)
        registry.histogram("lat").observe(2.0)
        clock.advance(10.0)
        sample = reporter.sample()
        assert sample["ts"] == 10.0
        app = sample["registries"]["app"]
        assert app["counters"] == {"produced": 5}
        assert app["gauges"] == {"depth": 3.0}
        assert app["histograms"]["lat"]["count"] == 1.0

    def test_samples_are_point_in_time(self):
        """Later mutations must not rewrite earlier samples."""
        clock, registry, reporter = make_reporter()
        counter = registry.counter("n")
        counter.increment()
        reporter.sample()
        counter.increment(9)
        clock.advance(100.0)
        reporter.sample()
        values = [s["registries"]["app"]["counters"]["n"] for s in reporter.samples]
        assert values == [1, 10]


class TestSeries:
    def test_counter_and_histogram_series(self):
        clock, registry, reporter = make_reporter()
        counter = registry.counter("n")
        hist = registry.histogram("lat")
        for step in range(3):
            counter.increment(step + 1)
            hist.observe(float(step))
            reporter.sample()
            clock.advance(50.0)
        assert reporter.series("app", "counters", "n") == [
            (0.0, 1), (50.0, 3), (100.0, 6)
        ]
        p99 = reporter.series("app", "histograms", "lat", field="p99")
        assert len(p99) == 3 and p99[-1][1] == pytest.approx(1.98)

    def test_unknown_metric_is_empty(self):
        _, _, reporter = make_reporter()
        reporter.sample()
        assert reporter.series("app", "counters", "missing") == []
        assert reporter.series("nope", "counters", "n") == []

class TestRingBuffer:
    def test_max_samples_must_be_positive(self):
        with pytest.raises(ValueError):
            TelemetryReporter(SimClock(), {}, max_samples=0)

    def test_oldest_samples_are_evicted(self):
        clock = SimClock()
        registry = MetricsRegistry()
        reporter = TelemetryReporter(
            clock, {"app": registry}, interval_ms=10.0, max_samples=3
        )
        for _ in range(5):
            reporter.sample()
            clock.advance(10.0)
        assert len(reporter.samples) == 3
        assert reporter.samples_taken == 5           # total, pre-eviction
        assert [s["ts"] for s in reporter.samples] == [20.0, 30.0, 40.0]

    def test_unbounded_with_none(self):
        clock = SimClock()
        reporter = TelemetryReporter(
            clock, {}, interval_ms=10.0, max_samples=None
        )
        for _ in range(10):
            reporter.sample()
            clock.advance(10.0)
        assert len(reporter.samples) == 10

    def test_series_since_ms(self):
        clock, registry, reporter = make_reporter()
        counter = registry.counter("n")
        for _ in range(4):
            counter.increment()
            reporter.sample()
            clock.advance(50.0)
        full = reporter.series("app", "counters", "n")
        assert [ts for ts, _ in full] == [0.0, 50.0, 100.0, 150.0]
        tail = reporter.series("app", "counters", "n", since_ms=100.0)
        assert tail == [(100.0, 3), (150.0, 4)]
