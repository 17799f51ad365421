"""Metrics primitives and the latency tracker."""

from unittest import mock

import pytest

from repro.log.record import Record
from repro.metrics.latency import CREATED_AT_HEADER, LatencyTracker
from repro.metrics.registry import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    labeled_name,
)
from repro.metrics.reporter import format_series, format_table


class TestCounter:
    def test_increment(self):
        counter = Counter("c")
        counter.increment()
        counter.increment(4)
        assert counter.value == 5

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            Counter("c").increment(-1)


class TestGauge:
    def test_set_and_add(self):
        gauge = Gauge("g")
        assert gauge.value == 0.0
        gauge.set(5.0)
        gauge.add(2.5)
        gauge.add(-10.0)                 # gauges go down, unlike counters
        assert gauge.value == -2.5

    def test_reset(self):
        gauge = Gauge("g")
        gauge.set(9.0)
        gauge.reset()
        assert gauge.value == 0.0


class TestLabels:
    def test_labeled_name_sorts_keys(self):
        assert labeled_name("fetched", {"topic": "a", "partition": 0}) == (
            "fetched{partition=0,topic=a}"
        )
        assert labeled_name("fetched", {}) == "fetched"

    def test_label_variants_are_distinct_metrics(self):
        registry = MetricsRegistry()
        registry.counter("fetched", topic="a").increment()
        registry.counter("fetched", topic="b").increment(2)
        registry.counter("fetched").increment(4)
        assert registry.counters() == {
            "fetched": 4,
            "fetched{topic=a}": 1,
            "fetched{topic=b}": 2,
        }

    def test_same_labels_same_instance_regardless_of_kwarg_order(self):
        registry = MetricsRegistry()
        first = registry.histogram("lat", topic="t", partition=1)
        second = registry.histogram("lat", partition=1, topic="t")
        assert first is second

    def test_labeled_gauges_listed_and_reset(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("depth", task="0_1")
        gauge.set(3.0)
        assert registry.gauges() == {"depth{task=0_1}": 3.0}
        registry.reset()
        assert registry.gauges() == {"depth{task=0_1}": 0.0}
        assert registry.gauge("depth", task="0_1") is gauge


class TestHistogram:
    def test_empty_histogram(self):
        hist = Histogram("h")
        assert hist.count == 0
        assert hist.mean() == 0.0
        assert hist.percentile(99) == 0.0

    def test_mean_and_percentiles(self):
        hist = Histogram("h")
        for v in range(1, 101):
            hist.observe(float(v))
        assert hist.mean() == pytest.approx(50.5)
        assert hist.percentile(50) == pytest.approx(50.5)
        assert hist.percentile(0) == 1.0
        assert hist.percentile(100) == 100.0
        assert hist.min() == 1.0 and hist.max() == 100.0

    def test_percentile_bounds_validated(self):
        with pytest.raises(ValueError):
            Histogram("h").percentile(101)

    def test_single_value(self):
        hist = Histogram("h")
        hist.observe(7.0)
        assert hist.percentile(50) == 7.0

    def test_cached_sort_invalidated_by_observe(self):
        """percentile() caches the sorted view; new observations must
        invalidate it (the original bug re-sorted on every call; the fix
        must not go stale instead)."""
        hist = Histogram("h")
        hist.observe(10.0)
        assert hist.percentile(100) == 10.0
        hist.observe(2.0)               # arrives out of order
        assert hist.percentile(100) == 10.0
        assert hist.percentile(0) == 2.0
        assert hist.min() == 2.0 and hist.max() == 10.0
        hist.observe(20.0)
        assert hist.max() == 20.0

    def test_cached_sort_invalidated_by_observe_many(self):
        hist = Histogram("h")
        hist.observe_many([3.0, 1.0])
        assert hist.max() == 3.0
        hist.observe_many([])
        hist.observe_many([9.0, 0.5])
        assert (hist.min(), hist.max(), hist.count) == (0.5, 9.0, 4)

    def test_cached_sort_invalidated_by_reset(self):
        hist = Histogram("h")
        hist.observe(5.0)
        assert hist.max() == 5.0
        hist.reset()
        assert hist.count == 0 and hist.max() == 0.0
        hist.observe(1.0)
        assert hist.percentile(50) == 1.0


class TestRegistry:
    def test_same_name_same_instance(self):
        registry = MetricsRegistry()
        registry.counter("a").increment()
        registry.counter("a").increment()
        assert registry.counters() == {"a": 2}

    def test_histograms_registered(self):
        registry = MetricsRegistry()
        registry.histogram("lat").observe(1.0)
        assert registry.histogram("lat").count == 1

    def test_counter_reset(self):
        counter = Counter("c")
        counter.increment(3)
        counter.reset()
        assert counter.value == 0

    def test_histogram_snapshot(self):
        hist = Histogram("h")
        for v in (1.0, 2.0, 3.0):
            hist.observe(v)
        snap = hist.snapshot()
        assert snap["count"] == 3.0
        assert snap["mean"] == pytest.approx(2.0)
        assert snap["p50"] == pytest.approx(2.0)
        assert snap["max"] == 3.0

    def test_histograms_snapshot_all(self):
        registry = MetricsRegistry()
        registry.histogram("a").observe(5.0)
        snaps = registry.histograms()
        assert snaps["a"]["count"] == 1.0

    def test_reset_keeps_references_valid(self):
        registry = MetricsRegistry()
        counter = registry.counter("c")
        hist = registry.histogram("h")
        counter.increment(7)
        hist.observe(1.0)
        registry.reset()
        assert counter.value == 0 and hist.count == 0
        # Held references still feed the same registry entries.
        counter.increment()
        hist.observe(2.0)
        assert registry.counters()["c"] == 1
        assert registry.histograms()["h"]["count"] == 1.0

    @pytest.mark.parametrize("kind", [Counter, Gauge, Histogram])
    def test_a_lookup_hit_builds_no_metric(self, kind):
        """Only the first lookup of a name constructs a metric; every
        later one, labeled or not, returns that same object and runs no
        ``__init__`` (constructions counted through a test-side patch)."""
        registry = MetricsRegistry()
        lookup = getattr(registry, kind.__name__.lower())
        built = []
        init = kind.__init__

        def counting_init(self, name):
            built.append(name)
            init(self, name)

        with mock.patch.object(kind, "__init__", counting_init):
            bare = lookup("m")
            labeled = lookup("m", topic="t", partition=3)
            assert built == ["m", "m{partition=3,topic=t}"]
            for _ in range(3):
                assert lookup("m") is bare
                assert lookup("m", partition=3, topic="t") is labeled
            assert len(built) == 2
        assert (bare.name, labeled.name) == ("m", "m{partition=3,topic=t}")


class TestScopedSnapshots:
    """Prefix-scoped snapshot/reset: grid cells sharing one process can
    read and zero only their own counters between runs."""

    def make_registry(self):
        registry = MetricsRegistry()
        registry.counter("client.gray_demotions").increment(2)
        registry.counter("consumer.hedged_fetches").increment(5)
        registry.gauge("client.inflight").set(3.0)
        registry.histogram("client.rpc_ms").observe(1.5)
        registry.histogram("broker.append_ms").observe(9.0)
        return registry

    def test_snapshot_filters_by_prefix(self):
        registry = self.make_registry()
        snap = registry.snapshot("client.")
        assert snap["counters"] == {"client.gray_demotions": 2}
        assert snap["gauges"] == {"client.inflight": 3.0}
        assert list(snap["histograms"]) == ["client.rpc_ms"]

    def test_empty_prefix_snapshots_everything(self):
        registry = self.make_registry()
        snap = registry.snapshot()
        assert set(snap["counters"]) == {
            "client.gray_demotions",
            "consumer.hedged_fetches",
        }
        assert set(snap["histograms"]) == {"client.rpc_ms", "broker.append_ms"}

    def test_scoped_reset_spares_other_prefixes(self):
        registry = self.make_registry()
        registry.reset("client.")
        assert registry.counters()["client.gray_demotions"] == 0
        assert registry.gauges()["client.inflight"] == 0.0
        assert registry.histograms()["client.rpc_ms"]["count"] == 0.0
        # Untouched prefixes keep their readings.
        assert registry.counters()["consumer.hedged_fetches"] == 5
        assert registry.histograms()["broker.append_ms"]["count"] == 1.0

    def test_scoped_context_manager_isolates_a_cell(self):
        registry = self.make_registry()
        with registry.scoped("client.") as scoped:
            assert scoped is registry
            assert registry.counters()["client.gray_demotions"] == 0
            registry.counter("client.gray_demotions").increment()
        # Readings inside the block reflect only work done there.
        assert registry.counters()["client.gray_demotions"] == 1
        assert registry.counters()["consumer.hedged_fetches"] == 5


class TestLatencyTracker:
    def test_records_latency_from_header(self):
        tracker = LatencyTracker()
        record = Record(key="k", value=1, headers={CREATED_AT_HEADER: 100.0})
        assert tracker.record_output(record, received_at_ms=150.0) == 50.0
        assert tracker.count == 1
        assert tracker.mean_ms() == 50.0

    def test_ignores_records_without_header(self):
        tracker = LatencyTracker()
        assert tracker.record_output(Record(key="k", value=1), 10.0) is None
        assert tracker.count == 0

    def test_percentiles(self):
        tracker = LatencyTracker()
        for latency in (10.0, 20.0, 30.0):
            record = Record(key="k", value=1, headers={CREATED_AT_HEADER: 0.0})
            tracker.record_output(record, latency)
        assert tracker.p50_ms() == 20.0
        assert tracker.p99_ms() <= 30.0


class TestReporter:
    def test_format_table_alignment(self):
        text = format_table(["name", "value"], [["a", 1], ["bb", 22]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert "name" in lines[0] and "value" in lines[0]
        assert set(lines[1]) <= {"-", " "}

    def test_format_numbers(self):
        text = format_table(["x"], [[1234.5], [0.1234], [42.0]])
        assert "1,235" in text or "1,234" in text
        assert "0.123" in text

    def test_format_series(self):
        text = format_series("t", [1, 2], {"a": [10, 20], "b": [30, 40]})
        assert "t" in text and "a" in text and "b" in text
        assert "40" in text
