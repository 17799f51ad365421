"""Tracer core: spans, events, trace ids, views, cheap-when-off."""

from repro.obs.tracer import NOOP_TRACER, Span, Tracer, _NOOP_HANDLE
from repro.sim.clock import SimClock


def make_tracer(enabled=True):
    clock = SimClock()
    return Tracer(clock, enabled=enabled), clock


class TestDisabled:
    def test_off_by_default(self):
        assert Tracer(SimClock()).enabled is False

    def test_disabled_records_nothing(self):
        tracer, _ = make_tracer(enabled=False)
        with tracer.begin("op", "p", "t"):
            pass
        tracer.event("ev", "p", "t")
        assert len(tracer) == 0

    def test_disabled_begin_returns_shared_noop_handle(self):
        """The hot path allocates nothing while tracing is off."""
        tracer, _ = make_tracer(enabled=False)
        handle = tracer.begin("op", "p", "t")
        assert handle is _NOOP_HANDLE
        handle.add(ignored=1)           # must be a silent no-op
        handle.end()

    def test_shared_noop_tracer_disabled(self):
        assert NOOP_TRACER.enabled is False
        assert NOOP_TRACER.now() == 0.0

    def test_empty_tracer_survives_wiring(self):
        """Tracer defines __len__, so a span-less tracer is falsy — the
        Driver plumbing must check None, not truthiness, or an enabled
        tracer gets silently swapped for the no-op before the first span
        is recorded. A Cluster always builds its own tracer on its own
        clock."""
        from repro.broker.cluster import Cluster
        from repro.sim.scheduler import Driver

        tracer, clock = make_tracer()
        assert not tracer.spans and not tracer     # falsy while empty
        assert Driver(clock, tracer=tracer).tracer is tracer
        cluster = Cluster(num_brokers=1)
        assert isinstance(cluster.tracer, Tracer)
        assert cluster.tracer.clock is cluster.clock


class TestSpans:
    def test_span_covers_clock_interval(self):
        tracer, clock = make_tracer()
        clock.advance(5.0)
        with tracer.begin("op", "broker-0", "produce", category="rpc") as h:
            clock.advance(2.5)
            h.add(result=7)
        (span,) = tracer.spans
        assert span.start_ms == 5.0 and span.end_ms == 7.5
        assert span.duration_ms == 2.5
        assert not span.is_instant
        assert span.args == {"result": 7}

    def test_end_is_idempotent(self):
        tracer, clock = make_tracer()
        handle = tracer.begin("op", "p", "t")
        clock.advance(1.0)
        handle.end()
        clock.advance(1.0)
        handle.end()                     # second end must not move end_ms
        assert tracer.spans[0].end_ms == 1.0

    def test_event_is_instant(self):
        tracer, clock = make_tracer()
        clock.advance(3.0)
        tracer.event("ev", "p", "t", category="fault", detail="x")
        (span,) = tracer.spans
        assert span.is_instant and span.start_ms == span.end_ms == 3.0
        assert span.args == {"detail": "x"}

    def test_open_span_has_zero_duration(self):
        tracer, clock = make_tracer()
        tracer.begin("op", "p", "t")
        clock.advance(9.0)
        assert tracer.spans[0].end_ms is None
        assert tracer.spans[0].duration_ms == 0.0

    def test_to_dict_stable_shape(self):
        span = Span("n", "c", "p", "t", 1.0, 2.0, {"a": 1})
        assert span.to_dict() == {
            "name": "n", "cat": "c", "pid": "p", "tid": "t",
            "ts": 1.0, "dur": 1.0, "ph": "X", "args": {"a": 1},
        }


class TestTraceIds:
    def test_sequential_and_deterministic(self):
        tracer, _ = make_tracer()
        assert [tracer.new_trace_id() for _ in range(3)] == [
            "t000001", "t000002", "t000003"
        ]

    def test_reset_keeps_counter_and_enabled(self):
        tracer, _ = make_tracer()
        tracer.new_trace_id()
        tracer.event("ev", "p", "t")
        tracer.reset()
        assert len(tracer) == 0
        assert tracer.enabled is True
        assert tracer.new_trace_id() == "t000002"


class TestViews:
    def test_by_name_category_trace(self):
        tracer, _ = make_tracer()
        tracer.event("a", "p", "t", category="rpc", trace="t000001")
        tracer.event("b", "p", "t", category="rpc")
        tracer.event("a", "p", "t", category="task", trace="t000002")
        assert len(tracer.by_name("a")) == 2
        assert len(tracer.by_category("rpc")) == 2
        assert [s.name for s in tracer.by_trace("t000001")] == ["a"]
