"""Which path a task runs on is a fact about its sub-topology: chunks when
every processor takes them, else records — with the cause on the task and
every record counted. Neither path may change what is committed, and what
the chunk path reports (stage stamps, changelog timestamps) must be what
the record path would have reported."""

from contextlib import nullcontext

import pytest

from repro.broker.cluster import Cluster
from repro.clients.producer import Producer
from repro.config import EXACTLY_ONCE, StreamsConfig
from repro.metrics.latency import CREATED_AT_HEADER
from repro.obs import StageLatencyTracker
from repro.streams import JoinWindows, KafkaStreams, StreamsBuilder

from tests.streams.harness import Ticker, drain_topic, make_cluster, record_path


def build_reduce():
    builder = StreamsBuilder()
    (
        builder.stream("input")
        .group_by_key()
        .reduce(lambda agg, v: agg + v, store_name="sums")
        .to_stream()
        .to("output")
    )
    return builder.build()


def start(cluster, topology, **config):
    app = KafkaStreams(
        topology,
        cluster,
        StreamsConfig(
            application_id="path",
            processing_guarantee=EXACTLY_ONCE,
            commit_interval_ms=20.0,
            **config,
        ),
    )
    app.start(1)
    return app


def tasks_of(app):
    return [task for instance in app.instances for task in instance.tasks.values()]


def committed(cluster, topic="output"):
    return [
        (r.headers["__partition"], r.key, r.value, r.timestamp)
        for r in drain_topic(cluster, topic)
    ]


# -- stage decomposition ------------------------------------------------------


def test_stage_stamps_survive_chunk_execution():
    """Traced, chunk-executed reduce: every committed output carries the
    full set of stage stamps, and the stages telescope to the e2e mean."""
    cluster = Cluster(num_brokers=3, seed=7)        # latency charged
    cluster.enable_tracing()
    cluster.create_topic("input", 2)
    cluster.create_topic("output", 2)
    app = start(cluster, build_reduce())
    producer = Producer(cluster)
    for i in range(60):
        producer.send(
            "input", key=f"k{i % 5}", value=1, timestamp=float(i),
            headers={CREATED_AT_HEADER: cluster.clock.now},
        )
        if i % 20 == 19:
            producer.flush()
            app.run_until_idle()
    cluster.clock.advance(50.0)
    app.run_until_idle()

    assert all(task.batch_capable for task in tasks_of(app))
    tracker = StageLatencyTracker()
    outputs = drain_topic(cluster, "output")
    for record in outputs:
        tracker.record_output(record, cluster.clock.now)
    assert len(outputs) == 60
    assert tracker.stamped_count == len(outputs)
    breakdown = tracker.breakdown()
    assert all(ms >= 0.0 for ms in breakdown.values())
    assert breakdown["produce"] > 0.0 and breakdown["commit"] > 0.0
    assert tracker.stage_sum_ms() == pytest.approx(tracker.mean_ms())


def test_untraced_chunks_carry_no_stage_stamps():
    cluster = make_cluster(input=1, output=1)
    app = start(cluster, build_reduce())
    producer = Producer(cluster)
    producer.send("input", key="a", value=1, timestamp=1.0)
    producer.flush()
    app.run_until_idle()
    cluster.clock.advance(50.0)
    app.run_until_idle()
    (record,) = drain_topic(cluster, "output")
    assert not [h for h in record.headers if h.startswith("__t_")]


# -- changelog timestamps ----------------------------------------------------------


def changelog_timestamps(forced_record_path):
    """Last changelog (value, timestamp) per key after three rounds; every
    record of a round shares one timestamp, so the record path's
    per-record stream time and the chunk's closing stream time are the
    same number."""
    cluster = make_cluster(input=1, output=1)
    with record_path() if forced_record_path else nullcontext():
        app = start(cluster, build_reduce())
        producer = Producer(cluster)
        for round_no in range(3):
            for key in ("a", "b", "a", "c"):
                producer.send(
                    "input", key=key, value=1, timestamp=10.0 * (round_no + 1)
                )
            producer.flush()
            app.run_until_idle()
        cluster.clock.advance(50.0)
        app.run_until_idle()
    (task,) = tasks_of(app)
    assert task.batch_capable == (task.fallback_reason is None)
    last = {}
    for record in drain_topic(cluster, "path-sums-changelog"):
        last[record.key] = (record.value, record.timestamp)
    return task.batch_capable, last


def test_bulk_changelog_hook_stamps_the_closing_stream_time():
    """The chunk path's changelog appends carry the stream time the chunk
    closes at — not the stale pre-chunk value (0.0 for a task's first
    chunk, one chunk behind ever after)."""
    took_chunks, by_chunks = changelog_timestamps(forced_record_path=False)
    took_chunks_ref, by_records = changelog_timestamps(forced_record_path=True)
    assert took_chunks and not took_chunks_ref
    assert by_records == {"a": (6, 30.0), "b": (3, 30.0), "c": (3, 30.0)}
    assert by_chunks == by_records


# -- fallback is not silent -------------------------------------------------------


def run_counts(with_punctuator):
    cluster = make_cluster(input=2, output=2)
    builder = StreamsBuilder()
    stream = builder.stream("input")
    if with_punctuator:
        stream = stream.process(Ticker)
    stream.group_by_key().count(store_name="counts").to_stream().to("output")
    app = start(cluster, builder.build())
    producer = Producer(cluster)
    for i in range(40):
        producer.send("input", key=f"k{i % 7}", value=i, timestamp=float(i))
    producer.flush()
    app.run_until_idle()
    cluster.clock.advance(50.0)
    app.run_until_idle()
    metrics = cluster.metrics
    return (
        committed(cluster),
        {task.fallback_reason for task in tasks_of(app)},
        metrics.counter("streams.batch_fastpath_total").value,
        metrics.counter("streams.batch_fallback_total").value,
    )


def test_punctuator_task_names_its_fallback_and_commits_the_same_output():
    chunk_out, chunk_reasons, chunk_fast, chunk_fallback = run_counts(False)
    assert chunk_reasons == {None}
    assert (chunk_fast, chunk_fallback) == (40, 0)

    out, reasons, fast, fallback = run_counts(True)
    assert reasons == {"punctuator"}
    assert (fast, fallback) == (0, 40)
    assert out == chunk_out


def test_stream_stream_join_task_names_the_processor_that_forces_fallback():
    cluster = make_cluster(clicks=1, impressions=1, output=1)
    builder = StreamsBuilder()
    builder.stream("clicks").join(
        builder.stream("impressions"),
        lambda click, impression: (click, impression),
        JoinWindows.of(100.0).grace(50.0),
    ).to("output")
    app = start(cluster, builder.build())
    producer = Producer(cluster)
    producer.send("impressions", key="ad1", value="imp-A", timestamp=10.0)
    producer.send("impressions", key="ad2", value="imp-B", timestamp=20.0)
    producer.send("clicks", key="ad1", value="click-A", timestamp=50.0)
    producer.send("clicks", key="ad2", value="click-late", timestamp=500.0)
    producer.flush()
    app.run_until_idle()
    cluster.clock.advance(50.0)
    app.run_until_idle()

    (task,) = tasks_of(app)
    assert not task.batch_capable
    prefix, suffix = "processor ", " is not batch_aware"
    reason = task.fallback_reason
    assert reason.startswith(prefix) and reason.endswith(suffix)
    culprit = task.processors()[reason[len(prefix):-len(suffix)]]
    assert not culprit.batch_aware
    metrics = cluster.metrics
    assert metrics.counter("streams.batch_fallback_total").value == 4
    assert metrics.counter("streams.batch_fastpath_total").value == 0
    assert committed(cluster) == [(0, "ad1", ("click-A", "imp-A"), 50.0)]


def test_speculative_task_falls_back():
    cluster = make_cluster(input=1, output=1)
    app = start(cluster, build_reduce(), speculative=True)
    producer = Producer(cluster)
    producer.send("input", key="a", value=1, timestamp=1.0)
    producer.flush()
    app.run_until_idle()
    (task,) = tasks_of(app)
    assert task.fallback_reason == "speculative"
    assert not task.batch_capable
