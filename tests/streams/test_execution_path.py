"""Every task runs column chunks, whatever its sub-topology is made of:
vectorised operators, operators defined only per record (walked through
the chunk) and speculative reads. None of that may change what is committed, and what a
chunk reports (stage stamps, changelog timestamps, per-node spans) must be
what processing its records one by one would have reported."""

from contextlib import nullcontext

import pytest

from repro.broker.cluster import Cluster
from repro.clients.producer import Producer
from repro.config import EXACTLY_ONCE, StreamsConfig
from repro.metrics.latency import CREATED_AT_HEADER
from repro.obs import StageLatencyTracker
from repro.streams import JoinWindows, KafkaStreams, StreamsBuilder
from repro.streams.processor import Processor, ProcessorContext
from repro.streams.records import ColumnChunk, StreamRecord

from tests.streams.harness import (
    FakeTask,
    Ticker,
    drain_topic,
    init_processor,
    make_cluster,
    record_path,
    vectorised,
)


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
        (r.partition, r.key, r.value, r.timestamp)
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


def test_stage_stamps_are_copies_and_the_input_log_keeps_its_headers():
    """Traced, a record is stamped by copy: the input log's header objects
    — shared with every other reader — are as the producer sent them, and
    the stamped output reaches the sink log frozen like anyone else's."""
    cluster = make_cluster(input=1, output=1)
    cluster.enable_tracing()
    app = start(cluster, build_reduce())
    producer = Producer(cluster)
    for i in range(10):
        producer.send("input", key="a", value=1, timestamp=float(i),
                      headers={CREATED_AT_HEADER: 0.0})
    producer.flush()
    before = [dict(r.headers) for r in drain_topic(cluster, "input")]
    app.run_until_idle()
    cluster.clock.advance(50.0)
    app.run_until_idle()
    inputs = drain_topic(cluster, "input")
    assert [r.headers for r in inputs] == before
    assert not [h for r in inputs for h in r.headers if h.startswith("__t_")]
    outputs = drain_topic(cluster, "output")
    assert len(outputs) == 10
    for record in outputs:
        assert {"__t_fetched", "__t_processed", "__t_emitted"} <= set(record.headers)
        with pytest.raises(TypeError):
            record.headers["__t_processed"] = 0.0


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


def changelog_timestamps(walked):
    """Last changelog (value, timestamp) per key after three rounds, from
    the reduce's chunk routine (one bulk append per chunk) or, ``walked``,
    from its scalar ``process`` (one append per record)."""
    cluster = make_cluster(input=1, output=1)
    with record_path() if walked else nullcontext():
        app = start(cluster, build_reduce())
        producer = Producer(cluster)
        for round_no in range(3):
            for key, timestamp in (("a", 4.0), ("b", 10.0), ("a", 7.0), ("c", 2.0)):
                producer.send(
                    "input", key=key, value=1, timestamp=10.0 * round_no + timestamp
                )
            producer.flush()
            app.run_until_idle()
        cluster.clock.advance(50.0)
        app.run_until_idle()
    last = {}
    for record in drain_topic(cluster, "path-sums-changelog"):
        last[record.key] = (record.value, record.timestamp)
    return last


def test_bulk_changelog_hook_stamps_the_closing_stream_time():
    """Changelog appends carry the stream time the chunk closes at — not
    the stale pre-chunk value (0.0 for a task's first chunk, one chunk
    behind ever after) — from the bulk hook and the per-put hook alike."""
    assert changelog_timestamps(walked=False) == {
        "a": (6, 30.0), "b": (3, 30.0), "c": (3, 30.0)
    }
    assert changelog_timestamps(walked=True) == changelog_timestamps(walked=False)


# -- forward and drain ----------------------------------------------------------------


def test_forward_collects_until_drain_then_one_chunk_per_target():
    """Every child is a target: what a processor forwards waits for
    ``drain``, which hands it on as one chunk to each child in child
    order, once."""
    class Doubler(Processor):
        def process(self, record):
            self.context.forward(record)
            if record.value == 3:
                self.context.forward(record.with_value("again"))

    task = FakeTask()
    context = ProcessorContext(task, "doubler", ["first", "second"], [])
    processor = Doubler()
    processor.init(context)
    chunks = []
    task.process_chunk_at = lambda node, chunk: chunks.append((node, chunk))
    task.stream_time = 100.0
    for value in (1, 2, 3, 4):
        processor.process(StreamRecord("k", value, float(value)))
    assert chunks == []
    context.drain()
    assert [node for node, _ in chunks] == ["first", "second"]
    assert chunks[0][1] is chunks[1][1], "one chunk, shared by the children"
    assert chunks[0][1].values == [1, 2, 3, "again", 4]
    assert chunks[0][1].timestamps == [1.0, 2.0, 3.0, 3.0, 4.0]
    assert chunks[0][1].stream_times == [100.0] * 5
    context.drain()
    assert len(chunks) == 2, "a drain hands each record on once"


def test_default_process_batch_shows_each_position_its_stream_time():
    class Probe(Processor):
        def process(self, record):
            self.context.forward(
                record.with_value((record.value, self.context.stream_time))
            )

    processor, task = init_processor(Probe())
    task.stream_time = 5.0
    processor.process_batch(
        ColumnChunk(["k"] * 4, [0, 1, 2, 3], [3.0, 9.0, 7.0, 12.0], [{}] * 4)
    )
    assert [r.value for _, r in task.forwarded] == [
        (0, 5.0), (1, 9.0), (2, 9.0), (3, 12.0)
    ]
    assert processor.context.stream_time == 5.0     # published value again


# -- mixed sub-topologies ---------------------------------------------------------------


def build_mixed():
    """vectorised filter -> Ticker (scalar only, two children) ->
    vectorised filters -> vectorised count / map_values."""
    builder = StreamsBuilder()
    ticked = (
        builder.stream("input")
        .filter(lambda k, v: v % 5 != 0)
        .process(Ticker)
    )
    evens = ticked.filter(lambda k, v: v % 2 == 0)
    odds = ticked.filter(lambda k, v: v % 2 != 0)
    evens.group_by_key().count(store_name="counts").to_stream().to("output")
    odds.map_values(lambda v: v * 10).to("other")
    return builder.build()


def run_mixed(traced):
    cluster = make_cluster(input=1, output=1, other=1)
    if traced:
        cluster.enable_tracing()
    app = start(cluster, build_mixed())
    producer = Producer(cluster)
    for round_no in range(3):
        for i in range(round_no * 20, round_no * 20 + 20):
            producer.send("input", key=f"k{i % 7}", value=i, timestamp=float(i * 4))
        producer.flush()
        app.run_until_idle()
    cluster.clock.advance(50.0)
    app.run_until_idle()
    return cluster, app


def test_mixed_topology_runs_chunks_and_commits_golden_output():
    cluster, app = run_mixed(traced=False)
    (task,) = tasks_of(app)
    kinds = {vectorised(p) for p in task.processors().values()}
    assert kinds == {True, False}, "the topology should mix both kinds"
    assert cluster.metrics.counter("streams.batch_fastpath_total").value == 60

    counts, expected_counts, expected_other = {}, [], []
    for i in range(60):
        key = f"k{i % 7}"
        if i % 5 == 0:
            continue
        if i % 2 == 0:
            counts[key] = counts.get(key, 0) + 1
            expected_counts.append((0, key, counts[key], float(i * 4)))
        else:
            expected_other.append((0, key, i * 10, float(i * 4)))
    assert committed(cluster) == expected_counts
    assert committed(cluster, "other") == expected_other


def test_traced_chunks_carry_one_span_per_node():
    """``process.<node>`` spans: one per node per chunk it received, sized
    by ``records``, nested under the task's chunk span, at no virtual
    cost — the committed output is the untraced run's."""
    cluster, app = run_mixed(traced=True)
    untraced, _ = run_mixed(traced=False)
    assert committed(cluster) == committed(untraced)
    assert committed(cluster, "other") == committed(untraced, "other")
    (task,) = tasks_of(app)
    spans = [s for s in cluster.tracer.spans if s.name.startswith("process.")]
    received = {}
    for span in spans:
        node = span.name[len("process."):]
        received[node] = received.get(node, 0) + span.args["records"]
    assert set(received) == set(task.processors())
    by_kind = {}
    for name, processor in task.processors().items():
        kind = type(processor).__name__
        by_kind[kind] = by_kind.get(kind, 0) + received[name]
    assert by_kind == {
        "FusedStatelessProcessor": 60 + 48 + 48 + 24,   # filters, map_values
        "Ticker": 48,
        "StreamAggregateProcessor": 24,
        "TableToStreamProcessor": 24,
    }
    chunk_spans = [
        s for s in cluster.tracer.spans if s.name == "task.process_chunk"
    ]
    assert sum(s.args["records"] for s in chunk_spans) == 60
    for span in spans:
        assert any(
            outer.tid == span.tid
            and outer.start_ms <= span.start_ms
            and span.end_ms <= outer.end_ms
            for outer in chunk_spans
        )


def run_counts(with_ticker):
    cluster = make_cluster(input=2, output=2)
    builder = StreamsBuilder()
    stream = builder.stream("input")
    if with_ticker:
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
    fastpath = cluster.metrics.counter("streams.batch_fastpath_total").value
    return committed(cluster), fastpath


def test_punctuator_task_runs_chunks_and_commits_the_same_output():
    """A scalar-only ``Ticker`` ahead of the count: the task still runs
    every record in chunks, and commits what the count alone commits."""
    plain_out, plain_fast = run_counts(False)
    out, fast = run_counts(True)
    assert plain_fast == fast == 40
    assert out == plain_out


def test_stream_stream_join_task_runs_chunks():
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
    assert not all(vectorised(p) for p in task.processors().values())
    assert cluster.metrics.counter("streams.batch_fastpath_total").value == 4
    assert committed(cluster) == [(0, "ad1", ("click-A", "imp-A"), 50.0)]


def test_speculative_task_runs_chunks():
    cluster = make_cluster(input=1, output=1)
    app = start(cluster, build_reduce(), speculative=True)
    producer = Producer(cluster)
    for i in range(5):
        producer.send("input", key="a", value=1, timestamp=float(i))
    producer.flush()
    assert app.step() == 5           # processed, commit interval not yet up
    (task,) = tasks_of(app)
    assert cluster.metrics.counter("streams.batch_fastpath_total").value == 5
    # Commit dependencies come off the fetched batch: one offset span for
    # the (non-transactional, always clean) producer it held.
    assert list(task.speculative_deps.values()) == [[0, 4]]
    assert task.speculation_status() == "clean"
