"""Section 5's completeness path end to end: table join -> re-key ->
windowed count with grace -> suppress, through the application runtime."""

import hashlib

import pytest

from repro.clients.producer import Producer
from repro.config import EXACTLY_ONCE, StreamsConfig
from repro.streams import KafkaStreams, StreamsBuilder
from repro.streams.suppress import Suppressed
from repro.streams.windows import TimeWindows, Window, Windowed
from repro.util import partition_for

from tests.streams.harness import drain_topic, make_cluster, vectorised

USERS = 12
SEGMENTS = 3
#: sha1 of ``repr`` of every ``counts`` row as (partition, offset, repr(key),
#: value), in drain order; recorded at 7226411, the parent of the cached hash.
RESULT_ROWS_SHA1 = "f02b74c1522e2cab14ab95d9acf073a80ad114c3"


def build_join_count_suppress():
    builder = StreamsBuilder()
    profiles = builder.table("profiles", store_name="profiles")
    (
        builder.stream("events")
        .join(profiles, lambda event, profile: profile["segment"])
        .select_key(lambda user, segment: segment)
        .group_by_key()
        .windowed_by(TimeWindows.of(25.0).grace(50.0))
        .count(store_name="segment-counts")
        .suppress(Suppressed.until_window_closes())
        .to_stream()
        .to("counts")
    )
    return builder.build()


@pytest.fixture(scope="module")
def completeness_run():
    """The path on two instances, run once for the tests below: yields
    ``(cluster, app, expected)`` with ``expected`` the offline counts."""
    cluster = make_cluster(events=4, profiles=4, counts=4)
    app = KafkaStreams(
        build_join_count_suppress(),
        cluster,
        StreamsConfig(
            application_id="completeness",
            processing_guarantee=EXACTLY_ONCE,
            commit_interval_ms=20.0,
        ),
    )
    app.start(2)
    producer = Producer(cluster)
    for user in range(USERS):
        producer.send("profiles", key=f"u{user}",
                      value={"segment": f"s{user % SEGMENTS}"}, timestamp=0.0)
    producer.flush()
    app.run_until_idle()

    # Paced in 20 ms slices: a chunk is one fetched batch, so the four
    # joining tasks reorder the repartition topic by at most a slice's
    # event-time span, well inside the 50 ms grace.
    expected = {}
    for i in range(400):
        user, timestamp = i % USERS, float(i)
        producer.send("events", key=f"u{user}", value=i, timestamp=timestamp)
        start = timestamp // 25 * 25
        cell = Windowed(f"s{user % SEGMENTS}", Window(start, start + 25))
        expected[cell] = expected.get(cell, 0) + 1
        if i % 20 == 19:
            producer.flush()
            app.run_until_idle()
    # One far-future event per segment closes every real window.
    for user in range(SEGMENTS):
        producer.send("events", key=f"u{user}", value=-1, timestamp=10_000.0)
    producer.flush()
    for _ in range(3):
        cluster.clock.advance(100.0)
        app.run_until_idle()
    yield cluster, app, expected
    app.close()


def test_every_task_of_the_completeness_path_is_chunk_native(completeness_run):
    """Two instances: every processor of every task has a vectorised
    ``process_batch``, and the final counts are still the offline counts."""
    cluster, app, expected = completeness_run
    tasks = [task for instance in app.instances for task in instance.tasks.values()]
    assert len(tasks) == 8
    assert all(len(instance.tasks) == 4 for instance in app.instances)
    # Every operator on this path has a column routine of its own: none is
    # walked record by record through Processor.process_batch.
    assert all(
        vectorised(processor)
        for task in tasks
        for processor in task.processors().values()
    )
    metrics = cluster.metrics
    assert sum(metrics.counters("streams.batch_fastpath_total").values()) > 400
    assert app.metric_total("dropped_records") == 0
    results = {r.key: r.value for r in drain_topic(cluster, "counts")}
    assert results == expected


def test_result_keys_keep_their_repr_partition_and_emission_order(completeness_run):
    """A windowed key caches its hash; nothing a reader of the sink can see
    may move with that: how a key prints (the sink partitioner hashes the
    ``repr``), which partition each result lands in, and the order
    ``suppress`` emits them in (their offsets) — the last pinned by a
    digest recorded before the hash was cached."""
    cluster, _app, expected = completeness_run
    rows = [
        (r.partition, r.offset, repr(r.key), r.value)
        for r in drain_topic(cluster, "counts")
    ]
    assert len(rows) == len(expected) == 48
    assert rows[0][2] == "Windowed('s0', [0.0, 25.0))"
    for partition, _offset, key_repr, _value in rows:
        assert partition == partition_for(key_repr, 4)
    assert hashlib.sha1(repr(rows).encode()).hexdigest() == RESULT_ROWS_SHA1


A_0_25 = Windowed("a", Window(0.0, 25.0))


def suppressed_counts_across_a_loss(before, after):
    """Output rows ``(key, value)`` of a one-instance windowed count (25 ms
    windows, 10 ms grace) behind ``suppress(until_window_closes())``: once
    the ``(key, timestamp)`` records ``before`` are processed and committed,
    and again after the instance is lost, replaced, and ``after`` processed
    too."""
    cluster = make_cluster(input=1, output=1)
    builder = StreamsBuilder()
    (
        builder.stream("input")
        .group_by_key()
        .windowed_by(TimeWindows.of(25.0).grace(10.0))
        .count(store_name="wcounts")
        .suppress(Suppressed.until_window_closes())
        .to_stream()
        .to("output")
    )
    app = KafkaStreams(
        builder.build(),
        cluster,
        StreamsConfig(
            application_id="suppress-loss",
            processing_guarantee=EXACTLY_ONCE,
            commit_interval_ms=20.0,
        ),
    )
    app.start(1)
    producer = Producer(cluster)

    def feed(records):
        for key, timestamp in records:
            producer.send("input", key=key, value=1, timestamp=timestamp)
        producer.flush()

    feed(before)
    cluster.clock.advance(50.0)
    app.run_until_idle()
    committed = [(r.key, r.value) for r in drain_topic(cluster, "output")]

    app.crash_instance(app.instances[0])
    app.add_instance()
    feed(after)
    cluster.clock.advance(70_000.0)    # expire any dangling transaction
    app.run_until_idle()
    cluster.clock.advance(50.0)
    app.run_until_idle()
    return committed, [(r.key, r.value) for r in drain_topic(cluster, "output")]


@pytest.mark.xfail(
    strict=True,
    reason="SuppressProcessor's buffer lives only in processor memory, so a "
    "window buffered before an instance loss never emits its final result. "
    "Rebuilding the buffer from the upstream window store is not exact: an "
    "emission carries its latest revision's timestamp and headers, which no "
    "store or changelog record holds, and the changelog's timestamps do not "
    "give the stream time the buffer was last checked at. An exact rebuild "
    "needs a changelog of the buffer (ROADMAP item 1 (a)).",
)
def test_suppress_buffer_survives_instance_loss():
    committed, final = suppressed_counts_across_a_loss(
        [("a", 1.0), ("a", 2.0), ("a", 3.0)],
        [("b", 100.0)],                 # closes a[0, 25) after the loss
    )
    assert committed == []
    assert final == [(A_0_25, 3)]


def test_a_window_emitted_before_an_instance_loss_is_not_emitted_again():
    """b@100 closes a[0, 25) before the loss, and the final result is
    committed. After the loss, c@300 closes b's window: a's result is not
    emitted a second time (a rebuild that took every window of the restored
    store for the buffer would), whatever becomes of b's."""
    committed, final = suppressed_counts_across_a_loss(
        [("a", 1.0), ("a", 2.0), ("a", 3.0), ("b", 100.0)],
        [("c", 300.0)],
    )
    assert committed == [(A_0_25, 3)]
    assert final[0] == (A_0_25, 3) and final.count((A_0_25, 3)) == 1
