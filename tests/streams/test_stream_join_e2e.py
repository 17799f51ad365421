"""Stream-stream, stream-table and table-table joins end-to-end through
the runtime, including the co-partitioning machinery and the paper's
delayed left-join emission."""

import pytest

from repro.clients.producer import Producer
from repro.config import EXACTLY_ONCE, StreamsConfig
from repro.errors import TopologyError
from repro.streams import JoinWindows, KafkaStreams, StreamsBuilder

from tests.streams.harness import drain_topic, make_cluster


def start(cluster, build, app_id):
    builder = StreamsBuilder()
    build(builder)
    app = KafkaStreams(
        builder.build(), cluster,
        StreamsConfig(application_id=app_id, processing_guarantee=EXACTLY_ONCE),
    )
    app.start(1)
    return app


def send(cluster, topic, rows):
    producer = Producer(cluster)
    for key, value, ts in rows:
        producer.send(topic, key=key, value=value, timestamp=float(ts))
    producer.flush()


class TestStreamStreamE2E:
    def test_inner_join_within_window(self):
        cluster = make_cluster(clicks=2, impressions=2, matched=2)
        app = start(
            cluster,
            lambda b: b.stream("clicks").join(
                b.stream("impressions"),
                lambda c, i: {"click": c, "impression": i},
                JoinWindows.of(100.0).grace(50.0),
            ).to("matched"),
            "ssj",
        )
        send(cluster, "impressions", [("ad1", "imp-A", 10)])
        send(cluster, "clicks", [("ad1", "click-A", 50)])
        send(cluster, "clicks", [("ad1", "click-late", 500)])  # outside window
        app.run_until_idle()
        cluster.clock.advance(10.0)
        values = [r.value for r in drain_topic(cluster, "matched")]
        assert values == [{"click": "click-A", "impression": "imp-A"}]

    def test_left_join_null_only_after_window_closes(self):
        """Section 5's motivating case, through the full stack: the
        (click, null) result appears only once the join window + grace has
        elapsed in stream time — never eagerly."""
        cluster = make_cluster(clicks=1, impressions=1, matched=1)
        app = start(
            cluster,
            lambda b: b.stream("clicks").left_join(
                b.stream("impressions"),
                lambda c, i: (c, i),
                JoinWindows.of(50.0).grace(20.0),
            ).to("matched"),
            "lsj",
        )
        send(cluster, "clicks", [("ad1", "click-A", 10)])
        app.run_until_idle()
        cluster.clock.advance(10.0)
        assert drain_topic(cluster, "matched") == []     # held, not (c, null)
        # Stream time advances past 10 + 50 + 50 + 20.
        send(cluster, "clicks", [("ad2", "click-B", 200)])
        app.run_until_idle()
        cluster.clock.advance(10.0)
        values = [r.value for r in drain_topic(cluster, "matched")]
        assert ("click-A", None) in values

    def test_join_repartitions_rekeyed_side(self):
        """A side whose key changed is routed through a repartition topic
        so the join is co-partitioned."""
        cluster = make_cluster(orders=2, payments=2, joined=2)

        def build(builder):
            orders = builder.stream("orders").select_key(
                lambda k, v: v["order_id"]
            )
            payments = builder.stream("payments")
            orders.join(
                payments, lambda o, p: {"order": o, "payment": p},
                JoinWindows.of(1000.0).grace(100.0),
            ).to("joined")

        app = start(cluster, build, "rkj")
        repartitions = [
            t for t in cluster.topics
            if t.startswith("rkj-") and "repartition" in t
        ]
        assert len(repartitions) == 1
        send(cluster, "orders", [("req-1", {"order_id": "o1", "amt": 5}, 10)])
        send(cluster, "payments", [("o1", {"paid": 5}, 20)])
        app.run_until_idle()
        cluster.clock.advance(10.0)
        values = [r.value for r in drain_topic(cluster, "joined")]
        assert values == [{"order": {"order_id": "o1", "amt": 5},
                           "payment": {"paid": 5}}]

    def test_non_copartitioned_sources_rejected(self):
        """Joining topics with different partition counts fails fast."""
        cluster = make_cluster(a=2, b=3, out=1)

        def build(builder):
            builder.stream("a").join(
                builder.stream("b"), lambda x, y: (x, y),
                JoinWindows.of(10.0),
            ).to("out")

        builder = StreamsBuilder()
        build(builder)
        with pytest.raises(TopologyError):
            KafkaStreams(
                builder.build(), cluster, StreamsConfig(application_id="bad")
            )


class TestStreamTableE2E:
    def test_enrichment_sees_table_state_at_processing_time(self):
        cluster = make_cluster(events=2, config=2, enriched=2)

        def build(builder):
            table = builder.table("config")
            builder.stream("events").join(
                table, lambda e, c: {"event": e, "config": c}
            ).to("enriched")

        app = start(cluster, build, "stj")
        send(cluster, "config", [("k", "v1", 0)])
        app.run_until_idle()
        send(cluster, "events", [("k", "e1", 10)])
        app.run_until_idle()
        send(cluster, "config", [("k", "v2", 20)])
        app.run_until_idle()
        send(cluster, "events", [("k", "e2", 30)])
        app.run_until_idle()
        cluster.clock.advance(10.0)
        values = [r.value for r in drain_topic(cluster, "enriched")]
        assert values == [
            {"event": "e1", "config": "v1"},
            {"event": "e2", "config": "v2"},
        ]

    def test_join_survives_task_migration(self):
        """The join task's window buffers are changelogged: after a crash
        the restored task still joins records buffered pre-crash."""
        cluster = make_cluster(left=1, right=1, out=1)

        def build(builder):
            builder.stream("left").join(
                builder.stream("right"), lambda a, b: (a, b),
                JoinWindows.of(1000.0).grace(100.0),
            ).to("out")

        builder = StreamsBuilder()
        build(builder)
        app = KafkaStreams(
            builder.build(), cluster,
            StreamsConfig(
                application_id="jmig",
                processing_guarantee=EXACTLY_ONCE,
                commit_interval_ms=10.0,
                transaction_timeout_ms=300.0,
            ),
        )
        app.start(1)
        send(cluster, "left", [("k", "a", 10)])
        app.run_until_idle()
        app.crash_instance(app.instances[0])
        cluster.clock.advance(350.0)
        app.add_instance()
        send(cluster, "right", [("k", "b", 20)])
        app.run_until_idle()
        cluster.clock.advance(10.0)
        values = [r.value for r in drain_topic(cluster, "out")]
        assert values == [("a", "b")]


def pair(left, right):
    return (left, right)


TABLE_FEED = [("a", "k", "a1", 0), ("b", "k", "b1", 1), ("b", "j", "b2", 2),
              ("a", "k", None, 3)]


@pytest.mark.parametrize(
    "build, feed, expected",
    [
        (
            lambda b: b.table("a").left_join(b.table("b"), pair).to_stream(),
            TABLE_FEED,
            [[("k", ("a1", None))], [("k", ("a1", "b1"))], [], [("k", None)]],
        ),
        (
            lambda b: b.table("a").outer_join(b.table("b"), pair).to_stream(),
            TABLE_FEED,
            [[("k", ("a1", None))], [("k", ("a1", "b1"))],
             [("j", (None, "b2"))], [("k", (None, "b1"))]],
        ),
        (
            # Unmatched sides of either stream wait for stream time to
            # pass window + grace (10 + 5 after ts 20 closes neither; 200
            # closes both).
            lambda b: b.stream("a").outer_join(
                b.stream("b"), pair, JoinWindows.of(10.0).grace(5.0)
            ),
            [("a", "k", "a1", 0), ("b", "k", "b1", 5), ("b", "j", "b2", 10),
             ("a", "m", "a2", 20), ("a", "z", "a3", 200)],
            [[], [("k", ("a1", "b1"))], [], [],
             [("m", ("a2", None)), ("j", (None, "b2"))]],
        ),
    ],
    ids=["table_left_join", "table_outer_join", "stream_outer_join"],
)
def test_join_through_the_dsl_commits_the_pinned_sequence(build, feed, expected):
    """``KTable.left_join`` / ``outer_join`` and ``KStream.outer_join``
    built through the DSL: what each input record adds to the committed
    output, one record and one idle run at a time."""
    cluster = make_cluster(a=1, b=1, out=1)

    app = start(cluster, lambda b: build(b).to("out"), "dslj")
    producer = Producer(cluster)
    steps, seen = [], 0
    for topic, key, value, ts in feed:
        producer.send(topic, key=key, value=value, timestamp=float(ts))
        producer.flush()
        app.run_until_idle()
        output = [(r.key, r.value) for r in drain_topic(cluster, "out")]
        steps.append(output[seen:])
        seen = len(output)
    assert steps == expected
