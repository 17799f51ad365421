"""DSL extensions: to_table and session windows run end-to-end
through the application runtime."""

from repro.clients.producer import Producer
from repro.config import EXACTLY_ONCE, StreamsConfig
from repro.streams import KafkaStreams, StreamsBuilder
from repro.streams.windows import SessionWindows

from tests.streams.harness import drain_topic, latest_by_key, make_cluster


class TestToTable:
    def test_stream_materializes_as_upserts(self):
        cluster = make_cluster(**{"in": 1, "out": 1})
        builder = StreamsBuilder()
        builder.stream("in").to_table("latest").to_stream().to("out")
        app = KafkaStreams(builder.build(), cluster,
                           StreamsConfig(application_id="tbl"))
        app.start(1)
        producer = Producer(cluster)
        producer.send("in", key="k", value="v1", timestamp=0.0)
        producer.send("in", key="k", value="v2", timestamp=1.0)
        producer.flush()
        app.run_until_idle()
        assert app.store_contents("latest") == {"k": "v2"}
        final = latest_by_key(drain_topic(cluster, "out", False))
        assert final == {"k": "v2"}


class TestSessionWindowsEndToEnd:
    def test_session_counts_through_app(self):
        cluster = make_cluster(**{"clicks": 1, "sessions": 1})
        builder = StreamsBuilder()
        (
            builder.stream("clicks")
            .group_by_key()
            .windowed_by(SessionWindows.with_gap(100.0).grace(10_000.0))
            .count()
            .to_stream()
            .to("sessions")
        )
        app = KafkaStreams(
            builder.build(), cluster,
            StreamsConfig(application_id="sess",
                          processing_guarantee=EXACTLY_ONCE),
        )
        app.start(1)
        producer = Producer(cluster)
        # Two bursts separated by more than the gap.
        for ts in (0.0, 50.0, 90.0, 500.0, 520.0):
            producer.send("clicks", key="user", value=1, timestamp=ts)
        producer.flush()
        app.run_until_idle()
        cluster.clock.advance(20.0)
        final = latest_by_key(drain_topic(cluster, "sessions"))
        live = {k: v for k, v in final.items() if v is not None}
        spans = {(k.window.start, v) for k, v in live.items()}
        assert spans == {(0.0, 3), (500.0, 2)}

