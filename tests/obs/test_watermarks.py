"""Completeness watermarks: partition frontiers, cone merge, lag."""

import pytest

from repro.broker.cluster import Cluster
from repro.broker.partition import TopicPartition
from repro.clients.producer import Producer
from repro.config import (
    EXACTLY_ONCE,
    READ_COMMITTED,
    READ_UNCOMMITTED,
    ProducerConfig,
    StreamsConfig,
)
from repro.iq import STRONG
from repro.obs.watermarks import COMPLETE, WatermarkTracker, partition_frontier
from repro.streams import KafkaStreams, StreamsBuilder


def make_cluster(**topics) -> Cluster:
    cluster = Cluster(num_brokers=3, seed=7)
    cluster.network.charge_latency = False
    for topic, partitions in topics.items():
        cluster.create_topic(topic, partitions)
    return cluster


def leader_log(cluster, topic, partition=0):
    return cluster.partition_state(TopicPartition(topic, partition)).leader_log()


class TestPartitionFrontier:
    def test_empty_log_is_complete(self):
        cluster = make_cluster(t=1)
        log = leader_log(cluster, "t")
        assert partition_frontier(log, None, READ_COMMITTED) == COMPLETE
        assert partition_frontier(log, None, READ_UNCOMMITTED) == COMPLETE

    def test_never_committed_scans_from_log_start(self):
        cluster = make_cluster(t=1)
        producer = Producer(cluster)
        for ts in (30.0, 10.0, 20.0):
            producer.send("t", key="k", value=ts, timestamp=ts, partition=0)
        producer.flush()
        log = leader_log(cluster, "t")
        assert partition_frontier(log, None, READ_UNCOMMITTED) == 10.0

    def test_committed_offset_bounds_the_scan(self):
        cluster = make_cluster(t=1)
        producer = Producer(cluster)
        for ts in (10.0, 20.0, 30.0):
            producer.send("t", key="k", value=ts, timestamp=ts, partition=0)
        producer.flush()
        log = leader_log(cluster, "t")
        # Everything before offset 2 is processed: only ts=30 is pending.
        assert partition_frontier(log, 2, READ_UNCOMMITTED) == 30.0
        assert partition_frontier(log, 3, READ_UNCOMMITTED) == COMPLETE

    def test_open_transaction_does_not_hold_frontier_under_read_committed(self):
        cluster = make_cluster(t=1)
        producer = Producer(cluster, ProducerConfig(transactional_id="tid"))
        producer.init_transactions()
        producer.begin_transaction()
        producer.send("t", key="k", value=1, timestamp=5.0, partition=0)
        producer.flush()
        log = leader_log(cluster, "t")
        # Not yet visible to a read-committed consumer, so not yet part of
        # the completeness contract; uncommitted readers do see it pending.
        assert partition_frontier(log, None, READ_COMMITTED) == COMPLETE
        assert partition_frontier(log, None, READ_UNCOMMITTED) == 5.0
        producer.commit_transaction()
        assert partition_frontier(log, None, READ_COMMITTED) == 5.0

    def test_aborted_transaction_never_holds_the_frontier(self):
        cluster = make_cluster(t=1)
        producer = Producer(cluster, ProducerConfig(transactional_id="tid"))
        producer.init_transactions()
        producer.begin_transaction()
        producer.send("t", key="k", value="gone", timestamp=1.0, partition=0)
        producer.abort_transaction()
        log = leader_log(cluster, "t")
        # An aborted record never becomes output — complete without it.
        assert partition_frontier(log, None, READ_COMMITTED) == COMPLETE
        # The marker itself is filtered too (markers carry no event time).
        producer.begin_transaction()
        producer.send("t", key="k", value="kept", timestamp=9.0, partition=0)
        producer.commit_transaction()
        assert partition_frontier(log, None, READ_COMMITTED) == 9.0

    def test_late_record_pulls_the_frontier_back(self):
        cluster = make_cluster(t=1)
        producer = Producer(cluster)
        producer.send("t", key="k", value=1, timestamp=100.0, partition=0)
        producer.flush()
        log = leader_log(cluster, "t")
        assert partition_frontier(log, 1, READ_UNCOMMITTED) == COMPLETE
        # A late record within grace re-opens completeness behind 100.
        producer.send("t", key="k", value=2, timestamp=40.0, partition=0)
        producer.flush()
        assert partition_frontier(log, 1, READ_UNCOMMITTED) == 40.0


def make_app(cluster, repartition: bool = False):
    builder = StreamsBuilder()
    stream = builder.stream("in")
    grouped = (
        stream.group_by(lambda k, v: k) if repartition else stream.group_by_key()
    )
    (
        grouped.reduce(lambda agg, v: agg if agg >= v else v, store_name="maxes")
        .to_stream()
        .to("out")
    )
    app = KafkaStreams(
        builder.build(),
        cluster,
        StreamsConfig(
            application_id="wm-app",
            processing_guarantee=EXACTLY_ONCE,
            commit_interval_ms=10.0,
        ),
    )
    app.start(2)
    return app


def produce_input(cluster, n=24, keys=4):
    producer = Producer(cluster)
    for i in range(n):
        producer.send("in", key=f"k{i % keys}", value=i, timestamp=float(i))
    producer.flush()


class TestWatermarkTracker:
    def test_lag_matches_pending_backlog_then_drains(self):
        cluster = make_cluster(**{"in": 2, "out": 2})
        app = make_app(cluster)
        tracker = WatermarkTracker(app)
        produce_input(cluster, n=24)
        # Nothing processed yet: lag is the full backlog, frontier is the
        # oldest unprocessed event time.
        lags = tracker.lags()
        assert sum(lags.values()) == 24
        assert tracker.frontier() == 0.0
        app.run_until_idle()
        cluster.clock.advance(1.0)
        assert tracker.total_lag() == 0
        assert tracker.lags() == {
            TopicPartition("in", 0): 0,
            TopicPartition("in", 1): 0,
        }
        assert tracker.frontier() == COMPLETE
        assert tracker.frontier("maxes") == COMPLETE
        app.close()

    def test_committed_offsets_are_read_committed(self):
        # Before the app ever commits, offsets are None for every input.
        cluster = make_cluster(**{"in": 2, "out": 2})
        app = make_app(cluster)
        tracker = WatermarkTracker(app)
        committed = cluster.group_coordinator.fetch_committed(
            "wm-app", tracker.input_partitions()
        )
        assert set(committed) == {
            TopicPartition("in", 0),
            TopicPartition("in", 1),
        }
        assert all(offset is None for offset in committed.values())
        produce_input(cluster, n=24)
        app.run_until_idle()
        cluster.clock.advance(1.0)
        committed = cluster.group_coordinator.fetch_committed(
            "wm-app", tracker.input_partitions()
        )
        lags = tracker.lags()
        # A partition that never saw a record never commits; ground truth
        # then falls back to the log start.
        assert any(offset is not None for offset in committed.values())
        for tp, offset in committed.items():
            log = cluster.partition_state(tp).leader_log()
            end = cluster.end_offset(tp, READ_COMMITTED)
            base = (
                log.log_start_offset
                if offset is None
                else max(offset, log.log_start_offset)
            )
            assert lags[tp] == max(0, end - base)
        app.close()

    def test_repartition_cone_reaches_back_to_the_source(self):
        cluster = make_cluster(**{"in": 2, "out": 2})
        app = make_app(cluster, repartition=True)
        tracker = WatermarkTracker(app)
        cone = tracker.input_partitions("maxes")
        topics = {tp.topic for tp in cone}
        # The store's sub-topology reads a repartition topic, but its
        # completeness is bounded by the original source too.
        assert "in" in topics
        assert any(app.is_repartition_topic(t) for t in topics)
        produce_input(cluster, n=24)
        # Source backlog holds the store frontier back through the cone.
        assert tracker.frontier("maxes") == 0.0
        app.run_until_idle()
        cluster.clock.advance(1.0)
        assert tracker.frontier("maxes") == COMPLETE
        app.close()

    def test_unknown_store_raises(self):
        cluster = make_cluster(**{"in": 2, "out": 2})
        app = make_app(cluster)
        tracker = WatermarkTracker(app)
        with pytest.raises(KeyError):
            tracker.input_partitions("nope")
        app.close()

    def test_memoized_within_one_instant(self):
        cluster = make_cluster(**{"in": 2, "out": 2})
        app = make_app(cluster)
        tracker = WatermarkTracker(app)
        assert tracker.frontier() == COMPLETE
        assert tracker.total_lag() == 0
        # New backlog at the *same* virtual instant: the memo holds (one
        # scheduler safe point = one consistent snapshot)...
        produce_input(cluster, n=4)
        assert tracker.frontier() == COMPLETE
        assert tracker.total_lag() == 0
        # ...and the next instant sees it.
        cluster.clock.advance(1.0)
        assert tracker.frontier() == 0.0
        assert tracker.total_lag() == 4
        app.close()

    def test_update_gauges_publishes_lag_and_frontier(self):
        cluster = make_cluster(**{"in": 2, "out": 2})
        app = make_app(cluster)
        tracker = WatermarkTracker(app)
        produce_input(cluster, n=24)
        tracker.update_gauges()
        gauges = cluster.metrics.gauges()
        lag_sum = sum(
            v for k, v in gauges.items() if k.startswith("streams.lag{")
        )
        assert lag_sum == 24
        assert gauges["streams.frontier{app=wm-app}"] == 0.0
        assert gauges["streams.frontier{app=wm-app,store=maxes}"] == 0.0
        app.close()

    def test_iq_results_carry_the_frontier(self):
        cluster = make_cluster(**{"in": 2, "out": 2})
        app = make_app(cluster)
        produce_input(cluster, n=24)
        app.run_until_idle()
        cluster.clock.advance(1.0)
        router = app.query_router()
        result = router.get("maxes", "k0", consistency=STRONG)
        assert result.value is not None
        assert result.frontier == COMPLETE
        assert app.completeness_frontier("maxes") == COMPLETE
        app.close()
