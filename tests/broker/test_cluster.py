"""Cluster-level behaviour: topics, metadata, failures, record deletion."""

import pytest

from repro.broker.cluster import Cluster
from repro.broker.partition import (
    CONSUMER_OFFSETS_TOPIC,
    TRANSACTION_STATE_TOPIC,
    TopicPartition,
)
from repro.config import BrokerConfig
from repro.errors import (
    BrokerUnavailableError,
    TopicAlreadyExistsError,
    UnknownTopicOrPartitionError,
)
from repro.log.record import Record, RecordBatch


def test_internal_topics_created_at_startup(cluster):
    assert cluster.has_topic(CONSUMER_OFFSETS_TOPIC)
    assert cluster.has_topic(TRANSACTION_STATE_TOPIC)
    assert cluster.topic_metadata(CONSUMER_OFFSETS_TOPIC).internal
    assert cluster.user_topics() == []


def test_create_topic_and_metadata(cluster):
    meta = cluster.create_topic("events", 4)
    assert meta.num_partitions == 4
    assert meta.replication_factor == 3
    assert len(cluster.partitions_for("events")) == 4


def test_create_duplicate_topic_rejected(cluster):
    cluster.create_topic("t", 1)
    with pytest.raises(TopicAlreadyExistsError):
        cluster.create_topic("t", 1)


def test_unknown_topic_raises(cluster):
    with pytest.raises(UnknownTopicOrPartitionError):
        cluster.topic_metadata("nope")
    with pytest.raises(UnknownTopicOrPartitionError):
        cluster.partition_state(TopicPartition("nope", 0))


def test_replication_factor_capped_by_broker_count():
    cluster = Cluster(num_brokers=2, config=BrokerConfig(min_insync_replicas=1))
    meta = cluster.create_topic("t", 1, replication_factor=5)
    assert meta.replication_factor == 2


def test_replica_placement_spreads_leaders(cluster):
    cluster.create_topic("t", 6)
    leaders = {cluster.leader_of(tp) for tp in cluster.partitions_for("t")}
    assert leaders == {0, 1, 2}


def test_crash_broker_moves_leadership(cluster):
    cluster.create_topic("t", 3)
    victim_tp = next(
        tp for tp in cluster.partitions_for("t") if cluster.leader_of(tp) == 0
    )
    cluster.crash_broker(0)
    assert cluster.leader_of(victim_tp) != 0
    assert cluster.alive_brokers() == [1, 2]


def test_crashed_broker_unreachable_via_network(cluster):
    cluster.crash_broker(1)
    with pytest.raises(BrokerUnavailableError):
        cluster.network.call("produce", 1, lambda: None)


def test_restart_broker_rejoins(cluster):
    cluster.crash_broker(1)
    cluster.restart_broker(1)
    assert cluster.alive_brokers() == [0, 1, 2]


def test_produce_survives_leader_crash(cluster):
    cluster.create_topic("t", 1)
    tp = TopicPartition("t", 0)
    cluster.handle_produce(tp, RecordBatch([Record(key="k", value=1)]))
    old_leader = cluster.leader_of(tp)
    cluster.crash_broker(old_leader)
    cluster.handle_produce(tp, RecordBatch([Record(key="k", value=2)]))
    log = cluster.partition_state(tp).leader_log()
    assert [r.value for r in log.read(0)] == [1, 2]


def test_follower_read_serves_every_acked_record(cluster):
    """A fetch from a named in-sync replica is one of the moments a
    follower is looked at: it is level with the leader by then."""
    cluster.create_topic("t", 1)
    tp = TopicPartition("t", 0)
    for i in range(3):
        cluster.handle_produce(tp, RecordBatch([Record(key="k", value=i)]))
    state = cluster.partition_state(tp)
    for follower in sorted(state.isr - {state.leader}):
        served = cluster.handle_fetch(tp, 0, 100, "read_uncommitted", replica=follower)
        assert served.values() == [0, 1, 2]
        assert served.high_watermark == 3
    assert cluster.metrics.counter("broker.follower_reads").value == 2


def test_delete_records(cluster):
    cluster.create_topic("t", 1)
    tp = TopicPartition("t", 0)
    cluster.handle_produce(tp, RecordBatch([Record(key="k", value=i) for i in range(8)]))
    removed = cluster.delete_records(tp, 5)
    assert removed == 5
    state = cluster.partition_state(tp)
    for broker_id in cluster.brokers:
        assert state.replica_log(broker_id).log_start_offset == 5


def test_producer_id_allocation_unique(cluster):
    ids = {cluster.allocate_producer_id() for _ in range(100)}
    assert len(ids) == 100


def test_reserve_producer_id(cluster):
    cluster.reserve_producer_id(5000)
    assert cluster.allocate_producer_id() == 5000
