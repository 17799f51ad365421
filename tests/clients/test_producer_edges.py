"""Producer and log edge cases not covered elsewhere."""

import pytest

from repro.broker.partition import TopicPartition
from repro.clients.consumer import Consumer
from repro.clients.producer import Producer
from repro.config import (
    READ_COMMITTED,
    ConsumerConfig,
    ProducerConfig,
)
from repro.log.partition_log import PartitionLog
from repro.log.record import Record, RecordBatch


@pytest.fixture
def topic(fast_cluster):
    fast_cluster.create_topic("t", 3)
    return "t"


class TestProducerEdges:
    def test_headers_stored_with_record(self, fast_cluster, topic):
        p = Producer(fast_cluster)
        p.send(topic, key="k", value=1, partition=0,
               headers={"trace": "abc", "n": 7})
        p.flush()
        log = fast_cluster.partition_state(TopicPartition(topic, 0)).leader_log()
        assert log.records()[0].headers == {"trace": "abc", "n": 7}

    def test_explicit_partition_overrides_hash(self, fast_cluster, topic):
        p = Producer(fast_cluster)
        tp = p.send(topic, key="whatever", value=1, partition=2)
        assert tp == TopicPartition(topic, 2)

    def test_batch_boundary_registers_txn_partitions(self, fast_cluster, topic):
        """An auto-flush at the batch boundary must register the partition
        with the coordinator before appending transactional data."""
        p = Producer(
            fast_cluster,
            ProducerConfig(transactional_id="edge", batch_max_records=2),
        )
        p.init_transactions()
        p.begin_transaction()
        p.send(topic, key="a", value=1, partition=0)
        p.send(topic, key="b", value=2, partition=0)   # triggers auto-flush
        meta = fast_cluster.txn_coordinator._txns["edge"]
        assert TopicPartition(topic, 0) in meta.partitions
        p.commit_transaction()
        consumer = Consumer(
            fast_cluster, ConsumerConfig(isolation_level=READ_COMMITTED)
        )
        consumer.assign([TopicPartition(topic, 0)])
        assert [r.value for r in consumer.poll()] == [1, 2]

    def test_abort_then_new_transaction_reuses_producer(self, fast_cluster, topic):
        p = Producer(fast_cluster, ProducerConfig(transactional_id="edge2"))
        p.init_transactions()
        p.begin_transaction()
        p.send(topic, key="x", value="aborted", partition=0)
        p.abort_transaction()
        p.begin_transaction()
        p.send(topic, key="x", value="kept", partition=0)
        p.commit_transaction()
        consumer = Consumer(
            fast_cluster, ConsumerConfig(isolation_level=READ_COMMITTED)
        )
        consumer.assign([TopicPartition(topic, 0)])
        assert [r.value for r in consumer.poll()] == ["kept"]

    def test_close_is_idempotent(self, fast_cluster, topic):
        p = Producer(fast_cluster)
        p.send(topic, key="k", value=1, partition=0)
        p.close()
        p.close()   # second close is a no-op

    def test_metrics_counters(self, fast_cluster, topic):
        p = Producer(fast_cluster)
        for i in range(5):
            p.send(topic, key=f"k{i}", value=i, partition=0)
        p.flush()
        assert p.records_sent == 5
        assert p.batches_sent >= 1


class TestPartitionLogEdges:
    def test_reset_to_clears_everything(self):
        log = PartitionLog()
        log.append_batch(
            RecordBatch(
                [Record(key="k", value=1)],
                producer_id=5, producer_epoch=0, base_sequence=0,
                is_transactional=True,
            )
        )
        log.reset_to(100)
        assert len(log) == 0
        assert log.log_start_offset == 100
        assert log.log_end_offset == 100
        assert log.open_transactions() == {}

    def test_append_marker_requires_control_record(self):
        """A marker is a commit or an abort; no control type is data."""
        log = PartitionLog()
        with pytest.raises(ValueError):
            log.append_marker(None, 1, 0)
        assert len(log) == 0


class TestConsumerEdges:
    def test_position_initializes_lazily(self, fast_cluster, topic):
        consumer = Consumer(fast_cluster)
        tp = TopicPartition(topic, 0)
        consumer.assign([tp])
        assert consumer.position(tp) == 0

    def test_closed_consumer_rejects_poll(self, fast_cluster, topic):
        from repro.errors import KafkaError

        consumer = Consumer(fast_cluster)
        consumer.assign([TopicPartition(topic, 0)])
        consumer.close()
        with pytest.raises(KafkaError):
            consumer.poll()

    def test_commit_with_no_progress_is_noop(self, fast_cluster, topic):
        consumer = Consumer(fast_cluster, ConsumerConfig(group_id="g"))
        consumer.subscribe([topic])
        consumer.commit_sync({})    # empty: no append, no error
