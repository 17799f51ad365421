"""Producer client: batching, retries, idempotence, transactions API."""

import pytest

from repro.broker.cluster import Cluster
from repro.broker.partition import TopicPartition
from repro.clients.consumer import Consumer
from repro.clients.producer import Producer
from repro.config import (
    READ_COMMITTED,
    ConsumerConfig,
    ProducerConfig,
)
from repro.errors import (
    InvalidConfigError,
    InvalidTxnStateError,
    ProducerFencedError,
    RequestTimeoutError,
)
from repro.log.record import FrozenHeaders
from repro.obs.tracer import TRACE_ID_HEADER
from repro.sim.failures import FailureInjector


@pytest.fixture
def topic(fast_cluster):
    fast_cluster.create_topic("t", 2)
    return "t"


def log_values(cluster, tp):
    log = cluster.partition_state(tp).leader_log()
    return [r.value for r in log.records() if not r.is_control]


class TestPlainProduce:
    def test_send_and_flush(self, fast_cluster, topic):
        p = Producer(fast_cluster)
        p.send(topic, key="a", value=1, partition=0)
        p.send(topic, key="b", value=2, partition=1)
        p.flush()
        assert log_values(fast_cluster, TopicPartition(topic, 0)) == [1]
        assert log_values(fast_cluster, TopicPartition(topic, 1)) == [2]

    def test_batch_auto_flush_when_full(self, fast_cluster, topic):
        p = Producer(fast_cluster, ProducerConfig(batch_max_records=3))
        for i in range(3):
            p.send(topic, key="k", value=i, partition=0)
        assert log_values(fast_cluster, TopicPartition(topic, 0)) == [0, 1, 2]

    def test_default_partitioner_is_stable(self, fast_cluster, topic):
        p = Producer(fast_cluster)
        tp1 = p.send(topic, key="user-1", value=1)
        tp2 = p.send(topic, key="user-1", value=2)
        assert tp1 == tp2

    def test_timestamp_defaults_to_clock(self, fast_cluster, topic):
        fast_cluster.clock.advance(123.0)
        p = Producer(fast_cluster)
        p.send(topic, key="k", value=1, partition=0)
        p.flush()
        log = fast_cluster.partition_state(TopicPartition(topic, 0)).leader_log()
        assert log.records()[0].timestamp == 123.0

    def test_explicit_timestamp_preserved(self, fast_cluster, topic):
        p = Producer(fast_cluster)
        p.send(topic, key="k", value=1, timestamp=42.0, partition=0)
        p.flush()
        log = fast_cluster.partition_state(TopicPartition(topic, 0)).leader_log()
        assert log.records()[0].timestamp == 42.0

    def test_closed_producer_rejects_send(self, fast_cluster, topic):
        p = Producer(fast_cluster)
        p.close()
        from repro.errors import KafkaError

        with pytest.raises(KafkaError):
            p.send(topic, key="k", value=1)


class TestSendChunkRootsTraces:
    """Traced, ``send_chunk`` gives a fresh record its trace id exactly as
    ``send`` would: in record order, before the chunk is split by
    partition; a record that carries one keeps it."""

    HEADERS = [
        {"created_at": 0.0},
        {TRACE_ID_HEADER: "inherited", "created_at": 1.0},
        {},
        FrozenHeaders(created_at=3.0),
        {"created_at": 4.0},
        FrozenHeaders({TRACE_ID_HEADER: "also-inherited"}),
        {"created_at": 6.0},
    ]

    def stored(self, traced, chunk):
        cluster = Cluster(num_brokers=3, seed=7)
        cluster.network.charge_latency = False
        cluster.create_topic("t", 3)
        if traced:
            cluster.enable_tracing()
        producer = Producer(cluster)
        keys = [f"k{i}" for i in range(len(self.HEADERS))]
        values = list(range(len(keys)))
        timestamps = [float(i) for i in values]
        headers = [dict(h) if type(h) is dict else h for h in self.HEADERS]
        if chunk:
            producer.send_chunk("t", keys, values, timestamps, headers)
        else:
            for i, key in enumerate(keys):
                producer.send("t", key=key, value=values[i],
                              timestamp=timestamps[i], headers=headers[i])
        producer.flush()
        logs = [
            [(r.value, type(r.headers), list(r.headers.items()))
             for r in cluster.partition_state(TopicPartition("t", p))
             .leader_log().records()]
            for p in range(3)
        ]
        return logs, cluster.tracer.new_trace_id()

    def test_chunk_equals_record_by_record_sends(self):
        assert self.stored(True, chunk=True) == self.stored(True, chunk=False)

    def test_ids_follow_record_order(self):
        logs, next_id = self.stored(True, chunk=True)
        ids = dict(
            (value, dict(items)[TRACE_ID_HEADER])
            for log in logs for value, _, items in log
        )
        assert [ids[i] for i in range(7)] == [
            "t000001", "inherited", "t000002", "t000003", "t000004",
            "also-inherited", "t000005",
        ]
        assert next_id == "t000006"

    def test_untraced_chunks_get_no_ids(self):
        logs, next_id = self.stored(False, chunk=True)
        ids = {dict(items).get(TRACE_ID_HEADER) for log in logs for _, _, items in log}
        assert ids == {None, "inherited", "also-inherited"}
        assert next_id == "t000001"
        assert self.stored(False, chunk=True) == self.stored(False, chunk=False)


class TestIdempotence:
    def test_retry_after_lost_ack_no_duplicate(self, fast_cluster, topic):
        injector = FailureInjector(fast_cluster)
        p = Producer(fast_cluster)  # idempotent by default
        injector.drop_next_produce_ack()
        p.send(topic, key="k", value="once", partition=0)
        p.flush()
        assert p.retries_performed == 1
        assert log_values(fast_cluster, TopicPartition(topic, 0)) == ["once"]

    def test_without_idempotence_retry_duplicates(self, fast_cluster, topic):
        injector = FailureInjector(fast_cluster)
        p = Producer(fast_cluster, ProducerConfig(enable_idempotence=False))
        injector.drop_next_produce_ack()
        p.send(topic, key="k", value="dup", partition=0)
        p.flush()
        assert log_values(fast_cluster, TopicPartition(topic, 0)) == ["dup", "dup"]

    def test_retries_exhausted_raises(self, fast_cluster, topic):
        injector = FailureInjector(fast_cluster)
        p = Producer(fast_cluster, ProducerConfig(retries=2))
        injector.drop_next_produce_ack(count=10)
        p.send(topic, key="k", value="x", partition=0)
        with pytest.raises(RequestTimeoutError):
            p.flush()

    def test_failed_send_never_grows_a_batch_the_log_already_stores(
        self, fast_cluster, topic
    ):
        """The log stores a slab's lists as they are. When only acks are lost
        the broker has the batch while the producer still buffers it (and,
        in an interrupted flush, the partitions it delivered before), so
        whatever is sent next must not land on those lists."""
        injector = FailureInjector(fast_cluster)
        p = Producer(fast_cluster, ProducerConfig(retries=1))
        p.send(topic, key="k", value="delivered", partition=0)
        p.send(topic, key="k", value="ack lost", partition=1)
        leaders = [fast_cluster.leader_of(TopicPartition(topic, n)) for n in (0, 1)]
        assert leaders[0] != leaders[1]
        injector.drop_next_produce_ack(count=2, broker_id=leaders[1])
        with pytest.raises(RequestTimeoutError):
            p.flush()
        logs = [
            fast_cluster.partition_state(TopicPartition(topic, n)).leader_log()
            for n in (0, 1)
        ]
        stored = [log._batches[0] for log in logs]
        p.send(topic, key="k", value="later", partition=0)
        p.send(topic, key="k", value="later", partition=1)
        assert [batch.values for batch in stored] == [["delivered"], ["ack lost"]]
        assert [log._batches[0] for log in logs] == stored

    def test_partial_flush_failure_does_not_resend_delivered_partitions(
        self, fast_cluster, topic
    ):
        """A flush that fails for good on one partition has still delivered
        the ones before it: they leave the buffer as they are acknowledged,
        so the next flush sends only what is owed — no delivered record is
        sent again under a fresh sequence number."""
        injector = FailureInjector(fast_cluster)
        p = Producer(fast_cluster, ProducerConfig(retries=1))
        tps = [TopicPartition(topic, n) for n in (0, 1)]
        leaders = [fast_cluster.leader_of(tp) for tp in tps]
        assert leaders[0] != leaders[1]
        p.send(topic, key="k", value=1, partition=0)
        p.send(topic, key="k", value=1, partition=1)
        injector.drop_next_produce_request(count=50, broker_id=leaders[1])
        with pytest.raises(RequestTimeoutError):
            p.flush()
        fast_cluster.network.clear_faults()
        p.send(topic, key="k", value=2, partition=0)
        p.send(topic, key="k", value=2, partition=1)
        p.flush()
        for tp in tps:
            records = fast_cluster.partition_state(tp).leader_log().records()
            assert [(r.value, r.sequence) for r in records] == [(1, 0), (2, 1)]

    def test_a_slab_whose_ack_was_lost_goes_again_unchanged(
        self, fast_cluster, topic
    ):
        """A flush that gives up on a slab whose ack was lost leaves the
        broker holding it. The slab is sealed: the next flush sends it
        again as it was — same records, same base sequence, so the broker
        de-duplicates — before a slab of what was sent since, whose
        sequence follows on. Nothing is stuck and nothing lands twice."""
        injector = FailureInjector(fast_cluster)
        p = Producer(fast_cluster, ProducerConfig(retries=1))
        tp = TopicPartition(topic, 0)
        p.send(topic, key="k", value=1, partition=0)
        p.send(topic, key="k", value=2, partition=0)
        injector.drop_next_produce_ack(count=10**6)
        with pytest.raises(RequestTimeoutError):
            p.flush()
        assert p.has_buffered_records      # the sealed slab still waits
        fast_cluster.network.clear_faults()
        p.send(topic, key="k", value=3, partition=0)
        p.flush()
        assert not p.has_buffered_records
        p.send(topic, key="k", value=4, partition=0)
        p.flush()
        records = fast_cluster.partition_state(tp).leader_log().records()
        assert [(r.value, r.sequence) for r in records] == [
            (1, 0), (2, 1), (3, 2), (4, 3),
        ]
        assert p.records_sent == 4

    def test_sealed_slab_goes_before_a_full_batch_of_later_sends(
        self, fast_cluster, topic
    ):
        """A batch that fills up after a failed flush is sent behind the
        sealed slab, never around it."""
        injector = FailureInjector(fast_cluster)
        p = Producer(fast_cluster, ProducerConfig(retries=1, batch_max_records=3))
        tp = TopicPartition(topic, 0)
        p.send(topic, key="k", value=0, partition=0)
        injector.drop_next_produce_request(count=10**6)
        with pytest.raises(RequestTimeoutError):
            p.flush()
        fast_cluster.network.clear_faults()
        for value in (1, 2, 3):
            p.send(topic, key="k", value=value, partition=0)
        records = fast_cluster.partition_state(tp).leader_log().records()
        assert [(r.value, r.sequence) for r in records] == [
            (0, 0), (1, 1), (2, 2), (3, 3),
        ]

    def test_sequences_per_partition(self, fast_cluster, topic):
        p = Producer(fast_cluster)
        for i in range(3):
            p.send(topic, key="k", value=i, partition=0)
            p.send(topic, key="k", value=i, partition=1)
        p.flush()
        log0 = fast_cluster.partition_state(TopicPartition(topic, 0)).leader_log()
        seqs = [r.sequence for r in log0.records()]
        assert seqs == [0, 1, 2]


class TestTransactions:
    def make_txn_producer(self, cluster, tid="tid"):
        p = Producer(cluster, ProducerConfig(transactional_id=tid))
        p.init_transactions()
        return p

    def test_config_requires_idempotence(self):
        with pytest.raises(InvalidConfigError):
            ProducerConfig(transactional_id="t", enable_idempotence=False).validate()

    def test_send_outside_transaction_rejected(self, fast_cluster, topic):
        p = self.make_txn_producer(fast_cluster)
        with pytest.raises(InvalidTxnStateError):
            p.send(topic, key="k", value=1)

    def test_begin_twice_rejected(self, fast_cluster, topic):
        p = self.make_txn_producer(fast_cluster)
        p.begin_transaction()
        with pytest.raises(InvalidTxnStateError):
            p.begin_transaction()

    def test_commit_makes_records_visible(self, fast_cluster, topic):
        p = self.make_txn_producer(fast_cluster)
        consumer = Consumer(
            fast_cluster, ConsumerConfig(isolation_level=READ_COMMITTED)
        )
        consumer.assign(fast_cluster.partitions_for(topic))
        p.begin_transaction()
        p.send(topic, key="k", value="v", partition=0)
        p.flush()
        assert consumer.poll() == []
        p.commit_transaction()
        assert [r.value for r in consumer.poll()] == ["v"]

    def test_abort_hides_records(self, fast_cluster, topic):
        p = self.make_txn_producer(fast_cluster)
        consumer = Consumer(
            fast_cluster, ConsumerConfig(isolation_level=READ_COMMITTED)
        )
        consumer.assign(fast_cluster.partitions_for(topic))
        p.begin_transaction()
        p.send(topic, key="k", value="gone", partition=0)
        p.abort_transaction()
        assert consumer.poll() == []

    def test_transaction_spans_partitions_atomically(self, fast_cluster, topic):
        p = self.make_txn_producer(fast_cluster)
        p.begin_transaction()
        p.send(topic, key="a", value=1, partition=0)
        p.send(topic, key="b", value=2, partition=1)
        p.commit_transaction()
        consumer = Consumer(
            fast_cluster, ConsumerConfig(isolation_level=READ_COMMITTED)
        )
        consumer.assign(fast_cluster.partitions_for(topic))
        assert sorted(r.value for r in consumer.poll()) == [1, 2]

    def test_zombie_producer_fenced(self, fast_cluster, topic):
        """Two producer instances share a transactional id; the older one
        is fenced once the newer registers (the zombie-instance problem)."""
        old = self.make_txn_producer(fast_cluster, tid="shared")
        old.begin_transaction()
        old.send(topic, key="k", value="zombie", partition=0)
        old.flush()
        new = self.make_txn_producer(fast_cluster, tid="shared")
        with pytest.raises(ProducerFencedError):
            old.send(topic, key="k", value="zombie2", partition=0)
            old.flush()
            old.commit_transaction()
        del new

    def test_send_offsets_to_transaction(self, fast_cluster, topic):
        group_coord = fast_cluster.group_coordinator
        src = TopicPartition("src", 0)
        fast_cluster.create_topic("src", 1)
        p = self.make_txn_producer(fast_cluster)
        p.begin_transaction()
        p.send(topic, key="k", value=1, partition=0)
        p.send_offsets_to_transaction({src: 17}, "my-group")
        p.commit_transaction()
        assert group_coord.fetch_committed("my-group", [src])[src] == 17

    def test_offsets_rolled_back_on_abort(self, fast_cluster, topic):
        group_coord = fast_cluster.group_coordinator
        src = TopicPartition("src", 0)
        fast_cluster.create_topic("src", 1)
        p = self.make_txn_producer(fast_cluster)
        p.begin_transaction()
        p.send_offsets_to_transaction({src: 17}, "my-group")
        p.abort_transaction()
        assert group_coord.fetch_committed("my-group", [src])[src] is None

    def test_close_aborts_open_transaction(self, fast_cluster, topic):
        p = self.make_txn_producer(fast_cluster)
        p.begin_transaction()
        p.send(topic, key="k", value="x", partition=0)
        p.close()
        from repro.broker.txn_coordinator import COMPLETE_ABORT

        assert (
            fast_cluster.txn_coordinator.transaction_state("tid") == COMPLETE_ABORT
        )

    def test_consecutive_transactions(self, fast_cluster, topic):
        p = self.make_txn_producer(fast_cluster)
        for i in range(3):
            p.begin_transaction()
            p.send(topic, key="k", value=i, partition=0)
            p.commit_transaction()
        consumer = Consumer(
            fast_cluster, ConsumerConfig(isolation_level=READ_COMMITTED)
        )
        consumer.assign([TopicPartition(topic, 0)])
        assert [r.value for r in consumer.poll()] == [0, 1, 2]
