"""Consumer client: assignment, polling, positions, group rebalancing."""

import copy
import pickle

import pytest

from repro.broker.partition import TopicPartition
from repro.clients.consumer import Consumer
from repro.clients.producer import Producer
from repro.config import (
    COOPERATIVE,
    EAGER,
    READ_COMMITTED,
    READ_UNCOMMITTED,
    ConsumerConfig,
    ProducerConfig,
)
from repro.errors import KafkaError, OffsetOutOfRangeError, UnstableOffsetCommitError


@pytest.fixture
def topic(fast_cluster):
    fast_cluster.create_topic("t", 2)
    return "t"


@pytest.fixture
def producer(fast_cluster, topic):
    return Producer(fast_cluster)


def produce(producer, topic, partition, *values):
    for v in values:
        producer.send(topic, key="k", value=v, partition=partition)
    producer.flush()


class TestManualAssignment:
    def test_poll_returns_produced_records(self, fast_cluster, topic, producer):
        produce(producer, topic, 0, 1, 2, 3)
        c = Consumer(fast_cluster)
        c.assign([TopicPartition(topic, 0)])
        assert [r.value for r in c.poll()] == [1, 2, 3]

    def test_poll_is_incremental(self, fast_cluster, topic, producer):
        c = Consumer(fast_cluster)
        c.assign([TopicPartition(topic, 0)])
        produce(producer, topic, 0, "a")
        assert [r.value for r in c.poll()] == ["a"]
        assert c.poll() == []
        produce(producer, topic, 0, "b")
        assert [r.value for r in c.poll()] == ["b"]

    def test_round_robin_across_partitions(self, fast_cluster, topic, producer):
        produce(producer, topic, 0, *range(5))
        produce(producer, topic, 1, *range(5))
        c = Consumer(fast_cluster)
        c.assign(fast_cluster.partitions_for(topic))
        records = c.poll(max_records=10)
        partitions = {r.partition for r in records}
        assert partitions == {0, 1}

    def test_seek_and_position(self, fast_cluster, topic, producer):
        produce(producer, topic, 0, *range(5))
        tp = TopicPartition(topic, 0)
        c = Consumer(fast_cluster)
        c.assign([tp])
        c.poll()
        assert c.position(tp) == 5
        c.seek(tp, 2)
        assert [r.value for r in c.poll()] == [2, 3, 4]

    def test_seek_to_beginning(self, fast_cluster, topic, producer):
        produce(producer, topic, 0, *range(3))
        tp = TopicPartition(topic, 0)
        c = Consumer(fast_cluster)
        c.assign([tp])
        c.poll()
        c.seek_to_beginning(tp)
        assert len(c.poll()) == 3

    def test_latest_reset_skips_existing(self, fast_cluster, topic, producer):
        produce(producer, topic, 0, "old")
        c = Consumer(fast_cluster, ConsumerConfig(auto_offset_reset="latest"))
        c.assign([TopicPartition(topic, 0)])
        assert c.poll() == []
        produce(producer, topic, 0, "new")
        assert [r.value for r in c.poll()] == ["new"]

    def test_topic_and_partition_are_the_origin(self, fast_cluster, topic, producer):
        produce(producer, topic, 1, "v")
        c = Consumer(fast_cluster)
        c.assign([TopicPartition(topic, 1)])
        record = c.poll()[0]
        assert (record.topic, record.partition) == (topic, 1)
        # The headers are the log's: the consumer adds nothing to them.
        log = fast_cluster.partition_state(TopicPartition(topic, 1)).leader_log()
        assert record.headers == log.records()[0].headers

    def test_end_offsets(self, fast_cluster, topic, producer):
        produce(producer, topic, 0, *range(4))
        tp = TopicPartition(topic, 0)
        assert fast_cluster.end_offset(tp, READ_UNCOMMITTED) == 4

    def test_polled_records_are_client_owned_and_immutable(
        self, fast_cluster, topic, producer
    ):
        """A polled record's headers are the log's own mapping, so every
        write through them raises — nothing can reach the leader's log, a
        replica's or another consumer — while a ``dict()`` copy is the
        caller's to change, and so is the dict the caller passed to
        ``send()``. The record itself is read-only."""
        tp = TopicPartition(topic, 0)
        sent = {"h": 0}
        producer.send(topic, key="k", value="v", headers=sent, partition=0)
        sent["h"] = 1                               # still the caller's dict
        producer.flush()
        sent["late"] = True
        first = Consumer(fast_cluster)
        first.assign([tp])
        record = first.poll()[0]
        original = {"h": 0}
        assert record.headers == original
        with pytest.raises(TypeError):
            record.headers["x"] = 1
        with pytest.raises(TypeError):
            del record.headers["h"]
        for write in (
            lambda h: h.update(x=1),
            lambda h: h.pop("h"),
            lambda h: h.popitem(),
            lambda h: h.clear(),
            lambda h: h.setdefault("x", 1),
            lambda h: h.__ior__({"x": 1}),
        ):
            with pytest.raises(TypeError):
                write(record.headers)
        mine = dict(record.headers)
        mine["x"] = 1                               # a copy is the caller's
        for duplicate in (
            copy.copy,
            copy.deepcopy,
            lambda r: pickle.loads(pickle.dumps(r)),
        ):
            twin = duplicate(record)                # ... a frozen one stays frozen
            assert twin == record and type(twin.headers) is type(record.headers)
        second = Consumer(fast_cluster)
        second.assign([tp])
        state = fast_cluster.partition_state(tp)
        assert len(state.isr) == 3
        stored = state.leader_log().records()[0].headers
        assert stored == original
        # One object, shared: what was polled (twice), what the leader and
        # every replica hold.
        assert second.poll()[0].headers is record.headers is stored
        for broker in state.isr:
            assert state.replica_log(broker).records()[0].headers is stored
        with pytest.raises(AttributeError):
            record.value = "w"
        with pytest.raises(AttributeError):
            record.headers = {}

    @pytest.mark.parametrize("method", ["poll", "poll_batches"])
    @pytest.mark.parametrize("max_records", [0, -1])
    def test_max_records_below_one_is_rejected(
        self, fast_cluster, topic, producer, method, max_records
    ):
        """``None`` is the only spelling of "the default"
        (``MAX_POLL_RECORDS``); 0 or less is an error, not a default."""
        produce(producer, topic, 0, "v")
        tp = TopicPartition(topic, 0)
        c = Consumer(fast_cluster)
        c.assign([tp])
        with pytest.raises(ValueError, match=str(max_records)):
            getattr(c, method)(max_records=max_records)
        assert c.position(tp) == 0
        assert [r.value for r in c.poll(max_records=1)] == ["v"]


class TestResetPolicyNone:
    """``auto_offset_reset="none"``: positions come from ``seek`` alone."""

    @pytest.fixture
    def consumer(self, fast_cluster, topic, producer):
        produce(producer, topic, 0, *range(4))
        return Consumer(fast_cluster, ConsumerConfig(auto_offset_reset="none"))

    def test_seek_then_assign_then_poll(self, consumer, topic):
        tp = TopicPartition(topic, 0)
        consumer.seek(tp, 1)
        consumer.assign([tp])
        assert [r.value for r in consumer.poll()] == [1, 2, 3]

    def test_assign_then_seek_then_poll(self, consumer, topic):
        tp = TopicPartition(topic, 0)
        consumer.assign([tp])
        consumer.seek(tp, 2)
        assert [r.value for r in consumer.poll()] == [2, 3]

    def test_poll_without_a_position_raises(self, consumer, topic):
        tp = TopicPartition(topic, 0)
        consumer.assign([tp])
        with pytest.raises(OffsetOutOfRangeError):
            consumer.poll()
        with pytest.raises(OffsetOutOfRangeError):
            consumer.position(tp)

    @pytest.mark.parametrize("policy", ["earliest", "latest", "none"])
    def test_reassigning_a_positioned_partition_resolves_nothing(
        self, fast_cluster, topic, producer, policy, monkeypatch
    ):
        produce(producer, topic, 0, *range(4))
        tp = TopicPartition(topic, 0)
        c = Consumer(fast_cluster, ConsumerConfig(auto_offset_reset=policy))
        c.seek(tp, 3)
        calls = []
        monkeypatch.setattr(c, "_reset_offset", calls.append)
        c.assign([tp])
        c.assign([tp])
        assert calls == []
        assert [r.value for r in c.poll()] == [3]


class TestGroups:
    def test_subscribe_requires_group(self, fast_cluster, topic):
        c = Consumer(fast_cluster)
        with pytest.raises(KafkaError):
            c.subscribe([topic])

    def test_subscribe_and_poll(self, fast_cluster, topic, producer):
        produce(producer, topic, 0, 1)
        produce(producer, topic, 1, 2)
        c = Consumer(fast_cluster, ConsumerConfig(group_id="g"))
        c.subscribe([topic])
        assert sorted(r.value for r in c.poll()) == [1, 2]

    def test_two_members_split_work(self, fast_cluster, topic, producer):
        c1 = Consumer(fast_cluster, ConsumerConfig(group_id="g"))
        c1.subscribe([topic])
        c2 = Consumer(fast_cluster, ConsumerConfig(group_id="g"))
        c2.subscribe([topic])
        produce(producer, topic, 0, "a")
        produce(producer, topic, 1, "b")
        got1 = [r.value for r in c1.poll()]
        got2 = [r.value for r in c2.poll()]
        assert sorted(got1 + got2) == ["a", "b"]
        assert len(got1) == len(got2) == 1

    def test_rebalance_on_member_join_is_transparent(self, fast_cluster, topic, producer):
        c1 = Consumer(fast_cluster, ConsumerConfig(group_id="g"))
        c1.subscribe([topic])
        assert len(c1.assignment()) == 2
        c2 = Consumer(fast_cluster, ConsumerConfig(group_id="g"))
        c2.subscribe([topic])
        c1.poll()   # triggers rejoin with the new generation
        assert len(c1.assignment()) == 1
        assert len(c2.assignment()) == 1

    def test_commit_and_resume_from_committed(self, fast_cluster, topic, producer):
        produce(producer, topic, 0, *range(4))
        tp = TopicPartition(topic, 0)
        c1 = Consumer(fast_cluster, ConsumerConfig(group_id="g"))
        c1.subscribe([topic])
        c1.poll()
        c1.commit_sync()
        c1.close()
        # A fresh member resumes from the committed position.
        c2 = Consumer(fast_cluster, ConsumerConfig(group_id="g"))
        c2.subscribe([topic])
        assert c2.poll() == []
        produce(producer, topic, 0, "new")
        assert [r.value for r in c2.poll()] == ["new"]

    def test_committed_accessor(self, fast_cluster, topic, producer):
        produce(producer, topic, 0, "x")
        tp = TopicPartition(topic, 0)
        c = Consumer(fast_cluster, ConsumerConfig(group_id="g"))
        c.subscribe([topic])
        c.poll()
        c.commit_sync()
        assert fast_cluster.group_coordinator.fetch_committed("g", [tp]) == {tp: 1}

    def test_close_leaves_group(self, fast_cluster, topic):
        c1 = Consumer(fast_cluster, ConsumerConfig(group_id="g"))
        c1.subscribe([topic])
        c2 = Consumer(fast_cluster, ConsumerConfig(group_id="g"))
        c2.subscribe([topic])
        c1.close()
        c2.poll()
        assert len(c2.assignment()) == 2


class TestCommittedStartOffset:
    """A group member starts an adopted partition at the offset the group
    committed, read only once no transaction is open on the group's offsets
    partition (KIP-447): a commit whose markers are still in flight must not
    be read as the one before it."""

    @pytest.fixture
    def handover(self, fast_cluster, topic, producer):
        """Offset 1 committed by a member that left; offset 3 inside the
        next owner's still-open transaction. Returns (tp, commit)."""
        produce(producer, topic, 0, *range(5))
        tp = TopicPartition(topic, 0)
        old = Consumer(fast_cluster, ConsumerConfig(group_id="g"))
        old.subscribe([topic])
        old.commit_sync({tp: 1})
        old.close()
        owner = Producer(fast_cluster, ProducerConfig(transactional_id="owner"))
        owner.init_transactions()
        owner.begin_transaction()
        owner.send_offsets_to_transaction({tp: 3}, "g")
        return tp, owner.commit_transaction

    @pytest.mark.parametrize("isolation", [READ_UNCOMMITTED, READ_COMMITTED])
    @pytest.mark.parametrize("protocol", [EAGER, COOPERATIVE])
    def test_adopted_partition_waits_for_the_open_offset_commit(
        self, fast_cluster, topic, handover, isolation, protocol
    ):
        tp, commit = handover
        member = Consumer(fast_cluster, ConsumerConfig(
            group_id="g", isolation_level=isolation, rebalance_protocol=protocol,
        ))
        member.subscribe([topic])
        assert tp in member.assignment()
        fetches = fast_cluster.network.rpc_counts.get("fetch", 0)
        assert member.poll() == []
        assert fast_cluster.network.rpc_counts.get("fetch", 0) == fetches
        commit()
        assert [r.value for r in member.poll()] == [3, 4]

    def test_position_raises_while_unstable_then_resolves(
        self, fast_cluster, topic, handover
    ):
        tp, commit = handover
        member = Consumer(fast_cluster, ConsumerConfig(group_id="g"))
        member.subscribe([topic])
        with pytest.raises(UnstableOffsetCommitError):
            member.position(tp)
        commit()
        assert member.position(tp) == 3

    def test_seek_ends_the_wait(self, fast_cluster, topic, handover):
        tp, _ = handover
        member = Consumer(fast_cluster, ConsumerConfig(group_id="g"))
        member.subscribe([topic])
        member.seek(tp, 4)
        assert member.position(tp) == 4
        assert [r.value for r in member.poll()] == [4]

    def test_seek_to_committed_rewinds_through_the_same_gate(
        self, fast_cluster, topic, handover
    ):
        tp, commit = handover
        commit()
        member = Consumer(fast_cluster, ConsumerConfig(group_id="g"))
        member.subscribe([topic])
        assert [r.value for r in member.poll()] == [3, 4]
        owner = Producer(fast_cluster, ProducerConfig(transactional_id="owner"))
        owner.init_transactions()
        owner.begin_transaction()
        owner.send_offsets_to_transaction({tp: 2}, "g")
        member.seek_to_committed()
        assert member.poll() == []
        owner.commit_transaction()
        assert [r.value for r in member.poll()] == [2, 3, 4]

    def test_seek_to_committed_requires_a_group(self, fast_cluster, topic):
        c = Consumer(fast_cluster)
        c.assign([TopicPartition(topic, 0)])
        with pytest.raises(KafkaError):
            c.seek_to_committed()


class TestIsolation:
    def test_read_committed_waits_for_marker(self, fast_cluster, topic):
        p = Producer(fast_cluster, ProducerConfig(transactional_id="tid"))
        p.init_transactions()
        c = Consumer(fast_cluster, ConsumerConfig(isolation_level=READ_COMMITTED))
        c.assign([TopicPartition(topic, 0)])
        p.begin_transaction()
        p.send(topic, key="k", value="pending", partition=0)
        p.flush()
        assert c.poll() == []
        p.commit_transaction()
        assert [r.value for r in c.poll()] == ["pending"]
