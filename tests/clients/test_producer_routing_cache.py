"""Client routing: the cluster is the only routing truth.

Producer and consumer ask the cluster who leads a partition at every RPC.
The routing a producer uses is the cluster's own: ``Cluster.route_of``
keeps, per topic, a table of ``TopicPartition``s (so that ``send`` builds
none per record) and a key -> ``TopicPartition`` memo (so that a key is
hashed once), shared by every producer and Streams sink on that cluster
for its lifetime: a topic keeps the partition count it was created with,
and a leader failover changes who serves a partition, never which
partition a key goes to. No memo outlives its cluster or serves another
one.
"""

from collections import Counter

import pytest

from repro import util
from repro.broker.cluster import Cluster
from repro.broker.partition import TopicPartition
from repro.clients.consumer import Consumer
from repro.clients.producer import Producer
from repro.config import ConsumerConfig, ProducerConfig, StreamsConfig
from repro.errors import (
    InvalidTxnStateError,
    KafkaError,
    UnknownTopicOrPartitionError,
)
from repro.streams import KafkaStreams, StreamsBuilder
from repro.util import partition_for


@pytest.fixture
def topic(fast_cluster):
    fast_cluster.create_topic("t", 2)
    return "t"


def log_values(cluster, tp):
    log = cluster.partition_state(tp).leader_log()
    return [r.value for r in log.records() if not r.is_control]


class TestLeaderFailover:
    def test_send_after_leader_crash_routes_to_new_leader(
        self, fast_cluster, topic
    ):
        tp = TopicPartition(topic, 0)
        p = Producer(fast_cluster)
        p.send(topic, key="k", value=1, partition=0)
        p.flush()

        old_leader = fast_cluster.leader_of(tp)
        fast_cluster.crash_broker(old_leader)
        new_leader = fast_cluster.leader_of(tp)
        assert new_leader != old_leader

        p.send(topic, key="k", value=2, partition=0)
        p.flush()
        # The record reached the new leader's log, with nothing lost.
        assert log_values(fast_cluster, tp) == [1, 2]
        # And the send did not need the retry path: the route is the
        # cluster's, as of this flush.
        assert p.retries_performed == 0

    def test_consumer_poll_after_leader_crash(self, fast_cluster, topic):
        tp = TopicPartition(topic, 0)
        p = Producer(fast_cluster)
        p.send(topic, key="k", value=1, partition=0)
        p.flush()

        c = Consumer(fast_cluster)
        c.assign([tp])
        assert [r.value for r in c.poll()] == [1]

        old_leader = fast_cluster.leader_of(tp)
        fast_cluster.crash_broker(old_leader)

        p.send(topic, key="k", value=2, partition=0)
        p.flush()
        assert [r.value for r in c.poll()] == [2]

    def test_send_across_a_leader_crash_and_restart(self, fast_cluster, topic):
        tp = TopicPartition(topic, 0)
        p = Producer(fast_cluster)
        p.send(topic, key="k", value=1, partition=0)
        p.flush()
        victim = fast_cluster.leader_of(tp)
        fast_cluster.crash_broker(victim)
        p.send(topic, key="k", value=2, partition=0)
        p.flush()
        fast_cluster.restart_broker(victim)
        p.send(topic, key="k", value=3, partition=0)
        p.flush()
        assert log_values(fast_cluster, tp) == [1, 2, 3]


class _Name(str):
    """A str subclass hashes like the str it is."""


class TestPartitionTable:
    """``send`` routes through a per-topic list of ``TopicPartition``s:
    every key must still land where ``partition_for`` says."""

    KEYS = (
        [f"user-{i}" for i in range(200)]
        + ["", "ünïcode-ключ", _Name("sub"), b"raw", 0, -7, 12345, True, None,
           3.5, ("a", 1)]
    )

    def test_keys_land_where_partition_for_says_across_fig5_growth(
        self, fast_cluster
    ):
        """Figure 5's input and output partition counts, one topic each;
        the second round of sends is served from the memo."""
        p = Producer(fast_cluster)
        for count in (4, 10):
            topic = f"fig5-{count}"
            fast_cluster.create_topic(topic, count)
            for round_ in range(2):
                for key in self.KEYS:
                    tp = p.send(topic, key=key, value=round_)
                    assert tp == TopicPartition(topic, partition_for(key, count)), key
            p.flush()
            landed = [
                log_values(fast_cluster, tp)
                for tp in fast_cluster.partitions_for(topic)
            ]
            assert sum(len(values) for values in landed) == 2 * len(self.KEYS)

    def test_explicit_partition_is_taken_as_given(self, fast_cluster, topic):
        p = Producer(fast_cluster, ProducerConfig(retries=0))
        assert p.send(topic, key="k", value=1, partition=1) == TopicPartition(topic, 1)
        p.flush()
        assert log_values(fast_cluster, TopicPartition(topic, 1)) == [1]
        # Out of range: still a TopicPartition, refused at leader lookup.
        for missing in (2, -1):
            assert p.send(topic, key="k", value=2, partition=missing) == (
                TopicPartition(topic, missing)
            )
            with pytest.raises(UnknownTopicOrPartitionError):
                p.flush()
            p._pending.clear()

    def test_headers_are_copied_and_checks_survive(self, fast_cluster, topic):
        headers = {"h": 1}
        p = Producer(fast_cluster)
        tp = p.send(topic, key="k", value=1, headers=headers)
        headers["h"] = 2
        p.flush()
        stored = fast_cluster.partition_state(tp).leader_log().records()[0].headers
        assert stored == {"h": 1}
        p.close()
        with pytest.raises(KafkaError):
            p.send(topic, key="k", value=2)
        t = Producer(fast_cluster, ProducerConfig(transactional_id="txn"))
        t.init_transactions()
        with pytest.raises(InvalidTxnStateError):
            t.send(topic, key="k", value=3)


@pytest.fixture
def hashed(monkeypatch):
    """Counts, per value, the hashes the default partitioner computes."""
    counts = Counter()
    stable_hash = util.stable_hash

    def counting(value):
        counts[value] += 1
        return stable_hash(value)

    monkeypatch.setattr(util, "stable_hash", counting)
    return counts


def passthrough_app(cluster):
    """A Streams app whose sink routes ``in``'s records onto ``out`` by key."""
    builder = StreamsBuilder()
    builder.stream("in").to("out")
    app = KafkaStreams(builder.build(), cluster, StreamsConfig(application_id="pass"))
    app.start(1)
    return app


class TestOneMemoPerCluster:
    """Every producer and Streams sink on a cluster routes through the
    cluster's one key memo, and another cluster keeps its own."""

    KEY = "user-42"

    def route_everywhere(self, cluster, app, count, hashed):
        """Send ``KEY`` to ``out`` from two producers and through the sink;
        each must land on ``partition_for(KEY, count)``. Returns how often
        the clients hashed ``KEY`` to get there."""
        want = TopicPartition("out", partition_for(self.KEY, count))
        before = hashed[self.KEY]
        for client in ("first", "second"):
            producer = Producer(cluster, ProducerConfig(client_id=client))
            assert producer.send("out", key=self.KEY, value=client) == want
            producer.flush()
        feeder = Producer(cluster)
        feeder.send("in", key=self.KEY, value="sink", partition=0)
        feeder.flush()
        app.run_until_idle()
        log = cluster.partition_state(want).leader_log()
        assert [r.value for r in log.records()][-3:] == ["first", "second", "sink"]
        return hashed[self.KEY] - before

    def test_producers_and_a_sink_hash_a_key_once(self, fast_cluster, hashed):
        fast_cluster.create_topic("in", 1)
        fast_cluster.create_topic("out", 4)
        app = passthrough_app(fast_cluster)
        assert self.route_everywhere(fast_cluster, app, 4, hashed) == 1

    def test_a_second_cluster_never_shares_the_memo(self, hashed):
        first, second = Cluster(num_brokers=1, seed=7), Cluster(num_brokers=1, seed=7)
        first.create_topic("t", 2)
        second.create_topic("t", 5)
        want = {first: partition_for(self.KEY, 2), second: partition_for(self.KEY, 5)}
        hashed.clear()
        for cluster in (first, second, first, second):
            tp = Producer(cluster).send("t", key=self.KEY, value=0)
            assert tp == TopicPartition("t", want[cluster])
        assert first.route_of("t")[1] is not second.route_of("t")[1]
        assert hashed[self.KEY] == 2                 # once on each cluster
