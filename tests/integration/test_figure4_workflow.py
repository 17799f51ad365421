"""Figure 4, step by step: the Kafka transactions work flow.

Walks the full protocol of Section 4.2 against the simulated broker,
asserting the durable artifacts at every lettered step of the figure:

  (a) the coordinator persists metadata updates to the transaction log
  (b) the producer registers its transactional id (epoch bump, fencing)
  (c) partitions are registered with the coordinator before writes
  (d) data is produced to the data partitions
  (e) commit initiates the two-phase protocol (PrepareCommit barrier)
  (f) commit markers land on every registered partition
  (g) committed offsets align with committed outputs after failover
"""

import pytest

from repro.broker.partition import TRANSACTION_STATE_TOPIC, TopicPartition
from repro.broker.txn_coordinator import (
    COMPLETE_COMMIT,
    EMPTY,
    ONGOING,
    PREPARE_COMMIT,
)
from repro.clients.consumer import Consumer
from repro.clients.producer import Producer
from repro.config import (
    READ_COMMITTED,
    ConsumerConfig,
    ProducerConfig,
)

from tests.streams.harness import make_cluster


@pytest.fixture
def env():
    cluster = make_cluster(src=1, sink=2)
    producer = Producer(cluster, ProducerConfig(transactional_id="fig4"))
    return cluster, producer


def txn_log_records(cluster, transactional_id="fig4"):
    tp = cluster.txn_coordinator.txn_log_partition(transactional_id)
    log = cluster.partition_state(tp).leader_log()
    return [
        r.value for r in log.records()
        if not r.is_control and r.key == transactional_id
    ]


def test_step_a_b_registration_persists_metadata(env):
    cluster, producer = env
    producer.init_transactions()
    snapshots = txn_log_records(cluster)
    assert snapshots, "registration must append to the transaction log"
    assert snapshots[-1]["state"] == EMPTY
    assert snapshots[-1]["producer_epoch"] == 0
    # Re-registration bumps the epoch in the durable log (zombie fencing).
    producer2 = Producer(cluster, ProducerConfig(transactional_id="fig4"))
    producer2.init_transactions()
    assert txn_log_records(cluster)[-1]["producer_epoch"] == 1


def test_step_c_d_partition_registration_precedes_visibility(env):
    cluster, producer = env
    producer.init_transactions()
    producer.begin_transaction()
    producer.send("sink", key="k", value=1, partition=0)
    producer.flush()
    meta = cluster.txn_coordinator._txns["fig4"]
    assert meta.state == ONGOING
    assert TopicPartition("sink", 0) in meta.partitions
    snapshots = txn_log_records(cluster)
    assert ["sink", 0] in snapshots[-1]["partitions"] or (
        "sink", 0
    ) in [tuple(p) for p in snapshots[-1]["partitions"]]
    # (d) the data sits in the partition log, but uncommitted.
    log = cluster.partition_state(TopicPartition("sink", 0)).leader_log()
    assert len(log) == 1
    assert log.open_transactions()


def test_step_e_prepare_commit_is_the_barrier(env):
    cluster, producer = env
    producer.init_transactions()
    producer.begin_transaction()
    producer.send("sink", key="k", value=1, partition=0)
    producer.commit_transaction()
    snapshots = [s["state"] for s in txn_log_records(cluster)]
    # The durable state sequence crosses PrepareCommit before completion.
    assert PREPARE_COMMIT in snapshots
    assert snapshots.index(PREPARE_COMMIT) < snapshots.index(COMPLETE_COMMIT)


def test_step_f_markers_on_every_registered_partition(env):
    cluster, producer = env
    producer.init_transactions()
    producer.begin_transaction()
    producer.send("sink", key="a", value=1, partition=0)
    producer.send("sink", key="b", value=2, partition=1)
    producer.commit_transaction()
    for partition in (0, 1):
        log = cluster.partition_state(TopicPartition("sink", partition)).leader_log()
        markers = [r for r in log.records() if r.is_control]
        assert [m.control_type for m in markers] == ["commit"]


def test_step_g_offsets_and_outputs_align_after_failover(env):
    """The read-process-write contract: after a commit, the committed
    source offsets point exactly past the inputs whose outputs are
    visible — a restarted task neither drops nor re-emits anything."""
    cluster, producer = env
    src_producer = Producer(cluster)
    for i in range(6):
        src_producer.send("src", key=f"k{i}", value=i, partition=0)
    src_producer.flush()

    consumer = Consumer(
        cluster,
        ConsumerConfig(group_id="fig4-app", isolation_level=READ_COMMITTED),
    )
    consumer.assign([TopicPartition("src", 0)])
    producer.init_transactions()

    # First cycle: read 3, write 3, commit offsets inside the txn.
    producer.begin_transaction()
    records = consumer.poll(max_records=3)
    for record in records:
        producer.send("sink", key=record.key, value=record.value * 10, partition=0)
    producer.send_offsets_to_transaction(
        {TopicPartition("src", 0): records[-1].offset + 1}, "fig4-app"
    )
    producer.commit_transaction()

    # Second cycle crashes before commit: aborted by re-registration.
    producer.begin_transaction()
    more = consumer.poll(max_records=3)
    for record in more:
        producer.send("sink", key=record.key, value=record.value * 10, partition=0)
    producer.flush()
    replacement = Producer(cluster, ProducerConfig(transactional_id="fig4"))
    replacement.init_transactions()       # fences + aborts the dangling txn

    # Recovery: resume from the committed offset; outputs match exactly.
    committed = cluster.group_coordinator.fetch_committed(
        "fig4-app", [TopicPartition("src", 0)]
    )[TopicPartition("src", 0)]
    assert committed == 3
    verifier = Consumer(cluster, ConsumerConfig(isolation_level=READ_COMMITTED))
    verifier.assign([TopicPartition("sink", 0)])
    visible = [r.value for r in verifier.poll(max_records=100)]
    assert visible == [0, 10, 20]        # cycle 1 only; cycle 2 aborted
