"""Unit tests for each invariant checker, including hand-mutated violations:
every checker must both pass on healthy state and raise on corrupted state."""

import pytest

from repro.broker.cluster import Cluster
from repro.broker.partition import TopicPartition
from repro.clients.producer import Producer
from repro.config import EXACTLY_ONCE, ProducerConfig, StreamsConfig
from repro.log.columnar import StoredBatch
from repro.sim.invariants import (
    ChangelogStateEquivalence,
    CommittedOutputEquality,
    HighWatermarkMonotonic,
    InvariantSuite,
    InvariantViolation,
    ReadCommittedIsolation,
    ReplicaConsistency,
    committed_records,
)
from repro.streams import KafkaStreams, StreamsBuilder

from tests.streams.harness import make_cluster


@pytest.fixture
def cluster():
    cluster = Cluster(num_brokers=3, seed=7)
    cluster.network.charge_latency = False
    cluster.create_topic("t", 1)
    return cluster


def produce(cluster, n=5, topic="t"):
    producer = Producer(cluster)
    for i in range(n):
        producer.send(topic, key=f"k{i}", value=i)
    producer.flush()


# -- HighWatermarkMonotonic ----------------------------------------------------------


def test_hw_monotonic_passes_on_growth(cluster):
    checker = HighWatermarkMonotonic()
    checker.check(cluster)
    produce(cluster)
    checker.check(cluster)


def test_hw_monotonic_survives_failover(cluster):
    checker = HighWatermarkMonotonic()
    produce(cluster)
    checker.check(cluster)
    tp = TopicPartition("t", 0)
    cluster.crash_broker(cluster.leader_of(tp))
    checker.check(cluster)


def test_hw_monotonic_catches_regression(cluster):
    checker = HighWatermarkMonotonic()
    produce(cluster)
    checker.check(cluster)
    tp = TopicPartition("t", 0)
    cluster.partition_state(tp).leader_log().high_watermark -= 1
    with pytest.raises(InvariantViolation, match="regressed"):
        checker.check(cluster)


# -- ReplicaConsistency --------------------------------------------------------------


def test_replica_consistency_passes_on_healthy_cluster(cluster):
    produce(cluster)
    ReplicaConsistency().check(cluster)


def test_replica_consistency_catches_dead_broker_in_isr(cluster):
    produce(cluster)
    tp = TopicPartition("t", 0)
    state = cluster.partition_state(tp)
    victim = next(b for b in state.isr if b != state.leader)
    cluster.brokers[victim].alive = False     # bypass crash path on purpose
    with pytest.raises(InvariantViolation, match="dead brokers"):
        ReplicaConsistency().check(cluster)


def test_replica_consistency_catches_divergence_below_hw(cluster):
    produce(cluster)
    tp = TopicPartition("t", 0)
    state = cluster.partition_state(tp)
    follower_id = next(b for b in state.isr if b != state.leader)
    follower = state.replica_log(follower_id)
    # Replace (not mutate) the follower's copy: replicated stored batches
    # are shared with the leader, so in-place mutation corrupts both sides
    # identically and is invisible by construction.
    shared = follower._batches[0]
    assert shared is state.leader_log()._batches[0]
    follower._batches[0] = StoredBatch(
        shared.base_offset, shared.keys, ["corrupted"] + shared.values[1:],
        shared.timestamps, shared.headers,
    )
    with pytest.raises(InvariantViolation, match="diverges"):
        ReplicaConsistency().check(cluster)


def test_replica_consistency_catches_leader_outside_isr(cluster):
    produce(cluster)
    tp = TopicPartition("t", 0)
    state = cluster.partition_state(tp)
    state.isr.discard(state.leader)
    with pytest.raises(InvariantViolation, match="not in ISR"):
        ReplicaConsistency().check(cluster)


# -- ReadCommittedIsolation -----------------------------------------------------------


def test_read_committed_checker_passes_after_commit(cluster):
    producer = Producer(cluster, ProducerConfig(transactional_id="t1"))
    producer.init_transactions()
    producer.begin_transaction()
    producer.send("t", key="a", value=1)
    producer.commit_transaction()
    ReadCommittedIsolation().check(cluster)


def test_read_committed_checker_passes_with_aborted_txn(cluster):
    """The real fetch path filters the aborted data, so the continuous
    checker (which re-fetches read_committed) stays green."""
    producer = Producer(cluster, ProducerConfig(transactional_id="t1"))
    producer.init_transactions()
    producer.begin_transaction()
    producer.send("t", key="a", value=1)
    producer.abort_transaction()
    ReadCommittedIsolation().check(cluster)


# (The violation paths of verify_records are covered in
# tests/sim/test_chaos.py with deliberately unfiltered fetches.)


# -- ChangelogStateEquivalence --------------------------------------------------------


def make_counting_app(cluster):
    builder = StreamsBuilder()
    (
        builder.stream("in")
        .map(lambda k, v: (v, 1))
        .group_by_key()
        .count(store_name="counts")
        .to_stream()
        .to("out")
    )
    return KafkaStreams(
        builder.build(),
        cluster,
        StreamsConfig(
            application_id="inv-app",
            processing_guarantee=EXACTLY_ONCE,
            commit_interval_ms=20.0,
        ),
    )


def test_changelog_equivalence_verifies_restores_and_final_state():
    cluster = make_cluster(**{"in": 1, "out": 1})
    app = make_counting_app(cluster)
    checker = ChangelogStateEquivalence().attach(app)
    app.start(1)
    produce(cluster, n=10, topic="in")
    app.run_until_idle()
    # Migrate the task: crash the instance and replace it — the restore on
    # the replacement must be observed and verified.
    app.crash_instance(app.instances[0])
    app.add_instance()
    cluster.clock.advance(500.0)
    app.run_until_idle()
    assert checker.restores_verified > 0
    checker.check(cluster, final=True)


def test_changelog_equivalence_catches_corrupted_store():
    cluster = make_cluster(**{"in": 1, "out": 1})
    app = make_counting_app(cluster)
    checker = ChangelogStateEquivalence().attach(app)
    app.start(1)
    produce(cluster, n=10, topic="in")
    app.run_until_idle()
    task = next(iter(app.instances[0].tasks.values()))
    store = task.stores()["counts"]
    store._data["phantom-key"] = 999       # corrupt behind the changelog's back
    with pytest.raises(InvariantViolation, match="differ"):
        checker.check(cluster, final=True)


# -- CommittedOutputEquality ----------------------------------------------------------


def test_output_equality_passes_on_identical_runs(cluster):
    produce(cluster)
    golden = committed_records(cluster, ["t"])
    CommittedOutputEquality(golden).check(cluster, final=True)


def test_output_equality_tolerates_reordering(cluster):
    produce(cluster)
    golden = committed_records(cluster, ["t"])
    golden["t"] = list(reversed(golden["t"]))
    CommittedOutputEquality(golden).check(cluster, final=True)


def test_output_equality_catches_missing_record(cluster):
    produce(cluster)
    golden = committed_records(cluster, ["t"])
    golden["t"].append((0, "lost-key", "lost-value"))
    with pytest.raises(InvariantViolation, match="missing"):
        CommittedOutputEquality(golden).check(cluster, final=True)


def test_output_equality_skipped_mid_run(cluster):
    produce(cluster)
    golden = committed_records(cluster, ["t"])
    golden["t"].append((0, "lost-key", "lost-value"))
    CommittedOutputEquality(golden).check(cluster, final=False)    # no raise


# -- InvariantSuite -------------------------------------------------------------------


def test_suite_counts_checks_and_defers_final_only(cluster):
    produce(cluster)
    bad_golden = {"t": [(0, "nope", 1)]}
    suite = InvariantSuite().add(CommittedOutputEquality(bad_golden))
    suite.check_all(cluster, final=False)
    assert suite.checks_performed == 1
    with pytest.raises(InvariantViolation):
        suite.check_all(cluster, final=True)
