"""Replication, ISR, leader election, and durability of acked writes."""

import pytest

from repro.broker.partition import PartitionState, TopicPartition
from repro.errors import NotEnoughReplicasError, NotLeaderError
from repro.log.partition_log import PartitionLog
from repro.log.record import (
    ABORT_MARKER,
    COMMIT_MARKER,
    Record,
    RecordBatch,
)


def batch(*values):
    return RecordBatch([Record(key="k", value=v) for v in values])


@pytest.fixture
def partition():
    return PartitionState(
        TopicPartition("t", 0), broker_ids=[0, 1, 2], min_insync_replicas=2
    )


def logs(partition):
    """Every replica's log as of now, in broker order."""
    return [partition.replica_log(broker_id) for broker_id in (0, 1, 2)]


def test_acks_all_replicates_to_all_and_advances_hw(partition):
    partition.append(batch(1, 2), acks="all")
    for log in logs(partition):
        assert log.log_end_offset == 2
        assert log.high_watermark == 2


def test_acks_one_defers_replication(partition):
    partition.append(batch(1), acks="1")
    assert partition.leader_log().log_end_offset == 1
    assert partition.leader_log().high_watermark == 0
    assert partition.replica_log(1).log_end_offset == 0
    partition.replicate()
    assert partition.leader_log().high_watermark == 1
    assert partition.replica_log(1).log_end_offset == 1


def test_leader_failure_elects_in_sync_follower(partition):
    partition.append(batch(1, 2, 3), acks="all")
    partition.on_broker_failure(0)
    assert partition.leader in (1, 2)
    assert partition.isr == {1, 2}
    # Acked data survives: the new leader has everything.
    assert partition.leader_log().log_end_offset == 3
    assert [r.value for r in partition.leader_log().read(0)] == [1, 2, 3]


def test_survives_n_minus_1_failures(partition):
    partition.append(batch("durable"), acks="all")
    partition.on_broker_failure(0)
    partition.on_broker_failure(1)
    assert partition.leader == 2
    assert [r.value for r in partition.leader_log().read(0)] == ["durable"]


def test_all_replicas_down_then_restart(partition):
    partition.append(batch("x"), acks="all")
    for b in (0, 1, 2):
        partition.on_broker_failure(b)
    assert partition.leader is None
    with pytest.raises(NotLeaderError):
        partition.leader_log()
    # Broker 2 was the last in-sync replica, so it is the only clean
    # election candidate: broker 1 returning first must wait.
    partition.on_broker_restart(1)
    assert partition.leader is None
    partition.on_broker_restart(2)
    assert partition.leader == 2
    assert partition.isr == {1, 2}    # the waiting replica caught up
    assert [r.value for r in partition.leader_log().read(0)] == ["x"]
    assert [r.value for r in partition.replica_log(1).read(0)] == ["x"]


def test_unclean_candidate_never_leads(partition):
    """A replica that fell out of the ISR before the outage may miss acked
    data; it must not be elected (no unclean leader election)."""
    partition.on_broker_failure(0)                    # 0 leaves the ISR
    partition.append(batch("after-0-left"), acks="all")
    partition.on_broker_failure(1)
    partition.on_broker_failure(2)                    # full outage
    partition.on_broker_restart(0)                    # stale replica back
    assert partition.leader is None                   # ...and must wait
    partition.on_broker_restart(2)                    # eligible leader back
    assert partition.leader == 2
    values = [r.value for r in partition.leader_log().read(0)]
    assert "after-0-left" in values


def test_unreplicated_acks_one_write_lost_on_leader_failure(partition):
    """acks=1 data that never replicated is lost when the leader dies —
    the durability contract only covers acknowledged-by-ISR writes."""
    partition.append(batch("acked"), acks="all")
    partition.append(batch("unacked"), acks="1")
    partition.on_broker_failure(0)
    values = [r.value for r in partition.leader_log().read(0)]
    assert values == ["acked"]


def test_restarted_broker_catches_up_and_rejoins_isr(partition):
    partition.on_broker_failure(2)
    partition.append(batch(1, 2), acks="all")
    assert partition.isr == {0, 1}
    partition.on_broker_restart(2)
    assert partition.isr == {0, 1, 2}
    assert partition.replica_log(2).log_end_offset == 2


def test_diverged_follower_truncates_on_rejoin(partition):
    """A replica that led briefly with unacked writes truncates to the
    current leader's log when it comes back."""
    partition.append(batch("both"), acks="all")
    # Broker 0 appends without replication, then dies.
    partition.append(batch("only-on-0"), acks="1")
    partition.on_broker_failure(0)
    new_leader = partition.leader
    partition.append(batch("new-era"), acks="all")
    partition.on_broker_restart(0)
    assert partition.replica_log(0).log_end_offset == 2
    values = [r.value for r in partition.replica_log(0).read(0)]
    assert values == ["both", "new-era"]
    assert new_leader == partition.leader


def test_follower_behind_purged_leader_resyncs(partition):
    """If the records a returning follower misses were already deleted on
    the leader (retention / repartition purge), it resyncs from the
    leader's earliest retained offset instead of failing."""
    partition.on_broker_failure(2)
    partition.append(batch(*range(10)), acks="all")
    partition.leader_log().delete_records_before(6)
    partition.replica_log(1).delete_records_before(6)
    partition.on_broker_restart(2)
    follower = partition.replica_log(2)
    assert follower.log_start_offset == 6
    assert [r.value for r in follower.read(6)] == [6, 7, 8, 9]
    assert 2 in partition.isr


def test_min_isr_enforced(partition):
    partition.on_broker_failure(1)
    partition.on_broker_failure(2)
    with pytest.raises(NotEnoughReplicasError):
        partition.append(batch("x"), acks="all")


def test_single_replica_partition():
    p = PartitionState(TopicPartition("t", 0), broker_ids=[0], min_insync_replicas=1)
    p.append(batch(1), acks="all")
    assert p.leader_log().high_watermark == 1


def test_restarted_replica_forgets_transactions_it_aborted_while_diverged():
    """Replica 1 leads briefly and aborts pid 1's transaction without
    replicating; the next leader commits it. After the restart truncates the
    divergent suffix, replica 1 must serve the committed records, not mask
    them with the aborted span of the marker it lost."""
    partition = PartitionState(TopicPartition("t", 0), broker_ids=[0, 1, 2])

    def txn(sequence, *values):
        return RecordBatch(
            [Record(key="k", value=v) for v in values],
            producer_id=1, producer_epoch=0, base_sequence=sequence,
            is_transactional=True,
        )

    partition.append(txn(0, "a"))
    partition.on_broker_failure(0)
    assert partition.leader == 1
    diverged = partition.leader_log()           # unreplicated leader appends
    diverged.append_batch(txn(1, "b"))
    diverged.append_marker(ABORT_MARKER, 1, 0)
    partition.on_broker_failure(1)
    assert partition.leader == 2
    partition.append(txn(1, "c", "d", "e"))
    partition.append_marker(COMMIT_MARKER, 1, 0)

    partition.on_broker_restart(1)

    leader, replica = partition.leader_log(), partition.replica_log(1)
    assert replica.records() == leader.records()
    assert replica._aborted == leader._aborted == []
    assert replica.open_transactions() == leader.open_transactions() == {}
    committed = leader.read_columnar(0, filter_aborted=True).values()
    assert committed == ["a", "c", "d", "e"]
    assert replica.read_columnar(0, filter_aborted=True).values() == committed


def test_sync_cost_is_proportional_to_the_suffix_not_the_producers(monkeypatch):
    """Structural guard (no clock): with 64 producer ids cached, syncing one
    producer's batch leaves the other 63 producers' follower state the very
    same objects, and an append without a marker never reaches the aborted
    index. A sync that re-snapshots every producer fails this."""
    partition = PartitionState(TopicPartition("t", 0), broker_ids=[0, 1])

    def idempotent(pid, sequence, *values):
        return RecordBatch(
            [Record(key="k", value=v) for v in values],
            producer_id=pid, producer_epoch=0, base_sequence=sequence,
        )

    for pid in range(64):
        partition.append(idempotent(pid, 0, "first"))
    leader, follower = partition.leader_log(), partition.replica_log(1)
    states = dict(follower._producers)
    held = list(follower._batches)
    assert len(states) == len(held) == 64
    indexed = []
    monkeypatch.setattr(follower, "_index_aborted", indexed.append)

    partition.append(idempotent(7, 1, "second", "third"))

    # Looking at the follower is what runs the sync the append owes.
    assert partition.replica_log(1) is follower
    assert follower.records() == leader.records()
    for pid in set(range(64)) - {7}:
        assert follower._producers[pid] is states[pid]
    # The sync added the leader's one new stored batch and rebuilt none.
    assert len(follower._batches) == 65
    assert all(a is b for a, b in zip(follower._batches, held))
    assert follower._batches[64] is leader._batches[64]
    assert follower._producers[7] is not leader._producers[7]
    assert follower._producers[7].last_sequence == 2
    assert indexed == []
    # The metadata itself is immutable and shared, not copied.
    assert follower._producers[7].batches[-1] is leader._producers[7].batches[-1]


# -- replication on demand ---------------------------------------------------------


def test_acked_appends_sync_no_follower_until_one_is_looked_at(partition, monkeypatch):
    """``replicate`` only notes the debt: N acknowledged appends and markers
    run no follower sync; the first ``replica_log`` runs exactly one per
    in-sync follower, over all N; the second has nothing left to do."""
    mirrors = []
    real = PartitionLog.replicate_mirror

    def counted(self, source):
        mirrors.append((self.name, source.log_end_offset - self.log_end_offset))
        real(self, source)

    monkeypatch.setattr(PartitionLog, "replicate_mirror", counted)

    def txn(sequence, *values):
        return RecordBatch(
            [Record(key="k", value=v) for v in values],
            producer_id=1, producer_epoch=0, base_sequence=sequence,
            is_transactional=True,
        )

    for i in range(10):
        partition.append(txn(2 * i, i, i), acks="all")
        partition.append_marker(COMMIT_MARKER, 1, 0)
    leader = partition.leader_log()
    # Acknowledged means visible: the leader's watermarks do not wait.
    assert leader.high_watermark == leader.last_stable_offset == 30
    assert partition.leader_log().high_watermark == 30
    assert mirrors == []

    follower = partition.replica_log(1)
    assert sorted(mirrors) == [("t-0@1", 30), ("t-0@2", 30)]
    for log in (follower, partition._replicas[2]):
        assert log.records() == leader.records()
        assert log.high_watermark == log.last_stable_offset == 30

    del mirrors[:]
    assert partition.replica_log(1) is follower
    assert partition.replica_log(2) is partition._replicas[2]
    assert mirrors == []


def test_append_behind_the_partitions_back_is_loud(partition):
    """``leader_log()`` is the mutable leader log. Appending to it directly
    while a sync is owed would hand the followers a record nobody
    acknowledged; the next settle refuses, naming partition and offsets."""
    partition.append(batch("acked"), acks="all")
    partition.leader_log().append_batch(batch("smuggled", "in"))
    with pytest.raises(RuntimeError, match=r"t-0.*offset 1\b.*ends at 3\b"):
        partition.replica_log(1)
    with pytest.raises(RuntimeError):
        partition.on_broker_failure(0)


def test_unreplicated_append_through_the_partition_is_not_over_replicated(partition):
    partition.append(batch("acked"), acks="all")
    partition.append(batch("leader-only"), acks="1")
    assert [log.log_end_offset for log in logs(partition)] == [2, 1, 1]
    assert partition.leader_log().high_watermark == 1
    partition.replicate()
    assert [log.log_end_offset for log in logs(partition)] == [2, 2, 2]
    assert {log.high_watermark for log in logs(partition)} == {2}


def test_leadership_transfer_hands_over_every_acked_record(partition):
    """The new leader is settled before it leads."""
    partition.append(batch("a", "b"), acks="all")
    partition.transfer_leadership(2)
    assert partition.leader == 2 and partition.isr == {0, 1, 2}
    assert [r.value for r in partition.leader_log().read(0)] == ["a", "b"]
    with pytest.raises(NotLeaderError):
        partition.transfer_leadership(7)


def test_leadership_transfer_cuts_the_old_leaders_unreplicated_suffix(partition):
    """Behaviour change of the on-demand replication PR, not a restatement:
    the old leader stays in the ISR, so what it never replicated (acks=1)
    is cut at the transfer. Left in place, a later sync trims it only by
    length, and a record the new leader never had sits below the high
    watermark on an in-sync replica."""
    partition.append(batch("a", "b"), acks="all")
    partition.append(batch("leader-only"), acks="1")
    partition.transfer_leadership(1)
    assert partition.replica_log(0).log_end_offset == 2
    partition.append(batch("c"), acks="all")
    for log in logs(partition):
        assert [r.value for r in log.read(0)] == ["a", "b", "c"]
        assert log.high_watermark == 3


def test_election_cuts_what_an_in_sync_follower_holds_past_the_new_leader(partition):
    """The same behaviour change at a leader failure: a follower that
    rejoins copies the leader's whole log, an unreplicated acks=1 suffix
    included. If a shorter replica is then elected, that suffix is cut at
    the election instead of being trimmed by length, append by append."""
    partition.append(batch("acked"), acks="all")
    partition.append(batch("leader-only", "leader-only"), acks="1")
    partition.on_broker_failure(2)
    partition.on_broker_restart(2)
    assert partition.replica_log(2).log_end_offset == 3
    partition.on_broker_failure(0)
    assert partition.leader == 1 and partition.isr == {1, 2}
    assert partition.replica_log(2).log_end_offset == 1
    for value in ("x", "y", "z"):
        partition.append(batch(value), acks="all")
    for broker_id in (1, 2):
        values = [r.value for r in partition.replica_log(broker_id).read(0)]
        assert values == ["acked", "x", "y", "z"]


def test_purge_reaches_followers_that_were_behind(partition):
    keyed = RecordBatch([Record(key=f"k{i % 2}", value=i) for i in range(6)])
    partition.append(keyed, acks="all")
    assert partition.delete_records_before(2) == 2
    for log in logs(partition):
        assert (log.log_start_offset, len(log)) == (2, 4)
