"""The transaction coordinator: 2PC, fencing, timeouts, failover recovery."""

import pytest

from repro.broker.partition import TRANSACTION_STATE_TOPIC, TopicPartition
from repro.broker.txn_coordinator import (
    COMPLETE_ABORT,
    COMPLETE_COMMIT,
    EMPTY,
    ONGOING,
)
from repro.errors import InvalidTxnStateError, ProducerFencedError
from repro.log.record import Record, RecordBatch


@pytest.fixture
def coordinator(fast_cluster):
    return fast_cluster.txn_coordinator


@pytest.fixture
def topic(fast_cluster):
    fast_cluster.create_topic("out", 4)
    return "out"


def txn_batch(pid, epoch, seq, value):
    return RecordBatch(
        [Record(key="k", value=value)],
        producer_id=pid,
        producer_epoch=epoch,
        base_sequence=seq,
        is_transactional=True,
    )


class TestRegistration:
    def test_init_assigns_pid_and_epoch_zero(self, coordinator):
        pid, epoch = coordinator.init_producer_id("app-task-0")
        assert pid >= 1
        assert epoch == 0
        assert coordinator._txns["app-task-0"].state == EMPTY

    def test_reinit_bumps_epoch_keeps_pid(self, coordinator):
        pid1, epoch1 = coordinator.init_producer_id("tid")
        pid2, epoch2 = coordinator.init_producer_id("tid")
        assert pid1 == pid2
        assert epoch2 == epoch1 + 1

    def test_distinct_ids_get_distinct_pids(self, coordinator):
        pid_a, _ = coordinator.init_producer_id("a")
        pid_b, _ = coordinator.init_producer_id("b")
        assert pid_a != pid_b

    def test_reinit_aborts_dangling_ongoing_txn(self, fast_cluster, coordinator, topic):
        pid, epoch = coordinator.init_producer_id("tid")
        tp = TopicPartition(topic, 0)
        coordinator.add_partitions("tid", pid, epoch, [tp])
        fast_cluster.partition_state(tp).append(txn_batch(pid, epoch, 0, "dangling"))
        coordinator.init_producer_id("tid")
        log = fast_cluster.partition_state(tp).leader_log()
        assert len(log._aborted) == 1
        assert log.open_transactions() == {}


class TestTwoPhaseCommit:
    def test_commit_writes_markers_to_all_partitions(self, fast_cluster, coordinator, topic):
        pid, epoch = coordinator.init_producer_id("tid")
        tps = [TopicPartition(topic, i) for i in range(3)]
        coordinator.add_partitions("tid", pid, epoch, tps)
        for i, tp in enumerate(tps):
            fast_cluster.partition_state(tp).append(txn_batch(pid, epoch, 0, i))
        before = coordinator.markers_written
        coordinator.end_transaction("tid", pid, epoch, commit=True)
        assert coordinator.markers_written - before == 3
        assert coordinator._txns["tid"].state == COMPLETE_COMMIT
        for tp in tps:
            log = fast_cluster.partition_state(tp).leader_log()
            markers = [r for r in log.records() if r.is_control]
            assert len(markers) == 1
            assert markers[0].control_type == "commit"

    def test_abort_records_aborted_spans(self, fast_cluster, coordinator, topic):
        pid, epoch = coordinator.init_producer_id("tid")
        tp = TopicPartition(topic, 0)
        coordinator.add_partitions("tid", pid, epoch, [tp])
        fast_cluster.partition_state(tp).append(txn_batch(pid, epoch, 0, "x"))
        coordinator.end_transaction("tid", pid, epoch, commit=False)
        assert coordinator._txns["tid"].state == COMPLETE_ABORT
        log = fast_cluster.partition_state(tp).leader_log()
        assert len(log._aborted) == 1

    def test_commit_empty_transaction_is_noop(self, coordinator):
        pid, epoch = coordinator.init_producer_id("tid")
        coordinator.end_transaction("tid", pid, epoch, commit=True)
        assert coordinator._txns["tid"].state == EMPTY

    def test_new_transaction_after_commit(self, fast_cluster, coordinator, topic):
        pid, epoch = coordinator.init_producer_id("tid")
        tp = TopicPartition(topic, 0)
        coordinator.add_partitions("tid", pid, epoch, [tp])
        fast_cluster.partition_state(tp).append(txn_batch(pid, epoch, 0, 1))
        coordinator.end_transaction("tid", pid, epoch, commit=True)
        coordinator.add_partitions("tid", pid, epoch, [tp])
        assert coordinator._txns["tid"].state == ONGOING

    def test_metadata_persisted_to_txn_log(self, fast_cluster, coordinator):
        pid, epoch = coordinator.init_producer_id("tid")
        tp_log = coordinator.txn_log_partition("tid")
        log = fast_cluster.partition_state(tp_log).leader_log()
        assert len(log) >= 1
        snapshots = [r.value for r in log.records()]
        assert snapshots[-1]["state"] == EMPTY
        assert snapshots[-1]["producer_id"] == pid


class TestFencing:
    def test_old_epoch_fenced_on_add_partitions(self, coordinator, topic):
        pid, old_epoch = coordinator.init_producer_id("tid")
        coordinator.init_producer_id("tid")  # new incarnation bumps epoch
        with pytest.raises(ProducerFencedError):
            coordinator.add_partitions("tid", pid, old_epoch, [TopicPartition(topic, 0)])

    def test_old_epoch_fenced_on_end_txn(self, coordinator, topic):
        pid, old_epoch = coordinator.init_producer_id("tid")
        coordinator.add_partitions("tid", pid, old_epoch, [TopicPartition(topic, 0)])
        coordinator.init_producer_id("tid")
        with pytest.raises(ProducerFencedError):
            coordinator.end_transaction("tid", pid, old_epoch, commit=True)

    def test_zombie_data_write_fenced_after_reinit(self, fast_cluster, coordinator, topic):
        """After re-registration aborts the dangling txn with a bumped-epoch
        marker, the zombie's further appends to the data partition fail."""
        pid, old_epoch = coordinator.init_producer_id("tid")
        tp = TopicPartition(topic, 0)
        coordinator.add_partitions("tid", pid, old_epoch, [tp])
        fast_cluster.partition_state(tp).append(txn_batch(pid, old_epoch, 0, "z1"))
        coordinator.init_producer_id("tid")
        from repro.errors import InvalidProducerEpochError

        with pytest.raises(InvalidProducerEpochError):
            fast_cluster.partition_state(tp).append(
                txn_batch(pid, old_epoch, 1, "z2")
            )

    def test_unknown_transactional_id_rejected(self, coordinator):
        with pytest.raises(InvalidTxnStateError):
            coordinator.end_transaction("ghost", 1, 0, commit=True)


class TestTimeout:
    def test_ongoing_txn_aborted_by_timer_after_timeout(
        self, fast_cluster, coordinator, topic
    ):
        """The self-rescheduling timeout timer aborts the transaction as
        soon as virtual time crosses the deadline — no sweep required."""
        pid, epoch = coordinator.init_producer_id("tid", timeout_ms=1000.0)
        tp = TopicPartition(topic, 0)
        coordinator.add_partitions("tid", pid, epoch, [tp])
        fast_cluster.partition_state(tp).append(txn_batch(pid, epoch, 0, "x"))
        fast_cluster.clock.advance(500.0)
        assert coordinator._txns["tid"].state == ONGOING
        fast_cluster.clock.advance(600.0)
        assert coordinator._txns["tid"].state == COMPLETE_ABORT
        # The explicit sweep finds nothing left to do.
        assert coordinator.abort_timed_out() == []
        # The timed-out producer is fenced when it finally tries to commit.
        with pytest.raises(ProducerFencedError):
            coordinator.end_transaction("tid", pid, epoch, commit=True)

    def test_sweep_still_aborts_when_timer_disarmed(
        self, fast_cluster, coordinator, topic
    ):
        """abort_timed_out remains a working sweep for callers that manage
        timers themselves (e.g. state rebuilt without re-arming)."""
        pid, epoch = coordinator.init_producer_id("tid", timeout_ms=1000.0)
        tp = TopicPartition(topic, 0)
        coordinator.add_partitions("tid", pid, epoch, [tp])
        fast_cluster.partition_state(tp).append(txn_batch(pid, epoch, 0, "x"))
        txn = coordinator._txns["tid"]
        coordinator._disarm_abort_timer(txn)
        fast_cluster.clock.advance(1100.0)
        assert coordinator._txns["tid"].state == ONGOING
        assert coordinator.abort_timed_out() == ["tid"]
        assert coordinator._txns["tid"].state == COMPLETE_ABORT

    def test_commit_before_timeout_cancels_timer(
        self, fast_cluster, coordinator, topic
    ):
        pid, epoch = coordinator.init_producer_id("tid", timeout_ms=1000.0)
        tp = TopicPartition(topic, 0)
        coordinator.add_partitions("tid", pid, epoch, [tp])
        fast_cluster.partition_state(tp).append(txn_batch(pid, epoch, 0, "x"))
        coordinator.end_transaction("tid", pid, epoch, commit=True)
        assert coordinator._txns["tid"].state == COMPLETE_COMMIT
        fast_cluster.clock.advance(5000.0)
        # No spurious epoch bump from a stale timeout timer.
        assert coordinator._txns["tid"].producer_epoch == epoch
        assert coordinator._txns["tid"].state == COMPLETE_COMMIT


class TestRecovery:
    def test_recover_rebuilds_from_txn_log(self, fast_cluster, coordinator, topic):
        pid, epoch = coordinator.init_producer_id("tid")
        coordinator.recover()
        meta = coordinator._txns["tid"]
        assert meta is not None
        assert meta.producer_id == pid
        assert meta.producer_epoch == epoch

    def test_recover_keeps_ongoing_txn_alive(self, fast_cluster, coordinator, topic):
        """A coordinator failover must not kill a live producer's ongoing
        transaction — it is restored as Ongoing and can still commit."""
        pid, epoch = coordinator.init_producer_id("tid")
        tp = TopicPartition(topic, 0)
        coordinator.add_partitions("tid", pid, epoch, [tp])
        fast_cluster.partition_state(tp).append(txn_batch(pid, epoch, 0, "x"))
        coordinator.recover()
        assert coordinator._txns["tid"].state == ONGOING
        coordinator.end_transaction("tid", pid, epoch, commit=True)
        assert coordinator._txns["tid"].state == COMPLETE_COMMIT

    def test_recover_completes_prepared_abort(self, fast_cluster, coordinator, topic):
        pid, epoch = coordinator.init_producer_id("tid")
        tp = TopicPartition(topic, 0)
        coordinator.add_partitions("tid", pid, epoch, [tp])
        fast_cluster.partition_state(tp).append(txn_batch(pid, epoch, 0, "x"))
        # Force the metadata into PrepareAbort as if the coordinator died
        # mid-abort, then recover.
        meta = coordinator._txns["tid"]
        meta.state = "PrepareAbort"
        coordinator._persist(meta)
        coordinator.recover()
        assert coordinator._txns["tid"].state == COMPLETE_ABORT
        log = fast_cluster.partition_state(tp).leader_log()
        assert len(log._aborted) == 1

    def test_recover_does_not_reuse_pids(self, fast_cluster, coordinator):
        pid, _ = coordinator.init_producer_id("a")
        coordinator.recover()
        pid_new, _ = coordinator.init_producer_id("b")
        assert pid_new > pid

    def test_broker_crash_triggers_recovery(self, fast_cluster, topic):
        """Crashing the broker leading a txn-log partition makes the new
        coordinator rebuild its state from the replicated log: the ongoing
        transaction survives and can still be committed."""
        coordinator = fast_cluster.txn_coordinator
        pid, epoch = coordinator.init_producer_id("tid")
        tp = TopicPartition(topic, 0)
        coordinator.add_partitions("tid", pid, epoch, [tp])
        fast_cluster.partition_state(tp).append(txn_batch(pid, epoch, 0, "x"))
        txn_log_tp = coordinator.txn_log_partition("tid")
        fast_cluster.crash_broker(fast_cluster.leader_of(txn_log_tp))
        assert coordinator._txns["tid"].state == ONGOING
        coordinator.end_transaction("tid", pid, epoch, commit=True)
        assert coordinator._txns["tid"].state == COMPLETE_COMMIT
