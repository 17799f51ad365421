"""Unit tests for changelog-topic compaction."""

from repro.log.compaction import compact, compact_log
from repro.log.partition_log import AbortedTxn, PartitionLog
from repro.log.record import (
    ABORT_MARKER,
    COMMIT_MARKER,
    Record,
    RecordBatch,
)


def rec(offset, key, value, **kw):
    return Record(key=key, value=value, offset=offset, **kw)


def test_keeps_latest_value_per_key():
    records = [rec(0, "a", 1), rec(1, "b", 2), rec(2, "a", 3)]
    out = compact(records, dirty_from=10)
    assert [(r.key, r.value, r.offset) for r in out] == [("b", 2, 1), ("a", 3, 2)]


def test_offsets_preserved_and_sparse():
    records = [rec(i, "k", i) for i in range(5)]
    out = compact(records, dirty_from=10)
    assert [(r.key, r.offset) for r in out] == [("k", 4)]


def test_dirty_records_untouched():
    records = [rec(0, "a", 1), rec(1, "a", 2), rec(2, "a", 3)]
    out = compact(records, dirty_from=2)
    # Offsets 0-1 are clean (latest "a" there is offset 1); offset 2 is
    # beyond the dirty point — possibly an open transaction — so it is kept
    # verbatim and does not shadow the clean record.
    assert [(r.offset, r.value) for r in out] == [(1, 2), (2, 3)]


def test_tombstone_removes_older_values_but_is_kept():
    records = [rec(0, "a", 1), rec(1, "a", None)]
    out = compact(records, dirty_from=10)
    assert [(r.key, r.value) for r in out] == [("a", None)]


def test_drop_tombstones():
    records = [rec(0, "a", 1), rec(1, "a", None), rec(2, "b", 2)]
    out = compact(records, dirty_from=10, drop_tombstones=True)
    assert [(r.key, r.value) for r in out] == [("b", 2)]


def test_aborted_records_removed():
    records = [
        rec(0, "a", 1, producer_id=7, is_transactional=True),
        rec(1, "b", 2),
    ]
    out = compact(records, aborted=[AbortedTxn(7, 0, 0)], dirty_from=10)
    assert [(r.key, r.value) for r in out] == [("b", 2)]


def test_control_markers_dropped_when_clean():
    records = [
        rec(0, "a", 1),
        rec(1, None, None, producer_id=7, producer_epoch=0,
            is_transactional=True, is_control=True, control_type=COMMIT_MARKER),
    ]
    out = compact(records, dirty_from=10)
    assert [(r.key, r.value) for r in out] == [("a", 1)]


def test_compact_log_in_place():
    log = PartitionLog()
    for i in range(6):
        log.append_batch(RecordBatch([Record(key="k", value=i)]))
    log.high_watermark = log.log_end_offset
    removed = compact_log(log)
    assert removed == 5
    assert [r.value for r in log.records()] == [5]
    # Reading from an old position skips compacted-away offsets.
    assert [r.value for r in log.read(0)] == [5]


def test_compact_log_protects_open_transactions():
    log = PartitionLog()
    log.append_batch(RecordBatch([Record(key="k", value=1)]))
    log.append_batch(
        RecordBatch(
            [Record(key="k", value=2)],
            producer_id=3,
            producer_epoch=0,
            base_sequence=0,
            is_transactional=True,
        )
    )
    log.high_watermark = log.log_end_offset
    # The open txn caps the LSO at offset 1, so nothing before it may be
    # compacted against it and the open record itself stays.
    compact_log(log)
    assert [r.value for r in log.records()] == [1, 2]


def test_compaction_after_abort_then_commit():
    log = PartitionLog()
    log.append_batch(
        RecordBatch(
            [Record(key="k", value="aborted")],
            producer_id=3,
            producer_epoch=0,
            base_sequence=0,
            is_transactional=True,
        )
    )
    log.append_marker(ABORT_MARKER, 3, 0)
    log.append_batch(
        RecordBatch(
            [Record(key="k", value="committed")],
            producer_id=3,
            producer_epoch=0,
            base_sequence=1,
            is_transactional=True,
        )
    )
    log.append_marker(COMMIT_MARKER, 3, 0)
    log.high_watermark = log.log_end_offset
    compact_log(log)
    assert [r.value for r in log.records() if not r.is_control] == ["committed"]


def test_compact_log_leaves_the_dirty_part_of_a_batch_alone():
    """The dirty point can fall inside a stored batch (a high watermark that
    lags the leader's last append): the batch is cut, not dropped."""
    log = PartitionLog()
    log.append_batch(RecordBatch([Record(key="k", value=i) for i in range(4)]))
    log.high_watermark = 2
    assert compact_log(log) == 1
    assert [(r.offset, r.value) for r in log.records()] == [(1, 1), (2, 2), (3, 3)]
    assert log.log_end_offset == 4
