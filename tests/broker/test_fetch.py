"""The fetch path: isolation levels, LSO gating, aborted filtering."""

import pytest

from repro.broker.fetch import fetch
from repro.config import READ_COMMITTED, READ_UNCOMMITTED
from repro.log.partition_log import PartitionLog
from repro.log.record import (
    ABORT_MARKER,
    COMMIT_MARKER,
    Record,
    RecordBatch,
)


def plain(log, *values):
    log.append_batch(RecordBatch([Record(key="k", value=v) for v in values]))
    log.high_watermark = log.log_end_offset


def txn(log, pid, seq, *values):
    log.append_batch(
        RecordBatch(
            [Record(key="k", value=v) for v in values],
            producer_id=pid,
            producer_epoch=0,
            base_sequence=seq,
            is_transactional=True,
        )
    )
    log.high_watermark = log.log_end_offset


def end_txn(log, pid, marker):
    log.append_marker(marker, pid, 0)
    log.high_watermark = log.log_end_offset


def test_plain_records_visible_to_both_levels():
    log = PartitionLog()
    plain(log, 1, 2)
    for level in (READ_COMMITTED, READ_UNCOMMITTED):
        result = fetch(log, 0, isolation_level=level)
        assert [r.value for r in result.records] == [1, 2]
        assert result.next_offset == 2


def test_open_txn_hidden_from_read_committed_only():
    log = PartitionLog()
    txn(log, 1, 0, "open")
    rc = fetch(log, 0, isolation_level=READ_COMMITTED)
    assert rc.records == []
    assert rc.next_offset == 0   # position does not advance past the LSO
    ru = fetch(log, 0, isolation_level=READ_UNCOMMITTED)
    assert [r.value for r in ru.records] == ["open"]


def test_committed_txn_visible_atomically():
    log = PartitionLog()
    txn(log, 1, 0, "a", "b")
    end_txn(log, 1, COMMIT_MARKER)
    result = fetch(log, 0, isolation_level=READ_COMMITTED)
    assert [r.value for r in result.records] == ["a", "b"]
    # Position skips over the marker.
    assert result.next_offset == 3


def test_aborted_txn_filtered_but_position_advances():
    log = PartitionLog()
    txn(log, 1, 0, "aborted1", "aborted2")
    end_txn(log, 1, ABORT_MARKER)
    plain(log, "good")
    result = fetch(log, 0, isolation_level=READ_COMMITTED)
    assert [r.value for r in result.records] == ["good"]
    assert result.next_offset == 4


def test_read_uncommitted_sees_aborted_records():
    log = PartitionLog()
    txn(log, 1, 0, "aborted")
    end_txn(log, 1, ABORT_MARKER)
    result = fetch(log, 0, isolation_level=READ_UNCOMMITTED)
    assert [r.value for r in result.records] == ["aborted"]


def test_interleaved_transactions():
    """Two producers' transactions interleave; only committed data shows."""
    log = PartitionLog()
    txn(log, 1, 0, "p1-a")
    txn(log, 2, 0, "p2-a")
    end_txn(log, 2, ABORT_MARKER)     # p2 aborts
    # p1 still open: LSO caps at p1's first offset = 0.
    assert fetch(log, 0, isolation_level=READ_COMMITTED).records == []
    end_txn(log, 1, COMMIT_MARKER)
    result = fetch(log, 0, isolation_level=READ_COMMITTED)
    assert [r.value for r in result.records] == ["p1-a"]


def test_max_records_respected():
    log = PartitionLog()
    plain(log, *range(10))
    result = fetch(log, 0, max_records=4, isolation_level=READ_UNCOMMITTED)
    assert len(result.records) == 4
    assert result.next_offset == 4


def test_fetch_from_before_log_start_clamps():
    log = PartitionLog()
    plain(log, *range(6))
    log.delete_records_before(3)
    result = fetch(log, 0, isolation_level=READ_UNCOMMITTED)
    assert [r.value for r in result.records] == [3, 4, 5]


def test_unknown_isolation_level():
    log = PartitionLog()
    with pytest.raises(ValueError):
        fetch(log, 0, isolation_level="read_dirty")


def test_fetch_reports_watermarks():
    log = PartitionLog()
    txn(log, 1, 0, "x")
    result = fetch(log, 0, isolation_level=READ_COMMITTED)
    assert result.high_watermark == 1
    assert result.last_stable_offset == 0
