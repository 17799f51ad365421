"""Unit tests for records, batches, and control markers."""

import pytest

from repro.log.columnar import ColumnarSlab
from repro.log.partition_log import PartitionLog
from repro.log.record import (
    ABORT_MARKER,
    COMMIT_MARKER,
    NO_HEADERS,
    NO_SEQUENCE,
    Record,
    RecordBatch,
)


def test_record_defaults():
    r = Record(key="k", value="v")
    assert r.offset == -1
    assert r.sequence == NO_SEQUENCE
    assert not r.is_transactional
    assert not r.is_control


def test_batch_requires_records():
    with pytest.raises(ValueError):
        RecordBatch(records=[])


def test_batch_last_sequence_inferred():
    batch = RecordBatch(
        records=[Record(key=i, value=i) for i in range(5)],
        producer_id=9,
        producer_epoch=0,
        base_sequence=10,
    )
    assert batch.last_sequence == 14
    assert batch.record_count == 5


def test_batch_without_sequence_has_no_last_sequence():
    batch = RecordBatch(records=[Record(key=1, value=1)])
    assert batch.last_sequence == NO_SEQUENCE


def test_batch_is_the_slab_the_log_takes():
    headers = {"h": 1}
    batch = RecordBatch(
        [Record(key="a", value=1, timestamp=2.0, headers=headers), Record(key="b", value=None)],
        producer_id=4, producer_epoch=2, base_sequence=7, is_transactional=True,
    )
    assert isinstance(batch, ColumnarSlab)
    assert (batch.keys, batch.values, batch.timestamps) == (["a", "b"], [1, None], [2.0, -1.0])
    assert batch.headers[0] is headers and batch.headers[1] is NO_HEADERS
    assert (batch.producer_id, batch.producer_epoch, batch.base_sequence) == (4, 2, 7)
    assert batch.is_transactional


def test_batch_rejects_control_records():
    marker = Record(key=None, value=None, is_control=True, control_type=COMMIT_MARKER)
    with pytest.raises(ValueError):
        RecordBatch([marker])


def test_control_marker_fields():
    log = PartitionLog()
    offset = log.append_marker(COMMIT_MARKER, producer_id=3, producer_epoch=1, timestamp=9.0)
    (m,) = log.records()
    assert m.offset == offset == 0
    assert m.is_control and m.is_transactional
    assert m.control_type == COMMIT_MARKER
    assert (m.producer_id, m.producer_epoch, m.sequence) == (3, 1, NO_SEQUENCE)
    assert m.timestamp == 9.0
    assert m.key is None and m.value is None and m.headers is NO_HEADERS


def test_control_marker_rejects_unknown_type():
    log = PartitionLog()
    with pytest.raises(ValueError):
        log.append_marker("fsync", 1, 1)
    assert len(log) == 0 and log.log_end_offset == 0


def test_abort_marker():
    log = PartitionLog()
    log.append_marker(ABORT_MARKER, 1, 0)
    assert log.records()[0].control_type == ABORT_MARKER
