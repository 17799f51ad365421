"""Unit tests for records, batches, and control markers."""

import pytest

from repro.log.record import (
    ABORT_MARKER,
    COMMIT_MARKER,
    NO_SEQUENCE,
    Record,
    RecordBatch,
    control_marker,
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


def test_control_marker_fields():
    m = control_marker(COMMIT_MARKER, producer_id=3, producer_epoch=1, timestamp=9.0)
    assert m.is_control and m.is_transactional
    assert m.control_type == COMMIT_MARKER
    assert m.producer_id == 3
    assert m.timestamp == 9.0


def test_control_marker_rejects_unknown_type():
    with pytest.raises(ValueError):
        control_marker("fsync", 1, 1)


def test_abort_marker():
    m = control_marker(ABORT_MARKER, 1, 0)
    assert m.control_type == ABORT_MARKER
